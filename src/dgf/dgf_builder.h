#ifndef DGF_DGF_DGF_BUILDER_H_
#define DGF_DGF_DGF_BUILDER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "dgf/dgf_index.h"
#include "exec/mapreduce.h"
#include "table/table.h"

namespace dgf::core {

/// Builds and incrementally extends a DGFIndex.
///
/// `Build` is the paper's Algorithms 1+2 as a two-phase parallel pipeline:
/// shard tasks (one per input split) standardize every record to its GFUKey
/// and group the split's records per key with a thread-local partial header;
/// writer tasks then take contiguous ranges of the sorted key union, write
/// each key's records contiguously as a Slice into a reorganized data file
/// (merging partial headers in split order), and stage <GFUKey, GFUValue>
/// into the key-value store. Per-dimension min/max cells are stored as
/// metadata for partial-specified queries. The pipeline's output — slice
/// bytes, headers, and KV batch — is identical for every build_threads
/// value, including 1 (see Options::build_threads).
///
/// `Append` runs the same job over a batch of newly arrived data (the
/// verified temporary files of Section 4.2), writing fresh Slice files and
/// merging GFU entries — the index never needs a rebuild, so load throughput
/// is unaffected by its existence.
///
/// Both paths stage every KV change (GFU entries, dimension bounds, meta
/// keys) in one WriteBatch and publish it with a single KvStore::ApplyBatch,
/// so a query running concurrently with Append sees the whole batch or none
/// of it — never a partially ingested batch. Append serializes on the
/// index's mutation lock.
class DgfBuilder {
 public:
  struct Options {
    /// The grid (per-dimension min/interval). Column names must exist in the
    /// base table schema.
    std::vector<DimensionPolicy> dims;
    /// Pre-computed aggregations, e.g. {"sum(powerConsumed)"}; may be empty.
    std::vector<std::string> precompute;
    /// DFS directory receiving the reorganized Slice files.
    std::string data_dir;
    /// Storage format of the Slice files. TextFile matches the paper's
    /// implementation; kRcFile demonstrates the "easy to extend DGFIndex to
    /// support other file formats" claim: each Slice is a run of whole
    /// RCFile row groups (the reducer forces a group boundary per GFU).
    table::FileFormat data_format = table::FileFormat::kText;
    /// MiniMR settings; num_reducers defaults to 8 when left at 0 and sets
    /// the number of slice files (writer partitions) per batch.
    exec::JobRunner::Options job;
    /// Split size for reading the base table (0 = DFS block size).
    uint64_t split_size = 0;
    /// At most this many threads, the caller included, run each phase of
    /// the build pipeline (shard, merge and slice-writer tasks on the
    /// process pool). 0 = job.worker_threads. The output is result- and
    /// byte-equivalent for every value: sharding is per input split, writer
    /// partitions are cut from the sorted key union by record count, and all
    /// merges run in split order — none of which depends on scheduling.
    int build_threads = 0;
  };

  /// Reorganizes `base` into `options.data_dir` and fills `store` with the
  /// GFU pairs and metadata. `store` must not already contain an index.
  /// On success returns the open index; job statistics (construction time,
  /// bytes shuffled) are reported through `*job_result` when non-null.
  static Result<std::unique_ptr<DgfIndex>> Build(
      std::shared_ptr<fs::MiniDfs> dfs, std::shared_ptr<kv::KvStore> store,
      const table::TableDesc& base, const Options& options,
      exec::JobResult* job_result = nullptr);

  /// Ingests a new batch (same schema as the index's table) into `index`:
  /// new Slice files are appended and GFU entries merged. Typically the batch
  /// carries fresh values of the default time dimension, extending the grid.
  static Result<exec::JobResult> Append(DgfIndex* index,
                                        const table::TableDesc& batch,
                                        exec::JobRunner::Options job = {},
                                        uint64_t split_size = 0,
                                        int build_threads = 0);

  /// Like Append, but stages every KV change into `out_batch` instead of
  /// publishing: slice files land on the DFS (unreferenced until publish)
  /// and the caller applies the batch itself. The group-commit append
  /// pipeline uses this to fold several logical batches into one publish.
  /// Caller must hold the index's mutation lock.
  static Result<exec::JobResult> AppendStaged(DgfIndex* index,
                                              const table::TableDesc& batch,
                                              int batch_id,
                                              exec::JobRunner::Options job,
                                              uint64_t split_size,
                                              int build_threads,
                                              kv::WriteBatch* out_batch);

 private:
  /// Shared by Build and Append: run the reorganization pipeline for
  /// `batch_id`. Slice files are written to the DFS immediately (they are
  /// unreferenced until the batch publishes), while every KV change is staged
  /// into `out_batch`; the store is only read (for GFU merges with committed
  /// entries).
  static Result<exec::JobResult> RunReorganization(
      const std::shared_ptr<fs::MiniDfs>& dfs,
      const std::shared_ptr<kv::KvStore>& store, const table::TableDesc& input,
      const table::Schema& schema, const SplittingPolicy& policy,
      const AggregatorList& aggs, const std::string& data_dir,
      table::FileFormat data_format, int batch_id, exec::JobRunner::Options job,
      uint64_t split_size, int build_threads, kv::WriteBatch* out_batch);

  /// Recomputes per-dimension min/max cell metadata from the stored keys
  /// plus the staged-but-unpublished GFU entries of `out_batch`, appending
  /// the refreshed bounds to `out_batch`.
  static Status RefreshDimensionBounds(const std::shared_ptr<kv::KvStore>& store,
                                       int num_dims, kv::WriteBatch* out_batch);
};

}  // namespace dgf::core

#endif  // DGF_DGF_DGF_BUILDER_H_
