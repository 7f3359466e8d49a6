#ifndef DGF_KV_LSM_KV_H_
#define DGF_KV_LSM_KV_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "fs/mini_dfs.h"
#include "kv/kv_store.h"
#include "kv/sstable.h"

namespace dgf::kv {

/// Persistent ordered KV store: memtable + write-ahead log + sorted runs.
///
/// This is the production-shaped stand-in for HBase: DGFIndex keeps its
/// GFUKey -> GFUValue pairs here. Writes go to a WAL and an in-memory
/// memtable; when the memtable exceeds `memtable_flush_bytes` it is flushed
/// to an immutable SSTable on the backing MiniDfs. When the number of runs
/// exceeds `max_runs` they are merge-compacted into one. A manifest file
/// records the live run set and is replaced atomically via rename.
///
/// Reads consult memtable first, then runs newest-to-oldest; range scans
/// merge all sources with newest-wins semantics. The WAL holds one
/// checksummed record per Put, Delete or ApplyBatch, so a batch replays whole
/// or not at all: replay drops only a record that the end of the file cuts
/// short, and any other damaged record fails Open with Corruption. Recovery
/// replays the WAL over the runs listed in the manifest, rolls a completed
/// MANIFEST.tmp forward when a crash landed between the old manifest's
/// deletion and the rename, and deletes orphan run files a crash left
/// unadopted (their records are still covered by the WAL).
///
/// Concurrency: GetSnapshot pins an immutable view (materialized memtable
/// copy + ref-counted run set + version). Runs are mapped fully into memory
/// by SstableReader, so a snapshot's shared_ptr keeps a run readable even
/// after compaction deletes its file. version() counts mutations (Put /
/// Delete / ApplyBatch) and is persisted in the manifest as a `#epoch N`
/// header line so epochs stay monotonic across restarts; flush and
/// compaction reorganize storage without changing the logical contents and
/// do not bump it.
///
/// The flush/compaction/manifest paths are instrumented with
/// DGF_CRASH_POINT markers; the crash-consistency sweep in src/testing/
/// kills-and-reopens the store at every such boundary and checks the
/// recovered state against a shadow oracle.
class LsmKv : public KvStore {
 public:
  struct Options {
    std::shared_ptr<fs::MiniDfs> dfs;
    /// DFS directory holding WAL, manifest, and runs, e.g. "/index/meter".
    std::string dir;
    uint64_t memtable_flush_bytes = 4ULL << 20;
    /// Compact when the run count exceeds this.
    int max_runs = 6;
  };

  /// Opens (and recovers, if state exists) a store under `options.dir`.
  static Result<std::unique_ptr<LsmKv>> Open(Options options);

  ~LsmKv() override;

  Status Put(std::string_view key, std::string_view value) override;
  Result<std::string> Get(std::string_view key) override;
  Status Delete(std::string_view key) override;
  std::vector<Result<std::string>> MultiGet(
      std::span<const std::string> keys) override;
  Status ApplyBatch(const WriteBatch& batch) override;
  std::shared_ptr<const KvSnapshot> GetSnapshot() override;
  uint64_t version() override;
  std::unique_ptr<Iterator> NewIterator() override;
  Result<uint64_t> Count() override;
  Result<uint64_t> ApproximateSizeBytes() override;

  /// Flushes the memtable to a run (no-op when empty). Exposed for tests and
  /// for sealing an index after a build.
  Status Flush();

  /// Merges all runs into one. Exposed for tests.
  Status Compact();

  int NumRuns() const;

 private:
  explicit LsmKv(Options options);

  // Sorted materialized copy of the memtable, shared between snapshots and
  // iterators taken while the memtable is unchanged.
  using MemVec = std::vector<std::pair<std::string, std::optional<std::string>>>;

  Status Recover();
  // Replays every whole WAL record into the memtable; true when the end of
  // the file cut the last record short (that record is dropped). Any other
  // damage is Corruption.
  Result<bool> ReplayWal(const std::string& path);
  // Applies every entry of `batch` to the memtable. Caller must hold mu_.
  void ApplyToMemtableLocked(const WriteBatch& batch);
  Status WriteManifest();  // callers hold mu_
  Status FlushLocked();    // callers hold mu_
  Status CompactLocked();  // callers hold mu_
  std::string RunPath(uint64_t id) const;
  // Returns the cached memtable copy, rebuilding it after a mutation
  // invalidated it. Caller must hold mu_.
  std::shared_ptr<const MemVec> MemSnapshotLocked();

  Options options_;
  mutable std::mutex mu_;
  // value == nullopt encodes a tombstone in the memtable.
  std::map<std::string, std::optional<std::string>> memtable_;
  uint64_t memtable_bytes_ = 0;
  std::unique_ptr<fs::DfsWriter> wal_;
  std::string wal_path_;
  uint64_t next_run_id_ = 1;
  // Newest run last.
  std::vector<std::shared_ptr<SstableReader>> runs_;
  // Mutation epoch; see the class comment. Guarded by mu_.
  uint64_t version_ = 0;
  // Cached memtable copy; null after any memtable change. Guarded by mu_.
  std::shared_ptr<const MemVec> mem_snapshot_;
};

}  // namespace dgf::kv

#endif  // DGF_KV_LSM_KV_H_
