#ifndef DGF_FS_MINI_DFS_H_
#define DGF_FS_MINI_DFS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "fs/split.h"

namespace dgf::fs {

/// Metadata for one DFS file.
struct FileStatus {
  std::string path;
  uint64_t length = 0;
  uint64_t block_size = 0;
};

/// Append-only writer handle for a DFS file (HDFS files are write-once /
/// append-only; this class enforces that discipline).
class DfsWriter {
 public:
  virtual ~DfsWriter() = default;

  /// Appends `data` at the end of the file.
  virtual Status Append(std::string_view data) = 0;

  /// Current length of the file (== offset where the next Append lands).
  virtual uint64_t Offset() const = 0;

  /// Flushes and seals the file. Must be called before readers see the data
  /// length reflected in metadata.
  virtual Status Close() = 0;
};

/// Positional reader handle for a DFS file.
class DfsReader {
 public:
  virtual ~DfsReader() = default;

  /// Reads up to `length` bytes at `offset` into `*out` (replacing its
  /// contents). Short reads happen only at end of file.
  virtual Status Pread(uint64_t offset, uint64_t length, std::string* out) = 0;

  virtual uint64_t Length() const = 0;
};

/// One injected fault decision for a single low-level read.
struct ReadFault {
  enum class Kind {
    kNone,
    /// The read attempt fails; the reader retries it a bounded number of
    /// times (the DFS client's behaviour on a flaky DataNode) before
    /// failing over to the next replica — or, with no replica left,
    /// surfacing a structured IOError.
    kTransientError,
    /// The read attempt returns fewer bytes than asked (capped at
    /// `max_bytes`); the reader's loop must absorb it without truncating
    /// data. Never produces wrong data by construction — only exposes
    /// callers that mishandle partial reads.
    kShortRead,
  };
  Kind kind = Kind::kNone;
  uint64_t max_bytes = 0;
};

/// Fault source consulted once per low-level read attempt. Implementations
/// live in src/testing/ (seeded, replayable schedules); production runs have
/// none installed and pay only a null check.
///
/// Injectors are scoped *per replica store*: `SetReadFaultInjector(store, i)`
/// arms one store only, so a fault schedule can poison replica 0 without
/// also firing on the failover read from replica 1. The store-less overload
/// arms every store (the pre-replication behaviour, kept for the existing
/// fault sweeps and gate-based tests).
class ReadFaultInjector {
 public:
  virtual ~ReadFaultInjector() = default;

  /// Decides the fate of one read attempt of `length` bytes at `offset` of
  /// `path`.
  virtual ReadFault NextFault(const std::string& path, uint64_t offset,
                              uint64_t length) = 0;
};

/// A single-process stand-in for HDFS.
///
/// Files are stored in a local directory; MiniDfs layers on top of it the
/// HDFS concepts the paper's techniques depend on:
///   * fixed block size and `GetSplits()` enumeration (inputs of map tasks),
///   * append-only write semantics,
///   * NameNode-style metadata accounting (`MetadataMemoryBytes()`), used to
///     reproduce the paper's argument about multidimensional partitioning
///     overloading the NameNode (Section 2.2),
///   * byte counters for the write/read-throughput experiments (Figure 3),
///   * k-way replication (`Options::replication`): every file fans out to k
///     replica stores (`root_dir/r0` … `root_dir/r{k-1}`, each standing in
///     for one DataNode's disk) on the write path, and reads fail over to
///     the next replica on read error, short read, or checksum mismatch.
///     Stores can be killed/revived (`KillStore`/`ReviveStore`) to model
///     DataNode death, and `ReReplicate()` repairs under-replicated files
///     from a surviving copy. k = 1 (the default) is the same path with one
///     store and nothing to fail over to,
///   * per-chunk CRC32 checksums at every replication factor, like HDFS:
///     one CRC per `kChecksumChunkBytes` bytes, sealed at writer Close and
///     verified on every read, so a flipped byte on disk surfaces as
///     `Corruption` instead of wrong data. The sums live in memory only and
///     are recomputed from the first complete copy when the DFS is reopened:
///     they guard a running process, not data at rest across restarts.
///
/// Thread-safe: concurrent readers/writers of distinct files are
/// unsynchronized fast paths (data bytes move through per-handle file
/// descriptors, never under a lock); metadata operations take the lock of
/// the *stripe* owning the path — the namespace is hash-partitioned across
/// kNumStripes independent maps, so N writer threads creating, sealing, and
/// appending distinct files serialize only when their paths collide on a
/// stripe, not on one global mutex. Reads consult the fault injector through
/// a lock-free presence flag, so the production read path takes no lock at
/// all.
class MiniDfs {
 public:
  /// Checksum granularity: one CRC32 per 512 bytes (the last chunk of a file
  /// may be partial), HDFS's default `dfs.bytes-per-checksum`. Small chunks
  /// keep what a small read verifies beyond the bytes it asked for under
  /// 1 KiB.
  static constexpr uint64_t kChecksumChunkBytes = 512;

  struct Options {
    /// Directory on the local filesystem that backs the DFS namespace.
    std::string root_dir;
    /// HDFS block size; also the default split size. Paper uses 64 MB; tests
    /// and benches shrink it so multi-split behaviour shows at laptop scale.
    uint64_t block_size = 64ULL << 20;
    /// Number of replica stores each file fans out to: one full copy in each
    /// of `root_dir/r0 .. r{k-1}`.
    int replication = 1;
  };

  /// Creates (or reopens) a DFS rooted at `options.root_dir`.
  static Result<std::shared_ptr<MiniDfs>> Open(const Options& options);

  ~MiniDfs();

  MiniDfs(const MiniDfs&) = delete;
  MiniDfs& operator=(const MiniDfs&) = delete;

  /// Creates a new file; fails with AlreadyExists if present.
  Result<std::unique_ptr<DfsWriter>> Create(const std::string& path);

  /// Reopens an existing file for appending at its current end.
  Result<std::unique_ptr<DfsWriter>> Append(const std::string& path);

  /// Opens a file for positional reads. The reader is bounded by the file's
  /// published length at open time: bytes appended (and sealed) afterwards
  /// are never returned by this reader, so a handle opened while a query's
  /// snapshot is pinned behaves as an immutable view of the file.
  Result<std::unique_ptr<DfsReader>> OpenForRead(const std::string& path);

  /// Opens a file for positional reads bounded by `length_limit` (clamped to
  /// the published length if smaller). Snapshot readers use this to pin the
  /// exact byte range their index epoch references, even if the namespace
  /// already reflects a newer append.
  Result<std::unique_ptr<DfsReader>> OpenForRead(const std::string& path,
                                                 uint64_t length_limit);

  Result<FileStatus> Stat(const std::string& path) const;
  bool Exists(const std::string& path) const;
  Status Delete(const std::string& path);
  Status Rename(const std::string& from, const std::string& to);

  /// Lists files whose path starts with `prefix`, sorted by path.
  std::vector<FileStatus> ListFiles(const std::string& prefix) const;

  /// Enumerates the splits of `path`: consecutive ranges of `split_size`
  /// bytes (0 = use the block size). The analogue of
  /// FileInputFormat.getSplits for one file.
  Result<std::vector<FileSplit>> GetSplits(const std::string& path,
                                           uint64_t split_size = 0) const;

  /// Splits for every file under `prefix` (a "table directory").
  Result<std::vector<FileSplit>> GetSplitsForPrefix(
      const std::string& prefix, uint64_t split_size = 0) const;

  uint64_t block_size() const { return options_.block_size; }

  /// Estimated NameNode heap usage: 150 bytes per directory, file, and block,
  /// matching the rule of thumb the paper cites for HDFS metadata. Counts
  /// logical objects (the NameNode tracks one block object regardless of its
  /// replica count), so the estimate is replication-invariant.
  uint64_t MetadataMemoryBytes() const;
  uint64_t NumFiles() const;
  uint64_t NumDirectories() const;

  /// Total bytes appended / read since construction (Figure 3 throughput).
  /// `TotalBytesWritten` counts logical bytes (one Append counted once);
  /// `TotalReplicaBytesWritten` counts physical bytes across all replica
  /// fan-out writes (== logical × live replicas), the number that shows the
  /// write amplification of replication in the benches.
  uint64_t TotalBytesWritten() const { return bytes_written_.load(); }
  uint64_t TotalReplicaBytesWritten() const {
    return replica_bytes_written_.load();
  }
  uint64_t TotalBytesRead() const { return bytes_read_.load(); }
  /// Number of Pread calls served (slice-coalescing experiments: merged read
  /// ranges show up here as fewer, larger reads for the same bytes).
  uint64_t TotalPreadCalls() const { return pread_calls_.load(); }
  /// Times a read abandoned one replica and moved to the next (read error
  /// past the retry budget, short replica file, or checksum mismatch).
  uint64_t TotalReadFailovers() const { return read_failovers_.load(); }
  /// Chunk-checksum mismatches detected on the read path.
  uint64_t TotalChecksumFailures() const { return checksum_failures_.load(); }
  void ResetCounters();

  // ---- Replication control surface.

  int replication() const { return options_.replication; }
  int num_stores() const { return options_.replication; }

  /// The preference order in which readers of `path` try replica stores:
  /// only stores holding a complete copy, rotated so the primary is
  /// `hash(path) % k` (spreading read load across stores the way HDFS
  /// spreads block primaries across DataNodes).
  std::vector<int> ReplicaOrder(const std::string& path) const;

  /// Local-filesystem path of `path`'s copy inside `store` (whether or not
  /// the copy currently exists). Tests use this to corrupt exactly one
  /// replica on disk.
  std::string StoreLocalPath(int store, const std::string& path) const;

  /// Marks `store` down: subsequent writes skip it (marking affected files
  /// under-replicated) and reads fail over past it. With `wipe_data` the
  /// store's directory is deleted too, modelling a lost disk rather than a
  /// dead process.
  Status KillStore(int store, bool wipe_data = false);
  /// Marks `store` up again. Its copies stay stale/missing until
  /// `ReReplicate()` repairs them (reads keep failing over meanwhile, based
  /// on the per-file replica-valid flags).
  Status ReviveStore(int store);
  bool StoreUp(int store) const;

  /// Repairs every under-replicated file whose missing store is up again by
  /// copying from a valid replica. Returns the number of file-replicas
  /// repaired. Not intended to run concurrently with writers of the files
  /// being repaired (a concurrently-appended file is skipped, not broken).
  Result<uint64_t> ReReplicate();

  /// Checks that every live, valid replica of `path` matches the sealed
  /// length and chunk checksums. Corruption/IOError on mismatch.
  Status VerifyReplicas(const std::string& path) const;

  /// Installs (or, with nullptr, removes) a read-fault injector on every
  /// replica store. Applies to readers opened after the call as well as
  /// already-open ones.
  void SetReadFaultInjector(std::shared_ptr<ReadFaultInjector> injector);
  /// Installs (or removes) a read-fault injector on one replica store only,
  /// leaving its siblings clean — the deterministic-failover testing hook.
  void SetReadFaultInjector(int store,
                            std::shared_ptr<ReadFaultInjector> injector);

 private:
  /// Lock stripes over the namespace. 16 is comfortably above the writer
  /// parallelism any build pipeline configures while keeping the footprint
  /// of full-namespace operations (ListFiles, NumFiles) trivial.
  static constexpr size_t kNumStripes = 16;

  /// Immutable per-file checksum snapshot, sealed at writer Close and shared
  /// with readers (readers verify against the snapshot taken at open, so a
  /// concurrent re-seal cannot rip the vector out from under them). One
  /// CRC32 per chunk; the last chunk covers `covered_length %
  /// kChecksumChunkBytes` bytes when that is non-zero.
  struct FileChecksums {
    uint64_t covered_length = 0;
    std::vector<uint32_t> chunks;
  };

  /// Authoritative metadata for one file.
  struct FileMeta {
    uint64_t length = 0;
    /// Never null; covers exactly `length` bytes.
    std::shared_ptr<const FileChecksums> sums;
    /// replica_ok[store]: that store holds a complete, current copy.
    /// Sized `replication`.
    std::vector<uint8_t> replica_ok;
    /// Writers currently appending. An unsealed file is never re-replicated
    /// (HDFS likewise only replicates finalized blocks): repairing a copy
    /// the write pipeline no longer extends would leave a stale replica
    /// marked valid.
    int open_writers = 0;
  };

  /// One hash partition of the namespace: path -> metadata. The maps are
  /// the authoritative metadata; the local directories are the backing
  /// store. Each map stays sorted so prefix listings remain range scans.
  struct Stripe {
    mutable std::mutex mu;
    std::map<std::string, FileMeta> files;
  };

  explicit MiniDfs(Options options);

  Status Init();
  std::string StoreRoot(int store) const;
  static Status ValidatePath(const std::string& path);
  void TrackDirectories(const std::string& path);
  Stripe& StripeFor(const std::string& path) const;
  /// Copies `store`'s injector (nullptr when none installed). Lock-free when
  /// no injector has ever been installed — the production fast path.
  std::shared_ptr<ReadFaultInjector> CurrentInjector(int store) const;
  std::vector<uint8_t> FreshReplicaOk() const;
  /// Stores holding a complete copy per `replica_ok` (every store when it
  /// is empty), rotated so the first is `hash(path) % k`.
  std::vector<int> OrderedStores(const std::string& path,
                                 const std::vector<uint8_t>& replica_ok) const;

  friend class LocalDfsWriter;
  friend class LocalDfsReader;

  Options options_;
  mutable std::array<Stripe, kNumStripes> stripes_;
  mutable std::mutex dir_mu_;
  std::set<std::string> directories_;  // guarded by dir_mu_
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> replica_bytes_written_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> pread_calls_{0};
  std::atomic<uint64_t> read_failovers_{0};
  std::atomic<uint64_t> checksum_failures_{0};
  /// store_up_[store]: the store accepts writes and serves reads.
  std::unique_ptr<std::atomic<bool>[]> store_up_;
  /// store_gen_[store]: bumped on every KillStore. An open write pipeline
  /// records each target's generation and permanently drops a target whose
  /// generation moved — a revived store's copy is stale until ReReplicate()
  /// and must not silently rejoin the fan-out (the old descriptor may even
  /// point at a wiped, unlinked inode).
  std::unique_ptr<std::atomic<uint64_t>[]> store_gen_;
  /// Guarded by injector_mu_; the atomic flag lets readers skip the lock
  /// entirely while no injector is installed on any store.
  mutable std::mutex injector_mu_;
  std::atomic<bool> has_injector_{false};
  std::vector<std::shared_ptr<ReadFaultInjector>> fault_injectors_;
};

}  // namespace dgf::fs

#endif  // DGF_FS_MINI_DFS_H_
