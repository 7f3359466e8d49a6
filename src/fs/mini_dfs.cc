#include "fs/mini_dfs.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "common/encoding.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace dgf::fs {
namespace {

// NameNode heap estimate per metadata object (directory, file, block); the
// figure the paper cites from the Cloudera small-files article.
constexpr uint64_t kMetadataObjectBytes = 150;

// Upper bound on Options::replication (replica stores per file).
constexpr int kMaxReplication = 16;

std::string ErrnoMessage(const std::string& context) {
  return context + ": " + std::strerror(errno);
}

// Fully writes `data` to `fd` (append position).
bool WriteFully(int fd, std::string_view data) {
  size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

// Reads exactly `length` bytes at `offset` of the local file `local` into
// `*out`. Used by the recovery and repair paths, which trust the local disk
// and bypass fault injection.
Status ReadLocalExactly(const std::string& local, uint64_t offset,
                        uint64_t length, std::string* out) {
  out->resize(length);
  const int fd = ::open(local.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError(ErrnoMessage("open " + local));
  size_t done = 0;
  while (done < length) {
    const ssize_t n = ::pread(fd, out->data() + done, length - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::IOError(ErrnoMessage("pread " + local));
    }
    if (n == 0) {
      ::close(fd);
      return Status::IOError("short local file: " + local);
    }
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  return Status::OK();
}

// Extends running chunk checksums by `data`, which lands at file offset
// `offset`: `chunks` holds one CRC per chunk, the last one still growing
// while the file ends mid-chunk. Crc32 chains, so the partial tail's CRC is
// extended in place.
void ExtendChunkSums(uint64_t offset, std::string_view data,
                     std::vector<uint32_t>* chunks) {
  constexpr uint64_t kChunk = MiniDfs::kChecksumChunkBytes;
  while (!data.empty()) {
    const uint64_t used = offset % kChunk;
    if (used == 0) chunks->push_back(0);
    const size_t take =
        static_cast<size_t>(std::min<uint64_t>(kChunk - used, data.size()));
    chunks->back() = Crc32(chunks->back(), data.substr(0, take));
    offset += take;
    data.remove_prefix(take);
  }
}

// Chunk checksums of the first `length` bytes of the local file `local`.
Result<std::vector<uint32_t>> LocalChunkSums(const std::string& local,
                                             uint64_t length) {
  std::string contents;
  DGF_RETURN_IF_ERROR(ReadLocalExactly(local, 0, length, &contents));
  std::vector<uint32_t> chunks;
  ExtendChunkSums(0, contents, &chunks);
  return chunks;
}

}  // namespace

/// Writer fanning every append out to all live replica stores and keeping
/// the file's running chunk checksums. A store that dies mid-write is
/// dropped from the fan-out and its copy marked invalid at Close; the write
/// itself only fails when *no* replica target survives.
class LocalDfsWriter : public DfsWriter {
 public:
  struct Target {
    int store;
    int fd;
    /// The store's kill generation when this pipeline opened; a moved
    /// generation means the store died (and possibly lost its disk) since,
    /// so the descriptor may point at a stale or unlinked inode.
    uint64_t gen;
  };

  /// `chunks` are the sealed checksums of the `offset` bytes already in the
  /// file (empty for a new file).
  LocalDfsWriter(MiniDfs* dfs, std::string path, std::vector<Target> targets,
                 uint64_t offset, std::vector<uint32_t> chunks)
      : dfs_(dfs),
        path_(std::move(path)),
        targets_(std::move(targets)),
        offset_(offset),
        chunks_(std::move(chunks)) {}

  ~LocalDfsWriter() override {
    if (!closed_) Close();
  }

  Status Append(std::string_view data) override {
    if (closed_) return Status::IOError("writer closed: " + path_);
    DropDeadStores();
    if (targets_.empty()) {
      return Status::IOError("no live replica store for write: " + path_);
    }
    for (auto it = targets_.begin(); it != targets_.end();) {
      if (!WriteFully(it->fd, data)) {
        ::close(it->fd);
        it = targets_.erase(it);
        continue;
      }
      dfs_->replica_bytes_written_.fetch_add(data.size(),
                                             std::memory_order_relaxed);
      ++it;
    }
    if (targets_.empty()) {
      return Status::IOError(ErrnoMessage("write " + path_));
    }
    ExtendChunkSums(offset_, data, &chunks_);
    offset_ += data.size();
    dfs_->bytes_written_.fetch_add(data.size(), std::memory_order_relaxed);
    return Status::OK();
  }

  uint64_t Offset() const override { return offset_; }

  Status Close() override {
    if (closed_) return Status::OK();
    closed_ = true;
    DropDeadStores();
    Status close_error = Status::OK();
    std::vector<int> sealed_stores;
    for (const Target& target : targets_) {
      if (::close(target.fd) != 0) {
        if (close_error.ok()) {
          close_error = Status::IOError(ErrnoMessage("close " + path_));
        }
        continue;
      }
      sealed_stores.push_back(target.store);
    }
    targets_.clear();
    auto sums = std::make_shared<MiniDfs::FileChecksums>();
    sums->covered_length = offset_;
    sums->chunks = std::move(chunks_);
    {
      MiniDfs::Stripe& stripe = dfs_->StripeFor(path_);
      std::lock_guard<std::mutex> lock(stripe.mu);
      MiniDfs::FileMeta& meta = stripe.files[path_];
      meta.length = offset_;
      meta.sums = std::move(sums);
      meta.replica_ok.assign(dfs_->options_.replication, 0);
      for (int store : sealed_stores) meta.replica_ok[store] = 1;
      meta.open_writers = std::max(0, meta.open_writers - 1);
    }
    return close_error;
  }

 private:
  void DropDeadStores() {
    for (auto it = targets_.begin(); it != targets_.end();) {
      if (!dfs_->StoreUp(it->store) ||
          dfs_->store_gen_[it->store].load(std::memory_order_acquire) !=
              it->gen) {
        ::close(it->fd);
        it = targets_.erase(it);
      } else {
        ++it;
      }
    }
  }

  MiniDfs* dfs_;
  std::string path_;
  std::vector<Target> targets_;
  uint64_t offset_;
  bool closed_ = false;
  std::vector<uint32_t> chunks_;
};

/// Reader with replica failover. `candidates` is the replica preference
/// order snapshot from open time; a replica is abandoned (and the next one
/// tried) on a read error past the transient-retry budget, a replica file
/// shorter than the sealed span, or a chunk-checksum mismatch. When every
/// candidate fails (at replication 1, the only one), the last failure is
/// returned.
class LocalDfsReader : public DfsReader {
 public:
  LocalDfsReader(MiniDfs* dfs, std::string path, uint64_t length,
                 std::shared_ptr<const MiniDfs::FileChecksums> sums,
                 std::vector<int> candidates, size_t open_index, int open_fd)
      : dfs_(dfs),
        path_(std::move(path)),
        length_(length),
        sums_(std::move(sums)),
        candidates_(std::move(candidates)),
        preferred_(open_index),
        fds_(candidates_.size(), -1) {
    if (open_index < fds_.size()) fds_[open_index] = open_fd;
  }

  ~LocalDfsReader() override {
    for (int fd : fds_) {
      if (fd >= 0) ::close(fd);
    }
  }

  Status Pread(uint64_t offset, uint64_t length, std::string* out) override {
    out->clear();
    if (offset >= length_) return Status::OK();
    length = std::min(length, length_ - offset);

    // Read the chunk-aligned span covering the request from one replica
    // straight into `*out`, verify every covered chunk, then trim to the
    // requested range. covered_length always reaches length_ (both are
    // published together at seal), so the whole request is verifiable.
    constexpr uint64_t kChunk = MiniDfs::kChecksumChunkBytes;
    const uint64_t lo = (offset / kChunk) * kChunk;
    const uint64_t hi =
        std::min(((offset + length + kChunk - 1) / kChunk) * kChunk,
                 sums_->covered_length);
    Status last = Status::IOError("no valid replica: " + path_);
    const size_t start = preferred_.load(std::memory_order_relaxed);
    for (size_t i = 0; i < candidates_.size(); ++i) {
      const size_t index = (start + i) % candidates_.size();
      Status attempt = TryReadReplica(index, lo, hi - lo, out);
      if (attempt.ok()) {
        preferred_.store(index, std::memory_order_relaxed);
        out->erase(0, static_cast<size_t>(offset - lo));
        out->resize(static_cast<size_t>(length));
        dfs_->bytes_read_.fetch_add(length, std::memory_order_relaxed);
        dfs_->pread_calls_.fetch_add(1, std::memory_order_relaxed);
        return Status::OK();
      }
      out->clear();
      last = attempt;
      if (i + 1 < candidates_.size()) {
        dfs_->read_failovers_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return last;
  }

  uint64_t Length() const override { return length_; }

 private:
  static constexpr int kMaxTransientRetries = 2;

  // Reads [lo, lo+span) of the file from candidate `index` into `*buf` and
  // verifies the chunk checksums. Transient faults are retried against the
  // same copy and short reads absorbed; any other failure condemns this
  // replica for the attempt.
  Status TryReadReplica(size_t index, uint64_t lo, uint64_t span,
                        std::string* buf) {
    const int store = candidates_[index];
    if (!dfs_->StoreUp(store)) {
      return Status::IOError("replica store down: " + path_);
    }
    int fd = -1;
    {
      std::lock_guard<std::mutex> lock(fd_mu_);
      fd = fds_[index];
      if (fd < 0) {
        const std::string local = dfs_->StoreLocalPath(store, path_);
        fd = ::open(local.c_str(), O_RDONLY);
        if (fd < 0) return Status::IOError(ErrnoMessage("open " + local));
        fds_[index] = fd;
      }
    }
    buf->resize(span);
    const std::shared_ptr<ReadFaultInjector> injector =
        dfs_->CurrentInjector(store);
    int transient_failures = 0;
    size_t done = 0;
    while (done < span) {
      size_t attempt = span - done;
      if (injector != nullptr) {
        const ReadFault fault = injector->NextFault(path_, lo + done, attempt);
        switch (fault.kind) {
          case ReadFault::Kind::kNone:
            break;
          case ReadFault::Kind::kTransientError:
            if (++transient_failures > kMaxTransientRetries) {
              return Status::IOError("injected transient read error: " +
                                     path_);
            }
            continue;
          case ReadFault::Kind::kShortRead:
            attempt = std::min<size_t>(attempt,
                                       std::max<uint64_t>(1, fault.max_bytes));
            break;
        }
      }
      const ssize_t n = ::pread(fd, buf->data() + done, attempt,
                                static_cast<off_t>(lo + done));
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(ErrnoMessage("pread " + path_));
      }
      if (n == 0) {
        // The replica's copy is shorter than the sealed span: stale or
        // truncated — never silently return less than the sealed bytes.
        return Status::IOError("replica shorter than sealed length: " + path_);
      }
      done += static_cast<size_t>(n);
    }
    constexpr uint64_t kChunk = MiniDfs::kChecksumChunkBytes;
    for (uint64_t pos = lo; pos < lo + span; pos += kChunk) {
      const uint64_t extent = std::min(kChunk, sums_->covered_length - pos);
      const uint32_t crc = Crc32(
          0, std::string_view(buf->data() + (pos - lo),
                              static_cast<size_t>(extent)));
      if (crc != sums_->chunks[static_cast<size_t>(pos / kChunk)]) {
        dfs_->checksum_failures_.fetch_add(1, std::memory_order_relaxed);
        return Status::Corruption("replica checksum mismatch: " + path_);
      }
    }
    return Status::OK();
  }

  MiniDfs* dfs_;
  std::string path_;
  uint64_t length_;
  std::shared_ptr<const MiniDfs::FileChecksums> sums_;
  std::vector<int> candidates_;
  /// Index into candidates_ of the replica that served the last successful
  /// read; failover moves it so a dead primary is not re-probed per call.
  std::atomic<size_t> preferred_;
  std::mutex fd_mu_;
  std::vector<int> fds_;  // guarded by fd_mu_; -1 until opened
};

MiniDfs::MiniDfs(Options options) : options_(std::move(options)) {
  const int k = options_.replication;
  store_up_ = std::make_unique<std::atomic<bool>[]>(k);
  store_gen_ = std::make_unique<std::atomic<uint64_t>[]>(k);
  for (int i = 0; i < k; ++i) {
    store_up_[i].store(true);
    store_gen_[i].store(0);
  }
  fault_injectors_.resize(k);
}

MiniDfs::~MiniDfs() = default;

Result<std::shared_ptr<MiniDfs>> MiniDfs::Open(const Options& options) {
  if (options.root_dir.empty()) {
    return Status::InvalidArgument("MiniDfs root_dir is empty");
  }
  if (options.block_size == 0) {
    return Status::InvalidArgument("MiniDfs block_size must be > 0");
  }
  if (options.replication < 1 || options.replication > kMaxReplication) {
    return Status::InvalidArgument("MiniDfs replication must be in [1, " +
                                   std::to_string(kMaxReplication) + "]");
  }
  std::shared_ptr<MiniDfs> dfs(new MiniDfs(options));
  DGF_RETURN_IF_ERROR(dfs->Init());
  return dfs;
}

MiniDfs::Stripe& MiniDfs::StripeFor(const std::string& path) const {
  return stripes_[std::hash<std::string>{}(path) % kNumStripes];
}

std::shared_ptr<ReadFaultInjector> MiniDfs::CurrentInjector(int store) const {
  if (!has_injector_.load(std::memory_order_acquire)) return nullptr;
  std::lock_guard<std::mutex> lock(injector_mu_);
  if (store < 0 || store >= static_cast<int>(fault_injectors_.size())) {
    return nullptr;
  }
  return fault_injectors_[store];
}

std::vector<uint8_t> MiniDfs::FreshReplicaOk() const {
  return std::vector<uint8_t>(options_.replication, 0);
}

Status MiniDfs::Init() {
  const int k = options_.replication;
  std::error_code ec;
  for (int store = 0; store < k; ++store) {
    std::filesystem::create_directories(StoreRoot(store), ec);
    if (ec) return Status::IOError("create_directories: " + ec.message());
  }
  // Recover the namespace from any files already present under the stores.
  // A path's canonical length is the longest surviving copy (the replica
  // that saw the most acknowledged appends); shorter/missing copies are
  // marked invalid and left for ReReplicate().
  std::map<std::string, std::vector<int64_t>> found;  // path -> len per store
  for (int store = 0; store < k; ++store) {
    const std::string root = StoreRoot(store);
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(root, ec)) {
      if (ec) break;
      if (!entry.is_regular_file()) continue;
      std::string rel =
          std::filesystem::relative(entry.path(), root, ec).string();
      if (ec) return Status::IOError("relative: " + ec.message());
      const std::string dfs_path = "/" + rel;
      auto [it, inserted] =
          found.try_emplace(dfs_path, std::vector<int64_t>(k, -1));
      it->second[store] = static_cast<int64_t>(entry.file_size());
    }
  }
  for (const auto& [dfs_path, lengths] : found) {
    FileMeta meta;
    meta.replica_ok = FreshReplicaOk();
    int64_t canonical = 0;
    for (int store = 0; store < k; ++store) {
      canonical = std::max(canonical, lengths[store]);
    }
    meta.length = static_cast<uint64_t>(canonical);
    int source = -1;
    for (int store = 0; store < k; ++store) {
      if (lengths[store] == canonical) {
        meta.replica_ok[store] = 1;
        if (source < 0) source = store;
      }
    }
    // The sums are rebuilt from the first complete copy: they catch
    // corruption from here on, not damage done while the DFS was closed.
    auto sums = std::make_shared<FileChecksums>();
    sums->covered_length = meta.length;
    DGF_ASSIGN_OR_RETURN(
        sums->chunks,
        LocalChunkSums(StoreLocalPath(source, dfs_path), meta.length));
    meta.sums = std::move(sums);
    StripeFor(dfs_path).files[dfs_path] = std::move(meta);
    TrackDirectories(dfs_path);
  }
  return Status::OK();
}

std::string MiniDfs::StoreRoot(int store) const {
  return options_.root_dir + "/r" + std::to_string(store);
}

std::string MiniDfs::StoreLocalPath(int store,
                                    const std::string& path) const {
  // DFS paths are absolute ("/a/b"); strip the leading slash.
  return StoreRoot(store) + "/" + path.substr(1);
}

std::vector<int> MiniDfs::ReplicaOrder(const std::string& path) const {
  std::vector<uint8_t> ok;
  {
    Stripe& stripe = StripeFor(path);
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto it = stripe.files.find(path);
    if (it != stripe.files.end()) ok = it->second.replica_ok;
  }
  return OrderedStores(path, ok);
}

std::vector<int> MiniDfs::OrderedStores(
    const std::string& path, const std::vector<uint8_t>& replica_ok) const {
  const int k = options_.replication;
  const size_t start = std::hash<std::string>{}(path) % k;
  std::vector<int> order;
  for (int i = 0; i < k; ++i) {
    const int store = static_cast<int>((start + i) % k);
    // Unknown file: every store is a candidate; otherwise only stores
    // holding a complete copy.
    if (replica_ok.empty() || replica_ok[store]) order.push_back(store);
  }
  return order;
}

Status MiniDfs::ValidatePath(const std::string& path) {
  if (path.size() < 2 || path.front() != '/') {
    return Status::InvalidArgument("DFS path must be absolute: '" + path + "'");
  }
  if (path.find("..") != std::string::npos) {
    return Status::InvalidArgument("DFS path must not contain '..': " + path);
  }
  if (path.back() == '/') {
    return Status::InvalidArgument("DFS file path must not end in '/': " + path);
  }
  return Status::OK();
}

void MiniDfs::TrackDirectories(const std::string& path) {
  // Register every ancestor directory ("/a/b/c.txt" -> "/a", "/a/b").
  std::lock_guard<std::mutex> lock(dir_mu_);
  for (size_t pos = path.find('/', 1); pos != std::string::npos;
       pos = path.find('/', pos + 1)) {
    directories_.insert(path.substr(0, pos));
  }
}

Result<std::unique_ptr<DfsWriter>> MiniDfs::Create(const std::string& path) {
  DGF_RETURN_IF_ERROR(ValidatePath(path));
  {
    Stripe& stripe = StripeFor(path);
    std::lock_guard<std::mutex> lock(stripe.mu);
    if (stripe.files.count(path) > 0) {
      return Status::AlreadyExists("file exists: " + path);
    }
    FileMeta& meta = stripe.files[path];
    meta.length = 0;
    meta.sums = std::make_shared<const FileChecksums>();
    meta.replica_ok = FreshReplicaOk();
  }
  TrackDirectories(path);
  std::vector<LocalDfsWriter::Target> targets;
  Status open_error = Status::OK();
  for (int store = 0; store < options_.replication; ++store) {
    if (!StoreUp(store)) continue;
    const std::string local = StoreLocalPath(store, path);
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(local).parent_path(), ec);
    if (ec) {
      open_error = Status::IOError("create parent dirs: " + ec.message());
      continue;
    }
    const int fd = ::open(local.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
      open_error = Status::IOError(ErrnoMessage("open " + local));
      continue;
    }
    targets.push_back(LocalDfsWriter::Target{
        store, fd, store_gen_[store].load(std::memory_order_acquire)});
  }
  if (targets.empty()) {
    if (open_error.ok()) {
      open_error = Status::IOError("no live replica store: " + path);
    }
    return open_error;
  }
  {
    // A just-created (still empty) file is readable from the stores that
    // opened it; Close re-publishes the flags for the stores that survived
    // the whole write.
    Stripe& stripe = StripeFor(path);
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto it = stripe.files.find(path);
    if (it != stripe.files.end()) {
      for (const auto& target : targets) it->second.replica_ok[target.store] = 1;
      ++it->second.open_writers;
    }
  }
  return std::unique_ptr<DfsWriter>(
      new LocalDfsWriter(this, path, std::move(targets), 0, {}));
}

Result<std::unique_ptr<DfsWriter>> MiniDfs::Append(const std::string& path) {
  DGF_RETURN_IF_ERROR(ValidatePath(path));
  uint64_t length = 0;
  std::shared_ptr<const FileChecksums> sums;
  std::vector<uint8_t> replica_ok;
  {
    Stripe& stripe = StripeFor(path);
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto it = stripe.files.find(path);
    if (it == stripe.files.end()) {
      return Status::NotFound("no such file: " + path);
    }
    length = it->second.length;
    sums = it->second.sums;
    replica_ok = it->second.replica_ok;
  }
  std::vector<LocalDfsWriter::Target> targets;
  Status open_error = Status::OK();
  for (int store = 0; store < options_.replication; ++store) {
    // Only stores holding a complete copy can extend it; stale replicas
    // stay invalid until ReReplicate().
    if (!replica_ok[store] || !StoreUp(store)) continue;
    const std::string local = StoreLocalPath(store, path);
    const int fd = ::open(local.c_str(), O_WRONLY | O_APPEND);
    if (fd < 0) {
      open_error = Status::IOError(ErrnoMessage("open " + local));
      continue;
    }
    targets.push_back(LocalDfsWriter::Target{
        store, fd, store_gen_[store].load(std::memory_order_acquire)});
  }
  if (targets.empty()) {
    if (open_error.ok()) {
      open_error = Status::IOError("no live replica store: " + path);
    }
    return open_error;
  }
  {
    Stripe& stripe = StripeFor(path);
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto it = stripe.files.find(path);
    if (it != stripe.files.end()) ++it->second.open_writers;
  }
  // The running checksums resume from the sealed ones; a partial tail
  // chunk's CRC keeps extending in place.
  return std::unique_ptr<DfsWriter>(new LocalDfsWriter(
      this, path, std::move(targets), length, sums->chunks));
}

Result<std::unique_ptr<DfsReader>> MiniDfs::OpenForRead(
    const std::string& path) {
  return OpenForRead(path, UINT64_MAX);
}

Result<std::unique_ptr<DfsReader>> MiniDfs::OpenForRead(
    const std::string& path, uint64_t length_limit) {
  DGF_RETURN_IF_ERROR(ValidatePath(path));
  uint64_t length = 0;
  std::shared_ptr<const FileChecksums> sums;
  std::vector<uint8_t> replica_ok;
  {
    Stripe& stripe = StripeFor(path);
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto it = stripe.files.find(path);
    if (it == stripe.files.end()) {
      return Status::NotFound("no such file: " + path);
    }
    length = std::min(it->second.length, length_limit);
    sums = it->second.sums;
    replica_ok = it->second.replica_ok;
  }
  std::vector<int> candidates = OrderedStores(path, replica_ok);
  if (candidates.empty()) {
    return Status::IOError("no valid replica: " + path);
  }
  // Eagerly open the first openable candidate, so a successfully-opened
  // reader has a live descriptor. Later failover opens are lazy.
  Status open_error = Status::OK();
  for (size_t index = 0; index < candidates.size(); ++index) {
    const std::string local = StoreLocalPath(candidates[index], path);
    const int fd = ::open(local.c_str(), O_RDONLY);
    if (fd < 0) {
      open_error = Status::IOError(ErrnoMessage("open " + local));
      continue;
    }
    return std::unique_ptr<DfsReader>(new LocalDfsReader(
        this, path, length, std::move(sums), std::move(candidates), index,
        fd));
  }
  return open_error;
}

Result<FileStatus> MiniDfs::Stat(const std::string& path) const {
  Stripe& stripe = StripeFor(path);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.files.find(path);
  if (it == stripe.files.end()) {
    return Status::NotFound("no such file: " + path);
  }
  return FileStatus{path, it->second.length, options_.block_size};
}

bool MiniDfs::Exists(const std::string& path) const {
  Stripe& stripe = StripeFor(path);
  std::lock_guard<std::mutex> lock(stripe.mu);
  return stripe.files.count(path) > 0;
}

Status MiniDfs::Delete(const std::string& path) {
  {
    Stripe& stripe = StripeFor(path);
    std::lock_guard<std::mutex> lock(stripe.mu);
    if (stripe.files.erase(path) == 0) {
      return Status::NotFound("no such file: " + path);
    }
  }
  Status result = Status::OK();
  for (int store = 0; store < options_.replication; ++store) {
    std::error_code ec;
    std::filesystem::remove(StoreLocalPath(store, path), ec);
    if (ec && result.ok()) {
      result = Status::IOError("remove: " + ec.message());
    }
  }
  return result;
}

Status MiniDfs::Rename(const std::string& from, const std::string& to) {
  DGF_RETURN_IF_ERROR(ValidatePath(to));
  {
    // Both stripes must be held for the move to be atomic; lock them in
    // address order so concurrent renames cannot deadlock.
    Stripe& from_stripe = StripeFor(from);
    Stripe& to_stripe = StripeFor(to);
    std::unique_lock<std::mutex> first_lock;
    std::unique_lock<std::mutex> second_lock;
    if (&from_stripe == &to_stripe) {
      first_lock = std::unique_lock<std::mutex>(from_stripe.mu);
    } else if (&from_stripe < &to_stripe) {
      first_lock = std::unique_lock<std::mutex>(from_stripe.mu);
      second_lock = std::unique_lock<std::mutex>(to_stripe.mu);
    } else {
      first_lock = std::unique_lock<std::mutex>(to_stripe.mu);
      second_lock = std::unique_lock<std::mutex>(from_stripe.mu);
    }
    auto it = from_stripe.files.find(from);
    if (it == from_stripe.files.end()) {
      return Status::NotFound("no such file: " + from);
    }
    if (to_stripe.files.count(to) > 0) {
      return Status::AlreadyExists("exists: " + to);
    }
    to_stripe.files[to] = std::move(it->second);
    from_stripe.files.erase(it);
  }
  TrackDirectories(to);
  // Move every replica's copy; a store without the source copy (invalid
  // replica / killed store) is skipped, and the move fails only when no
  // copy moved at all.
  int moved = 0;
  Status move_error = Status::OK();
  for (int store = 0; store < options_.replication; ++store) {
    const std::string local_from = StoreLocalPath(store, from);
    std::error_code exists_ec;
    if (!std::filesystem::exists(local_from, exists_ec)) continue;
    const std::string local_to = StoreLocalPath(store, to);
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(local_to).parent_path(), ec);
    std::filesystem::rename(local_from, local_to, ec);
    if (ec) {
      if (move_error.ok()) {
        move_error = Status::IOError("rename: " + ec.message());
      }
      continue;
    }
    ++moved;
  }
  if (moved == 0 && !move_error.ok()) return move_error;
  if (moved == 0) return Status::IOError("rename: no replica moved: " + from);
  return Status::OK();
}

std::vector<FileStatus> MiniDfs::ListFiles(const std::string& prefix) const {
  // Matching paths are scattered across stripes by the hash; range-scan each
  // stripe's sorted map, then restore the global path order with one sort.
  std::vector<FileStatus> out;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (auto it = stripe.files.lower_bound(prefix); it != stripe.files.end();
         ++it) {
      if (!StartsWith(it->first, prefix)) break;
      out.push_back(
          FileStatus{it->first, it->second.length, options_.block_size});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FileStatus& a, const FileStatus& b) {
              return a.path < b.path;
            });
  return out;
}

Result<std::vector<FileSplit>> MiniDfs::GetSplits(const std::string& path,
                                                  uint64_t split_size) const {
  DGF_ASSIGN_OR_RETURN(FileStatus status, Stat(path));
  if (split_size == 0) split_size = options_.block_size;
  std::vector<FileSplit> splits;
  for (uint64_t offset = 0; offset < status.length; offset += split_size) {
    splits.push_back(
        FileSplit{path, offset, std::min(split_size, status.length - offset)});
  }
  return splits;
}

Result<std::vector<FileSplit>> MiniDfs::GetSplitsForPrefix(
    const std::string& prefix, uint64_t split_size) const {
  std::vector<FileSplit> all;
  for (const FileStatus& file : ListFiles(prefix)) {
    DGF_ASSIGN_OR_RETURN(std::vector<FileSplit> splits,
                         GetSplits(file.path, split_size));
    all.insert(all.end(), splits.begin(), splits.end());
  }
  return all;
}

uint64_t MiniDfs::MetadataMemoryBytes() const {
  uint64_t blocks = 0;
  uint64_t num_files = 0;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    num_files += stripe.files.size();
    for (const auto& [path, meta] : stripe.files) {
      (void)path;
      blocks += (meta.length + options_.block_size - 1) / options_.block_size;
    }
  }
  return kMetadataObjectBytes * (num_files + NumDirectories() + blocks);
}

uint64_t MiniDfs::NumFiles() const {
  uint64_t num_files = 0;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    num_files += stripe.files.size();
  }
  return num_files;
}

uint64_t MiniDfs::NumDirectories() const {
  std::lock_guard<std::mutex> lock(dir_mu_);
  return directories_.size();
}

void MiniDfs::ResetCounters() {
  bytes_written_.store(0);
  replica_bytes_written_.store(0);
  bytes_read_.store(0);
  pread_calls_.store(0);
  read_failovers_.store(0);
  checksum_failures_.store(0);
}

bool MiniDfs::StoreUp(int store) const {
  if (store < 0 || store >= options_.replication) return false;
  return store_up_[store].load(std::memory_order_acquire);
}

Status MiniDfs::KillStore(int store, bool wipe_data) {
  if (store < 0 || store >= options_.replication) {
    return Status::InvalidArgument("no such replica store: " +
                                   std::to_string(store));
  }
  store_up_[store].store(false, std::memory_order_release);
  // Break every open write pipeline through this store: even if the store
  // revives, its copies are stale until ReReplicate() and the old
  // descriptors must not keep extending them (after a wipe they point at
  // unlinked inodes).
  store_gen_[store].fetch_add(1, std::memory_order_acq_rel);
  if (wipe_data) {
    std::error_code ec;
    std::filesystem::remove_all(StoreRoot(store), ec);
    if (ec) return Status::IOError("remove_all: " + ec.message());
    // A wiped store holds no copy of anything: invalidate its replicas so a
    // revive without re-replication cannot serve from the empty directory.
    for (Stripe& stripe : stripes_) {
      std::lock_guard<std::mutex> lock(stripe.mu);
      for (auto& [path, meta] : stripe.files) {
        (void)path;
        if (store < static_cast<int>(meta.replica_ok.size())) {
          meta.replica_ok[store] = 0;
        }
      }
    }
  }
  return Status::OK();
}

Status MiniDfs::ReviveStore(int store) {
  if (store < 0 || store >= options_.replication) {
    return Status::InvalidArgument("no such replica store: " +
                                   std::to_string(store));
  }
  std::error_code ec;
  std::filesystem::create_directories(StoreRoot(store), ec);
  if (ec) return Status::IOError("create_directories: " + ec.message());
  store_up_[store].store(true, std::memory_order_release);
  return Status::OK();
}

Result<uint64_t> MiniDfs::ReReplicate() {
  struct Job {
    std::string path;
    uint64_t length;
    std::shared_ptr<const FileChecksums> sums;
    int source;
    std::vector<int> missing;
  };
  std::vector<Job> jobs;
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (const auto& [path, meta] : stripe.files) {
      // Never repair a file that is still being appended: the pipeline
      // extends only its own targets, so a copied replica would go stale
      // the moment the writer's next append lands. Close seals the file
      // and a later pass repairs it.
      if (meta.open_writers > 0) continue;
      Job job{path, meta.length, meta.sums, -1, {}};
      for (int store = 0; store < options_.replication; ++store) {
        const bool ok = store < static_cast<int>(meta.replica_ok.size()) &&
                        meta.replica_ok[store];
        if (ok && StoreUp(store) && job.source < 0) job.source = store;
        if (!ok && StoreUp(store)) job.missing.push_back(store);
      }
      if (job.source >= 0 && !job.missing.empty()) {
        jobs.push_back(std::move(job));
      }
    }
  }
  uint64_t repaired = 0;
  for (const Job& job : jobs) {
    const std::string source_local = StoreLocalPath(job.source, job.path);
    std::string contents;
    Status read = ReadLocalExactly(source_local, 0, job.length, &contents);
    if (!read.ok()) return read;
    for (int store : job.missing) {
      const std::string local = StoreLocalPath(store, job.path);
      std::error_code ec;
      std::filesystem::create_directories(
          std::filesystem::path(local).parent_path(), ec);
      if (ec) return Status::IOError("create parent dirs: " + ec.message());
      const int fd = ::open(local.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd < 0) return Status::IOError(ErrnoMessage("open " + local));
      const bool written = WriteFully(fd, contents);
      const int close_rc = ::close(fd);
      if (!written || close_rc != 0) {
        return Status::IOError("re-replicate copy failed: " + job.path);
      }
      // Publish only if the file was not appended/replaced while copying —
      // a changed length means our copy is already stale, so leave the
      // replica invalid for a later pass.
      Stripe& stripe = StripeFor(job.path);
      std::lock_guard<std::mutex> lock(stripe.mu);
      auto it = stripe.files.find(job.path);
      if (it != stripe.files.end() && it->second.length == job.length &&
          it->second.open_writers == 0 &&
          store < static_cast<int>(it->second.replica_ok.size())) {
        it->second.replica_ok[store] = 1;
        ++repaired;
      }
    }
  }
  return repaired;
}

Status MiniDfs::VerifyReplicas(const std::string& path) const {
  uint64_t length = 0;
  std::shared_ptr<const FileChecksums> sums;
  std::vector<uint8_t> replica_ok;
  {
    Stripe& stripe = StripeFor(path);
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto it = stripe.files.find(path);
    if (it == stripe.files.end()) {
      return Status::NotFound("no such file: " + path);
    }
    length = it->second.length;
    sums = it->second.sums;
    replica_ok = it->second.replica_ok;
  }
  for (int store = 0; store < options_.replication; ++store) {
    if (!replica_ok[store] || !StoreUp(store)) continue;
    DGF_ASSIGN_OR_RETURN(std::vector<uint32_t> chunks,
                         LocalChunkSums(StoreLocalPath(store, path), length));
    if (chunks != sums->chunks) {
      return Status::Corruption("replica checksum mismatch: " + path +
                                " store r" + std::to_string(store));
    }
  }
  return Status::OK();
}

void MiniDfs::SetReadFaultInjector(std::shared_ptr<ReadFaultInjector> injector) {
  std::lock_guard<std::mutex> lock(injector_mu_);
  bool any = false;
  for (auto& slot : fault_injectors_) {
    slot = injector;
    any = any || slot != nullptr;
  }
  // Publish after the pointers are in place so a reader that observes the
  // flag as set always finds the injector under injector_mu_.
  has_injector_.store(any, std::memory_order_release);
}

void MiniDfs::SetReadFaultInjector(int store,
                                   std::shared_ptr<ReadFaultInjector> injector) {
  std::lock_guard<std::mutex> lock(injector_mu_);
  if (store < 0 || store >= static_cast<int>(fault_injectors_.size())) return;
  fault_injectors_[store] = std::move(injector);
  bool any = false;
  for (const auto& slot : fault_injectors_) any = any || slot != nullptr;
  has_injector_.store(any, std::memory_order_release);
}

}  // namespace dgf::fs
