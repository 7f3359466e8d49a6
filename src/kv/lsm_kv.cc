#include "kv/lsm_kv.h"

#include <algorithm>
#include <limits>
#include <set>

#include "common/encoding.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "testing/crash_point.h"

namespace dgf::kv {
namespace {

using MemVec = std::vector<std::pair<std::string, std::optional<std::string>>>;

// WAL record, one per Put, Delete or ApplyBatch, so a batch replays whole or
// not at all:
//   fixed32(payload_len) fixed32(crc32(payload)) fixed32(crc32(first 8 bytes))
//   payload: per write, varint(key_len) key varint(value_len+1) value, with
//            value_len field 0 for a tombstone (no value bytes).
// The header's own CRC is what tells a damaged length from a record that the
// end of the file cuts short.
constexpr size_t kWalHeaderBytes = 12;

void EncodeWalEntry(std::string* out, const WriteBatch::Entry& entry) {
  PutLengthPrefixed(out, entry.key);
  if (entry.is_delete) {
    PutVarint64(out, 0);
  } else {
    PutVarint64(out, entry.value.size() + 1);
    out->append(entry.value);
  }
}

Result<std::string> EncodeWalRecord(const WriteBatch& batch) {
  std::string record(kWalHeaderBytes, '\0');  // header filled in below
  for (const WriteBatch::Entry& entry : batch.entries()) {
    EncodeWalEntry(&record, entry);
  }
  const std::string_view payload =
      std::string_view(record).substr(kWalHeaderBytes);
  if (payload.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("write batch exceeds the 4 GiB WAL record");
  }
  std::string header;
  PutFixed32(&header, static_cast<uint32_t>(payload.size()));
  PutFixed32(&header, Crc32(0, payload));
  PutFixed32(&header, Crc32(0, header));
  record.replace(0, kWalHeaderBytes, header);
  return record;
}

/// Merging iterator over memtable snapshot + runs with newest-wins dedup.
/// Holds its sources by shared_ptr so it stays valid after the store moves
/// on (flush, compaction, or further writes).
class LsmIterator : public Iterator {
 public:
  LsmIterator(std::shared_ptr<const MemVec> memtable_snapshot,
              std::vector<std::shared_ptr<SstableReader>> runs)
      : memtable_holder_(std::move(memtable_snapshot)),
        memtable_(*memtable_holder_),
        runs_(std::move(runs)) {
    // Source 0 is the memtable (newest); then runs newest to oldest.
    for (auto it = runs_.rbegin(); it != runs_.rend(); ++it) {
      run_iters_.push_back(std::make_unique<SstableIterator>(
          std::shared_ptr<const SstableReader>(*it)));
    }
  }

  void Seek(std::string_view target) override {
    mem_pos_ = static_cast<size_t>(
        std::lower_bound(memtable_.begin(), memtable_.end(), target,
                         [](const auto& entry, std::string_view t) {
                           return entry.first < t;
                         }) -
        memtable_.begin());
    for (auto& it : run_iters_) it->Seek(target);
    FindNextLive(/*skip_current=*/false);
  }

  void SeekToFirst() override {
    mem_pos_ = 0;
    for (auto& it : run_iters_) it->SeekToFirst();
    FindNextLive(/*skip_current=*/false);
  }

  void Next() override { FindNextLive(/*skip_current=*/true); }

  bool Valid() const override { return valid_; }
  std::string_view key() const override { return key_; }
  std::string_view value() const override { return value_; }

 private:
  // Advances every source past `key` (used after emitting or shadowing it).
  void SkipKeyEverywhere(std::string_view key) {
    if (mem_pos_ < memtable_.size() && memtable_[mem_pos_].first == key) {
      ++mem_pos_;
    }
    for (auto& it : run_iters_) {
      if (it->Valid() && it->key() == key) it->Next();
    }
  }

  void FindNextLive(bool skip_current) {
    if (skip_current && valid_) SkipKeyEverywhere(key_);
    for (;;) {
      // Pick the smallest key across sources; ties resolve to the newest
      // source (memtable first, then newer runs).
      int best = -1;  // -1 = none, 0 = memtable, i>0 = run_iters_[i-1]
      std::string_view best_key;
      if (mem_pos_ < memtable_.size()) {
        best = 0;
        best_key = memtable_[mem_pos_].first;
      }
      for (size_t i = 0; i < run_iters_.size(); ++i) {
        if (!run_iters_[i]->Valid()) continue;
        const std::string_view k = run_iters_[i]->key();
        if (best == -1 || k < best_key) {
          best = static_cast<int>(i) + 1;
          best_key = k;
        }
      }
      if (best == -1) {
        valid_ = false;
        return;
      }
      bool tombstone;
      if (best == 0) {
        tombstone = !memtable_[mem_pos_].second.has_value();
        key_buf_.assign(best_key);
        if (!tombstone) value_buf_ = *memtable_[mem_pos_].second;
      } else {
        auto& it = run_iters_[static_cast<size_t>(best) - 1];
        tombstone = it->IsTombstone();
        key_buf_.assign(best_key);
        if (!tombstone) value_buf_.assign(it->value());
      }
      SkipKeyEverywhere(key_buf_);
      if (!tombstone) {
        key_ = key_buf_;
        value_ = value_buf_;
        valid_ = true;
        return;
      }
      // Tombstone: the key is dead; continue with the next smallest key.
    }
  }

  std::shared_ptr<const MemVec> memtable_holder_;
  const MemVec& memtable_;
  std::vector<std::shared_ptr<SstableReader>> runs_;
  std::vector<std::unique_ptr<SstableIterator>> run_iters_;
  size_t mem_pos_ = 0;
  bool valid_ = false;
  std::string key_buf_;
  std::string value_buf_;
  std::string_view key_;
  std::string_view value_;
};

// Binary search over a sorted memtable copy; returns nullptr when the key is
// not present (a present tombstone returns a pointer to the nullopt).
const std::optional<std::string>* FindInMemVec(const MemVec& mem,
                                               std::string_view key) {
  auto it = std::lower_bound(mem.begin(), mem.end(), key,
                             [](const auto& entry, std::string_view t) {
                               return entry.first < t;
                             });
  if (it == mem.end() || it->first != key) return nullptr;
  return &it->second;
}

// The read result of a memtable slot (nullopt is a tombstone).
Result<std::string> SlotValue(const std::optional<std::string>& slot) {
  if (!slot.has_value()) return Status::NotFound("deleted");
  return *slot;
}

// Point lookup of a key the memtable does not hold: runs newest to oldest,
// the first run that knows the key (value or tombstone) decides.
Result<std::string> GetFromRuns(
    const std::vector<std::shared_ptr<SstableReader>>& runs,
    std::string_view key) {
  for (auto run = runs.rbegin(); run != runs.rend(); ++run) {
    bool deleted = false;
    auto value = (*run)->Get(key, &deleted);
    if (value.ok()) {
      if (deleted) return Status::NotFound("deleted");
      return value;
    }
    if (!value.status().IsNotFound()) return value.status();
  }
  return Status::NotFound("key not found");
}

// Resolves the keys at `pending` indices against `runs` (newest last): each
// run serves the batch in one forward merge-join pass over sorted keys.
// Results for keys a run resolves are written into `results`; keys no run
// knows keep their initial NotFound.
void ProbeRunsSorted(std::span<const std::string> keys,
                     std::vector<size_t> pending,
                     const std::vector<std::shared_ptr<SstableReader>>& runs,
                     std::vector<Result<std::string>>* results) {
  if (pending.empty()) return;
  std::sort(pending.begin(), pending.end(),
            [&](size_t a, size_t b) { return keys[a] < keys[b]; });
  for (auto run = runs.rbegin(); run != runs.rend() && !pending.empty();
       ++run) {
    std::vector<std::string_view> sorted_keys;
    sorted_keys.reserve(pending.size());
    for (size_t idx : pending) sorted_keys.push_back(keys[idx]);
    auto probes = (*run)->MultiGet(sorted_keys);
    if (!probes.ok()) {
      for (size_t idx : pending) (*results)[idx] = probes.status();
      return;
    }
    std::vector<size_t> still_pending;
    for (size_t i = 0; i < pending.size(); ++i) {
      SstableReader::ProbeResult& probe = (*probes)[i];
      switch (probe.state) {
        case SstableReader::ProbeResult::kFound:
          (*results)[pending[i]] = std::move(probe.value);
          break;
        case SstableReader::ProbeResult::kTombstone:
          (*results)[pending[i]] = Status::NotFound("deleted");
          break;
        case SstableReader::ProbeResult::kAbsent:
          still_pending.push_back(pending[i]);
          break;
      }
    }
    pending = std::move(still_pending);
  }
}

/// Immutable view of the store: a shared memtable copy plus the run set that
/// was live when the snapshot was taken. The shared_ptrs keep both alive —
/// SstableReader maps the whole run into memory at open, so even a run whose
/// file compaction has since deleted stays fully readable.
class LsmSnapshot : public KvSnapshot {
 public:
  LsmSnapshot(std::shared_ptr<const MemVec> mem,
              std::vector<std::shared_ptr<SstableReader>> runs,
              uint64_t version)
      : mem_(std::move(mem)), runs_(std::move(runs)), version_(version) {}

  Result<std::string> Get(std::string_view key) const override {
    if (const auto* slot = FindInMemVec(*mem_, key)) return SlotValue(*slot);
    return GetFromRuns(runs_, key);
  }

  std::vector<Result<std::string>> MultiGet(
      std::span<const std::string> keys) const override {
    std::vector<Result<std::string>> results;
    results.reserve(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      results.push_back(Status::NotFound("key not found"));
    }
    std::vector<size_t> pending;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (const auto* slot = FindInMemVec(*mem_, keys[i])) {
        results[i] = SlotValue(*slot);
      } else {
        pending.push_back(i);
      }
    }
    ProbeRunsSorted(keys, std::move(pending), runs_, &results);
    return results;
  }

  std::unique_ptr<Iterator> NewIterator() const override {
    return std::make_unique<LsmIterator>(mem_, runs_);
  }

  uint64_t version() const override { return version_; }

 private:
  std::shared_ptr<const MemVec> mem_;
  std::vector<std::shared_ptr<SstableReader>> runs_;
  uint64_t version_;
};

}  // namespace

LsmKv::LsmKv(Options options) : options_(std::move(options)) {}

LsmKv::~LsmKv() {
  if (wal_) {
    Status st = wal_->Close();
    if (!st.ok()) {
      DGF_LOG(kWarn) << "WAL close failed: " << st.ToString();
    }
  }
}

Result<std::unique_ptr<LsmKv>> LsmKv::Open(Options options) {
  if (options.dfs == nullptr) {
    return Status::InvalidArgument("LsmKv requires a MiniDfs");
  }
  if (options.dir.empty() || options.dir.front() != '/') {
    return Status::InvalidArgument("LsmKv dir must be absolute");
  }
  std::unique_ptr<LsmKv> store(new LsmKv(std::move(options)));
  DGF_RETURN_IF_ERROR(store->Recover());
  return store;
}

std::string LsmKv::RunPath(uint64_t id) const {
  return options_.dir + "/" + StringPrintf("run-%06llu.sst",
                                           static_cast<unsigned long long>(id));
}

Status LsmKv::Recover() {
  auto& dfs = *options_.dfs;
  const std::string manifest_path = options_.dir + "/MANIFEST";
  const std::string tmp_path = options_.dir + "/MANIFEST.tmp";
  // Roll forward a crash that landed between deleting the old MANIFEST and
  // renaming the new one into place: MANIFEST.tmp is written and closed
  // before the old manifest is touched, so when only the tmp exists it is
  // complete and authoritative. Without this, such a crash would silently
  // drop every run — the WAL only covers records since the last flush.
  if (!dfs.Exists(manifest_path) && dfs.Exists(tmp_path)) {
    DGF_RETURN_IF_ERROR(dfs.Rename(tmp_path, manifest_path));
  } else if (dfs.Exists(tmp_path)) {
    // A tmp next to a live manifest is a crash leftover; it may reference
    // runs the orphan cleanup below deletes, so drop it.
    DGF_RETURN_IF_ERROR(dfs.Delete(tmp_path));
  }
  std::set<std::string> live_runs;
  if (dfs.Exists(manifest_path)) {
    DGF_ASSIGN_OR_RETURN(auto reader, dfs.OpenForRead(manifest_path));
    std::string contents;
    DGF_RETURN_IF_ERROR(reader->Pread(0, reader->Length(), &contents));
    for (std::string_view line : SplitString(contents, '\n')) {
      line = TrimString(line);
      if (line.empty()) continue;
      if (line.front() == '#') {
        // Header line. `#epoch N` restores the mutation epoch recorded at the
        // last manifest write; unknown headers are ignored for forward
        // compatibility. Manifests from before epochs existed simply have no
        // header and recover with epoch 0.
        if (line.substr(0, 7) == "#epoch ") {
          auto epoch = ParseInt64(TrimString(line.substr(7)));
          if (epoch.ok()) version_ = static_cast<uint64_t>(*epoch);
        }
        continue;
      }
      DGF_ASSIGN_OR_RETURN(
          auto run, SstableReader::Open(options_.dfs, std::string(line)));
      runs_.push_back(std::move(run));
      live_runs.insert(std::string(line));
    }
  }
  // Scan the directory for run files. Every id ever used — including orphans
  // a crash sealed but never adopted into the manifest — must stay retired,
  // or the next flush would collide with AlreadyExists. Orphans themselves
  // are deleted: nothing references them and their records are still in the
  // WAL.
  for (const fs::FileStatus& file : dfs.ListFiles(options_.dir + "/run-")) {
    const size_t dash = file.path.rfind('-');
    const size_t dot = file.path.rfind('.');
    if (dash != std::string::npos && dot != std::string::npos && dash < dot) {
      auto id = ParseInt64(
          std::string_view(file.path).substr(dash + 1, dot - dash - 1));
      if (id.ok()) next_run_id_ = std::max<uint64_t>(next_run_id_, *id + 1);
    }
    if (live_runs.count(file.path) == 0) {
      Status st = dfs.Delete(file.path);
      if (!st.ok()) {
        DGF_LOG(kWarn) << "orphan run delete: " << st.ToString();
      }
    }
  }
  wal_path_ = options_.dir + "/WAL";
  if (!dfs.Exists(wal_path_)) {
    DGF_ASSIGN_OR_RETURN(wal_, dfs.Create(wal_path_));
    return Status::OK();
  }
  DGF_ASSIGN_OR_RETURN(const bool torn, ReplayWal(wal_path_));
  DGF_ASSIGN_OR_RETURN(wal_, dfs.Append(wal_path_));
  if (torn) {
    // Records appended behind the torn one would read as damage on the next
    // replay: seal what replayed into a run, which starts a fresh WAL.
    if (!memtable_.empty()) return FlushLocked();
    DGF_RETURN_IF_ERROR(wal_->Close());
    DGF_RETURN_IF_ERROR(dfs.Delete(wal_path_));
    DGF_ASSIGN_OR_RETURN(wal_, dfs.Create(wal_path_));
  }
  return Status::OK();
}

Result<bool> LsmKv::ReplayWal(const std::string& path) {
  DGF_ASSIGN_OR_RETURN(auto reader, options_.dfs->OpenForRead(path));
  std::string contents;
  DGF_RETURN_IF_ERROR(reader->Pread(0, reader->Length(), &contents));
  std::string_view cursor(contents);
  auto corrupt = [&](const char* what) {
    return Status::Corruption(
        std::string(what) + " in WAL record at offset " +
        std::to_string(contents.size() - cursor.size()) + " of " + path);
  };
  while (!cursor.empty()) {
    // Only the end of the file may cut a record short: that write was never
    // acknowledged, so replay drops it and stops.
    if (cursor.size() < kWalHeaderBytes) return true;
    const uint32_t length = DecodeFixed32(cursor.data());
    if (DecodeFixed32(cursor.data() + 8) != Crc32(0, cursor.substr(0, 8))) {
      return corrupt("header checksum mismatch");
    }
    if (cursor.size() - kWalHeaderBytes < length) return true;
    std::string_view payload = cursor.substr(kWalHeaderBytes, length);
    if (DecodeFixed32(cursor.data() + 4) != Crc32(0, payload)) {
      return corrupt("payload checksum mismatch");
    }
    WriteBatch batch;
    while (!payload.empty()) {
      auto key = GetLengthPrefixed(&payload);
      if (!key.ok()) return corrupt("malformed entry");
      auto vlen = GetVarint64(&payload);
      if (!vlen.ok() || (*vlen > 0 && payload.size() < *vlen - 1)) {
        return corrupt("malformed entry");
      }
      if (*vlen == 0) {
        batch.Delete(*key);
      } else {
        batch.Put(*key, payload.substr(0, *vlen - 1));
        payload.remove_prefix(*vlen - 1);
      }
    }
    ApplyToMemtableLocked(batch);
    cursor.remove_prefix(kWalHeaderBytes + length);
    ++version_;  // one record is one mutation, as when it was written
  }
  return false;
}

void LsmKv::ApplyToMemtableLocked(const WriteBatch& batch) {
  for (const WriteBatch::Entry& entry : batch.entries()) {
    if (entry.is_delete) {
      memtable_[entry.key] = std::nullopt;
      memtable_bytes_ += entry.key.size() + 1;
    } else {
      memtable_[entry.key] = entry.value;
      memtable_bytes_ += entry.key.size() + entry.value.size() + 1;
    }
  }
}

Status LsmKv::Put(std::string_view key, std::string_view value) {
  WriteBatch batch;
  batch.Put(key, value);
  return ApplyBatch(batch);
}

Status LsmKv::Delete(std::string_view key) {
  WriteBatch batch;
  batch.Delete(key);
  return ApplyBatch(batch);
}

Status LsmKv::ApplyBatch(const WriteBatch& batch) {
  if (batch.empty()) return Status::OK();
  DGF_ASSIGN_OR_RETURN(const std::string record, EncodeWalRecord(batch));
  std::lock_guard<std::mutex> lock(mu_);
  DGF_RETURN_IF_ERROR(wal_->Append(record));
  ApplyToMemtableLocked(batch);
  ++version_;  // one bump: the batch is one logical mutation
  mem_snapshot_.reset();
  if (memtable_bytes_ >= options_.memtable_flush_bytes) {
    return FlushLocked();
  }
  return Status::OK();
}

std::shared_ptr<const LsmKv::MemVec> LsmKv::MemSnapshotLocked() {
  if (!mem_snapshot_) {
    mem_snapshot_ =
        std::make_shared<const MemVec>(memtable_.begin(), memtable_.end());
  }
  return mem_snapshot_;
}

std::shared_ptr<const KvSnapshot> LsmKv::GetSnapshot() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::make_shared<LsmSnapshot>(MemSnapshotLocked(), runs_, version_);
}

uint64_t LsmKv::version() {
  std::lock_guard<std::mutex> lock(mu_);
  return version_;
}

Result<std::string> LsmKv::Get(std::string_view key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = memtable_.find(std::string(key));
  if (it != memtable_.end()) return SlotValue(it->second);
  return GetFromRuns(runs_, key);
}

std::vector<Result<std::string>> LsmKv::MultiGet(
    std::span<const std::string> keys) {
  std::vector<Result<std::string>> results;
  results.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    results.push_back(Status::NotFound("key not found"));
  }

  // One lock acquisition resolves every memtable hit and snapshots the run
  // set; the (immutable) runs are then probed outside the lock.
  std::vector<size_t> pending;
  std::vector<std::shared_ptr<SstableReader>> runs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < keys.size(); ++i) {
      auto it = memtable_.find(keys[i]);
      if (it == memtable_.end()) {
        pending.push_back(i);
      } else {
        results[i] = SlotValue(it->second);
      }
    }
    runs = runs_;
  }
  ProbeRunsSorted(keys, std::move(pending), runs, &results);
  return results;
}

std::unique_ptr<Iterator> LsmKv::NewIterator() {
  std::shared_ptr<const MemVec> snapshot;
  std::vector<std::shared_ptr<SstableReader>> runs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = MemSnapshotLocked();
    runs = runs_;
  }
  return std::make_unique<LsmIterator>(std::move(snapshot), std::move(runs));
}

Status LsmKv::FlushLocked() {
  if (memtable_.empty()) return Status::OK();
  DGF_CRASH_POINT("lsm.flush.before_sstable");
  const uint64_t run_id = next_run_id_++;
  DGF_ASSIGN_OR_RETURN(auto writer,
                       SstableWriter::Create(options_.dfs, RunPath(run_id)));
  for (const auto& [key, value] : memtable_) {
    DGF_RETURN_IF_ERROR(writer->Add(key, value.value_or(std::string()),
                                    /*tombstone=*/!value.has_value()));
  }
  DGF_RETURN_IF_ERROR(writer->Finish());
  DGF_CRASH_POINT("lsm.flush.after_sstable");
  DGF_ASSIGN_OR_RETURN(auto run,
                       SstableReader::Open(options_.dfs, RunPath(run_id)));
  runs_.push_back(std::move(run));
  DGF_CRASH_POINT("lsm.flush.before_manifest");
  if (Status st = WriteManifest(); !st.ok()) {
    // The run never became visible on disk; drop it from the in-memory view
    // too so a caller that survives the error keeps a consistent store (the
    // WAL still holds every memtable record).
    runs_.pop_back();
    return st;
  }
  // Only forget the memtable once the manifest has adopted the run; an error
  // in between must not make acknowledged records unreadable in memory.
  memtable_.clear();
  memtable_bytes_ = 0;
  mem_snapshot_.reset();
  DGF_CRASH_POINT("lsm.flush.before_wal_truncate");
  // Truncate the WAL: everything in it is now durable in a run.
  DGF_RETURN_IF_ERROR(wal_->Close());
  DGF_RETURN_IF_ERROR(options_.dfs->Delete(wal_path_));
  DGF_CRASH_POINT("lsm.flush.after_wal_delete");
  DGF_ASSIGN_OR_RETURN(wal_, options_.dfs->Create(wal_path_));
  // Compact inline; the store is small relative to the data it indexes.
  if (static_cast<int>(runs_.size()) > options_.max_runs) {
    return CompactLocked();
  }
  return Status::OK();
}

Status LsmKv::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  return FlushLocked();
}

Status LsmKv::Compact() {
  std::lock_guard<std::mutex> lock(mu_);
  DGF_RETURN_IF_ERROR(FlushLocked());
  return CompactLocked();
}

Status LsmKv::CompactLocked() {
  if (runs_.size() <= 1) return Status::OK();
  std::vector<std::shared_ptr<SstableReader>> old_runs = runs_;
  DGF_CRASH_POINT("lsm.compact.before_merge");
  const uint64_t merged_id = next_run_id_++;
  DGF_ASSIGN_OR_RETURN(auto writer,
                       SstableWriter::Create(options_.dfs, RunPath(merged_id)));
  // Keep tombstones out: a full compaction covers the whole history.
  LsmIterator merge_it(std::make_shared<const MemVec>(), runs_);
  for (merge_it.SeekToFirst(); merge_it.Valid(); merge_it.Next()) {
    DGF_RETURN_IF_ERROR(writer->Add(merge_it.key(), merge_it.value()));
  }
  DGF_RETURN_IF_ERROR(writer->Finish());
  DGF_CRASH_POINT("lsm.compact.after_merge");
  DGF_ASSIGN_OR_RETURN(auto merged,
                       SstableReader::Open(options_.dfs, RunPath(merged_id)));
  runs_.clear();
  runs_.push_back(std::move(merged));
  if (Status st = WriteManifest(); !st.ok()) {
    runs_ = std::move(old_runs);  // the manifest still lists the old runs
    return st;
  }
  DGF_CRASH_POINT("lsm.compact.before_delete_stale");
  for (const auto& run : old_runs) {
    Status st = options_.dfs->Delete(run->path());
    if (!st.ok()) {
      DGF_LOG(kWarn) << "stale run delete: " << st.ToString();
    }
  }
  return Status::OK();
}

Status LsmKv::WriteManifest() {
  const std::string tmp_path = options_.dir + "/MANIFEST.tmp";
  const std::string manifest_path = options_.dir + "/MANIFEST";
  DGF_CRASH_POINT("lsm.manifest.before_tmp");
  if (options_.dfs->Exists(tmp_path)) {
    DGF_RETURN_IF_ERROR(options_.dfs->Delete(tmp_path));
  }
  DGF_ASSIGN_OR_RETURN(auto writer, options_.dfs->Create(tmp_path));
  // Header first, then one run path per line. Recover treats '#' lines as
  // headers, so pre-epoch manifests (no header) stay readable.
  DGF_RETURN_IF_ERROR(writer->Append(
      StringPrintf("#epoch %llu\n", static_cast<unsigned long long>(version_))));
  for (const auto& run : runs_) {
    DGF_RETURN_IF_ERROR(writer->Append(run->path() + "\n"));
  }
  DGF_RETURN_IF_ERROR(writer->Close());
  DGF_CRASH_POINT("lsm.manifest.after_tmp");
  if (options_.dfs->Exists(manifest_path)) {
    DGF_RETURN_IF_ERROR(options_.dfs->Delete(manifest_path));
  }
  DGF_CRASH_POINT("lsm.manifest.before_rename");
  return options_.dfs->Rename(tmp_path, manifest_path);
}

Result<uint64_t> LsmKv::Count() {
  uint64_t count = 0;
  auto it = NewIterator();
  for (it->SeekToFirst(); it->Valid(); it->Next()) ++count;
  return count;
}

Result<uint64_t> LsmKv::ApproximateSizeBytes() {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = memtable_bytes_;
  for (const auto& run : runs_) total += run->file_size();
  return total;
}

int LsmKv::NumRuns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(runs_.size());
}

}  // namespace dgf::kv
