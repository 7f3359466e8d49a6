#ifndef DGF_KV_KV_STORE_H_
#define DGF_KV_KV_STORE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace dgf::kv {

/// Forward cursor over an ordered key space.
///
/// Usage:
///   auto it = store->NewIterator();
///   for (it->Seek(start); it->Valid() && it->key() < end; it->Next()) ...
class Iterator {
 public:
  virtual ~Iterator() = default;

  /// Positions on the first key >= `target`.
  virtual void Seek(std::string_view target) = 0;
  /// Positions on the first key in the store.
  virtual void SeekToFirst() = 0;
  /// Advances to the next key. Requires Valid().
  virtual void Next() = 0;
  /// True while positioned on a live entry.
  virtual bool Valid() const = 0;

  /// Current key/value. Valid until the next mutation of the iterator.
  virtual std::string_view key() const = 0;
  virtual std::string_view value() const = 0;
};

/// An ordered set of writes applied atomically by KvStore::ApplyBatch.
///
/// Readers either see none of the batch or all of it: the batch is the unit
/// of publication for index mutations (Build/Append/optimize), which is what
/// makes snapshot isolation possible above the store.
class WriteBatch {
 public:
  struct Entry {
    std::string key;
    std::string value;  // ignored when is_delete
    bool is_delete = false;
  };

  void Put(std::string_view key, std::string_view value) {
    approximate_bytes_ += key.size() + value.size() + kEntryOverheadBytes;
    entries_.push_back({std::string(key), std::string(value), false});
  }
  void Delete(std::string_view key) {
    approximate_bytes_ += key.size() + kEntryOverheadBytes;
    entries_.push_back({std::string(key), std::string(), true});
  }
  const std::vector<Entry>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  void Clear() {
    entries_.clear();
    approximate_bytes_ = 0;
  }

  /// Pre-sizes the entry vector: batch producers that know their key count
  /// up front (the parallel index build stages one Put per GFU) avoid
  /// reallocation churn while staging tens of thousands of entries.
  void Reserve(size_t entries) { entries_.reserve(entries); }

  /// Approximate staged payload (keys + values + per-entry bookkeeping).
  /// Used for batch-size accounting in build/append counters and by callers
  /// sizing group-commit flushes.
  uint64_t ApproximateBytes() const { return approximate_bytes_; }

  /// Appends every entry of `other` (in order) after this batch's entries.
  /// The group-commit and parallel-build paths stage per-worker batches and
  /// concatenate them in a deterministic order before the atomic publish.
  void Append(const WriteBatch& other) {
    entries_.reserve(entries_.size() + other.entries_.size());
    entries_.insert(entries_.end(), other.entries_.begin(),
                    other.entries_.end());
    approximate_bytes_ += other.approximate_bytes_;
  }

 private:
  static constexpr uint64_t kEntryOverheadBytes = 16;

  std::vector<Entry> entries_;
  uint64_t approximate_bytes_ = 0;
};

/// Immutable point-in-time view of a store.
///
/// A snapshot is safe to read from any thread without synchronization and
/// keeps every resource it references (LSM runs, the materialized memtable)
/// alive for its own lifetime, even if the store mutates, flushes, or
/// compacts after the snapshot was taken.
class KvSnapshot {
 public:
  virtual ~KvSnapshot() = default;

  /// Returns NotFound if absent or deleted as of the snapshot.
  virtual Result<std::string> Get(std::string_view key) const = 0;

  /// Batched lookup against the snapshot; same contract as KvStore::MultiGet.
  virtual std::vector<Result<std::string>> MultiGet(
      std::span<const std::string> keys) const = 0;

  /// Cursor over the snapshot's live entries.
  virtual std::unique_ptr<Iterator> NewIterator() const = 0;

  /// The store version (mutation epoch) this snapshot was taken at.
  virtual uint64_t version() const = 0;
};

/// Ordered key-value store interface — the stand-in for HBase in DGFIndex.
///
/// Keys sort in lexicographic byte order; GFU keys are encoded so that byte
/// order matches grid order (see dgf::GfuKey). All methods are thread-safe.
class KvStore {
 public:
  virtual ~KvStore() = default;

  virtual Status Put(std::string_view key, std::string_view value) = 0;
  /// Returns NotFound if absent or deleted.
  virtual Result<std::string> Get(std::string_view key) = 0;
  virtual Status Delete(std::string_view key) = 0;

  /// Applies every entry of `batch` atomically: a concurrent GetSnapshot
  /// observes either none of the batch or all of it. Bumps version() once.
  virtual Status ApplyBatch(const WriteBatch& batch) = 0;

  /// Pins an immutable point-in-time view. Cheap (shares internal state with
  /// the store); the snapshot stays valid after arbitrary later mutations.
  virtual std::shared_ptr<const KvSnapshot> GetSnapshot() = 0;

  /// Monotonic mutation counter: bumped by Put/Delete/ApplyBatch (once per
  /// call), never by internal reorganization (flush/compaction). Used as the
  /// index epoch for cache tagging and snapshot identity.
  virtual uint64_t version() = 0;

  /// Batched lookup: one result per key, in key order (NotFound for absent or
  /// deleted keys). The HBase multi-get analogue — one round trip amortizes
  /// locking and block reads across the whole batch, which is what makes the
  /// point-get strategy of DgfIndex::Lookup cheap.
  virtual std::vector<Result<std::string>> MultiGet(
      std::span<const std::string> keys) = 0;

  /// Snapshot cursor over the live entries.
  virtual std::unique_ptr<Iterator> NewIterator() = 0;

  /// Number of live entries.
  virtual Result<uint64_t> Count() = 0;

  /// Approximate bytes occupied by the live data (index-size experiments).
  virtual Result<uint64_t> ApproximateSizeBytes() = 0;
};

}  // namespace dgf::kv

#endif  // DGF_KV_KV_STORE_H_
