#ifndef DGF_COMMON_LRU_CACHE_H_
#define DGF_COMMON_LRU_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace dgf {

/// Sharded LRU cache keyed by string, the block-cache analogue for the
/// DGFIndex read path: DgfIndex keeps decoded GfuValues and per-dimension
/// min/max meta cells here so repeated queries skip the KV round trip and the
/// re-decode entirely.
///
/// Sharding bounds lock contention under concurrent lookups (each shard has
/// its own mutex and LRU list); hit/miss counters are process-wide atomics
/// read with relaxed loads. Values are returned by copy — cache
/// shared_ptr<const T> when copies are expensive.
///
/// Entries carry a monotonically increasing epoch (the store version they
/// were decoded at), which replaces blanket Clear() invalidation under
/// concurrency: a reader pinned at epoch E ignores entries newer than E
/// without evicting them (a newer reader still wants those), and evicts
/// entries older than E on contact (the store is past them forever, so they
/// can never be valid again). Writers never publish over a newer entry.
template <typename V>
class ShardedLruCache {
 public:
  /// `capacity` is the total entry budget, split evenly across `num_shards`
  /// (each shard holds at least one entry).
  explicit ShardedLruCache(size_t capacity = 16384, size_t num_shards = 8)
      : shards_(num_shards == 0 ? 1 : num_shards) {
    const size_t per_shard = capacity / shards_.size();
    for (auto& shard : shards_) shard.capacity = per_shard > 0 ? per_shard : 1;
  }

  /// Returns a copy of the value cached for `key` at exactly `epoch` and
  /// promotes the entry, or nullopt. An entry tagged older than `epoch` is
  /// erased (epochs only grow, so it is permanently stale); an entry tagged
  /// newer is left alone for readers pinned at that later epoch.
  std::optional<V> Get(std::string_view key, uint64_t epoch) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    if (it->second->epoch != epoch) {
      if (it->second->epoch < epoch) {
        shard.lru.erase(it->second);
        shard.map.erase(it);
      }
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second->value;
  }

  /// Inserts or overwrites `key` with a value decoded at `epoch`, evicting
  /// the least-recently-used entries of the shard beyond its capacity. A
  /// publish against an entry already tagged with a newer epoch is dropped:
  /// a slow reader must never roll the cache backwards for everyone else.
  void Put(std::string_view key, uint64_t epoch, V value) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      if (it->second->epoch > epoch) return;
      it->second->value = std::move(value);
      it->second->epoch = epoch;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    shard.lru.push_front(Entry{std::string(key), std::move(value), epoch});
    shard.map.emplace(std::string_view(shard.lru.front().key),
                      shard.lru.begin());
    while (shard.lru.size() > shard.capacity) {
      shard.map.erase(std::string_view(shard.lru.back().key));
      shard.lru.pop_back();
    }
  }

  void Erase(std::string_view key) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) return;
    shard.lru.erase(it->second);
    shard.map.erase(it);
  }

  /// Drops every entry: a memory-hygiene hook only, since stale epochs age
  /// out on contact.
  void Clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.map.clear();
      shard.lru.clear();
    }
  }

  size_t size() const {
    size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total += shard.lru.size();
    }
    return total;
  }

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  struct Entry {
    std::string key;
    V value;
    uint64_t epoch = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    size_t capacity = 1;
    // Front = most recently used. The map's string_view keys point into the
    // list entries, which are address-stable across splices.
    std::list<Entry> lru;
    std::unordered_map<std::string_view, typename std::list<Entry>::iterator>
        map;
  };

  Shard& ShardFor(std::string_view key) {
    return shards_[std::hash<std::string_view>{}(key) % shards_.size()];
  }

  std::vector<Shard> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace dgf

#endif  // DGF_COMMON_LRU_CACHE_H_
