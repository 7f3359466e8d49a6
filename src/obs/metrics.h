#ifndef DGF_OBS_METRICS_H_
#define DGF_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dgf::obs {

/// Adds `v` to `a` with relaxed ordering (reporting-only accumulators).
/// CAS loop rather than std::atomic<double>::fetch_add so the hot path does
/// not depend on the toolchain's C++20 atomic-float support.
inline void AtomicAddDouble(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed,
                                  std::memory_order_relaxed)) {
  }
}

/// Monotonic event counter. Increment is one relaxed fetch_add; callers hold
/// the pointer returned by MetricsRegistry::GetCounter so the hot path never
/// touches the registry lock.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins double, with an additive mode for accumulated seconds
/// (the append pipeline's per-stage totals).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double v) { AtomicAddDouble(value_, v); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// Log-bucketed latency histogram: exact bucket counts, approximate
/// quantiles.
///
/// Bucket bounds grow by a factor of sqrt(2) from 1 microsecond, 64 buckets
/// (the last is the +Inf overflow), covering ~1us .. ~50 minutes. Observe is
/// a ~6-step binary search plus two relaxed atomic adds — no lock, no
/// allocation, safe from any thread. Quantile walks a snapshot of the bucket
/// counts and interpolates linearly inside the winning bucket, so the
/// estimate is within one bucket width (a factor of sqrt(2)) of the exact
/// order statistic; the obs tests assert that bound against a sorted sample.
///
/// This replaces the services' bespoke sliding-window percentile code, which
/// copied and sorted a 4096-entry window under the service lock on every
/// STATS request (O(n log n) per report).
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 64;
  /// Upper bound of bucket i (i < kNumBuckets - 1); the last bucket is +Inf.
  static double BucketBound(size_t i);

  void Observe(double value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    AtomicAddDouble(sum_, value);
  }

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Approximate q-quantile (q in [0,1]) of everything observed so far;
  /// 0 when empty. Within a factor of sqrt(2) of the exact order statistic.
  double Quantile(double q) const;

  /// Bucket counts snapshot, index-aligned with BucketBound.
  std::array<uint64_t, kNumBuckets> Buckets() const;

  static size_t BucketIndex(double value);

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0};
};

/// Thread-safe registry of named metrics.
///
/// Get* registers on first use and returns a pointer that stays valid for
/// the registry's lifetime — components resolve their metrics once at wiring
/// time and then increment lock-free. SetCallback registers a gauge whose
/// value is computed at snapshot time (the bridge for pre-existing atomic
/// counters like MiniDfs's failover/checksum totals, which keep their own
/// storage).
///
/// Naming scheme: lowercase dotted paths, `<component>.<what>[_<unit>]` —
/// `queries.admitted`, `appends.staging_s`, `fs.read_failovers`,
/// `coord.shard_errors`. Histograms flatten into `<name>.count`,
/// `<name>.sum`, `<name>.p50/.p95/.p99` in snapshots; the Prometheus
/// renderer emits them as real histogram series with `le` buckets.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide registry a daemon's components share (never destroyed).
  static MetricsRegistry* Default();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);
  /// Registers (or replaces) a snapshot-time gauge computed by `fn`.
  void SetCallback(const std::string& name, std::function<double()> fn);

  /// Every metric flattened to (name, value), sorted by name. Histograms
  /// contribute `<name>.count`, `<name>.sum`, `<name>.p50/.p95/.p99`.
  std::vector<std::pair<std::string, double>> Snapshot() const;

  /// Prometheus text exposition (dots become underscores, `dgf_` prefix).
  std::string RenderPrometheus() const;

  /// Flat JSON object `{"queries.admitted": 12, ...}` from Snapshot().
  std::string RenderJson() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::function<double()>> callbacks_;
};

}  // namespace dgf::obs

#endif  // DGF_OBS_METRICS_H_
