#ifndef DGF_EXEC_MAPREDUCE_H_
#define DGF_EXEC_MAPREDUCE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/stage_timer.h"
#include "common/status.h"
#include "exec/cluster.h"
#include "fs/split.h"

namespace dgf::exec {

/// Named counters aggregated across the tasks of one job (Hadoop-style).
class Counters {
 public:
  Counters() = default;
  Counters(const Counters& other) : values_(other.Snapshot()) {}
  Counters& operator=(const Counters& other) {
    if (this != &other) {
      auto snapshot = other.Snapshot();
      std::lock_guard<std::mutex> lock(mu_);
      values_ = std::move(snapshot);
    }
    return *this;
  }

  void Add(const std::string& name, int64_t delta);
  int64_t Get(const std::string& name) const;
  std::map<std::string, int64_t> Snapshot() const;
  void MergeFrom(const Counters& other);

 private:
  mutable std::mutex mu_;
  std::map<std::string, int64_t> values_;
};

/// Well-known counter names.
inline constexpr char kCounterMapInputRecords[] = "map.input.records";
inline constexpr char kCounterMapInputBytes[] = "map.input.bytes";
inline constexpr char kCounterMapOutputRecords[] = "map.output.records";
inline constexpr char kCounterReduceInputKeys[] = "reduce.input.keys";
inline constexpr char kCounterSlicesRead[] = "dgf.slices.read";
inline constexpr char kCounterKvGets[] = "index.kv.gets";

/// Per-map-task context: shuffle emission plus work accounting that feeds the
/// simulated cluster cost.
class MapContext {
 public:
  /// Sends (key, value) to the shuffle; the key's hash picks the reducer.
  void Emit(std::string key, std::string value);

  /// Reports bytes pulled from the DFS by this task (charged against scan
  /// bandwidth in the cost model).
  void AddBytesRead(uint64_t bytes) { bytes_read_ += bytes; }
  /// Reports a positional jump within the input (slice skipping).
  void AddSeeks(uint64_t count) { seeks_ += count; }
  void AddRecords(uint64_t count) { records_ += count; }

  Counters& counters() { return counters_; }
  const fs::FileSplit& split() const { return split_; }

 private:
  friend class JobRunner;
  explicit MapContext(fs::FileSplit split) : split_(std::move(split)) {}

  fs::FileSplit split_;
  std::vector<std::pair<std::string, std::string>> emitted_;
  uint64_t bytes_read_ = 0;
  uint64_t seeks_ = 0;
  uint64_t records_ = 0;
  Counters counters_;
};

/// Per-reduce-task context.
class ReduceContext {
 public:
  int reducer_id() const { return reducer_id_; }
  Counters& counters() { return counters_; }

  /// Collects one output record (gathered into JobResult::reduce_output).
  void Collect(std::string key, std::string value);

  /// Reports bytes this reduce task wrote to the DFS (charged against scan
  /// bandwidth in the cost model; e.g. reorganized slice files).
  void AddBytesWritten(uint64_t bytes) { bytes_written_ += bytes; }

 private:
  friend class JobRunner;
  explicit ReduceContext(int id) : reducer_id_(id) {}

  int reducer_id_;
  std::vector<std::pair<std::string, std::string>> output_;
  uint64_t bytes_written_ = 0;
  Counters counters_;
};

/// User map function: processes one split.
class Mapper {
 public:
  virtual ~Mapper() = default;
  virtual Status Map(const fs::FileSplit& split, MapContext* ctx) = 0;
};

/// User reduce function: processes one key group.
class Reducer {
 public:
  virtual ~Reducer() = default;
  /// Called once before the first key of this reducer's partition.
  virtual Status Start(ReduceContext* ctx) {
    (void)ctx;
    return Status::OK();
  }
  virtual Status Reduce(const std::string& key,
                        const std::vector<std::string>& values,
                        ReduceContext* ctx) = 0;
  /// Called after the last key (flush point for file-writing reducers).
  virtual Status Finish(ReduceContext* ctx) {
    (void)ctx;
    return Status::OK();
  }
};

using MapperFactory = std::function<std::unique_ptr<Mapper>()>;
using ReducerFactory = std::function<std::unique_ptr<Reducer>(int reducer_id)>;

/// Outcome of one job: counters plus measured and simulated durations.
struct JobResult {
  Counters counters;
  /// (key, value) pairs collected by reducers, merged across partitions.
  std::vector<std::pair<std::string, std::string>> reduce_output;
  int num_map_tasks = 0;
  int num_reduce_tasks = 0;
  double wall_seconds = 0.0;
  /// Cluster-model duration (see ClusterConfig). The quantity the benches
  /// report as "query cost time".
  double simulated_seconds = 0.0;
  double simulated_map_seconds = 0.0;
  double simulated_shuffle_reduce_seconds = 0.0;
  /// Measured wall seconds of every parallel task of the job (map tasks then
  /// reduce/writer tasks, in task order). Replaying these through
  /// SimulateMakespan(tasks, N) projects the local wall time the same work
  /// would take with N worker slots — the build benches report that
  /// projection next to the measured wall time, which on a single-core host
  /// cannot show the parallel speedup directly.
  std::vector<double> local_task_seconds;
  /// Wall-clock breakdown of the job by pipeline stage (shard, merge,
  /// slice_write, bounds, ...): the Amdahl evidence for which stages run
  /// serially. Benches embed this next to the end-to-end wall time.
  StageTimes stage_seconds;
};

/// Deterministic multi-threaded MapReduce engine over MiniDfs splits.
///
/// A job = one map task per input split, an in-memory sort/shuffle, and
/// `num_reducers` reduce tasks. Each phase's tasks run through ParallelFor on
/// the process pool (common/thread_pool.h); the simulated duration is
/// computed by replaying per-task costs through the ClusterConfig's slot
/// model (SimulateMakespan).
class JobRunner {
 public:
  struct Options {
    ClusterConfig cluster;
    /// At most this many threads run one phase's tasks, the calling thread
    /// included (1 runs the job inline on the caller).
    int worker_threads = 4;
    int num_reducers = 0;  // 0 = map-only job
  };

  explicit JobRunner(Options options) : options_(options) {}

  /// Runs the job to completion. Any task error fails the job.
  Result<JobResult> Run(const std::vector<fs::FileSplit>& splits,
                        const MapperFactory& mapper_factory,
                        const ReducerFactory& reducer_factory = nullptr);

 private:
  Options options_;
};

}  // namespace dgf::exec

#endif  // DGF_EXEC_MAPREDUCE_H_
