#include "exec/mapreduce.h"

#include <algorithm>
#include <cmath>

#include "common/stopwatch.h"
#include "common/thread_pool.h"

namespace dgf::exec {

void Counters::Add(const std::string& name, int64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  values_[name] += delta;
}

int64_t Counters::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second;
}

std::map<std::string, int64_t> Counters::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return values_;
}

void Counters::MergeFrom(const Counters& other) {
  for (const auto& [name, value] : other.Snapshot()) Add(name, value);
}

void MapContext::Emit(std::string key, std::string value) {
  emitted_.emplace_back(std::move(key), std::move(value));
}

void ReduceContext::Collect(std::string key, std::string value) {
  output_.emplace_back(std::move(key), std::move(value));
}

namespace {

uint64_t HashKey(const std::string& key) {
  // FNV-1a; stable across runs so reducer partitions are deterministic.
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

Result<JobResult> JobRunner::Run(const std::vector<fs::FileSplit>& splits,
                                 const MapperFactory& mapper_factory,
                                 const ReducerFactory& reducer_factory) {
  if (options_.num_reducers > 0 && reducer_factory == nullptr) {
    return Status::InvalidArgument("reducers requested without a factory");
  }
  JobResult result;
  result.num_map_tasks = static_cast<int>(splits.size());
  result.num_reduce_tasks = options_.num_reducers;
  Stopwatch wall;

  // ---- Map phase ----
  std::vector<std::unique_ptr<MapContext>> contexts;
  contexts.reserve(splits.size());
  for (const auto& split : splits) {
    contexts.emplace_back(new MapContext(split));
  }
  std::vector<double> map_task_seconds(splits.size(), 0.0);
  std::vector<Status> map_status(splits.size());
  ParallelFor(splits.size(), options_.worker_threads, [&](size_t i) {
    Stopwatch task_watch;
    auto mapper = mapper_factory();
    map_status[i] = mapper->Map(contexts[i]->split(), contexts[i].get());
    map_task_seconds[i] = task_watch.ElapsedSeconds();
  });
  for (const Status& st : map_status) DGF_RETURN_IF_ERROR(st);
  result.local_task_seconds = std::move(map_task_seconds);

  // Aggregate per-task accounting into counters and the cost model.
  const ClusterConfig& cluster = options_.cluster;
  std::vector<double> map_costs;
  map_costs.reserve(contexts.size());
  uint64_t shuffle_bytes = 0;
  for (const auto& ctx : contexts) {
    result.counters.MergeFrom(ctx->counters_);
    result.counters.Add(kCounterMapInputBytes,
                        static_cast<int64_t>(ctx->bytes_read_));
    result.counters.Add(kCounterMapInputRecords,
                        static_cast<int64_t>(ctx->records_));
    result.counters.Add(kCounterMapOutputRecords,
                        static_cast<int64_t>(ctx->emitted_.size()));
    // Under data_scale, one local task stands for the many 64 MB map tasks
    // the full-size deployment would have run over the same data; expand it
    // so slot waves amortize as they really would.
    const double scaled_bytes =
        cluster.data_scale * static_cast<double>(ctx->bytes_read_);
    const double scaled_records =
        cluster.data_scale * static_cast<double>(ctx->records_);
    const auto virtual_tasks = static_cast<int64_t>(std::clamp(
        std::ceil(scaled_bytes / cluster.virtual_split_bytes), 1.0, 1.0e6));
    const double per_task =
        cluster.task_launch_overhead_s +
        scaled_bytes / virtual_tasks / (1e6 * cluster.scan_mb_per_s) +
        scaled_records / virtual_tasks * cluster.record_cpu_s +
        static_cast<double>(ctx->seeks_) * cluster.seek_cost_s / virtual_tasks;
    for (int64_t v = 0; v < virtual_tasks; ++v) map_costs.push_back(per_task);
    for (const auto& [key, value] : ctx->emitted_) {
      shuffle_bytes += key.size() + value.size();
    }
  }
  result.simulated_map_seconds =
      SimulateMakespan(map_costs, cluster.total_map_slots());

  // ---- Shuffle + reduce phase ----
  if (options_.num_reducers > 0) {
    const int num_reducers = options_.num_reducers;
    // Parallel shuffle, in two deterministic steps. Step 1 partitions each
    // map task's emissions locally (one task per map context, no shared
    // state). Step 2 merges the per-context partitions per reducer, always
    // iterating contexts in split order — so a reducer's key groups hold
    // their values in exactly the order a sequential shuffle would produce,
    // regardless of worker count or scheduling.
    using Partition = std::map<std::string, std::vector<std::string>>;
    std::vector<std::vector<Partition>> local(contexts.size());
    std::vector<Partition> partitions(static_cast<size_t>(num_reducers));
    ParallelFor(contexts.size(), options_.worker_threads, [&](size_t i) {
      MapContext* ctx = contexts[i].get();
      local[i].resize(static_cast<size_t>(num_reducers));
      for (auto& [key, value] : ctx->emitted_) {
        const auto part = static_cast<size_t>(
            HashKey(key) % static_cast<uint64_t>(num_reducers));
        local[i][part][std::move(key)].push_back(std::move(value));
      }
      ctx->emitted_.clear();
    });
    ParallelFor(static_cast<size_t>(num_reducers), options_.worker_threads,
                [&](size_t r) {
                  Partition& merged = partitions[r];
                  for (size_t i = 0; i < local.size(); ++i) {
                    for (auto& [key, values] : local[i][r]) {
                      auto& dst = merged[key];
                      dst.insert(dst.end(),
                                 std::make_move_iterator(values.begin()),
                                 std::make_move_iterator(values.end()));
                    }
                    local[i][r].clear();
                  }
                });
    local.clear();

    std::vector<std::unique_ptr<ReduceContext>> reduce_contexts;
    std::vector<uint64_t> partition_bytes(static_cast<size_t>(num_reducers), 0);
    for (int r = 0; r < num_reducers; ++r) {
      reduce_contexts.emplace_back(new ReduceContext(r));
      for (const auto& [key, values] : partitions[static_cast<size_t>(r)]) {
        uint64_t bytes = key.size() * values.size();
        for (const auto& value : values) bytes += value.size();
        partition_bytes[static_cast<size_t>(r)] += bytes;
      }
    }
    std::vector<double> reduce_task_seconds(static_cast<size_t>(num_reducers),
                                            0.0);
    std::vector<Status> reduce_status(static_cast<size_t>(num_reducers));
    ParallelFor(static_cast<size_t>(num_reducers), options_.worker_threads,
                [&](size_t r) {
                  Stopwatch task_watch;
                  auto reducer = reducer_factory(static_cast<int>(r));
                  ReduceContext* ctx = reduce_contexts[r].get();
                  Status st = reducer->Start(ctx);
                  if (st.ok()) {
                    for (const auto& [key, values] : partitions[r]) {
                      st = reducer->Reduce(key, values, ctx);
                      if (!st.ok()) break;
                      ctx->counters().Add(kCounterReduceInputKeys, 1);
                    }
                  }
                  if (st.ok()) st = reducer->Finish(ctx);
                  reduce_task_seconds[r] = task_watch.ElapsedSeconds();
                  reduce_status[r] = std::move(st);
                });
    for (const Status& st : reduce_status) DGF_RETURN_IF_ERROR(st);
    result.local_task_seconds.insert(result.local_task_seconds.end(),
                                     reduce_task_seconds.begin(),
                                     reduce_task_seconds.end());

    std::vector<double> reduce_costs;
    reduce_costs.reserve(static_cast<size_t>(num_reducers));
    for (int r = 0; r < num_reducers; ++r) {
      ReduceContext* ctx = reduce_contexts[static_cast<size_t>(r)].get();
      // Like map tasks, a scaled-up reducer stands for the many reducers the
      // full-size job would have configured; expand it into virtual tasks.
      const double scaled_shuffle =
          cluster.data_scale *
          static_cast<double>(partition_bytes[static_cast<size_t>(r)]);
      const double scaled_written =
          cluster.data_scale * static_cast<double>(ctx->bytes_written_);
      const auto virtual_tasks = static_cast<int64_t>(std::clamp(
          std::ceil((scaled_shuffle + scaled_written) /
                    cluster.virtual_split_bytes),
          1.0, 1.0e6));
      const double per_task =
          cluster.task_launch_overhead_s +
          scaled_shuffle / virtual_tasks / (1e6 * cluster.shuffle_mb_per_s) +
          scaled_written / virtual_tasks / (1e6 * cluster.scan_mb_per_s);
      for (int64_t v = 0; v < virtual_tasks; ++v) {
        reduce_costs.push_back(per_task);
      }
      result.counters.MergeFrom(ctx->counters_);
      for (auto& kv : ctx->output_) result.reduce_output.push_back(std::move(kv));
    }
    result.simulated_shuffle_reduce_seconds =
        SimulateMakespan(reduce_costs, cluster.total_reduce_slots());
  } else {
    // Map-only job: mapper emissions become the job output directly.
    for (auto& ctx : contexts) {
      for (auto& kv : ctx->emitted_) {
        result.reduce_output.push_back(std::move(kv));
      }
    }
  }

  result.simulated_seconds = cluster.job_overhead_s +
                             result.simulated_map_seconds +
                             result.simulated_shuffle_reduce_seconds;
  result.wall_seconds = wall.ElapsedSeconds();
  return result;
}

}  // namespace dgf::exec
