// Reproduces Table 2: index size and construction time on the meter data.
//
// Rows: Compact-3D (RCFile), Compact-2D (RCFile), DGF-Large, DGF-Medium,
// DGF-Small. Construction time is the simulated cluster duration of the
// build job; size is the real on-disk/in-store footprint. Expected shape:
// the 3-dim Compact index is comparable to the base table itself; DGF
// indexes are orders of magnitude smaller and shrink as intervals grow;
// DGF construction costs more than Compact construction (full data
// reorganization through the shuffle).

#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "kv/lsm_kv.h"

namespace dgf::bench {
namespace {

void RunParallelBuild(MeterBench& bench);

void Run() {
  MeterBench bench = MeterBench::Create("table2", DefaultMeterOptions());
  const auto base_bytes =
      CheckOk(table::TableDataBytes(bench.dfs(), bench.meter()), "base bytes");
  std::printf("Table 2 reproduction: %lld rows, base table %s (TextFile)\n",
              static_cast<long long>(bench.config().TotalRows()),
              HumanBytes(base_bytes).c_str());

  TablePrinter table(
      "Table 2: index size and construction time",
      {"index", "base format", "dims", "size", "size/base",
       "construction (sim s)"});

  {
    exec::JobResult build;
    auto* compact3 = bench.Compact3(&build);
    const uint64_t size = CheckOk(compact3->IndexSizeBytes(), "size");
    table.AddRow({"Compact", "RCFile", "3", HumanBytes(size),
                  StringPrintf("%.3f", static_cast<double>(size) / base_bytes),
                  Seconds(build.simulated_seconds)});
  }
  {
    exec::JobResult build;
    auto* compact2 = bench.Compact(&build);
    const uint64_t size = CheckOk(compact2->IndexSizeBytes(), "size");
    table.AddRow({"Compact", "RCFile", "2", HumanBytes(size),
                  StringPrintf("%.3f", static_cast<double>(size) / base_bytes),
                  Seconds(build.simulated_seconds)});
  }
  for (IntervalClass c : {IntervalClass::kLarge, IntervalClass::kMedium,
                          IntervalClass::kSmall}) {
    exec::JobResult build;
    auto* dgf = bench.Dgf(c, &build);
    const uint64_t size = CheckOk(dgf->IndexSizeBytes(), "size");
    const uint64_t gfus = CheckOk(dgf->NumGfus(), "gfus");
    table.AddRow({StringPrintf("DGF-%s (%s GFUs)", IntervalClassName(c),
                               Count(gfus).c_str()),
                  "TextFile", "3", HumanBytes(size),
                  StringPrintf("%.5f", static_cast<double>(size) / base_bytes),
                  Seconds(build.simulated_seconds)});
  }
  table.Print();
  std::printf(
      "\nPaper shape: Compact-3D ~ base-table sized; DGF indexes are MBs;\n"
      "finer intervals -> more GFUs -> larger DGF index; DGF construction\n"
      "slower than Compact (reorganization shuffles all data).\n");

  RunParallelBuild(bench);
}

/// Parallel build axis: the same DGF-Large index built from scratch with
/// every --build-threads value (DGF_BENCH_BUILD_THREADS, default "1,2,4,8").
/// "wall s" is the measured end-to-end build on this machine; "projected s"
/// replays the serial run's per-task seconds through the makespan simulator
/// with N slots — the honest multi-core projection when the host has fewer
/// cores than the thread axis. Each run also reports the per-stage wall
/// breakdown (shard / merge / slice_write / bounds / publish) so the serial
/// fraction bounding the speedup is visible. Results also land in
/// BENCH_build.json (DGF_BENCH_BUILD_JSON) for trajectory tracking.
void RunParallelBuild(MeterBench& bench) {
  const std::vector<int> thread_axis =
      EnvIntList("DGF_BENCH_BUILD_THREADS", "1,2,4,8");
  const auto rows = static_cast<double>(bench.config().TotalRows());
  const unsigned host_cpus = std::max(1u, std::thread::hardware_concurrency());

  TablePrinter table("Table 2b: parallel DGF-Large build (--build-threads)",
                     {"build threads", "wall s", "rows/s", "wall speedup",
                      "projected s", "projected speedup"});
  std::vector<std::string> stage_lines;
  std::vector<double> serial_tasks;
  double serial_wall = 0, serial_projected = 0;
  int variant = 0;
  for (const int threads : thread_axis) {
    core::DgfBuilder::Options options;
    const int64_t interval = std::max<int64_t>(
        1, bench.config().num_users / IntervalCount(IntervalClass::kLarge));
    options.dims = {
        {"userId", table::DataType::kInt64, 0, static_cast<double>(interval)},
        {"regionId", table::DataType::kInt64, 0, 1},
        {"time", table::DataType::kDate,
         static_cast<double>(bench.config().start_day), 1}};
    options.precompute = {"sum(powerConsumed)", "count(*)"};
    options.data_dir =
        StringPrintf("/warehouse/meterdata_dgf_par%02d", variant++);
    options.job.cluster = bench.options().cluster;
    options.job.worker_threads = threads;
    options.build_threads = threads;
    // Small splits so the shard phase has enough tasks to spread.
    options.split_size = 1ULL << 20;
    std::shared_ptr<kv::KvStore> store = CheckOk(
        kv::LsmKv::Open({.dfs = bench.dfs(), .dir = "/kv" + options.data_dir}),
        "open store");
    exec::JobResult result;
    Stopwatch watch;
    auto index = CheckOk(core::DgfBuilder::Build(bench.dfs(), store,
                                                 bench.meter(), options,
                                                 &result),
                         "parallel build");
    const double wall = watch.ElapsedSeconds();
    if (serial_tasks.empty()) {
      serial_tasks = result.local_task_seconds;
      serial_wall = wall;
      serial_projected =
          exec::SimulateMakespan(serial_tasks, /*slots=*/1);
    }
    // Replay the SERIAL run's task set at N slots: same work, N-wide pool.
    const double projected =
        exec::SimulateMakespan(serial_tasks, std::max(1, threads));
    table.AddRow({StringPrintf("%d", threads), Seconds(wall),
                  Count(static_cast<uint64_t>(rows / wall)),
                  StringPrintf("%.2fx", serial_wall / wall),
                  Seconds(projected),
                  StringPrintf("%.2fx", serial_projected / projected)});
    std::string stage_line = StringPrintf("  threads=%d:", threads);
    for (const auto& [stage, seconds] : result.stage_seconds.Sorted()) {
      stage_line += StringPrintf(" %s=%.3fs", stage.c_str(), seconds);
    }
    stage_lines.push_back(stage_line);
    AppendBenchJson(
        "DGF_BENCH_BUILD_JSON", "BENCH_build.json",
        StringPrintf("{\"bench\": \"table2_index_build\", \"threads\": %d, "
                     "\"rows\": %.0f, \"wall_s\": %.6f, \"rows_per_s\": %.0f, "
                     "\"wall_speedup\": %.3f, \"projected_s\": %.6f, "
                     "\"projected_speedup\": %.3f, \"host_cpus\": %u, "
                     "\"stages\": %s}",
                     threads, rows, wall, rows / wall, serial_wall / wall,
                     projected, serial_projected / projected, host_cpus,
                     result.stage_seconds.ToJson().c_str()));
  }
  table.Print();
  std::printf("\nPer-stage wall breakdown (host has %u CPU%s):\n", host_cpus,
              host_cpus == 1 ? "" : "s");
  for (const std::string& line : stage_lines) {
    std::printf("%s\n", line.c_str());
  }
  std::printf(
      "\nParallel builds are byte-identical to the serial one (see\n"
      "dgf_difftest --build-sweep); the projected column replays measured\n"
      "per-task seconds on an N-slot pool.\n");
}

}  // namespace
}  // namespace dgf::bench

int main() {
  dgf::bench::Run();
  return 0;
}
