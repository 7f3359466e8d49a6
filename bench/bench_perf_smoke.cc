// Parallel-build perf smoke: a pass/fail gate (not a reporting bench) that
// fails when the 4-thread DGF build is not at least 1.5x faster than the
// 1-thread build of the same data. This is the regression tripwire for the
// write-path scaling work: a reintroduced global lock or serial merge shows
// up here long before anyone reads BENCH_build.json.
//
// The gate needs real cores to mean anything: on hosts with fewer than 4
// CPUs it prints a gtest-style "[  SKIPPED ]" line and exits 0 (the ctest
// entry matches that as a skip). Knobs: DGF_SMOKE_USERS, DGF_SMOKE_DAYS,
// DGF_SMOKE_MIN_SPEEDUP.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "kv/lsm_kv.h"

namespace dgf::bench {
namespace {

/// One from-scratch DGF-Large build at `threads`; returns wall seconds.
double TimedBuild(MeterBench& bench, int threads, int variant) {
  core::DgfBuilder::Options options;
  const int64_t interval = std::max<int64_t>(
      1, bench.config().num_users / IntervalCount(IntervalClass::kLarge));
  options.dims = {
      {"userId", table::DataType::kInt64, 0, static_cast<double>(interval)},
      {"regionId", table::DataType::kInt64, 0, 1},
      {"time", table::DataType::kDate,
       static_cast<double>(bench.config().start_day), 1}};
  options.precompute = {"sum(powerConsumed)", "count(*)"};
  options.data_dir = StringPrintf("/warehouse/meterdata_smoke%02d", variant);
  options.job.cluster = bench.options().cluster;
  options.job.worker_threads = threads;
  options.build_threads = threads;
  options.split_size = 1ULL << 20;
  std::shared_ptr<kv::KvStore> store = CheckOk(
      kv::LsmKv::Open({.dfs = bench.dfs(), .dir = "/kv" + options.data_dir}),
      "open store");
  Stopwatch watch;
  CheckOk(core::DgfBuilder::Build(bench.dfs(), store, bench.meter(), options)
              .status(),
          "smoke build");
  return watch.ElapsedSeconds();
}

int Run() {
  const unsigned host_cpus = std::thread::hardware_concurrency();
  if (host_cpus < 4) {
    std::printf(
        "[  SKIPPED ] perf smoke needs >= 4 CPUs to measure a 4-thread "
        "speedup; host has %u\n",
        host_cpus);
    return 0;
  }

  MeterBench::Options options = DefaultMeterOptions();
  options.config.num_users =
      static_cast<int64_t>(EnvInt("DGF_SMOKE_USERS", 6000));
  options.config.num_days = static_cast<int>(EnvInt("DGF_SMOKE_DAYS", 10));
  const double min_speedup =
      static_cast<double>(EnvInt("DGF_SMOKE_MIN_SPEEDUP", 150)) / 100.0;
  MeterBench bench = MeterBench::Create("perf_smoke", options);

  // Interleave two rounds and keep the best of each arm: the gate compares
  // capability, not scheduler luck.
  double serial = 1e300, parallel = 1e300;
  int variant = 0;
  for (int round = 0; round < 2; ++round) {
    serial = std::min(serial, TimedBuild(bench, 1, variant++));
    parallel = std::min(parallel, TimedBuild(bench, 4, variant++));
  }
  const double speedup = serial / parallel;
  std::printf(
      "perf smoke: 1-thread %.3fs, 4-thread %.3fs, speedup %.2fx "
      "(floor %.2fx, host %u CPUs)\n",
      serial, parallel, speedup, min_speedup, host_cpus);
  if (speedup < min_speedup) {
    std::printf(
        "[  FAILED  ] parallel build speedup %.2fx below the %.2fx floor — "
        "a serialization point crept back into the build path\n",
        speedup, min_speedup);
    return 1;
  }
  std::printf("[  PASSED  ] parallel build speedup gate\n");
  return 0;
}

}  // namespace
}  // namespace dgf::bench

int main() { return dgf::bench::Run(); }
