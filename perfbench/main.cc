// The repository benchmark's measuring program. One invocation runs one
// workload for one seed and prints, as its last stdout line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics by
// default, the per-layer metrics with --trace=1. Lines before it are a
// human-readable account of the run. perfbench/run.py builds and drives it.
//
//   dgf_perfbench --workload=serve_point|scan_wide|ingest_sharded
//                 --seed=N --seconds=S [--trace=0|1]
//
// Files go under $TMPDIR (removed on exit). Exit 0 when every answer was
// right, 1 on a wrong answer or failed operation, 2 on a bad flag.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"
#include "common/stopwatch.h"

namespace dgf::perfbench {
namespace {

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

bool ParseNumber(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end != nullptr && *end == '\0' && std::isfinite(*out);
}

void PrintResult(const RunOutcome& outcome) {
  std::string json = "{\"correct\": ";
  json += outcome.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Sets up the world kSetups times (setup_s is their median), runs the
/// query window, the appender, and the final count check.
RunOutcome RunEndToEnd(const Spec& spec, uint64_t seed, double seconds) {
  constexpr int kSetups = 3;
  RunOutcome out;
  std::vector<double> setup_s, build_s;
  std::unique_ptr<World> world;
  for (int r = 0; r < kSetups; ++r) {
    world.reset();  // one world alive at a time
    Stopwatch watch;
    auto built = BuildWorld(spec, seed);
    if (!built.ok()) {
      std::printf("# setup failed: %s\n", built.status().ToString().c_str());
      out.correct = false;
      out.attempted = out.failed = 1;
      return out;
    }
    world = std::move(*built);
    setup_s.push_back(watch.ElapsedSeconds());
    double build = 0;
    for (const auto& node : world->nodes) build += node->build_seconds;
    build_s.push_back(build);
  }

  // Small worlds build in tens of milliseconds: time extra builds until the
  // samples span a second, so the median is not one scheduler hiccup.
  double build_total = 0;
  for (double b : build_s) build_total += b;
  while (build_total < 1.0) {
    auto rebuilt = TimeIndexBuild(*world);
    if (!rebuilt.ok()) {
      std::printf("# rebuild failed: %s\n", rebuilt.status().ToString().c_str());
      out.correct = false;
      out.attempted = out.failed = 1;
      return out;
    }
    build_s.push_back(*rebuilt);
    build_total += *rebuilt;
  }

  AppendRun appends;
  const int window_batches =
      spec.concurrent_appends
          ? static_cast<int>(std::lround(seconds / spec.append_period_s))
          : 0;
  QueryWindow window =
      RunQueries(*world, seconds, /*traced=*/false, window_batches,
                 /*probe_appends=*/false, &appends);
  if (!spec.concurrent_appends) {
    appends = RunAppends(*world, spec.append_batches, /*probe=*/false);
  }
  const std::string count_error =
      CheckAppendedCount(*world, appends.rows_acked);

  uint64_t base = 0, stored = 0;
  for (const auto& node : world->nodes) {
    base += node->base_bytes;
    stored += node->slice_bytes + node->kv_bytes;
  }
  out.attempted = window.attempted + appends.attempted + 1;
  out.failed = window.failed + appends.failed + (count_error.empty() ? 0 : 1);
  out.correct = out.failed == 0;
  const double failed_frac = Ratio(static_cast<double>(out.failed),
                                   static_cast<double>(out.attempted));

  std::printf("# workload=%s seed=%llu seconds=%g host_cpus=%u\n",
              spec.name.c_str(), static_cast<unsigned long long>(seed),
              seconds, std::thread::hardware_concurrency());
  std::printf("# setups: %d, median %.3f s; last: nodes %.3f s, oracle "
              "%.3f s, warm-up %.3f s\n",
              kSetups, Median(setup_s), world->nodes_s, world->oracle_s,
              world->warmup_s);
  std::printf("# index builds: %zu, median %.3f s\n", build_s.size(),
              Median(build_s));
  std::printf("# queries: %llu attempted, %llu failed, %zu samples over "
              "%.2f s; p50 %.3f ms, p95 %.3f ms\n",
              static_cast<unsigned long long>(window.attempted),
              static_cast<unsigned long long>(window.failed),
              window.latency_ms.size(), window.elapsed_s,
              Median(window.latency_ms), Quantile(window.latency_ms, 0.95));
  for (const auto& [label, samples] : window.latency_by_label) {
    std::printf("#   %-18s %4zu samples, p50 %.3f ms, p95 %.3f ms\n",
                label.c_str(), samples.size(), Median(samples),
                Quantile(samples, 0.95));
  }
  std::printf("# appends (%s): %llu attempted, %llu failed, %zu samples; "
              "p50 %.3f ms, p95 %.3f ms from due time; generator late "
              "p50 %.3f ms, p95 %.3f ms\n",
              spec.concurrent_appends ? "beside the queries"
                                      : "after the query window",
              static_cast<unsigned long long>(appends.attempted),
              static_cast<unsigned long long>(appends.failed),
              appends.latency_ms.size(), Median(appends.latency_ms),
              Quantile(appends.latency_ms, 0.95), Median(appends.lateness_ms),
              Quantile(appends.lateness_ms, 0.95));
  std::printf("# ops_failed_frac = %.6f (%llu of %llu)\n", failed_frac,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  if (window.latency_ms.size() < 200) {
    std::printf("# note: fewer than 200 query samples back the p95\n");
  }
  for (const std::string& error :
       {window.first_error, appends.first_error, count_error}) {
    if (!error.empty()) std::printf("# FAIL: %s\n", error.c_str());
  }

  out.metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"index_build_s", Median(build_s), "s"},
      {"query_p50_ms", Median(window.latency_ms), "ms"},
      {"query_p95_ms", Quantile(window.latency_ms, 0.95), "ms"},
      {"query_qps",
       Ratio(static_cast<double>(window.latency_ms.size()), window.elapsed_s),
       "1/s"},
      {"append_p50_ms", Median(appends.latency_ms), "ms"},
      {"append_write_amp",
       Ratio(static_cast<double>(appends.dfs_bytes_written),
             static_cast<double>(appends.text_bytes)),
       "ratio"},
      {"storage_amp",
       Ratio(static_cast<double>(stored), static_cast<double>(base)), "ratio"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  return out;
}

int Main(int argc, char** argv) {
  std::string workload;
  double seed = -1, seconds = 0, trace = 0;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    bool ok = false;
    if (ParseFlag(argv[i], "--workload", &value)) {
      workload = value;
      ok = true;
    } else if (ParseFlag(argv[i], "--seed", &value)) {
      ok = ParseNumber(value, &seed) && seed >= 0;
    } else if (ParseFlag(argv[i], "--seconds", &value)) {
      ok = ParseNumber(value, &seconds) && seconds > 0;
    } else if (ParseFlag(argv[i], "--trace", &value)) {
      ok = ParseNumber(value, &trace) && (trace == 0 || trace == 1);
    }
    if (!ok) {
      std::fprintf(stderr, "bad flag: %s\n", argv[i]);
      return 2;
    }
  }
  const Spec* spec = FindSpec(workload);
  if (spec == nullptr || seed < 0 || seconds <= 0) {
    std::string names;
    for (const std::string& name : SpecNames()) names += " " + name;
    std::fprintf(stderr,
                 "usage: dgf_perfbench --workload=<name> --seed=N "
                 "--seconds=S [--trace=0|1]\n"
                 "workloads:%s\n",
                 names.c_str());
    return 2;
  }
  const auto seed_value = static_cast<uint64_t>(seed);
  RunOutcome outcome;
  if (trace == 1) {
    auto built = BuildWorld(*spec, seed_value);
    if (!built.ok()) {
      std::printf("# setup failed: %s\n", built.status().ToString().c_str());
      outcome.correct = false;
      outcome.attempted = outcome.failed = 1;
    } else {
      outcome = RunTraced(**built, seconds);
    }
  } else {
    outcome = RunEndToEnd(*spec, seed_value, seconds);
  }
  PrintResult(outcome);
  return outcome.correct ? 0 : 1;
}

}  // namespace
}  // namespace dgf::perfbench

int main(int argc, char** argv) { return dgf::perfbench::Main(argc, argv); }
