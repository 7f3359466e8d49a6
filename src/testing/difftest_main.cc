// dgf_difftest: differential oracle harness for the mini warehouse.
//
// Every generated query is executed through brute-force scan, Compact Index,
// Bitmap Index, DGFIndex over TextFile, RCFile, and columnar slices (and the
// Aggregate Index rewrite when eligible) and the results must be identical. On top of the query differential it sweeps LsmKv crash
// consistency (kill-and-reopen at every flush/compaction/manifest boundary)
// and replays seeded read-fault schedules against live queries.
//
// Modes:
//   dgf_difftest --seeds=tier1           fixed smoke suite (the ctest entry)
//   dgf_difftest --seed=N [--queries=Q]  one differential world
//   dgf_difftest --seed=N --case=K       replay one failing case
//   dgf_difftest --threads=K ...         run each world's cases on K reader
//                                        threads against a sequential oracle
//   dgf_difftest --crash-sweep --seed=N  LSM crash-consistency sweep only
//   dgf_difftest --fault-sweep --seed=N  read-fault schedule sweep, then
//                                        seeded on-disk byte flips that must
//                                        yield the oracle or Corruption
//   dgf_difftest --parser-fuzz --seed=N [--case=K]  parser fuzz only
//   dgf_difftest --col-fuzz --seed=N [--case=K]  columnar codec fuzz:
//                                        flipped bits, truncations, and
//                                        crafted lying blocks must yield
//                                        structured Corruption, never a
//                                        crash or silently wrong rows
//   dgf_difftest --build-sweep --seed=N [--count=K]  build-equivalence sweep:
//                                        serial vs 2/4/8-thread builds must
//                                        be byte-identical and match the data
//   dgf_difftest --builder-crash-sweep --seed=N  kill-and-reopen sweep over
//                                        the build/append/group-commit path
//   dgf_difftest --shard-sweep --seed=N [--count=K] [--shards=S] [--case=C]
//                                        sharded-vs-oracle sweep: every query
//                                        through 1/2/4-shard clusters behind
//                                        the coordinator must match the
//                                        single-node oracle
//   dgf_difftest --wire-fuzz --seed=N [--case=K]  mutated-frame fuzz against
//                                        the wire codec and a live server
//   dgf_difftest --node-crash-sweep --seed=N [--seeds=K] [--shards=S]
//                                        kill-a-node sweep: replicated 2/4-
//                                        shard clusters lose a replica store
//                                        and a whole shard daemon at
//                                        seed-derived points; every
//                                        query must still match the oracle
//                                        and recovered state the acked prefix
//   dgf_difftest --duration=SECONDS      open-ended soak over rolling seeds
//
// `--seeds=` accepts the fixed `tier1` suite or a number K, which sweeps
// seeds [--seed, --seed + K) for the selected component.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "testing/build_equivalence.h"
#include "testing/builder_crash_sweep.h"
#include "testing/col_fuzz.h"
#include "testing/differential.h"
#include "testing/lsm_crash_sweep.h"
#include "testing/node_crash_sweep.h"
#include "testing/parser_fuzz.h"
#include "testing/shard_sweep.h"
#include "testing/wire_fuzz.h"

namespace {

using dgf::testing::BuilderCrashSweepOptions;
using dgf::testing::BuilderCrashSweepReport;
using dgf::testing::BuildSweepOptions;
using dgf::testing::BuildSweepReport;
using dgf::testing::ColFuzzOptions;
using dgf::testing::ColFuzzReport;
using dgf::testing::CrashSweepOptions;
using dgf::testing::CrashSweepReport;
using dgf::testing::DiffOptions;
using dgf::testing::DiffReport;
using dgf::testing::FaultReport;
using dgf::testing::FaultSweepOptions;
using dgf::testing::NodeCrashSweepOptions;
using dgf::testing::NodeCrashSweepReport;
using dgf::testing::ParserFuzzOptions;
using dgf::testing::ParserFuzzReport;
using dgf::testing::ShardSweepOptions;
using dgf::testing::ShardSweepReport;
using dgf::testing::WireFuzzOptions;
using dgf::testing::WireFuzzReport;

struct Flags {
  bool tier1 = false;
  uint64_t seed = 1;
  int queries = 100;
  int only_case = -1;
  int threads = 1;
  double duration = 0;
  bool crash_sweep = false;
  bool fault_sweep = false;
  bool parser_fuzz = false;
  bool col_fuzz = false;
  bool build_sweep = false;
  bool builder_crash_sweep = false;
  bool shard_sweep = false;
  bool wire_fuzz = false;
  bool node_crash_sweep = false;
  int shards = 0;
  int count = 20;
  // Differential worlds to run when no component flag is given; only
  // `--seeds=N` raises it (`count` is shared by the component sweeps and
  // defaults high, so it cannot double as this).
  int diff_seeds = 1;
  bool no_shrink = false;
  bool verbose = false;
};

bool ParseFlag(const char* arg, const char* name, const char** value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  if (arg[len] == '\0') {
    *value = nullptr;
    return true;
  }
  if (arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seeds=tier1|N] [--seed=N] [--queries=N] "
               "[--case=K] [--threads=K] [--duration=SECONDS] [--crash-sweep] "
               "[--fault-sweep] [--parser-fuzz] [--col-fuzz] [--build-sweep] "
               "[--builder-crash-sweep] [--shard-sweep] [--wire-fuzz] "
               "[--node-crash-sweep] [--shards=S] [--count=N] [--no-shrink] "
               "[--verbose]\n",
               argv0);
  return 2;
}

// One-line stage summary; failures print in full underneath.
int failures_total = 0;

void Stage(const char* name, bool ok, const std::string& summary) {
  std::printf("[%s] %-14s %s\n", ok ? "PASS" : "FAIL", name, summary.c_str());
  std::fflush(stdout);
  if (!ok) ++failures_total;
}

bool RunDiff(const DiffOptions& options) {
  auto report = dgf::testing::RunDifferential(options);
  if (!report.ok()) {
    Stage("differential", false,
          "seed=" + std::to_string(options.seed) +
              " harness error: " + report.status().ToString());
    return false;
  }
  Stage("differential", report->ok(),
        "seed=" + std::to_string(options.seed) +
            (options.threads > 1
                 ? " threads=" + std::to_string(options.threads)
                 : std::string()) +
            " queries=" + std::to_string(report->queries_run) +
            " comparisons=" + std::to_string(report->comparisons) +
            " divergences=" + std::to_string(report->divergences.size()));
  for (const auto& divergence : report->divergences) {
    std::printf("%s\n", divergence.ToString().c_str());
  }
  return report->ok();
}

bool RunCrash(const CrashSweepOptions& options) {
  auto report = dgf::testing::RunLsmCrashSweep(options);
  if (!report.ok()) {
    Stage("crash-sweep", false,
          "seed=" + std::to_string(options.seed) +
              " harness error: " + report.status().ToString());
    return false;
  }
  Stage("crash-sweep", report->ok(),
        "seed=" + std::to_string(options.seed) + " points=" +
            std::to_string(report->points_covered) + " schedules=" +
            std::to_string(report->schedules_run) + " failures=" +
            std::to_string(report->failures.size()));
  for (const auto& failure : report->failures) {
    std::printf("CRASH-SWEEP FAILURE: %s\n", failure.c_str());
  }
  return report->ok();
}

bool RunFaults(const FaultSweepOptions& options) {
  auto report = dgf::testing::RunFaultSweep(options);
  if (!report.ok()) {
    Stage("fault-sweep", false,
          "seed=" + std::to_string(options.seed) +
              " harness error: " + report.status().ToString());
    return false;
  }
  Stage("fault-sweep", report->ok(),
        "seed=" + std::to_string(options.seed) + " queries=" +
            std::to_string(report->queries_run) + " executions=" +
            std::to_string(report->executions) + " faults=" +
            std::to_string(report->faults_injected) + " short_reads=" +
            std::to_string(report->short_reads) + " structured_errors=" +
            std::to_string(report->structured_errors) + " flips=" +
            std::to_string(report->flips) + " corruptions_detected=" +
            std::to_string(report->corruptions_detected) + " divergences=" +
            std::to_string(report->divergences.size()));
  for (const auto& divergence : report->divergences) {
    std::printf("%s\n", divergence.ToString().c_str());
  }
  return report->ok();
}

bool RunBuildSweep(const BuildSweepOptions& options) {
  auto report = dgf::testing::RunBuildEquivalenceSweep(options);
  if (!report.ok()) {
    Stage("build-sweep", false,
          "seed=" + std::to_string(options.seed) +
              " harness error: " + report.status().ToString());
    return false;
  }
  Stage("build-sweep", report->ok(),
        "seed=" + std::to_string(options.seed) + " seeds=" +
            std::to_string(report->seeds_run) + " builds=" +
            std::to_string(report->builds) + " comparisons=" +
            std::to_string(report->comparisons) + " failures=" +
            std::to_string(report->failures.size()));
  for (const auto& failure : report->failures) {
    std::printf("BUILD-SWEEP FAILURE: %s\n", failure.c_str());
  }
  return report->ok();
}

bool RunBuilderCrash(const BuilderCrashSweepOptions& options) {
  auto report = dgf::testing::RunBuilderCrashSweep(options);
  if (!report.ok()) {
    Stage("builder-crash", false,
          "seed=" + std::to_string(options.seed) +
              " harness error: " + report.status().ToString());
    return false;
  }
  Stage("builder-crash", report->ok(),
        "seed=" + std::to_string(options.seed) + " points=" +
            std::to_string(report->points_covered) + " schedules=" +
            std::to_string(report->schedules_run) + " failures=" +
            std::to_string(report->failures.size()));
  for (const auto& failure : report->failures) {
    std::printf("BUILDER-CRASH FAILURE: %s\n", failure.c_str());
  }
  return report->ok();
}

bool RunFuzz(const ParserFuzzOptions& options) {
  auto report = dgf::testing::RunParserFuzz(options);
  if (!report.ok()) {
    Stage("parser-fuzz", false,
          "seed=" + std::to_string(options.seed) +
              " harness error: " + report.status().ToString());
    return false;
  }
  Stage("parser-fuzz", report->ok(),
        "seed=" + std::to_string(options.seed) + " cases=" +
            std::to_string(report->cases_run) + " ok=" +
            std::to_string(report->parse_ok) + " rejected=" +
            std::to_string(report->parse_error) + " failures=" +
            std::to_string(report->failures.size()));
  for (const auto& failure : report->failures) {
    std::printf("PARSER-FUZZ FAILURE: %s\n", failure.c_str());
  }
  return report->ok();
}

bool RunColFuzzStage(const ColFuzzOptions& options) {
  auto report = dgf::testing::RunColFuzz(options);
  if (!report.ok()) {
    Stage("col-fuzz", false,
          "seed=" + std::to_string(options.seed) +
              " harness error: " + report.status().ToString());
    return false;
  }
  Stage("col-fuzz", report->ok(),
        "seed=" + std::to_string(options.seed) + " cases=" +
            std::to_string(report->cases_run) + " rejected=" +
            std::to_string(report->corruption_detected) + " clean=" +
            std::to_string(report->clean_reads) + " failures=" +
            std::to_string(report->failures.size()));
  for (const auto& failure : report->failures) {
    std::printf("COL-FUZZ FAILURE: %s\n", failure.c_str());
  }
  return report->ok();
}

bool RunShards(const ShardSweepOptions& options) {
  auto report = dgf::testing::RunShardSweep(options);
  if (!report.ok()) {
    Stage("shard-sweep", false,
          "seed=" + std::to_string(options.seed) +
              " harness error: " + report.status().ToString());
    return false;
  }
  Stage("shard-sweep", report->ok(),
        "seed=" + std::to_string(options.seed) + " seeds=" +
            std::to_string(report->seeds_run) + " clusters=" +
            std::to_string(report->clusters_run) + " queries=" +
            std::to_string(report->queries_run) + " appends=" +
            std::to_string(report->appends_checked) + " divergences=" +
            std::to_string(report->divergences.size()));
  for (const auto& divergence : report->divergences) {
    std::printf("%s\n", divergence.ToString().c_str());
  }
  return report->ok();
}

bool RunNodeCrash(const NodeCrashSweepOptions& options) {
  auto report = dgf::testing::RunNodeCrashSweep(options);
  if (!report.ok()) {
    Stage("node-crash", false,
          "seed=" + std::to_string(options.seed) +
              " harness error: " + report.status().ToString());
    return false;
  }
  Stage("node-crash", report->ok(),
        "seed=" + std::to_string(options.seed) + " seeds=" +
            std::to_string(report->seeds_run) + " clusters=" +
            std::to_string(report->clusters_run) + " queries=" +
            std::to_string(report->queries_run) + " kills=" +
            std::to_string(report->store_kills + report->daemon_kills) +
            " failovers=" + std::to_string(report->read_failovers) +
            " recoveries=" + std::to_string(report->recoveries_checked) +
            " divergences=" + std::to_string(report->divergences.size()));
  for (const auto& divergence : report->divergences) {
    std::printf("%s\n", divergence.ToString().c_str());
  }
  return report->ok();
}

bool RunWire(const WireFuzzOptions& options) {
  auto report = dgf::testing::RunWireFuzz(options);
  if (!report.ok()) {
    Stage("wire-fuzz", false,
          "seed=" + std::to_string(options.seed) +
              " harness error: " + report.status().ToString());
    return false;
  }
  Stage("wire-fuzz", report->ok(),
        "seed=" + std::to_string(options.seed) + " cases=" +
            std::to_string(report->cases_run) + " decoded=" +
            std::to_string(report->decode_ok) + " rejected=" +
            std::to_string(report->decode_error) + " live=" +
            std::to_string(report->live_cases_run) + " http=" +
            std::to_string(report->http_cases_run) + " failures=" +
            std::to_string(report->failures.size()));
  for (const auto& failure : report->failures) {
    std::printf("WIRE-FUZZ FAILURE: %s\n", failure.c_str());
  }
  return report->ok();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    if (ParseFlag(argv[i], "--seeds", &value)) {
      if (value != nullptr && std::strcmp(value, "tier1") == 0) {
        flags.tier1 = true;
      } else if (value != nullptr && std::atoi(value) > 0) {
        // `--seeds=K` sweeps K consecutive seeds of the selected component.
        flags.count = std::atoi(value);
        flags.diff_seeds = std::atoi(value);
      } else {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "--seed", &value) && value != nullptr) {
      flags.seed = std::strtoull(value, nullptr, 10);
    } else if (ParseFlag(argv[i], "--queries", &value) && value != nullptr) {
      flags.queries = std::atoi(value);
    } else if (ParseFlag(argv[i], "--case", &value) && value != nullptr) {
      flags.only_case = std::atoi(value);
    } else if (ParseFlag(argv[i], "--threads", &value) && value != nullptr) {
      flags.threads = std::atoi(value);
    } else if (ParseFlag(argv[i], "--duration", &value) && value != nullptr) {
      flags.duration = std::atof(value);
    } else if (ParseFlag(argv[i], "--count", &value) && value != nullptr) {
      flags.count = std::atoi(value);
    } else if (ParseFlag(argv[i], "--crash-sweep", &value)) {
      flags.crash_sweep = true;
    } else if (ParseFlag(argv[i], "--build-sweep", &value)) {
      flags.build_sweep = true;
    } else if (ParseFlag(argv[i], "--builder-crash-sweep", &value)) {
      flags.builder_crash_sweep = true;
    } else if (ParseFlag(argv[i], "--fault-sweep", &value)) {
      flags.fault_sweep = true;
    } else if (ParseFlag(argv[i], "--parser-fuzz", &value)) {
      flags.parser_fuzz = true;
    } else if (ParseFlag(argv[i], "--col-fuzz", &value)) {
      flags.col_fuzz = true;
    } else if (ParseFlag(argv[i], "--shard-sweep", &value)) {
      flags.shard_sweep = true;
    } else if (ParseFlag(argv[i], "--wire-fuzz", &value)) {
      flags.wire_fuzz = true;
    } else if (ParseFlag(argv[i], "--node-crash-sweep", &value)) {
      flags.node_crash_sweep = true;
    } else if (ParseFlag(argv[i], "--shards", &value) && value != nullptr) {
      flags.shards = std::atoi(value);
    } else if (ParseFlag(argv[i], "--no-shrink", &value)) {
      flags.no_shrink = true;
    } else if (ParseFlag(argv[i], "--verbose", &value)) {
      flags.verbose = true;
    } else {
      return Usage(argv[0]);
    }
  }

  if (flags.tier1) {
    // Fixed-seed smoke suite: 5 differential worlds x 100 queries (>= 500
    // randomized queries across all access paths), one full crash sweep,
    // one fault sweep, and a parser fuzz pass.
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      DiffOptions options;
      options.seed = seed;
      options.num_queries = 100;
      options.threads = flags.threads;
      options.verbose = flags.verbose;
      RunDiff(options);
    }
    RunCrash(CrashSweepOptions{.seed = 7, .verbose = flags.verbose});
    RunFaults(FaultSweepOptions{
        .seed = 11, .num_queries = 30, .verbose = flags.verbose});
    RunFuzz(ParserFuzzOptions{
        .seed = 13, .num_cases = 400, .verbose = flags.verbose});
    RunColFuzzStage(ColFuzzOptions{
        .seed = 37, .num_cases = 300, .verbose = flags.verbose});
    RunBuildSweep(
        BuildSweepOptions{.seed = 17, .count = 2, .verbose = flags.verbose});
    RunBuilderCrash(
        BuilderCrashSweepOptions{.seed = 19, .verbose = flags.verbose});
    RunShards(ShardSweepOptions{.seed = 23,
                                .count = 2,
                                .num_queries = 25,
                                .verbose = flags.verbose});
    RunWire(WireFuzzOptions{
        .seed = 29, .num_cases = 400, .verbose = flags.verbose});
    RunNodeCrash(NodeCrashSweepOptions{.seed = 31,
                                       .count = 1,
                                       .num_queries = 8,
                                       .only_shards = 2,
                                       .verbose = flags.verbose});
    return failures_total == 0 ? 0 : 1;
  }

  if (flags.duration > 0) {
    // Soak: rolling seeds, every component, until the clock runs out.
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(flags.duration));
    uint64_t seed = flags.seed;
    while (std::chrono::steady_clock::now() < deadline) {
      DiffOptions options;
      options.seed = seed;
      options.num_queries = flags.queries;
      options.shrink = !flags.no_shrink;
      options.threads = flags.threads;
      options.verbose = flags.verbose;
      RunDiff(options);
      RunCrash(CrashSweepOptions{.seed = seed, .verbose = flags.verbose});
      RunFaults(FaultSweepOptions{
          .seed = seed, .num_queries = 30, .verbose = flags.verbose});
      RunFuzz(ParserFuzzOptions{
          .seed = seed, .num_cases = 400, .verbose = flags.verbose});
      RunColFuzzStage(ColFuzzOptions{
          .seed = seed, .num_cases = 300, .verbose = flags.verbose});
      RunBuildSweep(
          BuildSweepOptions{.seed = seed, .count = 1, .verbose = flags.verbose});
      RunBuilderCrash(
          BuilderCrashSweepOptions{.seed = seed, .verbose = flags.verbose});
      RunShards(ShardSweepOptions{.seed = seed,
                                  .count = 1,
                                  .num_queries = 15,
                                  .verbose = flags.verbose});
      RunWire(WireFuzzOptions{
          .seed = seed, .num_cases = 400, .verbose = flags.verbose});
      RunNodeCrash(NodeCrashSweepOptions{
          .seed = seed, .count = 1, .verbose = flags.verbose});
      ++seed;
    }
    std::printf("soak finished: seeds %llu..%llu, failures=%d\n",
                static_cast<unsigned long long>(flags.seed),
                static_cast<unsigned long long>(seed - 1), failures_total);
    return failures_total == 0 ? 0 : 1;
  }

  const bool any_component = flags.crash_sweep || flags.fault_sweep ||
                             flags.parser_fuzz || flags.col_fuzz ||
                             flags.build_sweep || flags.builder_crash_sweep ||
                             flags.shard_sweep || flags.wire_fuzz ||
                             flags.node_crash_sweep;
  if (flags.crash_sweep) {
    RunCrash(CrashSweepOptions{.seed = flags.seed, .verbose = flags.verbose});
  }
  if (flags.build_sweep) {
    RunBuildSweep(BuildSweepOptions{.seed = flags.seed,
                                    .count = flags.count,
                                    .verbose = flags.verbose});
  }
  if (flags.builder_crash_sweep) {
    RunBuilderCrash(BuilderCrashSweepOptions{.seed = flags.seed,
                                             .verbose = flags.verbose});
  }
  if (flags.fault_sweep) {
    RunFaults(FaultSweepOptions{
        .seed = flags.seed, .num_queries = flags.queries,
        .verbose = flags.verbose});
  }
  if (flags.parser_fuzz) {
    ParserFuzzOptions options;
    options.seed = flags.seed;
    options.only_case = flags.only_case;
    options.verbose = flags.verbose;
    RunFuzz(options);
  }
  if (flags.col_fuzz) {
    ColFuzzOptions options;
    options.seed = flags.seed;
    options.only_case = flags.only_case;
    options.verbose = flags.verbose;
    RunColFuzzStage(options);
  }
  if (flags.shard_sweep) {
    ShardSweepOptions options;
    options.seed = flags.seed;
    options.count = flags.count;
    options.only_case = flags.only_case;
    options.only_shards = flags.shards;
    options.verbose = flags.verbose;
    RunShards(options);
  }
  if (flags.node_crash_sweep) {
    NodeCrashSweepOptions options;
    options.seed = flags.seed;
    options.count = flags.count;
    options.only_shards = flags.shards;
    options.verbose = flags.verbose;
    RunNodeCrash(options);
  }
  if (flags.wire_fuzz) {
    WireFuzzOptions options;
    options.seed = flags.seed;
    options.only_case = flags.only_case;
    options.verbose = flags.verbose;
    RunWire(options);
  }
  if (!any_component) {
    // `--seeds=K` sweeps K consecutive differential worlds, one PASS/FAIL
    // line each (the 100-seed columnar acceptance run uses this).
    for (int s = 0; s < std::max(1, flags.diff_seeds); ++s) {
      DiffOptions options;
      options.seed = flags.seed + static_cast<uint64_t>(s);
      options.num_queries = flags.queries;
      options.only_case = flags.only_case;
      options.shrink = !flags.no_shrink;
      options.threads = flags.threads;
      options.verbose = flags.verbose;
      RunDiff(options);
    }
  }
  return failures_total == 0 ? 0 : 1;
}
