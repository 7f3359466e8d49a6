// Small fixed-seed runs of the differential oracle harness, so the core
// cross-engine invariants are exercised inside the unit-test binary too (the
// full sweep lives in the dgf_difftest ctest entry).

#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "fs/mini_dfs.h"
#include "testing/differential.h"
#include "testing/lsm_crash_sweep.h"
#include "testing/parser_fuzz.h"
#include "tests/test_util.h"

namespace dgf::testing {
namespace {

TEST(DifftestHarnessTest, DifferentialSeedsAgreeAcrossAllPaths) {
  DiffOptions options;
  options.seed = 17;
  options.num_queries = 25;
  ASSERT_OK_AND_ASSIGN(DiffReport report, RunDifferential(options));
  EXPECT_EQ(report.queries_run, 25);
  EXPECT_GE(report.comparisons, 4 * report.queries_run);
  for (const auto& divergence : report.divergences) {
    ADD_FAILURE() << divergence.ToString();
  }
}

TEST(DifftestHarnessTest, CaseReplayRunsExactlyOneCase) {
  DiffOptions options;
  options.seed = 17;
  options.num_queries = 25;
  options.only_case = 3;
  ASSERT_OK_AND_ASSIGN(DiffReport report, RunDifferential(options));
  EXPECT_EQ(report.queries_run, 1);
  EXPECT_TRUE(report.ok());
}

TEST(DifftestHarnessTest, CrashSweepCoversEveryPointAndRecovers) {
  CrashSweepOptions options;
  options.seed = 19;
  // Keep the gtest run light; the tier-1 smoke runs the full occurrence set.
  options.max_occurrences_per_point = 3;
  ASSERT_OK_AND_ASSIGN(CrashSweepReport report, RunLsmCrashSweep(options));
  EXPECT_EQ(report.points_covered, 11);
  EXPECT_GT(report.schedules_run, 0);
  for (const auto& failure : report.failures) {
    ADD_FAILURE() << failure;
  }
}

TEST(DifftestHarnessTest, FaultSweepNeverReturnsWrongData) {
  FaultSweepOptions options;
  options.seed = 23;
  options.num_queries = 15;
  ASSERT_OK_AND_ASSIGN(FaultReport report, RunFaultSweep(options));
  EXPECT_EQ(report.queries_run, 15);
  EXPECT_GT(report.faults_injected, 0u);
  for (const auto& divergence : report.divergences) {
    ADD_FAILURE() << divergence.ToString();
  }
}

/// Records which threads make the DFS reads.
class ReadThreadRecorder : public fs::ReadFaultInjector {
 public:
  fs::ReadFault NextFault(const std::string&, uint64_t, uint64_t) override {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.insert(std::this_thread::get_id());
    ++reads_;
    return fs::ReadFault{};
  }

  std::set<std::thread::id> threads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return threads_;
  }
  int reads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reads_;
  }

 private:
  mutable std::mutex mu_;
  std::set<std::thread::id> threads_;
  int reads_ = 0;
};

TEST(DifftestHarnessTest, OneThreadWorldReadsIndexesOnTheCallingThread) {
  // The fault sweep's schedule is indexed by read ordinal, so it replays only
  // if a one-thread world reads in one order: every read of a Compact or
  // Bitmap lookup, index scan and data scan alike, is the caller's.
  ASSERT_OK_AND_ASSIGN(SeededWorld world,
                       SeededWorld::Build(/*seed=*/11, /*worker_threads=*/1));
  const std::set<std::thread::id> caller = {std::this_thread::get_id()};
  for (query::AccessPath path :
       {query::AccessPath::kCompactIndex, query::AccessPath::kBitmapIndex}) {
    auto recorder = std::make_shared<ReadThreadRecorder>();
    world.dfs()->SetReadFaultInjector(recorder);
    for (int case_id = 0; case_id < 10; ++case_id) {
      ASSERT_OK(world.Execute(world.GenerateQuery(11, case_id), path).status());
    }
    world.dfs()->SetReadFaultInjector(nullptr);
    EXPECT_GT(recorder->reads(), 0) << query::AccessPathName(path);
    EXPECT_EQ(recorder->threads(), caller) << query::AccessPathName(path);
  }
}

TEST(DifftestHarnessTest, ParserFuzzNeverCrashesOrLosesErrors) {
  ParserFuzzOptions options;
  options.seed = 29;
  options.num_cases = 150;
  ASSERT_OK_AND_ASSIGN(ParserFuzzReport report, RunParserFuzz(options));
  EXPECT_EQ(report.cases_run, 150);
  EXPECT_GT(report.parse_error, 0);
  for (const auto& failure : report.failures) {
    ADD_FAILURE() << failure;
  }
}

TEST(DifftestHarnessTest, FuzzInputsAreSeedReplayable) {
  EXPECT_EQ(GenerateFuzzQuery(29, 7), GenerateFuzzQuery(29, 7));
  EXPECT_NE(GenerateFuzzQuery(29, 7), GenerateFuzzQuery(29, 8));
}

}  // namespace
}  // namespace dgf::testing
