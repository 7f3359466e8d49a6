#include <gtest/gtest.h>
#include <unistd.h>

#include <mutex>
#include <set>
#include <string>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "exec/cluster.h"
#include "exec/mapreduce.h"
#include "table/schema.h"
#include "table/text_format.h"
#include "tests/test_util.h"

namespace dgf::exec {
namespace {

using ::dgf::testing::ScopedDfs;

TEST(SimulateMakespanTest, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(SimulateMakespan({}, 4), 0.0);
}

TEST(SimulateMakespanTest, SingleSlotSums) {
  EXPECT_DOUBLE_EQ(SimulateMakespan({1.0, 2.0, 3.0}, 1), 6.0);
}

TEST(SimulateMakespanTest, ManySlotsTakeMax) {
  EXPECT_DOUBLE_EQ(SimulateMakespan({1.0, 2.0, 3.0}, 10), 3.0);
}

TEST(SimulateMakespanTest, TwoSlotsGreedy) {
  // Tasks 2,2,3 on 2 slots: slot A:2+3=5, slot B:2.
  EXPECT_DOUBLE_EQ(SimulateMakespan({2.0, 2.0, 3.0}, 2), 5.0);
}

// A mapper that counts words in text lines, and a summing reducer: the
// archetypal job, exercising shuffle and reduce.
class WordCountMapper : public Mapper {
 public:
  explicit WordCountMapper(std::shared_ptr<fs::MiniDfs> dfs)
      : dfs_(std::move(dfs)) {}

  Status Map(const fs::FileSplit& split, MapContext* ctx) override {
    table::Schema schema({{"line", table::DataType::kString}});
    DGF_ASSIGN_OR_RETURN(auto reader,
                         table::TextSplitReader::Open(dfs_, split, schema));
    std::string line;
    for (;;) {
      DGF_ASSIGN_OR_RETURN(bool more, reader->NextLine(&line));
      if (!more) break;
      ctx->AddRecords(1);
      for (std::string_view word : dgf::SplitString(line, ' ')) {
        if (!word.empty()) ctx->Emit(std::string(word), "1");
      }
    }
    ctx->AddBytesRead(reader->BytesRead());
    return Status::OK();
  }

 private:
  std::shared_ptr<fs::MiniDfs> dfs_;
};

class SumReducer : public Reducer {
 public:
  Status Reduce(const std::string& key, const std::vector<std::string>& values,
                ReduceContext* ctx) override {
    ctx->Collect(key, std::to_string(values.size()));
    return Status::OK();
  }
};

TEST(JobRunnerTest, WordCountEndToEnd) {
  ScopedDfs dfs("mr_wc");
  {
    auto writer = dfs->Create("/in.txt");
    ASSERT_OK(writer.status());
    ASSERT_OK((*writer)->Append("a b a\nb a\nc\n"));
    ASSERT_OK((*writer)->Close());
  }
  ASSERT_OK_AND_ASSIGN(auto splits, dfs->GetSplits("/in.txt", 5));
  ASSERT_GT(splits.size(), 1u);

  JobRunner::Options options;
  options.num_reducers = 2;
  JobRunner runner(options);
  ASSERT_OK_AND_ASSIGN(
      JobResult result,
      runner.Run(
          splits,
          [&] { return std::make_unique<WordCountMapper>(dfs.get()); },
          [](int) { return std::make_unique<SumReducer>(); }));

  std::map<std::string, std::string> got(result.reduce_output.begin(),
                                         result.reduce_output.end());
  EXPECT_EQ(got["a"], "3");
  EXPECT_EQ(got["b"], "2");
  EXPECT_EQ(got["c"], "1");
  EXPECT_EQ(result.num_map_tasks, static_cast<int>(splits.size()));
  EXPECT_EQ(result.counters.Get(kCounterMapInputRecords), 3);
  EXPECT_GT(result.simulated_seconds, 0.0);
}

TEST(JobRunnerTest, MapOnlyJobCollectsEmissions) {
  ScopedDfs dfs("mr_maponly");
  {
    auto writer = dfs->Create("/in.txt");
    ASSERT_OK(writer.status());
    ASSERT_OK((*writer)->Append("x\ny\n"));
    ASSERT_OK((*writer)->Close());
  }
  ASSERT_OK_AND_ASSIGN(auto splits, dfs->GetSplits("/in.txt"));
  JobRunner runner(JobRunner::Options{});
  ASSERT_OK_AND_ASSIGN(
      JobResult result,
      runner.Run(splits, [&] {
        return std::make_unique<WordCountMapper>(dfs.get());
      }));
  EXPECT_EQ(result.reduce_output.size(), 2u);
  EXPECT_EQ(result.num_reduce_tasks, 0);
}

class FailingMapper : public Mapper {
 public:
  Status Map(const fs::FileSplit&, MapContext*) override {
    return Status::Internal("boom");
  }
};

TEST(JobRunnerTest, MapErrorFailsJob) {
  ScopedDfs dfs("mr_fail");
  {
    auto writer = dfs->Create("/in.txt");
    ASSERT_OK(writer.status());
    ASSERT_OK((*writer)->Append("x\n"));
    ASSERT_OK((*writer)->Close());
  }
  ASSERT_OK_AND_ASSIGN(auto splits, dfs->GetSplits("/in.txt"));
  JobRunner runner(JobRunner::Options{});
  auto result =
      runner.Run(splits, [] { return std::make_unique<FailingMapper>(); });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST(JobRunnerTest, ReducersRequestedWithoutFactoryFails) {
  JobRunner::Options options;
  options.num_reducers = 2;
  JobRunner runner(options);
  auto result =
      runner.Run({}, [] { return std::make_unique<FailingMapper>(); });
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

// Records the kernel id of every thread that runs a map task.
class ThreadIdMapper : public Mapper {
 public:
  ThreadIdMapper(std::mutex* mu, std::set<pid_t>* tids)
      : mu_(mu), tids_(tids) {}

  Status Map(const fs::FileSplit&, MapContext*) override {
    std::lock_guard<std::mutex> lock(*mu_);
    tids_->insert(::gettid());
    return Status::OK();
  }

 private:
  std::mutex* mu_;
  std::set<pid_t>* tids_;
};

TEST(JobRunnerTest, JobsRunOnTheProcessPoolWithoutSpawningThreads) {
  // A pool per job gave every job fresh threads (39 ids over these 20 jobs).
  std::mutex mu;
  std::set<pid_t> tids;
  const std::vector<fs::FileSplit> splits(4, fs::FileSplit{"/noop", 0, 1});
  JobRunner::Options options;
  options.worker_threads = 2;
  JobRunner runner(options);
  const MapperFactory factory = [&] {
    return std::make_unique<ThreadIdMapper>(&mu, &tids);
  };
  for (int job = 0; job < 20; ++job) {
    ASSERT_OK(runner.Run(splits, factory).status());
  }
  EXPECT_LE(tids.size(), static_cast<size_t>(ProcessPool().num_threads()) + 1);
}

TEST(CountersTest, AddAndMerge) {
  Counters a, b;
  a.Add("x", 2);
  b.Add("x", 3);
  b.Add("y", 1);
  a.MergeFrom(b);
  EXPECT_EQ(a.Get("x"), 5);
  EXPECT_EQ(a.Get("y"), 1);
  EXPECT_EQ(a.Get("z"), 0);
}

TEST(ClusterConfigTest, SlotArithmetic) {
  ClusterConfig config;
  EXPECT_EQ(config.total_map_slots(), 28 * 5);
  EXPECT_EQ(config.total_reduce_slots(), 28 * 3);
}

}  // namespace
}  // namespace dgf::exec
