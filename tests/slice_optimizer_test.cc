#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/random.h"
#include "dgf/dgf_builder.h"
#include "dgf/dgf_input_format.h"
#include "dgf/slice_optimizer.h"
#include "query/executor.h"
#include "table/table.h"
#include "tests/test_util.h"
#include "workload/meter_gen.h"
#include "workload/query_gen.h"

namespace dgf::core {
namespace {

using ::dgf::testing::OpenTestStore;
using ::dgf::testing::ScopedDfs;

struct FragmentedWorld {
  std::unique_ptr<ScopedDfs> dfs;
  workload::MeterConfig config;
  table::TableDesc meter;
  std::shared_ptr<kv::KvStore> store;
  std::unique_ptr<DgfIndex> index;
};

// Builds an index, then appends two more batches over the SAME grid region,
// so every GFU ends up with three slices across three batch files.
FragmentedWorld MakeFragmented(const std::string& tag) {
  FragmentedWorld world;
  world.dfs = std::make_unique<ScopedDfs>("sopt_" + tag, 16384);
  world.config.num_users = 200;
  world.config.num_days = 5;
  world.config.extra_metrics = 0;
  world.config.seed = 61;
  auto meter = workload::GenerateMeterTable(world.dfs->get(), "/w/meter",
                                            world.config);
  EXPECT_TRUE(meter.ok());
  world.meter = *meter;
  world.store = OpenTestStore(world.dfs->get());
  DgfBuilder::Options build;
  build.dims = {{"userId", table::DataType::kInt64, 0, 40},
                {"regionId", table::DataType::kInt64, 0, 1},
                {"time", table::DataType::kDate,
                 static_cast<double>(world.config.start_day), 1}};
  build.precompute = {"sum(powerConsumed)", "count(*)"};
  build.data_dir = "/w/meter_dgf";
  auto index =
      DgfBuilder::Build(world.dfs->get(), world.store, world.meter, build);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  world.index = std::move(*index);

  for (int batch = 0; batch < 2; ++batch) {
    workload::MeterConfig batch_config = world.config;
    batch_config.seed = world.config.seed + 10 + static_cast<uint64_t>(batch);
    table::TableDesc staged = *workload::GenerateMeterTable(
        world.dfs->get(), "/staging/b" + std::to_string(batch), batch_config);
    EXPECT_OK(DgfBuilder::Append(world.index.get(), staged).status());
  }
  return world;
}

uint64_t TotalSlices(const FragmentedWorld& world) {
  uint64_t slices = 0;
  auto it = world.store->NewIterator();
  for (it->Seek("G"); it->Valid(); it->Next()) {
    if (it->key().front() != 'G') break;
    auto value = GfuValue::Decode(it->value());
    EXPECT_TRUE(value.ok());
    slices += value->slices.size();
  }
  return slices;
}

double QuerySum(const FragmentedWorld& world, const query::Query& q) {
  query::QueryExecutor::Options options;
  options.dfs = world.dfs->get();
  options.split_size = 16384;
  query::QueryExecutor executor(options);
  executor.RegisterTable(world.meter);
  executor.RegisterDgfIndex(world.meter.name, world.index.get());
  auto result = executor.Execute(q, query::AccessPath::kDgfIndex);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result->rows[0][0].AsDouble();
}

TEST(SliceOptimizerTest, MergesSlicesAndPreservesAnswers) {
  FragmentedWorld world = MakeFragmented("merge");
  ASSERT_OK_AND_ASSIGN(uint64_t gfus, world.index->NumGfus());
  const uint64_t slices_before = TotalSlices(world);
  EXPECT_GT(slices_before, gfus);  // fragmented: >1 slice per GFU on average

  query::Query q = workload::MakeMeterQuery(
      world.config, workload::MeterQueryKind::kAggregation,
      workload::Selectivity::kFivePercent, 2);
  const double before = QuerySum(world, q);

  ASSERT_OK_AND_ASSIGN(auto stats,
                       SliceOptimizer::Optimize(world.index.get(), 64 << 10));
  EXPECT_EQ(stats.gfus, gfus);
  EXPECT_EQ(stats.slices_before, slices_before);
  EXPECT_EQ(stats.slices_after, gfus);  // exactly one slice per GFU
  EXPECT_EQ(TotalSlices(world), gfus);
  EXPECT_GT(stats.files_after, 0u);

  const double after = QuerySum(world, q);
  EXPECT_NEAR(after, before, 1e-6 * (1 + std::abs(before)));
}

TEST(SliceOptimizerTest, DeletesStaleBatchFiles) {
  FragmentedWorld world = MakeFragmented("gc");
  const auto before_files = world.dfs->get()->ListFiles("/w/meter_dgf/");
  ASSERT_OK(SliceOptimizer::Optimize(world.index.get()).status());
  const auto after_files = world.dfs->get()->ListFiles("/w/meter_dgf/");
  // Only optimized files remain.
  for (const auto& file : after_files) {
    EXPECT_NE(file.path.find("part-opt"), std::string::npos) << file.path;
  }
  EXPECT_LT(after_files.size(), before_files.size());
}

TEST(SliceOptimizerTest, AdjacentSlicesCoalesceAfterOptimization) {
  FragmentedWorld world = MakeFragmented("coalesce");
  query::Query q = workload::MakeMeterQuery(
      world.config, workload::MeterQueryKind::kGroupBy,
      workload::Selectivity::kTwelvePercent, 3);
  ASSERT_OK_AND_ASSIGN(auto lookup_before,
                       world.index->Lookup(q.where, /*aggregation=*/false));
  ASSERT_OK_AND_ASSIGN(
      auto planned_before,
      PlanSlicedSplits(world.dfs->get(), lookup_before.slices, 16384));
  uint64_t reads_before = 0;
  for (const auto& sliced : planned_before) reads_before += sliced.slices.size();

  ASSERT_OK(SliceOptimizer::Optimize(world.index.get()).status());
  ASSERT_OK_AND_ASSIGN(auto lookup_after,
                       world.index->Lookup(q.where, /*aggregation=*/false));
  ASSERT_OK_AND_ASSIGN(
      auto planned_after,
      PlanSlicedSplits(world.dfs->get(), lookup_after.slices, 16384));
  uint64_t reads_after = 0;
  for (const auto& sliced : planned_after) reads_after += sliced.slices.size();

  // Row-major placement + coalescing: far fewer positional reads.
  EXPECT_LT(reads_after, reads_before / 2)
      << "before=" << reads_before << " after=" << reads_after;
}

TEST(SliceOptimizerTest, SecondOptimizationIsIdempotent) {
  FragmentedWorld world = MakeFragmented("idem");
  ASSERT_OK_AND_ASSIGN(auto first, SliceOptimizer::Optimize(world.index.get()));
  ASSERT_OK_AND_ASSIGN(auto second, SliceOptimizer::Optimize(world.index.get()));
  EXPECT_EQ(second.slices_before, first.slices_after);
  EXPECT_EQ(second.slices_after, first.slices_after);
  // Answers still correct.
  query::Query q = workload::MakeMeterQuery(
      world.config, workload::MeterQueryKind::kAggregation,
      workload::Selectivity::kTwelvePercent, 4);
  (void)QuerySum(world, q);
}

}  // namespace
}  // namespace dgf::core
