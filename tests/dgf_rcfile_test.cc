// DGFIndex with RCFile-format Slices: the paper's "it is easy to expend
// DGFIndex to support other file formats" claim, exercised end-to-end.
// Slices are runs of whole RCFile row groups (the builder forces a group
// boundary at every GFU), so split filtering, slice skipping, incremental
// append, and placement optimization all carry over.

#include <gtest/gtest.h>

#include <memory>

#include "common/random.h"
#include "dgf/dgf_builder.h"
#include "dgf/slice_optimizer.h"
#include "query/executor.h"
#include "tests/test_util.h"
#include "workload/meter_gen.h"
#include "workload/query_gen.h"

namespace dgf::core {
namespace {

using ::dgf::testing::OpenTestStore;
using ::dgf::testing::ScopedDfs;

struct RcWorld {
  std::unique_ptr<ScopedDfs> dfs;
  workload::MeterConfig config;
  table::TableDesc meter;
  std::shared_ptr<kv::KvStore> store;
  std::unique_ptr<DgfIndex> index;
};

RcWorld MakeRcWorld(const std::string& tag) {
  RcWorld world;
  world.dfs = std::make_unique<ScopedDfs>("dgfrc_" + tag, 16384);
  world.config.num_users = 300;
  world.config.num_days = 6;
  world.config.extra_metrics = 2;
  world.config.seed = 81;
  auto meter = workload::GenerateMeterTable(world.dfs->get(), "/w/meter",
                                            world.config);
  EXPECT_TRUE(meter.ok());
  world.meter = *meter;
  world.store = OpenTestStore(world.dfs->get());
  DgfBuilder::Options options;
  options.dims = {{"userId", table::DataType::kInt64, 0, 30},
                  {"regionId", table::DataType::kInt64, 0, 1},
                  {"time", table::DataType::kDate,
                   static_cast<double>(world.config.start_day), 1}};
  options.precompute = {"sum(powerConsumed)", "count(*)"};
  options.data_dir = "/w/meter_dgf_rc";
  options.data_format = table::FileFormat::kRcFile;
  auto index =
      DgfBuilder::Build(world.dfs->get(), world.store, world.meter, options);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  world.index = std::move(*index);
  return world;
}

std::unique_ptr<query::QueryExecutor> MakeExecutor(RcWorld& world) {
  query::QueryExecutor::Options options;
  options.dfs = world.dfs->get();
  options.split_size = 16384;
  auto executor = std::make_unique<query::QueryExecutor>(options);
  executor->RegisterTable(world.meter);
  executor->RegisterDgfIndex(world.meter.name, world.index.get());
  return executor;
}

TEST(DgfRcFileTest, BuildStoresFormatAndReopens) {
  RcWorld world = MakeRcWorld("open");
  EXPECT_EQ(world.index->data_format(), table::FileFormat::kRcFile);
  ASSERT_OK_AND_ASSIGN(
      auto reopened,
      DgfIndex::Open(world.dfs->get(), world.store, world.meter.schema));
  EXPECT_EQ(reopened->data_format(), table::FileFormat::kRcFile);
  EXPECT_EQ(reopened->DataDesc().format, table::FileFormat::kRcFile);
}

TEST(DgfRcFileTest, QueriesAgreeWithScanAcrossSelectivities) {
  RcWorld world = MakeRcWorld("agree");
  auto executor = MakeExecutor(world);
  for (auto sel : {workload::Selectivity::kPoint,
                   workload::Selectivity::kFivePercent,
                   workload::Selectivity::kTwelvePercent}) {
    query::Query q = workload::MakeMeterQuery(
        world.config, workload::MeterQueryKind::kAggregation, sel, 5);
    ASSERT_OK_AND_ASSIGN(auto via_dgf,
                         executor->Execute(q, query::AccessPath::kDgfIndex));
    ASSERT_OK_AND_ASSIGN(auto via_scan,
                         executor->Execute(q, query::AccessPath::kFullScan));
    ASSERT_EQ(via_dgf.rows.size(), 1u);
    EXPECT_NEAR(via_dgf.rows[0][0].dbl(), via_scan.rows[0][0].dbl(),
                1e-6 * (1 + std::abs(via_scan.rows[0][0].dbl())))
        << workload::SelectivityName(sel);
  }
}

TEST(DgfRcFileTest, GroupByThroughRcSlices) {
  RcWorld world = MakeRcWorld("gb");
  auto executor = MakeExecutor(world);
  query::Query q = workload::MakeMeterQuery(
      world.config, workload::MeterQueryKind::kGroupBy,
      workload::Selectivity::kTwelvePercent, 6);
  ASSERT_OK_AND_ASSIGN(auto via_dgf,
                       executor->Execute(q, query::AccessPath::kDgfIndex));
  ASSERT_OK_AND_ASSIGN(auto via_scan,
                       executor->Execute(q, query::AccessPath::kFullScan));
  ASSERT_EQ(via_dgf.rows.size(), via_scan.rows.size());
  for (size_t i = 0; i < via_scan.rows.size(); ++i) {
    EXPECT_EQ(via_dgf.rows[i][0].ToText(), via_scan.rows[i][0].ToText());
    EXPECT_NEAR(via_dgf.rows[i][1].dbl(), via_scan.rows[i][1].dbl(),
                1e-6 * (1 + std::abs(via_scan.rows[i][1].dbl())));
  }
  // Slice skipping still pays off on RCFile data.
  EXPECT_LT(via_dgf.stats.records_read, via_scan.stats.records_read);
}

TEST(DgfRcFileTest, AppendAndAddAggregationWork) {
  RcWorld world = MakeRcWorld("append");
  // Append a fresh-day batch.
  workload::MeterConfig batch = world.config;
  batch.start_day = world.config.start_day + world.config.num_days;
  batch.num_days = 2;
  batch.seed = 82;
  ASSERT_OK_AND_ASSIGN(auto staged, workload::GenerateMeterTable(
                                        world.dfs->get(), "/staging/rc",
                                        batch));
  ASSERT_OK(DgfBuilder::Append(world.index.get(), staged).status());

  // Extend headers with a new UDF (re-scans the RC slices).
  ASSERT_OK_AND_ASSIGN(AggSpec max_spec, AggSpec::Parse("max(powerConsumed)"));
  ASSERT_OK(world.index->AddAggregation(max_spec));
  EXPECT_TRUE(world.index->CoversAggregations({max_spec}));

  auto executor = MakeExecutor(world);
  query::Query q;
  q.table = world.meter.name;
  q.select.push_back(query::SelectItem::Aggregation(max_spec));
  q.where.And(query::ColumnRange::Between(
      "time", table::Value::Date(batch.start_day), true,
      table::Value::Date(batch.start_day + 2), false));
  ASSERT_OK_AND_ASSIGN(auto via_dgf,
                       executor->Execute(q, query::AccessPath::kDgfIndex));
  // The appended batch lives only in the index-managed storage, so compare
  // against the generator directly rather than a base-table scan.
  double expected = -1;
  ASSERT_OK(workload::ForEachMeterRow(batch, [&](const table::Row& row) {
    expected = std::max(expected, row[3].AsDouble());
    return Status::OK();
  }));
  EXPECT_NEAR(via_dgf.rows[0][0].dbl(), expected, 1e-9);
}

TEST(DgfRcFileTest, SliceOptimizerHandlesRcLayout) {
  RcWorld world = MakeRcWorld("opt");
  query::Query q = workload::MakeMeterQuery(
      world.config, workload::MeterQueryKind::kAggregation,
      workload::Selectivity::kFivePercent, 7);
  auto executor = MakeExecutor(world);
  ASSERT_OK_AND_ASSIGN(auto before,
                       executor->Execute(q, query::AccessPath::kDgfIndex));
  ASSERT_OK_AND_ASSIGN(auto stats, SliceOptimizer::Optimize(world.index.get()));
  EXPECT_EQ(stats.slices_after, stats.gfus);
  ASSERT_OK_AND_ASSIGN(auto after,
                       executor->Execute(q, query::AccessPath::kDgfIndex));
  EXPECT_NEAR(after.rows[0][0].dbl(), before.rows[0][0].dbl(),
              1e-6 * (1 + std::abs(before.rows[0][0].dbl())));
}

}  // namespace
}  // namespace dgf::core
