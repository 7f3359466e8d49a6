// Cross-module integration tests: DGFIndex over the persistent LSM store,
// the Bitmap Index through the query executor, and end-to-end SQL over
// every layer at once.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "dgf/dgf_builder.h"
#include "index/bitmap_index.h"
#include "kv/lsm_kv.h"
#include "query/executor.h"
#include "query/parser.h"
#include "table/table.h"
#include "tests/test_util.h"
#include "workload/meter_gen.h"
#include "workload/query_gen.h"

namespace dgf {
namespace {

using ::dgf::testing::ScopedDfs;

TEST(IntegrationTest, DgfIndexOverLsmStoreSurvivesReopen) {
  ScopedDfs dfs("int_lsm", /*block_size=*/16384);
  workload::MeterConfig config;
  config.num_users = 200;
  config.num_days = 6;
  config.extra_metrics = 0;
  config.seed = 51;
  ASSERT_OK_AND_ASSIGN(auto meter, workload::GenerateMeterTable(
                                       dfs.get(), "/w/meter", config));

  // Build the index with its GFU pairs in the persistent LSM store (the
  // HBase-shaped deployment), with a small memtable so the build flushes.
  kv::LsmKv::Options kv_options;
  kv_options.dfs = dfs.get();
  kv_options.dir = "/index/meter";
  kv_options.memtable_flush_bytes = 4096;
  ASSERT_OK_AND_ASSIGN(auto lsm, kv::LsmKv::Open(kv_options));
  std::shared_ptr<kv::KvStore> store(std::move(lsm));

  core::DgfBuilder::Options build;
  build.dims = {{"userId", table::DataType::kInt64, 0, 25},
                {"regionId", table::DataType::kInt64, 0, 1},
                {"time", table::DataType::kDate,
                 static_cast<double>(config.start_day), 1}};
  build.precompute = {"sum(powerConsumed)"};
  build.data_dir = "/w/meter_dgf";
  {
    ASSERT_OK_AND_ASSIGN(
        auto index, core::DgfBuilder::Build(dfs.get(), store, meter, build));
    ASSERT_OK_AND_ASSIGN(uint64_t gfus, index->NumGfus());
    EXPECT_GT(gfus, 0u);
  }
  // Drop every in-memory handle and recover purely from disk.
  store.reset();
  ASSERT_OK_AND_ASSIGN(auto reopened_lsm, kv::LsmKv::Open(kv_options));
  std::shared_ptr<kv::KvStore> reopened(std::move(reopened_lsm));
  ASSERT_OK_AND_ASSIGN(auto index,
                       core::DgfIndex::Open(dfs.get(), reopened, meter.schema));

  query::QueryExecutor::Options exec_options;
  exec_options.dfs = dfs.get();
  exec_options.split_size = 16384;
  query::QueryExecutor executor(exec_options);
  executor.RegisterTable(meter);
  executor.RegisterDgfIndex(meter.name, index.get());

  query::Query q = workload::MakeMeterQuery(
      config, workload::MeterQueryKind::kAggregation,
      workload::Selectivity::kFivePercent, 1);
  ASSERT_OK_AND_ASSIGN(auto via_index,
                       executor.Execute(q, query::AccessPath::kDgfIndex));
  ASSERT_OK_AND_ASSIGN(auto via_scan,
                       executor.Execute(q, query::AccessPath::kFullScan));
  ASSERT_EQ(via_index.rows.size(), 1u);
  EXPECT_NEAR(via_index.rows[0][0].dbl(), via_scan.rows[0][0].dbl(),
              1e-6 * (1 + std::abs(via_scan.rows[0][0].dbl())));
}

TEST(IntegrationTest, BitmapPathAgreesWithScanThroughExecutor) {
  ScopedDfs dfs("int_bitmap", /*block_size=*/16384);
  workload::MeterConfig config;
  config.num_users = 300;
  config.num_days = 5;
  config.extra_metrics = 0;
  config.seed = 52;
  ASSERT_OK_AND_ASSIGN(
      auto meter, workload::GenerateMeterTable(dfs.get(), "/w/meter_rc", config,
                                               table::FileFormat::kRcFile));

  index::BitmapIndex::BuildOptions build;
  build.dims = {"regionId", "time"};
  build.index_dir = "/w/meter_bidx";
  build.split_size = 16384;
  ASSERT_OK_AND_ASSIGN(auto bitmap,
                       index::BitmapIndex::Build(dfs.get(), meter, build));

  query::QueryExecutor::Options exec_options;
  exec_options.dfs = dfs.get();
  exec_options.split_size = 16384;
  query::QueryExecutor executor(exec_options);
  executor.RegisterTable(meter);
  executor.RegisterBitmapIndex(meter.name, bitmap.get());

  ASSERT_OK_AND_ASSIGN(
      query::Query q,
      query::ParseQuery("SELECT sum(powerConsumed), count(*) FROM meterdata "
                        "WHERE regionId = 3 AND time = '2012-12-03'",
                        meter.schema));
  ASSERT_OK_AND_ASSIGN(auto via_bitmap,
                       executor.Execute(q, query::AccessPath::kBitmapIndex));
  ASSERT_OK_AND_ASSIGN(auto via_scan,
                       executor.Execute(q, query::AccessPath::kFullScan));
  EXPECT_EQ(via_bitmap.rows[0][1].int64(), via_scan.rows[0][1].int64());
  EXPECT_NEAR(via_bitmap.rows[0][0].dbl(), via_scan.rows[0][0].dbl(), 1e-6);
  // The bitmap reader skips non-matching rows inside row groups.
  EXPECT_LT(via_bitmap.stats.records_read, via_scan.stats.records_read);
}

TEST(IntegrationTest, AggregateRewritePathThroughExecutor) {
  ScopedDfs dfs("int_aggrw", /*block_size=*/16384);
  workload::MeterConfig config;
  config.num_users = 200;
  config.num_days = 4;
  config.extra_metrics = 0;
  config.seed = 53;
  ASSERT_OK_AND_ASSIGN(auto meter, workload::GenerateMeterTable(
                                       dfs.get(), "/w/meter", config));
  index::CompactIndex::BuildOptions build;
  build.dims = {"regionId", "time"};
  build.index_dir = "/w/meter_ai";
  build.index_format = table::FileFormat::kText;
  ASSERT_OK_AND_ASSIGN(auto agg_index,
                       index::AggregateIndex::Build(dfs.get(), meter, build));

  query::QueryExecutor::Options exec_options;
  exec_options.dfs = dfs.get();
  exec_options.split_size = 16384;
  query::QueryExecutor executor(exec_options);
  executor.RegisterTable(meter);
  executor.RegisterAggregateIndex(meter.name, agg_index.get());

  ASSERT_OK_AND_ASSIGN(
      query::Query q,
      query::ParseQuery("SELECT regionId, count(*) FROM meterdata WHERE "
                        "time = '2012-12-02' GROUP BY regionId",
                        meter.schema));
  ASSERT_OK_AND_ASSIGN(auto rewrite,
                       executor.Execute(q, query::AccessPath::kAggregateRewrite));
  ASSERT_OK_AND_ASSIGN(auto scan,
                       executor.Execute(q, query::AccessPath::kFullScan));
  ASSERT_EQ(rewrite.rows.size(), scan.rows.size());
  for (size_t i = 0; i < scan.rows.size(); ++i) {
    EXPECT_EQ(rewrite.rows[i][0].int64(), scan.rows[i][0].int64());
    EXPECT_EQ(rewrite.rows[i][1].int64(), scan.rows[i][1].int64());
  }
  // The rewrite never touches the base table.
  EXPECT_EQ(rewrite.stats.records_read, 0u);
}

}  // namespace
}  // namespace dgf
