#include <gtest/gtest.h>

#include <memory>

#include "common/random.h"
#include "dgf/dgf_input_format.h"
#include "dgf/partitioned_dgf.h"
#include "tests/test_util.h"

namespace dgf::core {
namespace {

using ::dgf::testing::OpenTestStore;
using ::dgf::testing::ScopedDfs;
using table::DataType;
using table::Schema;
using table::Value;

Schema MeterSchema() {
  return Schema({{"userId", DataType::kInt64},
                 {"regionId", DataType::kInt64},
                 {"time", DataType::kDate},
                 {"powerConsumed", DataType::kDouble}});
}

struct World {
  std::unique_ptr<ScopedDfs> dfs;
  std::unique_ptr<table::PartitionedTable> table;
  std::unique_ptr<PartitionedDgfIndex> index;
  std::vector<table::Row> rows;
};

World MakeWorld(const std::string& tag) {
  World world;
  world.dfs = std::make_unique<ScopedDfs>("pdgf_" + tag, 16384);
  table::TableDesc desc{"meter", MeterSchema(), table::FileFormat::kText,
                        "/w/meter"};
  auto part = table::PartitionedTable::Create(world.dfs->get(), desc, {"time"});
  EXPECT_TRUE(part.ok());
  world.table = std::move(*part);
  Random rng(71);
  for (int day = 0; day < 6; ++day) {
    for (int i = 0; i < 300; ++i) {
      table::Row row = {Value::Int64(rng.UniformRange(0, 199)),
                        Value::Int64(rng.UniformRange(1, 4)),
                        Value::Date(15000 + day),
                        Value::Double(rng.UniformDouble(0, 10))};
      world.rows.push_back(row);
      EXPECT_OK(world.table->Append(row));
    }
  }
  EXPECT_OK(world.table->Close());

  DgfBuilder::Options base;
  base.dims = {{"userId", DataType::kInt64, 0, 25},
               {"regionId", DataType::kInt64, 0, 1}};
  base.precompute = {"sum(powerConsumed)", "count(*)"};
  base.data_dir = "/w/meter_dgf";
  auto index = PartitionedDgfIndex::Build(
      world.dfs->get(), *world.table, base,
      [&](const std::string& dir) -> Result<std::shared_ptr<kv::KvStore>> {
        return OpenTestStore(world.dfs->get(), "/kv" + dir);
      });
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  world.index = std::move(*index);
  return world;
}

query::Predicate BoxPredicate(int64_t u_lo, int64_t u_hi, int64_t t_lo,
                              int64_t t_hi) {
  query::Predicate pred;
  pred.And(query::ColumnRange::Between("userId", Value::Int64(u_lo), true,
                                       Value::Int64(u_hi), false));
  pred.And(query::ColumnRange::Between("time", Value::Date(t_lo), true,
                                       Value::Date(t_hi), false));
  return pred;
}

TEST(PartitionedDgfTest, BuildsOneIndexPerPartition) {
  World world = MakeWorld("build");
  EXPECT_EQ(world.index->num_partitions(), 6);
  ASSERT_OK_AND_ASSIGN(uint64_t size, world.index->IndexSizeBytes());
  EXPECT_GT(size, 0u);
}

TEST(PartitionedDgfTest, RejectsPartitionColumnAsGridDimension) {
  World world = MakeWorld("reject");
  DgfBuilder::Options base;
  base.dims = {{"time", DataType::kDate, 15000, 1}};
  base.data_dir = "/w/meter_dgf2";
  auto bad = PartitionedDgfIndex::Build(
      world.dfs->get(), *world.table, base,
      [&](const std::string& dir) -> Result<std::shared_ptr<kv::KvStore>> {
        return OpenTestStore(world.dfs->get(), "/kv" + dir);
      });
  EXPECT_TRUE(bad.status().IsInvalidArgument());
}

TEST(PartitionedDgfTest, PrunesPartitionsByTimePredicate) {
  World world = MakeWorld("prune");
  query::Predicate pred = BoxPredicate(0, 200, 15001, 15003);
  ASSERT_OK_AND_ASSIGN(auto lookup, world.index->Lookup(pred, true));
  EXPECT_EQ(lookup.partitions_consulted, 2);
  EXPECT_EQ(lookup.partitions_pruned, 4);
}

TEST(PartitionedDgfTest, AggregationMatchesBruteForce) {
  World world = MakeWorld("agg");
  Random rng(72);
  const Schema schema = MeterSchema();
  for (int trial = 0; trial < 6; ++trial) {
    const int64_t u_lo = rng.UniformRange(0, 150);
    const int64_t u_hi = u_lo + rng.UniformRange(1, 199 - u_lo + 1);
    const int64_t t_lo = 15000 + rng.UniformRange(0, 4);
    const int64_t t_hi = t_lo + rng.UniformRange(1, 3);
    query::Predicate pred = BoxPredicate(u_lo, u_hi, t_lo, t_hi);
    ASSERT_OK_AND_ASSIGN(auto lookup, world.index->Lookup(pred, true));

    double sum = lookup.merged.inner_header[0];
    uint64_t count = lookup.merged.inner_records;
    ASSERT_OK_AND_ASSIGN(auto planned,
                         PlanSlicedSplits(world.dfs->get(),
                                          lookup.merged.slices, 16384));
    auto bound = pred.Bind(schema);
    ASSERT_TRUE(bound.ok());
    for (const auto& sliced : planned) {
      ASSERT_OK_AND_ASSIGN(
          auto reader, SliceRecordReader::Open(world.dfs->get(), sliced, schema));
      table::Row row;
      for (;;) {
        ASSERT_OK_AND_ASSIGN(bool more, reader->Next(&row));
        if (!more) break;
        if (bound->Matches(row)) {
          sum += row[3].AsDouble();
          ++count;
        }
      }
    }
    double expected_sum = 0;
    uint64_t expected_count = 0;
    for (const auto& row : world.rows) {
      if (bound->Matches(row)) {
        expected_sum += row[3].AsDouble();
        ++expected_count;
      }
    }
    EXPECT_NEAR(sum, expected_sum, 1e-6 * (1 + std::abs(expected_sum)))
        << pred.ToString();
    EXPECT_EQ(count, expected_count) << pred.ToString();
  }
}

TEST(PartitionedDgfTest, CoversAggregations) {
  World world = MakeWorld("covers");
  ASSERT_OK_AND_ASSIGN(AggSpec sum, AggSpec::Parse("sum(powerConsumed)"));
  ASSERT_OK_AND_ASSIGN(AggSpec min, AggSpec::Parse("min(powerConsumed)"));
  EXPECT_TRUE(world.index->CoversAggregations({sum}));
  EXPECT_FALSE(world.index->CoversAggregations({min}));
}

}  // namespace
}  // namespace dgf::core
