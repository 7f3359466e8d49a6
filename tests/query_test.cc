#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dgf/dgf_builder.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/predicate.h"
#include "table/table.h"
#include "tests/test_util.h"
#include "workload/meter_gen.h"
#include "workload/query_gen.h"

namespace dgf::query {
namespace {

using ::dgf::testing::OpenTestStore;
using ::dgf::testing::ScopedDfs;
using table::DataType;
using table::Schema;
using table::Value;

// ---------- Predicate unit tests ----------

TEST(PredicateTest, RangeMatching) {
  auto range = ColumnRange::Between("x", Value::Int64(5), true,
                                    Value::Int64(10), false);
  EXPECT_FALSE(range.Matches(Value::Int64(4)));
  EXPECT_TRUE(range.Matches(Value::Int64(5)));
  EXPECT_TRUE(range.Matches(Value::Int64(9)));
  EXPECT_FALSE(range.Matches(Value::Int64(10)));
}

TEST(PredicateTest, ExclusiveLower) {
  ColumnRange range;
  range.column = "x";
  range.lower = Bound{Value::Double(2.5), false};
  EXPECT_FALSE(range.Matches(Value::Double(2.5)));
  EXPECT_TRUE(range.Matches(Value::Double(2.500001)));
}

TEST(PredicateTest, AndIntersectsSameColumn) {
  Predicate pred;
  pred.And(ColumnRange::Between("x", Value::Int64(0), true, Value::Int64(100),
                                true));
  pred.And(ColumnRange::Between("x", Value::Int64(10), true, Value::Int64(50),
                                false));
  ASSERT_EQ(pred.ranges().size(), 1u);
  const ColumnRange& merged = pred.ranges()[0];
  EXPECT_EQ(merged.lower->value, Value::Int64(10));
  EXPECT_EQ(merged.upper->value, Value::Int64(50));
  EXPECT_FALSE(merged.upper->inclusive);
}

TEST(PredicateTest, BindRejectsUnknownColumn) {
  Predicate pred;
  pred.And(ColumnRange::Equal("ghost", Value::Int64(1)));
  Schema schema({{"x", DataType::kInt64}});
  EXPECT_FALSE(pred.Bind(schema).ok());
}

TEST(PredicateTest, EmptyPredicateMatchesAll) {
  Predicate pred;
  Schema schema({{"x", DataType::kInt64}});
  ASSERT_OK_AND_ASSIGN(BoundPredicate bound, pred.Bind(schema));
  EXPECT_TRUE(bound.Matches({Value::Int64(7)}));
}

// ---------- Parser tests ----------

Schema MeterParseSchema() {
  workload::MeterConfig config;
  config.extra_metrics = 0;
  return workload::MeterSchema(config);
}

TEST(ParserTest, ParsesAggregationQuery) {
  Schema schema = MeterParseSchema();
  ASSERT_OK_AND_ASSIGN(
      Query q,
      ParseQuery("SELECT sum(powerConsumed) FROM meterdata "
                 "WHERE regionId > 1 AND regionId < 5 AND userId >= 100 "
                 "AND userId < 1000 AND time > '2012-12-05' AND "
                 "time < '2012-12-20'",
                 schema));
  EXPECT_EQ(q.table, "meterdata");
  ASSERT_EQ(q.select.size(), 1u);
  EXPECT_TRUE(q.select[0].is_aggregation());
  EXPECT_EQ(q.select[0].agg->ToString(), "sum(powerconsumed)");
  EXPECT_TRUE(q.IsPlainAggregation());
  const ColumnRange* time = q.where.FindColumn("time");
  ASSERT_NE(time, nullptr);
  EXPECT_TRUE(time->lower->value.is_date());
  EXPECT_FALSE(time->lower->inclusive);
}

TEST(ParserTest, ParsesGroupBy) {
  Schema schema = MeterParseSchema();
  ASSERT_OK_AND_ASSIGN(
      Query q, ParseQuery("SELECT time, sum(powerConsumed) FROM meterdata "
                          "WHERE regionId = 3 GROUP BY time",
                          schema));
  ASSERT_TRUE(q.group_by.has_value());
  EXPECT_EQ(*q.group_by, "time");
  ASSERT_EQ(q.select.size(), 2u);
  EXPECT_EQ(q.select[0].column, "time");
}

TEST(ParserTest, ParsesJoinWithAliases) {
  Schema left = MeterParseSchema();
  Schema right = workload::UserInfoSchema();
  ASSERT_OK_AND_ASSIGN(
      Query q,
      ParseQuery("SELECT t2.userName, t1.powerConsumed FROM meterdata t1 "
                 "JOIN userinfo t2 ON t1.userId = t2.userId "
                 "WHERE t1.regionId > 1 AND t1.regionId < 4",
                 left, &right));
  ASSERT_TRUE(q.join.has_value());
  EXPECT_EQ(q.join->right_table, "userinfo");
  EXPECT_EQ(q.join->left_column, "userid");
  EXPECT_EQ(q.join->right_column, "userid");
  ASSERT_EQ(q.select.size(), 2u);
  EXPECT_EQ(q.select[0].column, "username");
}

TEST(ParserTest, ParsesCountStarAndSumProduct) {
  Schema schema({{"a", DataType::kDouble}, {"b", DataType::kDouble}});
  ASSERT_OK_AND_ASSIGN(Query q,
                       ParseQuery("SELECT count(*), sum(a*b) FROM t", schema));
  ASSERT_EQ(q.select.size(), 2u);
  EXPECT_EQ(q.select[0].agg->func, core::AggFunc::kCount);
  EXPECT_EQ(q.select[1].agg->func, core::AggFunc::kSumProduct);
}

TEST(ParserTest, RejectsMalformedQueries) {
  Schema schema = MeterParseSchema();
  EXPECT_FALSE(ParseQuery("SELEC x FROM t", schema).ok());
  EXPECT_FALSE(ParseQuery("SELECT sum( FROM t", schema).ok());
  EXPECT_FALSE(ParseQuery("SELECT x FROM t WHERE", schema).ok());
  EXPECT_FALSE(ParseQuery("SELECT x FROM t WHERE a >", schema).ok());
  EXPECT_FALSE(ParseQuery("SELECT x FROM t trailing junk()", schema).ok());
  EXPECT_FALSE(ParseQuery("SELECT x FROM t WHERE nope = 'x'", schema).ok());
}

TEST(ParserTest, ParsesBetween) {
  Schema schema = MeterParseSchema();
  ASSERT_OK_AND_ASSIGN(
      Query q,
      ParseQuery("SELECT count(*) FROM meterdata WHERE powerConsumed BETWEEN "
                 "120.34 AND 230.2 AND time BETWEEN '2013-01-01' AND "
                 "'2013-02-01'",
                 schema));
  const ColumnRange* power = q.where.FindColumn("powerConsumed");
  ASSERT_NE(power, nullptr);
  EXPECT_DOUBLE_EQ(power->lower->value.dbl(), 120.34);
  EXPECT_TRUE(power->lower->inclusive);
  EXPECT_DOUBLE_EQ(power->upper->value.dbl(), 230.2);
  EXPECT_TRUE(power->upper->inclusive);
  const ColumnRange* time = q.where.FindColumn("time");
  ASSERT_NE(time, nullptr);
  EXPECT_TRUE(time->lower->value.is_date());
  // Malformed BETWEEN forms fail.
  EXPECT_FALSE(
      ParseQuery("SELECT count(*) FROM m WHERE userId BETWEEN 1", schema).ok());
  EXPECT_FALSE(
      ParseQuery("SELECT count(*) FROM m WHERE userId BETWEEN 1 OR 2", schema)
          .ok());
}

TEST(ParserTest, ParsesAvg) {
  Schema schema = MeterParseSchema();
  ASSERT_OK_AND_ASSIGN(
      Query q, ParseQuery("SELECT avg(powerConsumed) FROM meterdata "
                          "WHERE userId BETWEEN 100 AND 1000",
                          schema));
  ASSERT_EQ(q.select.size(), 1u);
  EXPECT_EQ(q.select[0].agg->func, core::AggFunc::kAvg);
  EXPECT_TRUE(q.IsPlainAggregation());
}

TEST(ParserTest, TypesLiteralsAgainstSchema) {
  Schema schema = MeterParseSchema();
  ASSERT_OK_AND_ASSIGN(
      Query q, ParseQuery("SELECT count(*) FROM m WHERE time = '2012-12-30' "
                          "AND powerConsumed <= 100",
                          schema));
  const ColumnRange* time = q.where.FindColumn("time");
  ASSERT_NE(time, nullptr);
  EXPECT_TRUE(time->lower->value.is_date());
  const ColumnRange* power = q.where.FindColumn("powerconsumed");
  ASSERT_NE(power, nullptr);
  EXPECT_TRUE(power->upper->value.is_double());
}

// ---------- Executor end-to-end: all access paths agree ----------

struct World {
  std::unique_ptr<ScopedDfs> dfs;
  workload::MeterConfig config;
  table::TableDesc meter;
  table::TableDesc users;
  std::shared_ptr<kv::KvStore> store;
  std::unique_ptr<core::DgfIndex> dgf;
  std::unique_ptr<index::CompactIndex> compact;
  std::unique_ptr<QueryExecutor> executor;
};

World MakeWorld(const std::string& tag) {
  World world;
  world.dfs = std::make_unique<ScopedDfs>("qexec_" + tag, /*block_size=*/16384);
  world.config.num_users = 400;
  world.config.num_days = 10;
  world.config.num_regions = 5;
  world.config.extra_metrics = 2;
  world.config.seed = 99;

  auto meter = workload::GenerateMeterTable(world.dfs->get(), "/w/meter",
                                            world.config,
                                            table::FileFormat::kText, 16384);
  EXPECT_TRUE(meter.ok()) << meter.status().ToString();
  world.meter = *meter;
  auto users = workload::GenerateUserInfoTable(world.dfs->get(), "/w/users",
                                               world.config);
  EXPECT_TRUE(users.ok());
  world.users = *users;

  world.store = OpenTestStore(world.dfs->get());
  core::DgfBuilder::Options dgf_options;
  dgf_options.dims = {{"userId", DataType::kInt64, 0, 50},
                      {"regionId", DataType::kInt64, 0, 1},
                      {"time", DataType::kDate,
                       static_cast<double>(world.config.start_day), 1}};
  dgf_options.precompute = {"sum(powerConsumed)", "count(*)"};
  dgf_options.data_dir = "/w/meter_dgf";
  dgf_options.split_size = 16384;
  auto dgf = core::DgfBuilder::Build(world.dfs->get(), world.store, world.meter,
                                     dgf_options);
  EXPECT_TRUE(dgf.ok()) << dgf.status().ToString();
  world.dgf = std::move(*dgf);

  index::CompactIndex::BuildOptions ci_options;
  ci_options.dims = {"regionId", "time"};
  ci_options.index_dir = "/w/meter_ci";
  ci_options.index_format = table::FileFormat::kText;
  ci_options.split_size = 16384;
  auto compact =
      index::CompactIndex::Build(world.dfs->get(), world.meter, ci_options);
  EXPECT_TRUE(compact.ok()) << compact.status().ToString();
  world.compact = std::move(*compact);

  QueryExecutor::Options options;
  options.dfs = world.dfs->get();
  options.split_size = 16384;
  world.executor = std::make_unique<QueryExecutor>(options);
  world.executor->RegisterTable(world.meter);
  world.executor->RegisterTable(world.users);
  world.executor->RegisterDgfIndex(world.meter.name, world.dgf.get());
  world.executor->RegisterCompactIndex(world.meter.name, world.compact.get());
  return world;
}

void ExpectSameResults(const QueryResult& a, const QueryResult& b,
                       const std::string& context) {
  ASSERT_EQ(a.rows.size(), b.rows.size()) << context;
  // Compare row sets (order may differ for projections).
  std::vector<std::string> ta, tb;
  for (const auto& row : a.rows) ta.push_back(table::FormatRowText(row));
  for (const auto& row : b.rows) tb.push_back(table::FormatRowText(row));
  std::sort(ta.begin(), ta.end());
  std::sort(tb.begin(), tb.end());
  for (size_t i = 0; i < ta.size(); ++i) {
    if (ta[i] != tb[i]) {
      // Double aggregation order can differ; allow tiny numeric slack by
      // re-parsing through the schema and comparing numerically.
      auto ra = table::ParseRowText(ta[i], a.schema);
      auto rb = table::ParseRowText(tb[i], b.schema);
      ASSERT_TRUE(ra.ok() && rb.ok()) << context;
      ASSERT_EQ(ra->size(), rb->size()) << context;
      for (size_t c = 0; c < ra->size(); ++c) {
        const Value& va = (*ra)[c];
        const Value& vb = (*rb)[c];
        if (va.is_double() || vb.is_double()) {
          EXPECT_NEAR(va.AsDouble(), vb.AsDouble(),
                      1e-6 * (1.0 + std::abs(va.AsDouble())))
              << context << " row " << i;
        } else {
          EXPECT_EQ(va.ToText(), vb.ToText()) << context << " row " << i;
        }
      }
    }
  }
}

class ExecutorPathAgreementTest
    : public ::testing::TestWithParam<workload::Selectivity> {};

TEST_P(ExecutorPathAgreementTest, AggregationAllPathsAgree) {
  World world = MakeWorld("agg");
  Query q = workload::MakeMeterQuery(world.config,
                                     workload::MeterQueryKind::kAggregation,
                                     GetParam(), 1);
  ASSERT_OK_AND_ASSIGN(QueryResult scan,
                       world.executor->Execute(q, AccessPath::kFullScan));
  ASSERT_OK_AND_ASSIGN(QueryResult compact,
                       world.executor->Execute(q, AccessPath::kCompactIndex));
  ASSERT_OK_AND_ASSIGN(QueryResult dgf,
                       world.executor->Execute(q, AccessPath::kDgfIndex));
  ExpectSameResults(scan, compact, "scan-vs-compact " + q.ToString());
  ExpectSameResults(scan, dgf, "scan-vs-dgf " + q.ToString());
  // Work ordering: DGF reads fewer records than compact, which reads no more
  // than the scan.
  EXPECT_LE(dgf.stats.records_read, compact.stats.records_read);
  EXPECT_LE(compact.stats.records_read, scan.stats.records_read);
}

TEST_P(ExecutorPathAgreementTest, GroupByAllPathsAgree) {
  World world = MakeWorld("gb");
  Query q = workload::MakeMeterQuery(
      world.config, workload::MeterQueryKind::kGroupBy, GetParam(), 2);
  ASSERT_OK_AND_ASSIGN(QueryResult scan,
                       world.executor->Execute(q, AccessPath::kFullScan));
  ASSERT_OK_AND_ASSIGN(QueryResult compact,
                       world.executor->Execute(q, AccessPath::kCompactIndex));
  ASSERT_OK_AND_ASSIGN(QueryResult dgf,
                       world.executor->Execute(q, AccessPath::kDgfIndex));
  ExpectSameResults(scan, compact, "scan-vs-compact " + q.ToString());
  ExpectSameResults(scan, dgf, "scan-vs-dgf " + q.ToString());
}

TEST_P(ExecutorPathAgreementTest, JoinAllPathsAgree) {
  World world = MakeWorld("join");
  Query q = workload::MakeMeterQuery(world.config,
                                     workload::MeterQueryKind::kJoin,
                                     GetParam(), 3);
  ASSERT_OK_AND_ASSIGN(QueryResult scan,
                       world.executor->Execute(q, AccessPath::kFullScan));
  ASSERT_OK_AND_ASSIGN(QueryResult dgf,
                       world.executor->Execute(q, AccessPath::kDgfIndex));
  ExpectSameResults(scan, dgf, "scan-vs-dgf " + q.ToString());
  EXPECT_GT(scan.rows.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Selectivities, ExecutorPathAgreementTest,
    ::testing::Values(workload::Selectivity::kPoint,
                      workload::Selectivity::kFivePercent,
                      workload::Selectivity::kTwelvePercent),
    [](const auto& info) {
      switch (info.param) {
        case workload::Selectivity::kPoint:
          return "Point";
        case workload::Selectivity::kFivePercent:
          return "Five";
        default:
          return "Twelve";
      }
    });

TEST(ExecutorTest, PartialQueryAgreesAcrossPaths) {
  World world = MakeWorld("partial");
  Query q = workload::MakeMeterQuery(world.config,
                                     workload::MeterQueryKind::kPartial,
                                     workload::Selectivity::kPoint, 4);
  ASSERT_OK_AND_ASSIGN(QueryResult scan,
                       world.executor->Execute(q, AccessPath::kFullScan));
  ASSERT_OK_AND_ASSIGN(QueryResult dgf,
                       world.executor->Execute(q, AccessPath::kDgfIndex));
  ExpectSameResults(scan, dgf, "partial " + q.ToString());
}

TEST(ExecutorTest, DgfAggregationReadsFarFewerRecordsAtHighSelectivity) {
  World world = MakeWorld("work");
  Query q = workload::MakeMeterQuery(world.config,
                                     workload::MeterQueryKind::kAggregation,
                                     workload::Selectivity::kTwelvePercent, 5);
  ASSERT_OK_AND_ASSIGN(QueryResult scan,
                       world.executor->Execute(q, AccessPath::kFullScan));
  ASSERT_OK_AND_ASSIGN(QueryResult dgf,
                       world.executor->Execute(q, AccessPath::kDgfIndex));
  // The inner region is pre-aggregated: only boundary records are read.
  // (At this toy scale fixed job overheads dominate simulated seconds, so the
  // work assertion is on records/bytes; the benches show the time shape at
  // realistic scale.)
  EXPECT_LT(dgf.stats.records_read, scan.stats.records_read / 4);
  EXPECT_LT(dgf.stats.bytes_read, scan.stats.bytes_read / 4);
}

TEST(ExecutorTest, AutoPathPrefersDgf) {
  World world = MakeWorld("auto");
  Query q = workload::MakeMeterQuery(world.config,
                                     workload::MeterQueryKind::kAggregation,
                                     workload::Selectivity::kFivePercent, 6);
  ASSERT_OK_AND_ASSIGN(QueryResult result, world.executor->Execute(q));
  EXPECT_EQ(result.stats.path, AccessPath::kDgfIndex);
}

TEST(ExecutorTest, ForcingUnregisteredPathFails) {
  World world = MakeWorld("force");
  Query q = workload::MakeMeterQuery(world.config,
                                     workload::MeterQueryKind::kAggregation,
                                     workload::Selectivity::kPoint, 7);
  EXPECT_FALSE(world.executor->Execute(q, AccessPath::kBitmapIndex).ok());
}

TEST(ExecutorTest, AvgComputedFromSumAndCountOnEveryPath) {
  // The paper's motivating example: "What was the average power consumption
  // of user ids in the range 100 to 1000 and dates in ...?" — avg is not
  // additive, so the executor expands it to sum/count; with both precomputed
  // the DGF aggregation path still answers from headers.
  World world = MakeWorld("avg");
  ASSERT_OK_AND_ASSIGN(
      Query q,
      ParseQuery("SELECT avg(powerConsumed), count(*) FROM meterdata WHERE "
                 "userId BETWEEN 100 AND 300 AND regionId BETWEEN 1 AND 5 AND "
                 "time BETWEEN '2012-12-02' AND '2012-12-06'",
                 world.meter.schema));
  ASSERT_OK_AND_ASSIGN(QueryResult scan,
                       world.executor->Execute(q, AccessPath::kFullScan));
  ASSERT_OK_AND_ASSIGN(QueryResult dgf,
                       world.executor->Execute(q, AccessPath::kDgfIndex));
  ASSERT_EQ(scan.rows.size(), 1u);
  const double scan_avg = scan.rows[0][0].dbl();
  EXPECT_GT(scan_avg, 0.0);
  EXPECT_NEAR(dgf.rows[0][0].dbl(), scan_avg, 1e-6 * (1 + scan_avg));
  EXPECT_EQ(dgf.rows[0][1].int64(), scan.rows[0][1].int64());
  // sum+count are both precomputed -> boundary-only read.
  EXPECT_LT(dgf.stats.records_read, scan.stats.records_read);
}

TEST(ExecutorTest, ParsedSqlRunsEndToEnd) {
  World world = MakeWorld("sql");
  ASSERT_OK_AND_ASSIGN(
      Query q, ParseQuery("SELECT sum(powerConsumed), count(*) FROM meterdata "
                          "WHERE userId >= 100 AND userId < 200 AND "
                          "regionId >= 1 AND regionId <= 5 AND "
                          "time >= '2012-12-02' AND time < '2012-12-06'",
                          world.meter.schema));
  ASSERT_OK_AND_ASSIGN(QueryResult scan,
                       world.executor->Execute(q, AccessPath::kFullScan));
  ASSERT_OK_AND_ASSIGN(QueryResult dgf,
                       world.executor->Execute(q, AccessPath::kDgfIndex));
  ExpectSameResults(scan, dgf, "sql");
  ASSERT_EQ(scan.rows.size(), 1u);
  // count(*) column must be a positive integer.
  EXPECT_GT(scan.rows[0][1].int64(), 0);
}

}  // namespace
}  // namespace dgf::query
