#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "dgf/dgf_builder.h"
#include "dgf/dgf_index.h"
#include "dgf/dgf_input_format.h"
#include "query/predicate.h"
#include "table/table.h"
#include "tests/test_util.h"

namespace dgf::core {
namespace {

using ::dgf::testing::OpenTestStore;
using ::dgf::testing::ScopedDfs;
using table::DataType;
using table::Schema;
using table::TableDesc;
using table::Value;

Schema MeterSchema() {
  return Schema({{"userId", DataType::kInt64},
                 {"regionId", DataType::kInt64},
                 {"time", DataType::kDate},
                 {"powerConsumed", DataType::kDouble}});
}

// Deterministic small meter dataset.
std::vector<table::Row> MakeRows(int n, uint64_t seed) {
  Random rng(seed);
  std::vector<table::Row> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    rows.push_back({Value::Int64(rng.UniformRange(0, 999)),
                    Value::Int64(rng.UniformRange(1, 5)),
                    Value::Date(15000 + rng.UniformRange(0, 9)),
                    Value::Double(rng.UniformDouble(0.0, 50.0))});
  }
  return rows;
}

struct BuiltIndex {
  std::shared_ptr<kv::KvStore> store;
  std::unique_ptr<DgfIndex> index;
  TableDesc base;
  std::vector<table::Row> rows;
};

BuiltIndex BuildTestIndex(const ScopedDfs& dfs, int n_rows, uint64_t seed,
                          std::vector<std::string> precompute = {
                              "sum(powerConsumed)", "count(*)"}) {
  BuiltIndex built;
  built.base = TableDesc{"meter", MeterSchema(), table::FileFormat::kText,
                         "/warehouse/meter"};
  built.rows = MakeRows(n_rows, seed);
  auto writer = table::TableWriter::Create(dfs.get(), built.base);
  EXPECT_TRUE(writer.ok());
  for (const auto& row : built.rows) {
    EXPECT_OK((*writer)->Append(row));
  }
  EXPECT_OK((*writer)->Close());

  built.store = OpenTestStore(dfs.get());
  DgfBuilder::Options options;
  options.dims = {{"userId", DataType::kInt64, 0, 100},
                  {"regionId", DataType::kInt64, 0, 1},
                  {"time", DataType::kDate, 15000, 1}};
  options.precompute = std::move(precompute);
  options.data_dir = "/warehouse/meter_dgf";
  options.job.num_reducers = 4;
  options.split_size = 4096;
  auto index = DgfBuilder::Build(dfs.get(), built.store, built.base, options);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  built.index = std::move(*index);
  return built;
}

// Reads all rows named by `slices` via the sliced input format.
std::vector<table::Row> ReadSlices(const ScopedDfs& dfs,
                                   const std::vector<SliceLocation>& slices,
                                   const Schema& schema) {
  std::vector<table::Row> rows;
  auto planned = PlanSlicedSplits(dfs.get(), slices, 4096);
  EXPECT_TRUE(planned.ok()) << planned.status().ToString();
  for (const auto& sliced : *planned) {
    auto reader = SliceRecordReader::Open(dfs.get(), sliced, schema);
    EXPECT_TRUE(reader.ok());
    table::Row row;
    for (;;) {
      auto more = (*reader)->Next(&row);
      EXPECT_TRUE(more.ok()) << more.status().ToString();
      if (!*more) break;
      rows.push_back(row);
    }
  }
  return rows;
}

query::Predicate MeterPredicate(int64_t u_lo, int64_t u_hi, int64_t r_lo,
                                int64_t r_hi, int64_t t_lo, int64_t t_hi) {
  query::Predicate pred;
  pred.And(query::ColumnRange::Between("userId", Value::Int64(u_lo), true,
                                       Value::Int64(u_hi), false));
  pred.And(query::ColumnRange::Between("regionId", Value::Int64(r_lo), true,
                                       Value::Int64(r_hi), false));
  pred.And(query::ColumnRange::Between("time", Value::Date(t_lo), true,
                                       Value::Date(t_hi), false));
  return pred;
}

double BruteForceSum(const std::vector<table::Row>& rows,
                     const query::Predicate& pred, const Schema& schema,
                     uint64_t* matching = nullptr) {
  auto bound = pred.Bind(schema);
  EXPECT_TRUE(bound.ok());
  double sum = 0;
  uint64_t count = 0;
  for (const auto& row : rows) {
    if (bound->Matches(row)) {
      sum += row[3].AsDouble();
      ++count;
    }
  }
  if (matching != nullptr) *matching = count;
  return sum;
}

// ---------- Build ----------

TEST(DgfBuildTest, BuildsAndReportsStats) {
  ScopedDfs dfs("dgf_build");
  auto built = BuildTestIndex(dfs, 2000, 1);
  ASSERT_OK_AND_ASSIGN(uint64_t gfus, built.index->NumGfus());
  // 10 user cells x 5 regions x 10 days = at most 500 GFUs, at least some.
  EXPECT_GT(gfus, 50u);
  EXPECT_LE(gfus, 500u);
  ASSERT_OK_AND_ASSIGN(uint64_t size, built.index->IndexSizeBytes());
  EXPECT_GT(size, 0u);
}

TEST(DgfBuildTest, RefusesSecondBuildInSameStore) {
  ScopedDfs dfs("dgf_rebuild");
  auto built = BuildTestIndex(dfs, 200, 2);
  DgfBuilder::Options options;
  options.dims = {{"userId", DataType::kInt64, 0, 100}};
  options.data_dir = "/warehouse/other";
  auto again = DgfBuilder::Build(dfs.get(), built.store, built.base, options);
  EXPECT_EQ(again.status().code(), StatusCode::kAlreadyExists);
}

TEST(DgfBuildTest, SlicesPartitionTheTable) {
  ScopedDfs dfs("dgf_slices");
  auto built = BuildTestIndex(dfs, 1000, 3);
  // Collect every slice from the store; total records must equal the table.
  uint64_t total_records = 0;
  std::vector<SliceLocation> all_slices;
  auto it = built.store->NewIterator();
  for (it->Seek("G"); it->Valid(); it->Next()) {
    if (it->key().front() != 'G') break;
    ASSERT_OK_AND_ASSIGN(GfuValue value, GfuValue::Decode(it->value()));
    total_records += value.record_count;
    all_slices.insert(all_slices.end(), value.slices.begin(),
                      value.slices.end());
  }
  EXPECT_EQ(total_records, 1000u);
  // Reading every slice yields every row exactly once.
  auto rows = ReadSlices(dfs, all_slices, MeterSchema());
  EXPECT_EQ(rows.size(), 1000u);
}

TEST(DgfBuildTest, HeadersMatchSliceContents) {
  ScopedDfs dfs("dgf_headers");
  auto built = BuildTestIndex(dfs, 800, 4);
  auto it = built.store->NewIterator();
  int checked = 0;
  for (it->Seek("G"); it->Valid() && checked < 20; it->Next()) {
    if (it->key().front() != 'G') break;
    ASSERT_OK_AND_ASSIGN(GfuValue value, GfuValue::Decode(it->value()));
    auto rows = ReadSlices(dfs, value.slices, MeterSchema());
    ASSERT_EQ(rows.size(), value.record_count);
    double sum = 0;
    for (const auto& row : rows) sum += row[3].AsDouble();
    EXPECT_NEAR(value.header[0], sum, 1e-6);
    EXPECT_DOUBLE_EQ(value.header[1], static_cast<double>(rows.size()));
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(DgfBuildTest, OpenFromPersistedMetadata) {
  ScopedDfs dfs("dgf_open");
  auto built = BuildTestIndex(dfs, 300, 5);
  ASSERT_OK_AND_ASSIGN(auto reopened,
                       DgfIndex::Open(dfs.get(), built.store, MeterSchema()));
  EXPECT_EQ(reopened->policy().num_dims(), 3);
  EXPECT_EQ(reopened->data_dir(), "/warehouse/meter_dgf");
  EXPECT_EQ(reopened->aggregators()->size(), 2);
}

// ---------- Lookup correctness (property test) ----------

class DgfLookupPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DgfLookupPropertyTest, AggregationLookupMatchesBruteForce) {
  ScopedDfs dfs("dgf_prop" + std::to_string(GetParam()));
  auto built = BuildTestIndex(dfs, 3000, 100 + GetParam());
  Random rng(999 + GetParam());
  const Schema schema = MeterSchema();

  for (int trial = 0; trial < 12; ++trial) {
    const int64_t u_lo = rng.UniformRange(0, 900);
    const int64_t u_hi = u_lo + rng.UniformRange(1, 999 - u_lo + 1);
    const int64_t r_lo = rng.UniformRange(1, 5);
    const int64_t r_hi = r_lo + rng.UniformRange(1, 3);
    const int64_t t_lo = 15000 + rng.UniformRange(0, 8);
    const int64_t t_hi = t_lo + rng.UniformRange(1, 5);
    query::Predicate pred = MeterPredicate(u_lo, u_hi, r_lo, r_hi, t_lo, t_hi);

    ASSERT_OK_AND_ASSIGN(auto lookup,
                         built.index->Lookup(pred, /*aggregation=*/true));
    // Aggregate: inner header + scan of boundary slices with the predicate.
    double sum = lookup.inner_header[0];
    uint64_t count = lookup.inner_records;
    auto bound = pred.Bind(schema);
    ASSERT_TRUE(bound.ok());
    for (const auto& row : ReadSlices(dfs, lookup.slices, schema)) {
      if (bound->Matches(row)) {
        sum += row[3].AsDouble();
        ++count;
      }
    }
    uint64_t expected_count = 0;
    const double expected_sum =
        BruteForceSum(built.rows, pred, schema, &expected_count);
    EXPECT_NEAR(sum, expected_sum, 1e-6)
        << "trial " << trial << " pred " << pred.ToString();
    EXPECT_EQ(count, expected_count) << pred.ToString();
  }
}

TEST_P(DgfLookupPropertyTest, NonAggregationLookupFindsAllMatchingRows) {
  ScopedDfs dfs("dgf_nonagg" + std::to_string(GetParam()));
  auto built = BuildTestIndex(dfs, 2000, 200 + GetParam());
  Random rng(555 + GetParam());
  const Schema schema = MeterSchema();

  for (int trial = 0; trial < 8; ++trial) {
    const int64_t u_lo = rng.UniformRange(0, 900);
    const int64_t u_hi = u_lo + rng.UniformRange(1, 999 - u_lo + 1);
    query::Predicate pred = MeterPredicate(u_lo, u_hi, 1, 6, 15000, 15010);

    ASSERT_OK_AND_ASSIGN(auto lookup,
                         built.index->Lookup(pred, /*aggregation=*/false));
    EXPECT_TRUE(lookup.inner_header.empty() ||
                lookup.inner_records == 0);  // nothing pre-aggregated
    auto bound = pred.Bind(schema);
    ASSERT_TRUE(bound.ok());
    uint64_t matches = 0;
    for (const auto& row : ReadSlices(dfs, lookup.slices, schema)) {
      if (bound->Matches(row)) ++matches;
    }
    uint64_t expected = 0;
    BruteForceSum(built.rows, pred, schema, &expected);
    EXPECT_EQ(matches, expected) << pred.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DgfLookupPropertyTest, ::testing::Range(0, 4));

// ---------- Lookup behaviours ----------

TEST(DgfLookupTest, PointQueryHasNoInnerRegion) {
  ScopedDfs dfs("dgf_point");
  auto built = BuildTestIndex(dfs, 2000, 7);
  query::Predicate pred;
  pred.And(query::ColumnRange::Equal("userId", Value::Int64(123)));
  pred.And(query::ColumnRange::Equal("regionId", Value::Int64(2)));
  pred.And(query::ColumnRange::Equal("time", Value::Date(15003)));
  ASSERT_OK_AND_ASSIGN(auto lookup, built.index->Lookup(pred, true));
  // A point query touches a single cell, never fully covered.
  EXPECT_EQ(lookup.inner_gfus, 0u);
  EXPECT_LE(lookup.boundary_gfus, 1u);
}

TEST(DgfLookupTest, AlignedQueryIsAllInner) {
  ScopedDfs dfs("dgf_aligned");
  auto built = BuildTestIndex(dfs, 3000, 8);
  // Cell-aligned box: [100,300) x [1,3) x [15002,15004).
  query::Predicate pred = MeterPredicate(100, 300, 1, 3, 15002, 15004);
  ASSERT_OK_AND_ASSIGN(auto lookup, built.index->Lookup(pred, true));
  EXPECT_EQ(lookup.boundary_gfus, 0u);
  EXPECT_TRUE(lookup.slices.empty());
  EXPECT_GT(lookup.inner_records, 0u);
  uint64_t expected = 0;
  const double expected_sum =
      BruteForceSum(built.rows, pred, MeterSchema(), &expected);
  EXPECT_EQ(lookup.inner_records, expected);
  EXPECT_NEAR(lookup.inner_header[0], expected_sum, 1e-6);
}

TEST(DgfLookupTest, PartialQueryUsesStoredBounds) {
  ScopedDfs dfs("dgf_partial");
  auto built = BuildTestIndex(dfs, 2000, 9);
  // No userId condition: the paper's partial-specified query (Listing 7).
  query::Predicate pred;
  pred.And(query::ColumnRange::Equal("regionId", Value::Int64(3)));
  pred.And(query::ColumnRange::Equal("time", Value::Date(15004)));
  ASSERT_OK_AND_ASSIGN(auto lookup, built.index->Lookup(pred, true));
  double sum = lookup.inner_header[0];
  auto bound = pred.Bind(MeterSchema());
  ASSERT_TRUE(bound.ok());
  for (const auto& row : ReadSlices(dfs, lookup.slices, MeterSchema())) {
    if (bound->Matches(row)) sum += row[3].AsDouble();
  }
  EXPECT_NEAR(sum, BruteForceSum(built.rows, pred, MeterSchema()), 1e-6);
  // userId axis is unconstrained -> fully inner along it, so the inner region
  // exists (regionId/time are single full cells).
  EXPECT_GT(lookup.inner_gfus, 0u);
}

TEST(DgfLookupTest, EmptyRangeReturnsNothing) {
  ScopedDfs dfs("dgf_empty");
  auto built = BuildTestIndex(dfs, 500, 10);
  query::Predicate pred = MeterPredicate(500, 400, 1, 5, 15000, 15005);
  ASSERT_OK_AND_ASSIGN(auto lookup, built.index->Lookup(pred, true));
  EXPECT_TRUE(lookup.slices.empty());
  EXPECT_EQ(lookup.inner_records, 0u);
}

TEST(DgfLookupTest, OutOfDomainRangeReturnsNothing) {
  ScopedDfs dfs("dgf_oob");
  auto built = BuildTestIndex(dfs, 500, 11);
  query::Predicate pred = MeterPredicate(5000, 9000, 1, 5, 15000, 15005);
  ASSERT_OK_AND_ASSIGN(auto lookup, built.index->Lookup(pred, true));
  EXPECT_TRUE(lookup.slices.empty());
  EXPECT_EQ(lookup.inner_records, 0u);
}

TEST(DgfLookupTest, CoversAggregations) {
  ScopedDfs dfs("dgf_covers");
  auto built = BuildTestIndex(dfs, 300, 12);
  ASSERT_OK_AND_ASSIGN(AggSpec sum, AggSpec::Parse("sum(powerConsumed)"));
  ASSERT_OK_AND_ASSIGN(AggSpec count, AggSpec::Parse("count(*)"));
  ASSERT_OK_AND_ASSIGN(AggSpec min, AggSpec::Parse("min(powerConsumed)"));
  EXPECT_TRUE(built.index->CoversAggregations({sum}));
  EXPECT_TRUE(built.index->CoversAggregations({sum, count}));
  EXPECT_FALSE(built.index->CoversAggregations({min}));
  EXPECT_FALSE(built.index->CoversAggregations({}));
}

// ---------- Incremental append ----------

TEST(DgfAppendTest, AppendExtendsTimeDimensionWithoutRebuild) {
  ScopedDfs dfs("dgf_append");
  auto built = BuildTestIndex(dfs, 1500, 13);

  // New batch: next 5 days of data (time cells the index has never seen).
  TableDesc batch{"meter_new", MeterSchema(), table::FileFormat::kText,
                  "/staging/meter_new"};
  Random rng(77);
  std::vector<table::Row> new_rows;
  ASSERT_OK_AND_ASSIGN(auto writer, table::TableWriter::Create(dfs.get(), batch));
  for (int i = 0; i < 800; ++i) {
    table::Row row = {Value::Int64(rng.UniformRange(0, 999)),
                      Value::Int64(rng.UniformRange(1, 5)),
                      Value::Date(15010 + rng.UniformRange(0, 4)),
                      Value::Double(rng.UniformDouble(0.0, 50.0))};
    new_rows.push_back(row);
    ASSERT_OK(writer->Append(row));
  }
  ASSERT_OK(writer->Close());

  ASSERT_OK(DgfBuilder::Append(built.index.get(), batch).status());

  // Old and new data both answer correctly.
  std::vector<table::Row> all_rows = built.rows;
  all_rows.insert(all_rows.end(), new_rows.begin(), new_rows.end());
  query::Predicate pred = MeterPredicate(0, 1000, 1, 6, 15005, 15013);
  ASSERT_OK_AND_ASSIGN(auto lookup, built.index->Lookup(pred, true));
  double sum = lookup.inner_header[0];
  auto bound = pred.Bind(MeterSchema());
  ASSERT_TRUE(bound.ok());
  for (const auto& row : ReadSlices(dfs, lookup.slices, MeterSchema())) {
    if (bound->Matches(row)) sum += row[3].AsDouble();
  }
  EXPECT_NEAR(sum, BruteForceSum(all_rows, pred, MeterSchema()), 1e-6);
}

TEST(DgfAppendTest, AppendMergesOverlappingGfus) {
  ScopedDfs dfs("dgf_append_merge");
  auto built = BuildTestIndex(dfs, 1000, 14);
  // Batch with the SAME time range: GFU entries must merge, not duplicate.
  TableDesc batch{"meter_new", MeterSchema(), table::FileFormat::kText,
                  "/staging/meter_new"};
  auto rows = MakeRows(600, 15);
  ASSERT_OK_AND_ASSIGN(auto writer, table::TableWriter::Create(dfs.get(), batch));
  for (const auto& row : rows) ASSERT_OK(writer->Append(row));
  ASSERT_OK(writer->Close());
  ASSERT_OK(DgfBuilder::Append(built.index.get(), batch).status());

  std::vector<table::Row> all_rows = built.rows;
  all_rows.insert(all_rows.end(), rows.begin(), rows.end());
  query::Predicate pred = MeterPredicate(0, 1000, 1, 6, 15000, 15010);
  ASSERT_OK_AND_ASSIGN(auto lookup, built.index->Lookup(pred, true));
  double sum = lookup.inner_header[0];
  uint64_t count = lookup.inner_records;
  auto bound = pred.Bind(MeterSchema());
  ASSERT_TRUE(bound.ok());
  for (const auto& row : ReadSlices(dfs, lookup.slices, MeterSchema())) {
    if (bound->Matches(row)) {
      sum += row[3].AsDouble();
      ++count;
    }
  }
  uint64_t expected_count = 0;
  const double expected =
      BruteForceSum(all_rows, pred, MeterSchema(), &expected_count);
  EXPECT_NEAR(sum, expected, 1e-6);
  EXPECT_EQ(count, expected_count);
}

// ---------- Dynamic aggregation extension ----------

TEST(DgfAddAggregationTest, AddsUdfAndUsesIt) {
  ScopedDfs dfs("dgf_addagg");
  auto built = BuildTestIndex(dfs, 1200, 16, {"count(*)"});
  ASSERT_OK_AND_ASSIGN(AggSpec max_spec, AggSpec::Parse("max(powerConsumed)"));
  EXPECT_FALSE(built.index->CoversAggregations({max_spec}));
  ASSERT_OK(built.index->AddAggregation(max_spec));
  EXPECT_TRUE(built.index->CoversAggregations({max_spec}));
  EXPECT_TRUE(
      built.index->AddAggregation(max_spec).code() ==
      StatusCode::kAlreadyExists);

  // Aligned query answered purely from the new headers.
  query::Predicate pred = MeterPredicate(0, 1000, 1, 6, 15000, 15010);
  ASSERT_OK_AND_ASSIGN(auto lookup, built.index->Lookup(pred, true));
  EXPECT_EQ(lookup.boundary_gfus, 0u);
  double expected_max = -1;
  for (const auto& row : built.rows) {
    expected_max = std::max(expected_max, row[3].AsDouble());
  }
  ASSERT_EQ(lookup.inner_header.size(), 2u);
  EXPECT_NEAR(lookup.inner_header[1], expected_max, 1e-9);
}

// ---------- Decoded-GFU cache ----------

TEST(DgfCacheTest, RepeatedLookupHitsCache) {
  ScopedDfs dfs("dgf_cache_warm");
  auto built = BuildTestIndex(dfs, 1500, 21);
  query::Predicate pred = MeterPredicate(0, 1000, 1, 6, 15000, 15010);

  ASSERT_OK_AND_ASSIGN(auto cold, built.index->Lookup(pred, true));
  EXPECT_GT(cold.cache_misses, 0u);
  ASSERT_OK_AND_ASSIGN(auto warm, built.index->Lookup(pred, true));
  EXPECT_GT(warm.cache_hits, 0u);
  EXPECT_LT(warm.cache_misses, cold.cache_misses);

  // Cached answers are the same answers.
  ASSERT_EQ(warm.inner_header.size(), cold.inner_header.size());
  for (size_t i = 0; i < cold.inner_header.size(); ++i) {
    EXPECT_EQ(warm.inner_header[i], cold.inner_header[i]);
  }
  EXPECT_EQ(warm.inner_records, cold.inner_records);
  EXPECT_EQ(warm.slices.size(), cold.slices.size());
}

TEST(DgfCacheTest, AddAggregationInvalidatesCache) {
  ScopedDfs dfs("dgf_cache_addagg");
  auto built = BuildTestIndex(dfs, 1200, 22, {"count(*)"});
  query::Predicate pred = MeterPredicate(0, 1000, 1, 6, 15000, 15010);
  // Warm the cache with the single-aggregate headers.
  ASSERT_OK_AND_ASSIGN(auto before, built.index->Lookup(pred, true));
  ASSERT_EQ(before.inner_header.size(), 1u);

  ASSERT_OK_AND_ASSIGN(AggSpec max_spec, AggSpec::Parse("max(powerConsumed)"));
  ASSERT_OK(built.index->AddAggregation(max_spec));

  // Stale cached GfuValues would still carry one header slot.
  ASSERT_OK_AND_ASSIGN(auto after, built.index->Lookup(pred, true));
  ASSERT_EQ(after.inner_header.size(), 2u);
  double expected_max = -1;
  for (const auto& row : built.rows) {
    expected_max = std::max(expected_max, row[3].AsDouble());
  }
  EXPECT_NEAR(after.inner_header[1], expected_max, 1e-9);
}

TEST(DgfCacheTest, AppendInvalidatesCache) {
  ScopedDfs dfs("dgf_cache_append");
  auto built = BuildTestIndex(dfs, 1000, 23);
  query::Predicate pred = MeterPredicate(0, 1000, 1, 6, 15000, 15010);
  // Warm the cache before appending rows into the same cells.
  ASSERT_OK_AND_ASSIGN(auto before, built.index->Lookup(pred, true));

  TableDesc batch{"meter_new", MeterSchema(), table::FileFormat::kText,
                  "/staging/meter_new"};
  auto rows = MakeRows(600, 24);
  ASSERT_OK_AND_ASSIGN(auto writer, table::TableWriter::Create(dfs.get(), batch));
  for (const auto& row : rows) ASSERT_OK(writer->Append(row));
  ASSERT_OK(writer->Close());
  ASSERT_OK(DgfBuilder::Append(built.index.get(), batch).status());

  std::vector<table::Row> all_rows = built.rows;
  all_rows.insert(all_rows.end(), rows.begin(), rows.end());
  ASSERT_OK_AND_ASSIGN(auto after, built.index->Lookup(pred, true));
  double sum = after.inner_header[0];
  uint64_t count = after.inner_records;
  auto bound = pred.Bind(MeterSchema());
  ASSERT_TRUE(bound.ok());
  for (const auto& row : ReadSlices(dfs, after.slices, MeterSchema())) {
    if (bound->Matches(row)) {
      sum += row[3].AsDouble();
      ++count;
    }
  }
  uint64_t expected_count = 0;
  const double expected =
      BruteForceSum(all_rows, pred, MeterSchema(), &expected_count);
  EXPECT_NEAR(sum, expected, 1e-6);
  EXPECT_EQ(count, expected_count);
  // Stale cached records would undercount versus the pre-append lookup.
  EXPECT_GT(count, before.inner_records);
}

TEST(DgfCacheTest, InterleavedAppendsKeepWarmAndColdAnswersEqual) {
  // Coherence under an append/query interleaving: after EVERY append, the
  // answer served through the warmed cache must equal the answer from a
  // freshly invalidated (cold) cache — and both must equal brute force.
  ScopedDfs dfs("dgf_cache_interleave");
  auto built = BuildTestIndex(dfs, 800, 25);
  std::vector<table::Row> all_rows = built.rows;
  const std::vector<query::Predicate> queries = {
      MeterPredicate(0, 1000, 1, 6, 15000, 15020),
      MeterPredicate(100, 700, 2, 4, 15002, 15012),
      MeterPredicate(0, 300, 1, 3, 15000, 15006)};

  for (int round = 0; round < 4; ++round) {
    // Warm the cache on every query shape before this round's append.
    for (const auto& pred : queries) {
      ASSERT_OK(built.index->Lookup(pred, true).status());
    }
    TableDesc batch{"meter_new", MeterSchema(), table::FileFormat::kText,
                    "/staging/meter_batch_" + std::to_string(round)};
    auto rows = MakeRows(300, 26 + static_cast<uint64_t>(round));
    ASSERT_OK_AND_ASSIGN(auto writer,
                         table::TableWriter::Create(dfs.get(), batch));
    for (const auto& row : rows) ASSERT_OK(writer->Append(row));
    ASSERT_OK(writer->Close());
    ASSERT_OK(DgfBuilder::Append(built.index.get(), batch).status());
    all_rows.insert(all_rows.end(), rows.begin(), rows.end());

    for (const auto& pred : queries) {
      // Warm: whatever survives in the cache after Append's invalidation
      // plus this round's lookups.
      ASSERT_OK_AND_ASSIGN(auto warm, built.index->Lookup(pred, true));
      // Cold: everything re-read from the store.
      built.index->InvalidateCache();
      ASSERT_OK_AND_ASSIGN(auto cold, built.index->Lookup(pred, true));

      ASSERT_EQ(warm.inner_header.size(), cold.inner_header.size());
      for (size_t i = 0; i < cold.inner_header.size(); ++i) {
        EXPECT_EQ(warm.inner_header[i], cold.inner_header[i])
            << "round " << round << " header " << i;
      }
      EXPECT_EQ(warm.inner_records, cold.inner_records) << "round " << round;
      EXPECT_EQ(warm.slices.size(), cold.slices.size()) << "round " << round;

      double sum = cold.inner_header[0];
      uint64_t count = cold.inner_records;
      auto bound = pred.Bind(MeterSchema());
      ASSERT_TRUE(bound.ok());
      for (const auto& row : ReadSlices(dfs, cold.slices, MeterSchema())) {
        if (bound->Matches(row)) {
          sum += row[3].AsDouble();
          ++count;
        }
      }
      uint64_t expected_count = 0;
      const double expected =
          BruteForceSum(all_rows, pred, MeterSchema(), &expected_count);
      EXPECT_NEAR(sum, expected, 1e-6 * (1 + std::abs(expected)))
          << "round " << round;
      EXPECT_EQ(count, expected_count) << "round " << round;
    }
  }
}

// ---------- Sliced input format ----------

TEST(SlicedSplitTest, FiltersUnrelatedSplits) {
  ScopedDfs dfs("dgf_splitfilter");
  // One file of 10 x 100-byte regions; slices in regions 2 and 7 only.
  ASSERT_OK_AND_ASSIGN(auto writer, dfs->Create("/data.txt"));
  std::string line(99, 'x');
  line += "\n";
  for (int i = 0; i < 10; ++i) ASSERT_OK(writer->Append(line));
  ASSERT_OK(writer->Close());

  std::vector<SliceLocation> slices = {{"/data.txt", 200, 300},
                                       {"/data.txt", 700, 800}};
  ASSERT_OK_AND_ASSIGN(auto planned,
                       PlanSlicedSplits(dfs.get(), slices, /*split_size=*/250));
  // Splits: [0,250) [250,500) [500,750) [750,1000). Slice starts at 200 and
  // 700 -> splits 0 and 2 chosen.
  ASSERT_EQ(planned.size(), 2u);
  EXPECT_EQ(planned[0].split.offset, 0u);
  EXPECT_EQ(planned[1].split.offset, 500u);
  ASSERT_EQ(planned[0].slices.size(), 1u);
  EXPECT_EQ(planned[0].slices[0].start, 200u);
}

TEST(SlicedSplitTest, DropsZeroLengthSlices) {
  ScopedDfs dfs("dgf_zeroslice");
  ASSERT_OK_AND_ASSIGN(auto writer, dfs->Create("/data.txt"));
  ASSERT_OK(writer->Append("abc\n"));
  ASSERT_OK(writer->Close());
  std::vector<SliceLocation> slices = {{"/data.txt", 0, 0}};
  ASSERT_OK_AND_ASSIGN(auto planned, PlanSlicedSplits(dfs.get(), slices));
  EXPECT_TRUE(planned.empty());
}

TEST(SliceRecordReaderTest, CountsSeeks) {
  ScopedDfs dfs("dgf_seeks");
  Schema schema({{"v", DataType::kInt64}});
  ASSERT_OK_AND_ASSIGN(auto writer,
                       table::TextFileWriter::Create(dfs.get(), "/d.txt", schema));
  std::vector<uint64_t> offsets;
  for (int i = 0; i < 10; ++i) {
    offsets.push_back(writer->Offset());
    ASSERT_OK(writer->Append({Value::Int64(i)}));
  }
  const uint64_t end = writer->Offset();
  ASSERT_OK(writer->Close());

  SlicedSplit sliced;
  sliced.split = {"/d.txt", 0, end};
  sliced.slices = {{"/d.txt", offsets[1], offsets[3]},
                   {"/d.txt", offsets[6], offsets[7]}};
  ASSERT_OK_AND_ASSIGN(auto reader,
                       SliceRecordReader::Open(dfs.get(), sliced, schema));
  table::Row row;
  std::vector<int64_t> got;
  for (;;) {
    ASSERT_OK_AND_ASSIGN(bool more, reader->Next(&row));
    if (!more) break;
    got.push_back(row[0].int64());
  }
  EXPECT_EQ(got, (std::vector<int64_t>{1, 2, 6}));
  EXPECT_EQ(reader->SeekCount(), 2u);
}

}  // namespace
}  // namespace dgf::core
