// Property sweeps: the library's central invariants checked across
// parameterized configuration grids (splitting policies, slice geometries).

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <tuple>

#include "common/random.h"
#include "dgf/dgf_builder.h"
#include "dgf/dgf_input_format.h"
#include "table/text_format.h"
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

// ---------------------------------------------------------------------------
// Invariant 1: for ANY splitting policy, aggregation via DGFIndex (inner
// headers + boundary scan) equals brute force. Swept over (user interval,
// region interval, time interval) including degenerate 1-cell and 1-value
// grids.
// ---------------------------------------------------------------------------

class PolicySweepTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(PolicySweepTest, AggregationEqualsBruteForceUnderAnyPolicy) {
  const auto [user_interval, region_interval, time_interval] = GetParam();
  ScopedDfs dfs("prop_policy", 16384);
  const Schema schema = MeterSchema();

  Random rng(501);
  std::vector<table::Row> rows;
  table::TableDesc meter{"meter", schema, table::FileFormat::kText, "/w/m"};
  {
    ASSERT_OK_AND_ASSIGN(auto writer, table::TableWriter::Create(dfs.get(), meter));
    for (int i = 0; i < 1500; ++i) {
      table::Row row = {Value::Int64(rng.UniformRange(0, 299)),
                        Value::Int64(rng.UniformRange(1, 6)),
                        Value::Date(15000 + rng.UniformRange(0, 11)),
                        Value::Double(rng.UniformDouble(0, 100))};
      rows.push_back(row);
      ASSERT_OK(writer->Append(row));
    }
    ASSERT_OK(writer->Close());
  }

  auto store = OpenTestStore(dfs.get());
  DgfBuilder::Options options;
  options.dims = {
      {"userId", DataType::kInt64, 0, static_cast<double>(user_interval)},
      {"regionId", DataType::kInt64, 0, static_cast<double>(region_interval)},
      {"time", DataType::kDate, 15000, static_cast<double>(time_interval)}};
  options.precompute = {"sum(powerConsumed)", "count(*)"};
  options.data_dir = "/w/m_dgf";
  options.split_size = 16384;
  ASSERT_OK_AND_ASSIGN(auto index,
                       DgfBuilder::Build(dfs.get(), store, meter, options));

  for (int trial = 0; trial < 6; ++trial) {
    query::Predicate pred;
    const int64_t u_lo = rng.UniformRange(0, 250);
    pred.And(query::ColumnRange::Between(
        "userId", Value::Int64(u_lo), true,
        Value::Int64(u_lo + rng.UniformRange(1, 60)), false));
    const int64_t t_lo = 15000 + rng.UniformRange(0, 9);
    pred.And(query::ColumnRange::Between(
        "time", Value::Date(t_lo), true,
        Value::Date(t_lo + rng.UniformRange(1, 4)), false));

    ASSERT_OK_AND_ASSIGN(auto lookup, index->Lookup(pred, true));
    double sum = lookup.inner_header[0];
    uint64_t count = lookup.inner_records;
    ASSERT_OK_AND_ASSIGN(auto planned,
                         PlanSlicedSplits(dfs.get(), lookup.slices, 16384));
    auto bound = pred.Bind(schema);
    ASSERT_TRUE(bound.ok());
    for (const auto& sliced : planned) {
      ASSERT_OK_AND_ASSIGN(auto reader,
                           SliceRecordReader::Open(dfs.get(), sliced, schema));
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
    for (const auto& row : rows) {
      if (bound->Matches(row)) {
        expected_sum += row[3].AsDouble();
        ++expected_count;
      }
    }
    EXPECT_NEAR(sum, expected_sum, 1e-6 * (1 + std::abs(expected_sum)))
        << "policy(" << user_interval << "," << region_interval << ","
        << time_interval << ") " << pred.ToString();
    EXPECT_EQ(count, expected_count) << pred.ToString();
  }
}

// ---------------------------------------------------------------------------
// Invariant 1b: partial-specified queries (the paper's Section 4.3 case —
// dimensions absent from the predicate are completed with the stored
// min/max) also equal brute force, for every subset of specified dimensions
// and every splitting policy in the grid above.
// ---------------------------------------------------------------------------

TEST_P(PolicySweepTest, PartialQueriesCompleteUnspecifiedDimensions) {
  const auto [user_interval, region_interval, time_interval] = GetParam();
  ScopedDfs dfs("prop_partial", 16384);
  const Schema schema = MeterSchema();

  Random rng(701);
  std::vector<table::Row> rows;
  table::TableDesc meter{"meter", schema, table::FileFormat::kText, "/w/m"};
  {
    ASSERT_OK_AND_ASSIGN(auto writer, table::TableWriter::Create(dfs.get(), meter));
    for (int i = 0; i < 1200; ++i) {
      table::Row row = {Value::Int64(rng.UniformRange(0, 299)),
                        Value::Int64(rng.UniformRange(1, 6)),
                        Value::Date(15000 + rng.UniformRange(0, 11)),
                        Value::Double(rng.UniformDouble(0, 100))};
      rows.push_back(row);
      ASSERT_OK(writer->Append(row));
    }
    ASSERT_OK(writer->Close());
  }

  auto store = OpenTestStore(dfs.get());
  DgfBuilder::Options options;
  options.dims = {
      {"userId", DataType::kInt64, 0, static_cast<double>(user_interval)},
      {"regionId", DataType::kInt64, 0, static_cast<double>(region_interval)},
      {"time", DataType::kDate, 15000, static_cast<double>(time_interval)}};
  options.precompute = {"sum(powerConsumed)", "count(*)"};
  options.data_dir = "/w/m_dgf";
  options.split_size = 16384;
  ASSERT_OK_AND_ASSIGN(auto index,
                       DgfBuilder::Build(dfs.get(), store, meter, options));

  // Every subset of specified dimensions, from fully-specified (mask 7) down
  // to the completely unspecified query (mask 0, the whole table).
  for (int mask = 0; mask < 8; ++mask) {
    query::Predicate pred;
    if (mask & 1) {
      pred.And(query::ColumnRange::Between("userId", Value::Int64(40), true,
                                           Value::Int64(220), false));
    }
    if (mask & 2) {
      pred.And(query::ColumnRange::Between("regionId", Value::Int64(2), true,
                                           Value::Int64(5), true));
    }
    if (mask & 4) {
      pred.And(query::ColumnRange::Between("time", Value::Date(15002), true,
                                           Value::Date(15008), false));
    }

    ASSERT_OK_AND_ASSIGN(auto lookup, index->Lookup(pred, true));
    double sum = lookup.inner_header[0];
    uint64_t count = lookup.inner_records;
    ASSERT_OK_AND_ASSIGN(auto planned,
                         PlanSlicedSplits(dfs.get(), lookup.slices, 16384));
    auto bound = pred.Bind(schema);
    ASSERT_TRUE(bound.ok());
    for (const auto& sliced : planned) {
      ASSERT_OK_AND_ASSIGN(auto reader,
                           SliceRecordReader::Open(dfs.get(), sliced, schema));
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
    for (const auto& row : rows) {
      if (bound->Matches(row)) {
        expected_sum += row[3].AsDouble();
        ++expected_count;
      }
    }
    EXPECT_NEAR(sum, expected_sum, 1e-6 * (1 + std::abs(expected_sum)))
        << "policy(" << user_interval << "," << region_interval << ","
        << time_interval << ") mask " << mask << " " << pred.ToString();
    EXPECT_EQ(count, expected_count) << "mask " << mask << " "
                                     << pred.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PolicySweepTest,
    ::testing::Values(std::make_tuple(1, 1, 1),       // finest: 1 value/cell
                      std::make_tuple(10, 1, 1),      // the paper's shape
                      std::make_tuple(75, 2, 3),      // coarse, unaligned
                      std::make_tuple(300, 6, 12),    // single cell per dim
                      std::make_tuple(1000, 10, 50),  // cells larger than domain
                      std::make_tuple(7, 3, 5)),      // primes (never aligned)
    [](const auto& info) {
      return "u" + std::to_string(std::get<0>(info.param)) + "_r" +
             std::to_string(std::get<1>(info.param)) + "_t" +
             std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// Invariant 2: slice plans cover every requested byte exactly once for any
// random set of line-aligned slices, under any split size.
// ---------------------------------------------------------------------------

class SlicePlanSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SlicePlanSweepTest, SlicesReadExactlyTheRequestedRows) {
  const uint64_t split_size = GetParam();
  ScopedDfs dfs("prop_slices", 16384);
  Schema schema({{"v", DataType::kInt64}});
  std::vector<uint64_t> line_starts;
  uint64_t end_offset = 0;
  {
    ASSERT_OK_AND_ASSIGN(auto writer,
                         table::TextFileWriter::Create(dfs.get(), "/f.txt",
                                                       schema));
    for (int i = 0; i < 2000; ++i) {
      line_starts.push_back(writer->Offset());
      ASSERT_OK(writer->Append({Value::Int64(i)}));
    }
    end_offset = writer->Offset();
    ASSERT_OK(writer->Close());
  }
  line_starts.push_back(end_offset);

  Random rng(601 + split_size);
  for (int trial = 0; trial < 5; ++trial) {
    // Pick disjoint random line ranges as slices.
    std::vector<SliceLocation> slices;
    std::set<int64_t> expected;
    size_t cursor = 0;
    while (cursor + 2 < line_starts.size() - 1) {
      cursor += rng.Uniform(40);  // gap
      const size_t len = 1 + rng.Uniform(30);
      const size_t first = cursor;
      const size_t last = std::min(cursor + len, line_starts.size() - 2);
      if (first > last) break;
      slices.push_back(SliceLocation{"/f.txt", line_starts[first],
                                     line_starts[last + 1]});
      for (size_t i = first; i <= last; ++i) {
        expected.insert(static_cast<int64_t>(i));
      }
      cursor = last + 2;
    }
    ASSERT_FALSE(slices.empty());

    ASSERT_OK_AND_ASSIGN(auto planned,
                         PlanSlicedSplits(dfs.get(), slices, split_size));
    std::set<int64_t> got;
    for (const auto& sliced : planned) {
      ASSERT_OK_AND_ASSIGN(auto reader,
                           SliceRecordReader::Open(dfs.get(), sliced, schema));
      table::Row row;
      for (;;) {
        ASSERT_OK_AND_ASSIGN(bool more, reader->Next(&row));
        if (!more) break;
        EXPECT_TRUE(got.insert(row[0].int64()).second)
            << "duplicate row " << row[0].int64();
      }
    }
    EXPECT_EQ(got, expected) << "split_size " << split_size;
  }
}

INSTANTIATE_TEST_SUITE_P(SplitSizes, SlicePlanSweepTest,
                         ::testing::Values(512, 1000, 4096, 16384, 1 << 20));

}  // namespace
}  // namespace dgf::core
