// Splitting-policy advisor demo — the paper's future work ("an algorithm to
// find the best splitting policy based on the distribution of the meter data
// and the query history"), implemented and exercised:
//
//   1. Collect a query history (narrow userId windows, day-scale time windows).
//   2. Ask the PolicyAdvisor for interval sizes under a cell budget.
//   3. Build DGFIndexes with the recommended policy and with a naive one.
//   4. Replay the history through both; compare records read.
//
//   ./example_policy_advisor_demo [workdir]

#include <cstdio>
#include <filesystem>

#include "common/random.h"
#include "dgf/dgf_builder.h"
#include "dgf/policy_advisor.h"
#include "kv/lsm_kv.h"
#include "table/statistics.h"
#include "query/executor.h"
#include "table/table.h"
#include "workload/meter_gen.h"

using namespace dgf;  // NOLINT: example brevity

namespace {

query::Predicate HistoryQuery(const workload::MeterConfig& config,
                              Random& rng) {
  // The deployment's typical shape: ~2% of users, ~5-day window, all regions.
  const int64_t span = config.num_users / 50;
  const int64_t lo = rng.UniformRange(0, config.num_users - span - 1);
  const int64_t day = config.start_day + rng.UniformRange(0, config.num_days - 6);
  query::Predicate pred;
  pred.And(query::ColumnRange::Between("userId", table::Value::Int64(lo), true,
                                       table::Value::Int64(lo + span), false));
  pred.And(query::ColumnRange::Between("time", table::Value::Date(day), true,
                                       table::Value::Date(day + 5), false));
  return pred;
}

uint64_t ReplayHistory(query::QueryExecutor& executor,
                       const std::vector<query::Predicate>& history) {
  uint64_t total_records = 0;
  for (const auto& pred : history) {
    query::Query q;
    q.table = "meterdata";
    q.select.push_back(query::SelectItem::Aggregation(
        *core::AggSpec::Parse("sum(powerConsumed)")));
    q.where = pred;
    auto result = executor.Execute(q, query::AccessPath::kDgfIndex);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      std::exit(1);
    }
    total_records += result->stats.records_read;
  }
  return total_records;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string root =
      argc > 1 ? argv[1]
               : (std::filesystem::temp_directory_path() / "dgf_advisor")
                     .string();
  std::filesystem::remove_all(root);
  fs::MiniDfs::Options dfs_options;
  dfs_options.root_dir = root;
  dfs_options.block_size = 1 << 20;
  auto dfs = *fs::MiniDfs::Open(dfs_options);

  workload::MeterConfig config;
  config.num_users = 5000;
  config.num_days = 20;
  config.extra_metrics = 2;
  auto meter = *workload::GenerateMeterTable(dfs, "/warehouse/meterdata",
                                             config);

  // 1. Query history.
  Random rng(99);
  std::vector<query::Predicate> history;
  for (int i = 0; i < 20; ++i) history.push_back(HistoryQuery(config, rng));
  std::printf("History: %zu aggregation queries, e.g. %s\n", history.size(),
              history.front().ToString().c_str());

  // 2. ANALYZE the table (min/max + HyperLogLog distinct estimates per
  //    column) and hand the measured distribution to the advisor.
  auto stats = table::AnalyzeTable(dfs, meter);
  if (!stats.ok()) {
    std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
    return 1;
  }
  std::printf("ANALYZE: %llu rows, avg %.0f bytes/row\n",
              static_cast<unsigned long long>(stats->num_rows),
              stats->avg_row_bytes);
  std::vector<core::PolicyAdvisor::DimensionStats> dims;
  for (const char* column : {"userId", "regionId", "time"}) {
    auto dim = stats->AdvisorDimension(column);
    if (!dim.ok()) {
      std::fprintf(stderr, "%s\n", dim.status().ToString().c_str());
      return 1;
    }
    std::printf("  %-10s min=%.0f max=%.0f distinct~%.0f\n",
                dim->column.c_str(), dim->min, dim->max, dim->distinct);
    dims.push_back(*dim);
  }
  core::PolicyAdvisor::Options advisor_options;
  advisor_options.max_cells = 50000;
  // Cost the plan as if this table were a production-scale sample.
  advisor_options.cluster.data_scale = 1000.0;
  advisor_options.total_records = static_cast<double>(stats->num_rows);
  advisor_options.record_bytes = stats->avg_row_bytes;
  core::PolicyAdvisor advisor(dims, advisor_options);
  auto rec = advisor.Recommend(history);
  if (!rec.ok()) {
    std::fprintf(stderr, "%s\n", rec.status().ToString().c_str());
    return 1;
  }
  std::printf("Advisor: expected cells %.0f, expected cost %.2f s/query\n",
              rec->expected_cells, rec->expected_query_cost);
  for (const auto& dim : rec->dims) {
    std::printf("  %-10s interval %.2f\n", dim.column.c_str(), dim.interval);
  }

  // 3. Build recommended and naive indexes.
  const auto build_index = [&](std::vector<core::DimensionPolicy> dims,
                               const std::string& dir) {
    std::shared_ptr<kv::KvStore> store =
        *kv::LsmKv::Open({.dfs = dfs, .dir = "/index" + dir});
    core::DgfBuilder::Options build;
    build.dims = std::move(dims);
    build.precompute = {"sum(powerConsumed)"};
    build.data_dir = dir;
    auto index = core::DgfBuilder::Build(dfs, store, meter, build);
    if (!index.ok()) {
      std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
      std::exit(1);
    }
    return std::make_pair(std::move(*index), store);
  };

  auto [recommended, rec_store] = build_index(rec->dims, "/warehouse/dgf_rec");
  auto [naive, naive_store] = build_index(
      {{"userId", table::DataType::kInt64, 0,
        static_cast<double>(config.num_users) / 10},  // coarse 10 intervals
       {"regionId", table::DataType::kInt64, 0,
        static_cast<double>(config.num_regions)},
       {"time", table::DataType::kDate, static_cast<double>(config.start_day),
        static_cast<double>(config.num_days)}},
      "/warehouse/dgf_naive");

  // 4. Replay.
  query::QueryExecutor::Options exec_options;
  exec_options.dfs = dfs;
  query::QueryExecutor rec_exec(exec_options);
  rec_exec.RegisterTable(meter);
  rec_exec.RegisterDgfIndex(meter.name, recommended.get());
  query::QueryExecutor naive_exec(exec_options);
  naive_exec.RegisterTable(meter);
  naive_exec.RegisterDgfIndex(meter.name, naive.get());

  const uint64_t rec_records = ReplayHistory(rec_exec, history);
  const uint64_t naive_records = ReplayHistory(naive_exec, history);
  std::printf("\nReplaying the history:\n");
  std::printf("  recommended policy: %llu records read (%llu GFUs)\n",
              static_cast<unsigned long long>(rec_records),
              static_cast<unsigned long long>(*recommended->NumGfus()));
  std::printf("  naive policy:       %llu records read (%llu GFUs)\n",
              static_cast<unsigned long long>(naive_records),
              static_cast<unsigned long long>(*naive->NumGfus()));
  std::printf(naive_records > rec_records
                  ? "  -> advisor policy reads %.1fx fewer records\n"
                  : "  -> policies comparable at this scale\n",
              static_cast<double>(naive_records) /
                  static_cast<double>(std::max<uint64_t>(1, rec_records)));
  std::filesystem::remove_all(root);
  return 0;
}
