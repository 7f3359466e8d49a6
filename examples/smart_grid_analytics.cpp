// Smart-grid analytics walkthrough: the paper's Zhejiang Grid scenario
// end-to-end — generate a month of meter data plus the userInfo archive,
// build a DGFIndex, run the three workload shapes (aggregation, group-by,
// join) through the index and through a full scan, then ingest a new day's
// batch (incremental append, no rebuild) and query across old + new data.
//
//   ./example_smart_grid_analytics [workdir]

#include <cstdio>
#include <filesystem>

#include "dgf/dgf_builder.h"
#include "kv/lsm_kv.h"
#include "query/executor.h"
#include "query/parser.h"
#include "table/table.h"
#include "workload/meter_gen.h"

using namespace dgf;  // NOLINT: example brevity

namespace {

void RunBoth(query::QueryExecutor& executor, const std::string& label,
             const query::Query& q) {
  auto dgf = executor.Execute(q, query::AccessPath::kDgfIndex);
  auto scan = executor.Execute(q, query::AccessPath::kFullScan);
  if (!dgf.ok() || !scan.ok()) {
    std::fprintf(stderr, "%s failed: %s %s\n", label.c_str(),
                 dgf.status().ToString().c_str(),
                 scan.status().ToString().c_str());
    std::exit(1);
  }
  std::printf("%-12s rows=%-4zu  DGF: %6llu records read, %7.1f sim-s   "
              "Scan: %6llu records, %7.1f sim-s\n",
              label.c_str(), dgf->rows.size(),
              static_cast<unsigned long long>(dgf->stats.records_read),
              dgf->stats.total_seconds,
              static_cast<unsigned long long>(scan->stats.records_read),
              scan->stats.total_seconds);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string root =
      argc > 1 ? argv[1]
               : (std::filesystem::temp_directory_path() / "dgf_smartgrid")
                     .string();
  std::filesystem::remove_all(root);
  fs::MiniDfs::Options dfs_options;
  dfs_options.root_dir = root;
  dfs_options.block_size = 1 << 20;
  auto dfs = *fs::MiniDfs::Open(dfs_options);

  // A month of readings for 2000 meters across 11 regions.
  workload::MeterConfig config;
  config.num_users = 2000;
  config.num_days = 30;
  config.num_regions = 11;
  config.extra_metrics = 13;  // the 17-field record of Figure 1
  std::printf("Generating %lld meter records + archive data...\n",
              static_cast<long long>(config.TotalRows()));
  auto meter = *workload::GenerateMeterTable(dfs, "/warehouse/meterdata",
                                             config);
  auto users = *workload::GenerateUserInfoTable(dfs, "/warehouse/userinfo",
                                                config);

  std::printf("Building DGFIndex (userId/20, regionId/1, time/1 day)...\n");
  std::shared_ptr<kv::KvStore> store =
      *kv::LsmKv::Open({.dfs = dfs, .dir = "/index/meterdata"});
  core::DgfBuilder::Options build;
  build.dims = {{"userId", table::DataType::kInt64, 0, 20},
                {"regionId", table::DataType::kInt64, 0, 1},
                {"time", table::DataType::kDate,
                 static_cast<double>(config.start_day), 1}};
  build.precompute = {"sum(powerConsumed)", "count(*)", "max(powerConsumed)"};
  build.data_dir = "/warehouse/meterdata_dgf";
  auto index = core::DgfBuilder::Build(dfs, store, meter, build);
  if (!index.ok()) {
    std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
    return 1;
  }

  query::QueryExecutor::Options exec_options;
  exec_options.dfs = dfs;
  // Simulated durations treat this dataset as a sample of the paper's
  // 11-billion-row month (see DESIGN.md on the cluster cost model).
  exec_options.cluster.data_scale =
      11e9 / static_cast<double>(config.TotalRows());
  query::QueryExecutor executor(exec_options);
  executor.RegisterTable(meter);
  executor.RegisterTable(users);
  executor.RegisterDgfIndex(meter.name, index->get());

  std::printf("\nWorkload (each query via DGFIndex and via full scan):\n");
  auto agg = *query::ParseQuery(
      "SELECT sum(powerConsumed) FROM meterdata WHERE userId >= 100 AND "
      "userId < 400 AND regionId >= 2 AND regionId <= 8 AND "
      "time >= '2012-12-05' AND time < '2012-12-15'",
      meter.schema);
  RunBoth(executor, "aggregation", agg);

  auto group = *query::ParseQuery(
      "SELECT time, sum(powerConsumed) FROM meterdata WHERE userId >= 100 "
      "AND userId < 400 AND regionId >= 2 AND regionId <= 8 AND "
      "time >= '2012-12-05' AND time < '2012-12-15' GROUP BY time",
      meter.schema);
  RunBoth(executor, "group-by", group);

  auto join = *query::ParseQuery(
      "SELECT t2.userName, t1.powerConsumed FROM meterdata t1 JOIN userinfo "
      "t2 ON t1.userId = t2.userId WHERE t1.userId >= 100 AND t1.userId < "
      "130 AND t1.regionId >= 1 AND t1.regionId <= 11 AND t1.time = "
      "'2012-12-10'",
      meter.schema, &users.schema);
  RunBoth(executor, "join", join);

  // Incremental ingest: a new day arrives; the index extends along the time
  // dimension — no rebuild, load throughput unaffected.
  std::printf("\nIngesting one new day of readings (incremental append)...\n");
  workload::MeterConfig new_day = config;
  new_day.num_days = 1;
  new_day.start_day = config.start_day + config.num_days;
  new_day.seed = config.seed + 1;
  auto batch = *workload::GenerateMeterTable(dfs, "/staging/day31", new_day);
  auto append = core::DgfBuilder::Append(index->get(), batch);
  if (!append.ok()) {
    std::fprintf(stderr, "%s\n", append.status().ToString().c_str());
    return 1;
  }

  auto fresh = *query::ParseQuery(
      "SELECT count(*), max(powerConsumed) FROM meterdata WHERE "
      "regionId >= 1 AND regionId <= 11 AND userId >= 0 AND userId < 2000 "
      "AND time >= '2012-12-28' AND time <= '2012-12-31'",
      meter.schema);
  auto result = executor.Execute(fresh, query::AccessPath::kDgfIndex);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("last-4-days count=%s max=%s — new day is queryable without a "
              "rebuild\n",
              result->rows[0][0].ToText().c_str(),
              result->rows[0][1].ToText().c_str());
  std::filesystem::remove_all(root);
  return 0;
}
