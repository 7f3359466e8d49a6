// Workflow scheduler demo — Section 3's migration target: the RDBMS stored
// procedures become DAGs of HiveQL statements, scheduled at fixed
// frequencies by an Oozie-style coordinator, with DGFIndex accelerating the
// multidimensional-range steps.
//
// Builds a "line loss analysis" workflow (the paper's example module):
//   acquisition_rate  -> per-day record counts (data completeness check)
//   region_consumption-> per-region totals for yesterday (needs acquisition)
//   peak_scan         -> heavy consumers yesterday   (needs acquisition)
//   loss_report       -> joins meter data with the archive (needs both)
// and fires it daily for a simulated week.
//
//   ./example_workflow_scheduler [workdir]

#include <cstdio>
#include <filesystem>

#include "dgf/dgf_builder.h"
#include "kv/lsm_kv.h"
#include "query/parser.h"
#include "workflow/workflow.h"
#include "workload/meter_gen.h"

using namespace dgf;  // NOLINT: example brevity

int main(int argc, char** argv) {
  const std::string root =
      argc > 1 ? argv[1]
               : (std::filesystem::temp_directory_path() / "dgf_workflow")
                     .string();
  std::filesystem::remove_all(root);
  fs::MiniDfs::Options dfs_options;
  dfs_options.root_dir = root;
  dfs_options.block_size = 1 << 20;
  auto dfs = *fs::MiniDfs::Open(dfs_options);

  workload::MeterConfig config;
  config.num_users = 1000;
  config.num_days = 14;
  config.extra_metrics = 2;
  auto meter = *workload::GenerateMeterTable(dfs, "/warehouse/meterdata",
                                             config);
  auto users = *workload::GenerateUserInfoTable(dfs, "/warehouse/userinfo",
                                                config);

  std::shared_ptr<kv::KvStore> store =
      *kv::LsmKv::Open({.dfs = dfs, .dir = "/index/meterdata"});
  core::DgfBuilder::Options build;
  build.dims = {{"userId", table::DataType::kInt64, 0, 50},
                {"regionId", table::DataType::kInt64, 0, 1},
                {"time", table::DataType::kDate,
                 static_cast<double>(config.start_day), 1}};
  build.precompute = {"sum(powerConsumed)", "count(*)"};
  build.data_dir = "/warehouse/meterdata_dgf";
  auto index = *core::DgfBuilder::Build(dfs, store, meter, build);

  query::QueryExecutor::Options exec_options;
  exec_options.dfs = dfs;
  query::QueryExecutor executor(exec_options);
  executor.RegisterTable(meter);
  executor.RegisterTable(users);
  executor.RegisterDgfIndex(meter.name, index.get());

  const auto action = [&](const std::string& name, const std::string& sql,
                          std::vector<std::string> deps,
                          const table::Schema* right = nullptr) {
    workflow::Action a;
    a.name = name;
    auto q = query::ParseQuery(sql, meter.schema, right);
    if (!q.ok()) {
      std::fprintf(stderr, "parse %s: %s\n", name.c_str(),
                   q.status().ToString().c_str());
      std::exit(1);
    }
    a.query = *q;
    a.depends_on = std::move(deps);
    return a;
  };

  auto line_loss = workflow::Workflow::Create(
      "line_loss_analysis",
      {action("acquisition_rate",
              "SELECT time, count(*) FROM meterdata WHERE time >= "
              "'2012-12-01' AND time < '2012-12-15' GROUP BY time",
              {}),
       action("region_consumption",
              "SELECT regionId, sum(powerConsumed) FROM meterdata WHERE "
              "time = '2012-12-07' AND regionId >= 1 AND regionId <= 11 "
              "GROUP BY regionId",
              {"acquisition_rate"}),
       action("peak_scan",
              "SELECT count(*) FROM meterdata WHERE powerConsumed >= 450 "
              "AND time = '2012-12-07' AND regionId >= 1 AND regionId <= 11",
              {"acquisition_rate"}),
       action("loss_report",
              "SELECT t2.userName, t1.powerConsumed FROM meterdata t1 JOIN "
              "userinfo t2 ON t1.userId = t2.userId WHERE t1.userId >= 0 AND "
              "t1.userId < 40 AND t1.regionId >= 1 AND t1.regionId <= 11 AND "
              "t1.time = '2012-12-07'",
              {"region_consumption", "peak_scan"}, &users.schema)});
  if (!line_loss.ok()) {
    std::fprintf(stderr, "%s\n", line_loss.status().ToString().c_str());
    return 1;
  }

  // One run, inspected.
  auto report = line_loss->Run(&executor);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("line_loss_analysis: %s\n",
              report->succeeded ? "SUCCEEDED" : "FAILED");
  for (const auto& [name, outcome] : report->actions) {
    std::printf("  %-20s %s (%zu rows)\n", name.c_str(),
                outcome.state == workflow::ActionResult::State::kSucceeded
                    ? "ok"
                    : "NOT OK",
                outcome.result.rows.size());
  }
  std::printf("  sequential: %.1f sim-s, critical path: %.1f sim-s "
              "(parallelizable branches)\n",
              report->sequential_seconds, report->critical_path_seconds);

  // A simulated week under the coordinator.
  workflow::Coordinator coordinator(&executor);
  coordinator.Schedule(std::move(*line_loss), /*period_s=*/86400.0);
  auto firings = coordinator.RunUntil(6 * 86400.0);
  if (!firings.ok()) {
    std::fprintf(stderr, "%s\n", firings.status().ToString().c_str());
    return 1;
  }
  std::printf("\ncoordinator: %zu daily firings over a simulated week, all "
              "%s\n",
              firings->size(),
              std::all_of(firings->begin(), firings->end(),
                          [](const auto& f) { return f.report.succeeded; })
                  ? "succeeded"
                  : "NOT ok");
  std::filesystem::remove_all(root);
  return 0;
}
