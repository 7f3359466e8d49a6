// TPC-H Q6 through a DGFIndex — the paper's "general case" (Section 5.4):
// lineitem rows arrive in random order, which defeats split-granular
// indexes; the DGFIndex reorganization restores locality along
// (l_discount, l_quantity, l_shipdate).
//
//   ./example_tpch_q6 [workdir]

#include <cstdio>
#include <filesystem>

#include "dgf/dgf_builder.h"
#include "kv/lsm_kv.h"
#include "query/executor.h"
#include "table/table.h"
#include "workload/tpch_gen.h"

using namespace dgf;  // NOLINT: example brevity

int main(int argc, char** argv) {
  const std::string root =
      argc > 1 ? argv[1]
               : (std::filesystem::temp_directory_path() / "dgf_tpch").string();
  std::filesystem::remove_all(root);
  fs::MiniDfs::Options dfs_options;
  dfs_options.root_dir = root;
  dfs_options.block_size = 1 << 20;
  auto dfs = *fs::MiniDfs::Open(dfs_options);

  workload::LineitemConfig config;
  config.num_rows = 100000;
  std::printf("Generating lineitem (%lld rows, random order)...\n",
              static_cast<long long>(config.num_rows));
  auto lineitem =
      *workload::GenerateLineitemTable(dfs, "/warehouse/lineitem", config);

  std::printf("Building DGFIndex on (l_discount/0.01, l_quantity/1, "
              "l_shipdate/100 days)...\n");
  std::shared_ptr<kv::KvStore> store =
      *kv::LsmKv::Open({.dfs = dfs, .dir = "/index/lineitem"});
  core::DgfBuilder::Options build;
  build.dims = {{"l_discount", table::DataType::kDouble, 0.0, 0.01},
                {"l_quantity", table::DataType::kDouble, 0.0, 1.0},
                {"l_shipdate", table::DataType::kDate,
                 static_cast<double>(table::DaysFromCivil(1992, 1, 1)), 100}};
  build.precompute = {"sum(l_extendedprice*l_discount)"};
  build.data_dir = "/warehouse/lineitem_dgf";
  auto index = core::DgfBuilder::Build(dfs, store, lineitem, build);
  if (!index.ok()) {
    std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
    return 1;
  }

  query::QueryExecutor::Options exec_options;
  exec_options.dfs = dfs;
  // Simulated durations treat this dataset as a sample of the paper's
  // 4.1-billion-row lineitem.
  exec_options.cluster.data_scale =
      4.1e9 / static_cast<double>(config.num_rows);
  query::QueryExecutor executor(exec_options);
  executor.RegisterTable(lineitem);
  executor.RegisterDgfIndex(lineitem.name, index->get());

  query::Query q6 = workload::MakeQ6(1994, 0.06, 24);
  std::printf("\n%s\n", q6.ToString().c_str());
  for (auto path : {query::AccessPath::kDgfIndex,
                    query::AccessPath::kFullScan}) {
    auto result = executor.Execute(q6, path);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("%-10s revenue = %-14s records read = %8llu   sim time = "
                "%7.1f s\n",
                query::AccessPathName(path),
                result->rows[0][0].ToText().c_str(),
                static_cast<unsigned long long>(result->stats.records_read),
                result->stats.total_seconds);
  }
  std::filesystem::remove_all(root);
  return 0;
}
