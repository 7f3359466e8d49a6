// Quickstart: build a DGFIndex over a small table and answer a
// multidimensional range aggregation through it.
//
//   ./example_quickstart [workdir]
//
// Walks through the whole public API surface in ~100 lines: MiniDfs, table
// creation, DGFIndex construction (the MapReduce reorganization), and a SQL
// query executed through the index.

#include <cstdio>
#include <filesystem>

#include "dgf/dgf_builder.h"
#include "kv/lsm_kv.h"
#include "query/executor.h"
#include "query/parser.h"
#include "table/table.h"

using namespace dgf;  // NOLINT: example brevity

int main(int argc, char** argv) {
  const std::string root =
      argc > 1 ? argv[1]
               : (std::filesystem::temp_directory_path() / "dgf_quickstart")
                     .string();
  std::filesystem::remove_all(root);

  // 1. A mini distributed filesystem.
  fs::MiniDfs::Options dfs_options;
  dfs_options.root_dir = root;
  dfs_options.block_size = 1 << 20;
  auto dfs = *fs::MiniDfs::Open(dfs_options);

  // 2. A meter-data table: userId, regionId, collection date, consumption.
  table::TableDesc meter;
  meter.name = "meterdata";
  meter.schema = table::Schema({{"userId", table::DataType::kInt64},
                                {"regionId", table::DataType::kInt64},
                                {"time", table::DataType::kDate},
                                {"powerConsumed", table::DataType::kDouble}});
  meter.format = table::FileFormat::kText;
  meter.dir = "/warehouse/meterdata";
  {
    auto writer = *table::TableWriter::Create(dfs, meter);
    for (int64_t user = 0; user < 500; ++user) {
      for (int day = 0; day < 10; ++day) {
        auto st = writer->Append(
            {table::Value::Int64(user), table::Value::Int64(user % 5 + 1),
             table::Value::Date(*table::ParseDate("2013-01-01") + day),
             table::Value::Double(10.0 + static_cast<double>((user * 7 + day) % 40))});
        if (!st.ok()) {
          std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
          return 1;
        }
      }
    }
    (void)writer->Close();
  }

  // 3. Build the DGFIndex: grid (userId/100, regionId/1, time/1 day),
  //    precomputing sum(powerConsumed) per grid cell.
  std::shared_ptr<kv::KvStore> store =
      *kv::LsmKv::Open({.dfs = dfs, .dir = "/index/meterdata"});
  core::DgfBuilder::Options build;
  build.dims = {{"userId", table::DataType::kInt64, 0, 100},
                {"regionId", table::DataType::kInt64, 0, 1},
                {"time", table::DataType::kDate,
                 static_cast<double>(*table::ParseDate("2013-01-01")), 1}};
  build.precompute = {"sum(powerConsumed)", "count(*)"};
  build.data_dir = "/warehouse/meterdata_dgf";
  auto index = core::DgfBuilder::Build(dfs, store, meter, build);
  if (!index.ok()) {
    std::fprintf(stderr, "build failed: %s\n", index.status().ToString().c_str());
    return 1;
  }
  std::printf("DGFIndex built: %llu GFUs, %llu bytes of index\n",
              static_cast<unsigned long long>(*(*index)->NumGfus()),
              static_cast<unsigned long long>(*(*index)->IndexSizeBytes()));

  // 4. Run the paper's Listing-4 query through the index.
  query::QueryExecutor::Options exec_options;
  exec_options.dfs = dfs;
  query::QueryExecutor executor(exec_options);
  executor.RegisterTable(meter);
  executor.RegisterDgfIndex(meter.name, index->get());

  const char* sql =
      "SELECT sum(powerConsumed), count(*) FROM meterdata "
      "WHERE userId >= 120 AND userId < 380 AND regionId >= 2 AND "
      "regionId <= 4 AND time >= '2013-01-03' AND time < '2013-01-08'";
  auto query = query::ParseQuery(sql, meter.schema);
  if (!query.ok()) {
    std::fprintf(stderr, "parse failed: %s\n", query.status().ToString().c_str());
    return 1;
  }
  auto result = executor.Execute(*query);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("\n%s\n", sql);
  std::printf("-> sum = %s, count = %s (via %s)\n",
              result->rows[0][0].ToText().c_str(),
              result->rows[0][1].ToText().c_str(),
              query::AccessPathName(result->stats.path));
  std::printf("   records read from disk: %llu of 5000 "
              "(inner region answered from pre-computed headers)\n",
              static_cast<unsigned long long>(result->stats.records_read));
  std::filesystem::remove_all(root);
  return 0;
}
