// Ablation A: what does per-GFU pre-aggregation buy?
//
// Runs the Listing-4 aggregation query through the same DGFIndex layout with
// headers (aggregation path: inner region answered from the KV store) and
// through an identical index built without precomputed UDFs (every GFU's
// Slices are scanned). Sweeps selectivity to show that pre-computation is
// what makes DGF's aggregation latency flat (Figures 8-10's key effect).

#include <cstdio>

#include "bench/bench_util.h"
#include "kv/lsm_kv.h"
#include "workload/query_gen.h"

namespace dgf::bench {
namespace {

using workload::MeterQueryKind;
using workload::Selectivity;

void Run() {
  MeterBench bench = MeterBench::Create("abl_pre", DefaultMeterOptions());
  std::printf("Ablation: pre-aggregation on/off, %lld rows, medium intervals\n",
              static_cast<long long>(bench.config().TotalRows()));

  auto with_exec = bench.MakeDgfExecutor(IntervalClass::kMedium);

  // Twin index without precomputed headers.
  core::DgfBuilder::Options options;
  const int64_t interval = std::max<int64_t>(
      1, bench.config().num_users / IntervalCount(IntervalClass::kMedium));
  options.dims = {
      {"userId", table::DataType::kInt64, 0, static_cast<double>(interval)},
      {"regionId", table::DataType::kInt64, 0, 1},
      {"time", table::DataType::kDate,
       static_cast<double>(bench.config().start_day), 1}};
  options.data_dir = "/warehouse/meterdata_dgf_nopre";
  std::shared_ptr<kv::KvStore> store = CheckOk(
      kv::LsmKv::Open({.dfs = bench.dfs(), .dir = "/kv" + options.data_dir}),
      "open store");
  auto nopre = CheckOk(
      core::DgfBuilder::Build(bench.dfs(), store, bench.meter(), options),
      "build nopre");
  query::QueryExecutor::Options exec_options;
  exec_options.dfs = bench.dfs();
  exec_options.cluster = bench.options().cluster;
  exec_options.worker_threads = bench.options().worker_threads;
  query::QueryExecutor nopre_exec(exec_options);
  nopre_exec.RegisterTable(bench.meter());
  nopre_exec.RegisterDgfIndex(bench.meter().name, nopre.get());

  TablePrinter table("Ablation A: pre-aggregation on/off (simulated s)",
                     {"selectivity", "with headers", "records read",
                      "without headers", "records read "});
  for (Selectivity sel : {Selectivity::kPoint, Selectivity::kFivePercent,
                          Selectivity::kTwelvePercent}) {
    query::Query q = workload::MakeMeterQuery(
        bench.config(), MeterQueryKind::kAggregation, sel, 21);
    auto with_pre =
        CheckOk(with_exec->Execute(q, query::AccessPath::kDgfIndex), "with");
    auto without =
        CheckOk(nopre_exec.Execute(q, query::AccessPath::kDgfIndex), "without");
    table.AddRow({workload::SelectivityName(sel),
                  Seconds(with_pre.stats.total_seconds),
                  Count(with_pre.stats.records_read),
                  Seconds(without.stats.total_seconds),
                  Count(without.stats.records_read)});
  }
  table.Print();
  std::printf(
      "\nExpected: with headers, cost stays flat as selectivity grows (only\n"
      "the boundary is scanned); without, cost tracks the query volume.\n");
}

}  // namespace
}  // namespace dgf::bench

int main() {
  dgf::bench::Run();
  return 0;
}
