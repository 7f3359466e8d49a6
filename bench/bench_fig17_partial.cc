// Reproduces Figure 17: partial-specified query (Listing 7) — the userId
// condition (the dimension with the most distinct values) is dropped, and
// DGFIndex completes the predicate with the stored per-dimension min/max.
// Three systems per interval class: DGF with pre-computation, DGF without
// pre-computation (an index built with no precomputed UDFs, forcing the
// non-aggregation path), and the Compact Index.

#include <cstdio>

#include "bench/bench_util.h"
#include "kv/lsm_kv.h"
#include "workload/query_gen.h"

namespace dgf::bench {
namespace {

using workload::MeterQueryKind;
using workload::Selectivity;

void Run() {
  MeterBench bench = MeterBench::Create("fig17", DefaultMeterOptions());
  std::printf("Figure 17 reproduction: partial-specified query, %lld rows\n",
              static_cast<long long>(bench.config().TotalRows()));

  // SELECT sum(powerConsumed) WHERE regionId=.. AND time=.. (no userId).
  query::Query q = workload::MakeMeterQuery(
      bench.config(), MeterQueryKind::kPartial, Selectivity::kPoint, 14);
  std::printf("query: %s\n", q.ToString().c_str());

  TablePrinter table("Figure 17: partial query cost (simulated s)",
                     {"interval size", "DGF-precompute", "DGF-noprecompute",
                      "Compact (2-dim)"});

  auto compact_exec = bench.MakeCompactExecutor();
  auto compact = CheckOk(
      compact_exec->Execute(q, query::AccessPath::kCompactIndex), "compact");

  for (IntervalClass c : {IntervalClass::kLarge, IntervalClass::kMedium,
                          IntervalClass::kSmall}) {
    auto exec = bench.MakeDgfExecutor(c);
    auto with_pre =
        CheckOk(exec->Execute(q, query::AccessPath::kDgfIndex), "dgf-pre");

    // Build a twin index with no precomputed UDFs: every query takes the
    // non-aggregation (slice scan) path.
    core::DgfBuilder::Options options;
    const int64_t interval =
        std::max<int64_t>(1, bench.config().num_users / IntervalCount(c));
    options.dims = {
        {"userId", table::DataType::kInt64, 0, static_cast<double>(interval)},
        {"regionId", table::DataType::kInt64, 0, 1},
        {"time", table::DataType::kDate,
         static_cast<double>(bench.config().start_day), 1}};
    options.data_dir =
        std::string("/warehouse/meterdata_dgf_nopre_") + IntervalClassName(c);
    std::shared_ptr<kv::KvStore> store = CheckOk(
        kv::LsmKv::Open({.dfs = bench.dfs(), .dir = "/kv" + options.data_dir}),
        "open store");
    auto nopre_index = CheckOk(
        core::DgfBuilder::Build(bench.dfs(), store, bench.meter(), options),
        "build nopre");
    query::QueryExecutor::Options exec_options;
    exec_options.dfs = bench.dfs();
    exec_options.cluster = bench.options().cluster;
    exec_options.worker_threads = bench.options().worker_threads;
    query::QueryExecutor nopre_exec(exec_options);
    nopre_exec.RegisterTable(bench.meter());
    nopre_exec.RegisterTable(bench.users());
    nopre_exec.RegisterDgfIndex(bench.meter().name, nopre_index.get());
    auto without_pre = CheckOk(
        nopre_exec.Execute(q, query::AccessPath::kDgfIndex), "dgf-nopre");

    table.AddRow({IntervalClassName(c),
                  Seconds(with_pre.stats.total_seconds),
                  Seconds(without_pre.stats.total_seconds),
                  Seconds(compact.stats.total_seconds)});
  }
  table.Print();
  std::printf(
      "\nPaper shape: DGF (both variants) 2-4.6x faster than Compact;\n"
      "pre-computation helps most at coarse intervals.\n");
}

}  // namespace
}  // namespace dgf::bench

int main() {
  dgf::bench::Run();
  return 0;
}
