// Ablation E: Slice file format — TextFile (the paper's implementation) vs
// RCFile (the paper's "easy to extend" claim) vs the compressed columnar
// format with zone-map block skipping. Compares index build, storage
// footprint, aggregation/group-by query cost, bytes read by a selective
// boundary scan, and the blocks the columnar reader's zone maps skipped.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "kv/lsm_kv.h"
#include "obs/metrics.h"
#include "workload/query_gen.h"

namespace dgf::bench {
namespace {

struct Variant {
  const char* name;
  table::FileFormat format;
  std::shared_ptr<kv::KvStore> store;
  std::unique_ptr<core::DgfIndex> index;
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::unique_ptr<query::QueryExecutor> executor;
  double build_sim_s = 0;
};

void Run() {
  // A file-format ablation needs non-degenerate row groups: columnar blocks
  // only amortize their framing (sync + zone maps + CRCs) when a GFU holds
  // tens of rows. The default harness config reads each meter once per day,
  // which at any grid leaves ~1 row per (user interval x region x day) cell;
  // real smart-grid meters report many times a day (the paper's deployment
  // collects a reading every 15 minutes), so this ablation uses an hourly
  // cadence over fewer users/days — same total scale, realistic group shape.
  MeterBench::Options options = DefaultMeterOptions();
  options.config.num_users = 2000;
  options.config.num_days = 5;
  options.config.readings_per_day = 24;
  options.cluster.data_scale =
      11000000000.0 / static_cast<double>(options.config.TotalRows());
  MeterBench bench = MeterBench::Create("abl_format", options);
  std::printf(
      "Ablation: DGF slice format (TextFile vs RCFile vs Columnar), %lld "
      "rows\n",
      static_cast<long long>(bench.config().TotalRows()));

  Variant variants[3] = {
      {"TextFile", table::FileFormat::kText, {}, {}, {}, {}, 0},
      {"RCFile", table::FileFormat::kRcFile, {}, {}, {}, {}, 0},
      {"Columnar", table::FileFormat::kColumnar, {}, {}, {}, {}, 0}};
  for (Variant& v : variants) {
    core::DgfBuilder::Options options;
    const int64_t interval = std::max<int64_t>(
        1, bench.config().num_users / IntervalCount(IntervalClass::kLarge));
    options.dims = {
        {"userId", table::DataType::kInt64, 0, static_cast<double>(interval)},
        {"regionId", table::DataType::kInt64, 0, 1},
        {"time", table::DataType::kDate,
         static_cast<double>(bench.config().start_day), 1}};
    options.precompute = {"sum(powerConsumed)", "count(*)"};
    options.data_dir = std::string("/warehouse/meterdata_dgf_fmt_") + v.name;
    v.store = CheckOk(
        kv::LsmKv::Open({.dfs = bench.dfs(), .dir = "/kv" + options.data_dir}),
        "open store");
    options.data_format = v.format;
    options.job.cluster = bench.options().cluster;
    options.job.worker_threads = bench.options().worker_threads;
    exec::JobResult build;
    v.index = CheckOk(core::DgfBuilder::Build(bench.dfs(), v.store,
                                              bench.meter(), options, &build),
                      "build");
    v.build_sim_s = build.simulated_seconds;

    v.metrics = std::make_unique<obs::MetricsRegistry>();
    query::QueryExecutor::Options exec_options;
    exec_options.dfs = bench.dfs();
    exec_options.cluster = bench.options().cluster;
    exec_options.worker_threads = bench.options().worker_threads;
    exec_options.metrics = v.metrics.get();
    v.executor = std::make_unique<query::QueryExecutor>(exec_options);
    v.executor->RegisterTable(bench.meter());
    v.executor->RegisterDgfIndex(bench.meter().name, v.index.get());
  }

  TablePrinter table("Ablation E: slice format (large intervals, hourly)",
                     {"format", "slice data bytes", "build (sim s)",
                      "agg 12% (sim s)", "agg bytes read", "blocks skipped",
                      "group-by 12% (sim s)", "gb records read"});
  uint64_t agg_bytes[3] = {0, 0, 0};
  uint64_t skipped[3] = {0, 0, 0};
  for (int i = 0; i < 3; ++i) {
    Variant& v = variants[i];
    uint64_t data_bytes = 0;
    for (const auto& file :
         bench.dfs()->ListFiles(v.index->data_dir() + "/")) {
      data_bytes += file.length;
    }
    // The 12% aggregation is the boundary scan: its ranges are not
    // grid-aligned, so edge GFUs are slice-scanned under the residual
    // predicate — the zone-map skipping path for columnar slices.
    const uint64_t skipped_before =
        v.metrics->GetCounter("slice.blocks_skipped")->Value();
    query::Query agg = workload::MakeMeterQuery(
        bench.config(), workload::MeterQueryKind::kAggregation,
        workload::Selectivity::kTwelvePercent, 51);
    auto agg_result = CheckOk(
        v.executor->Execute(agg, query::AccessPath::kDgfIndex), "agg");
    agg_bytes[i] = agg_result.stats.bytes_read;
    skipped[i] =
        v.metrics->GetCounter("slice.blocks_skipped")->Value() -
        skipped_before;
    query::Query gb = workload::MakeMeterQuery(
        bench.config(), workload::MeterQueryKind::kGroupBy,
        workload::Selectivity::kTwelvePercent, 51);
    auto gb_result =
        CheckOk(v.executor->Execute(gb, query::AccessPath::kDgfIndex), "gb");
    table.AddRow({v.name, HumanBytes(data_bytes), Seconds(v.build_sim_s),
                  Seconds(agg_result.stats.total_seconds),
                  HumanBytes(agg_bytes[i]), Count(skipped[i]),
                  Seconds(gb_result.stats.total_seconds),
                  Count(gb_result.stats.records_read)});
    AppendBenchJson(
        "DGF_BENCH_BUILD_JSON", "BENCH_build.json",
        StringPrintf("{\"bench\": \"ablation_format\", \"format\": \"%s\", "
                     "\"slice_bytes\": %llu, \"build_sim_s\": %.6f, "
                     "\"agg12_sim_s\": %.6f, \"agg12_bytes_read\": %llu, "
                     "\"agg12_blocks_skipped\": %llu, "
                     "\"gb12_records_read\": %llu}",
                     v.name, static_cast<unsigned long long>(data_bytes),
                     v.build_sim_s, agg_result.stats.total_seconds,
                     static_cast<unsigned long long>(agg_bytes[i]),
                     static_cast<unsigned long long>(skipped[i]),
                     static_cast<unsigned long long>(
                         gb_result.stats.records_read)));
  }
  table.Print();
  const double ratio =
      agg_bytes[0] > 0
          ? static_cast<double>(agg_bytes[2]) / static_cast<double>(agg_bytes[0])
          : 0.0;
  std::printf(
      "\nColumnar boundary-scan bytes read: %.2fx of TextFile "
      "(blocks skipped: %llu)\n"
      "Expected: columnar reads well under the text bytes (fixed64 doubles\n"
      "+ delta/dict blocks + zone-map skips); its records-read can dip\n"
      "below the other formats because the reader row-filters inside\n"
      "surviving groups. All formats answer identically (asserted by the\n"
      "differential sweep).\n",
      ratio, static_cast<unsigned long long>(skipped[2]));
}

}  // namespace
}  // namespace dgf::bench

int main() {
  dgf::bench::Run();
  return 0;
}
