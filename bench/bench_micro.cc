// Micro-benchmarks (google-benchmark) of the hot primitives under the
// DGFIndex implementation: key encoding, cell standardization, KV store
// operations, B-tree inserts/scans, the makespan simulator, and the
// read-path primitives (cold/warm index lookup, batched multi-get,
// coalesced slice scans). These are the constants behind the macro benches'
// cost model.
//
// Set DGF_BENCH_JSON=<path> to additionally write the google-benchmark JSON
// report (per-case ns/op plus the kv_gets / cache_hit_rate / preads /
// records counters) for machine consumption.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/encoding.h"
#include "common/random.h"
#include "dgf/dgf_builder.h"
#include "dgf/dgf_index.h"
#include "dgf/dgf_input_format.h"
#include "dgf/gfu.h"
#include "dgf/splitting_policy.h"
#include "exec/cluster.h"
#include "hadoopdb/btree.h"
#include "kv/lsm_kv.h"
#include "query/predicate.h"
#include "table/schema.h"
#include "table/value.h"

namespace dgf {
namespace {

void BM_GfuKeyEncode(benchmark::State& state) {
  core::GfuKey key{{123, 7, 15704}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.Encode());
  }
}
BENCHMARK(BM_GfuKeyEncode);

void BM_GfuKeyDecode(benchmark::State& state) {
  const std::string encoded = core::GfuKey{{123, 7, 15704}}.Encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::GfuKey::Decode(encoded, 3));
  }
}
BENCHMARK(BM_GfuKeyDecode);

void BM_CellStandardization(benchmark::State& state) {
  table::Schema schema({{"userId", table::DataType::kInt64},
                        {"regionId", table::DataType::kInt64},
                        {"time", table::DataType::kDate}});
  auto policy = core::SplittingPolicy::Create(
      {{"userId", table::DataType::kInt64, 0, 1400},
       {"regionId", table::DataType::kInt64, 0, 1},
       {"time", table::DataType::kDate, 15675, 1}},
      schema);
  Random rng(1);
  const auto value = table::Value::Int64(rng.UniformRange(0, 14000000));
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy->CellOf(0, value));
  }
}
BENCHMARK(BM_CellStandardization);

void BM_BTreeInsert(benchmark::State& state) {
  hadoopdb::BTree tree;
  Random rng(4);
  uint64_t i = 0;
  for (auto _ : state) {
    std::string key;
    PutOrderedInt64(&key, static_cast<int64_t>(rng.Next() % 1000000));
    tree.Insert(key, i++);
  }
}
BENCHMARK(BM_BTreeInsert);

void BM_BTreeRangeScan(benchmark::State& state) {
  hadoopdb::BTree tree;
  for (int64_t i = 0; i < 100000; ++i) {
    std::string key;
    PutOrderedInt64(&key, i);
    tree.Insert(key, static_cast<uint64_t>(i));
  }
  std::string lo, hi;
  PutOrderedInt64(&lo, 40000);
  PutOrderedInt64(&hi, 40000 + state.range(0));
  for (auto _ : state) {
    uint64_t sum = 0;
    for (auto it = tree.Range(lo, hi); it.Valid(); it.Next()) sum += it.value();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BTreeRangeScan)->Arg(100)->Arg(10000);

void BM_SimulateMakespan(benchmark::State& state) {
  Random rng(5);
  std::vector<double> tasks;
  for (int i = 0; i < state.range(0); ++i) {
    tasks.push_back(rng.UniformDouble(1.0, 10.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec::SimulateMakespan(tasks, 140));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulateMakespan)->Arg(1000)->Arg(100000);

void BM_RowTextRoundTrip(benchmark::State& state) {
  table::Schema schema({{"userId", table::DataType::kInt64},
                        {"regionId", table::DataType::kInt64},
                        {"time", table::DataType::kDate},
                        {"powerConsumed", table::DataType::kDouble}});
  table::Row row = {table::Value::Int64(12345), table::Value::Int64(7),
                    table::Value::Date(15704), table::Value::Double(123.456)};
  for (auto _ : state) {
    const std::string line = table::FormatRowText(row);
    benchmark::DoNotOptimize(table::ParseRowText(line, schema));
  }
}
BENCHMARK(BM_RowTextRoundTrip);

// ---------- Read-path primitives ----------

// One small shared meter world for the read-path cases; building it once
// keeps these micro cases fast while still going through the real index.
bench::MeterBench& Meter() {
  static bench::MeterBench instance = [] {
    bench::MeterBench::Options options;
    options.config.num_users = 2000;
    options.config.num_days = 10;
    options.config.readings_per_day = 4;
    options.config.extra_metrics = 0;
    return bench::MeterBench::Create("micro", std::move(options));
  }();
  return instance;
}

query::Predicate MeterBox(const workload::MeterConfig& config, int64_t u_lo,
                          int64_t u_hi, int64_t day_lo, int64_t day_hi,
                          int64_t r_lo = -1, int64_t r_hi = -1) {
  query::Predicate pred;
  pred.And(query::ColumnRange::Between("userId", table::Value::Int64(u_lo),
                                       true, table::Value::Int64(u_hi),
                                       false));
  pred.And(query::ColumnRange::Between(
      "time", table::Value::Date(config.start_day + day_lo), true,
      table::Value::Date(config.start_day + day_hi), false));
  if (r_lo >= 0) {
    pred.And(query::ColumnRange::Between("regionId", table::Value::Int64(r_lo),
                                         true, table::Value::Int64(r_hi),
                                         false));
  }
  return pred;
}

// Point-get-strategy box, cache invalidated every iteration: every cell is a
// KV fetch + GfuValue decode. kv_gets counts MultiGet batches, so O(1) per
// lookup instead of one per cell.
void BM_DgfLookupCold(benchmark::State& state) {
  auto& meter = Meter();
  core::DgfIndex* index = meter.Dgf(bench::IntervalClass::kLarge);
  const query::Predicate pred = MeterBox(meter.config(), 200, 600, 2, 7, 1, 6);
  uint64_t kv_gets = 0;
  uint64_t iters = 0;
  for (auto _ : state) {
    index->InvalidateCache();
    auto lookup = bench::CheckOk(index->Lookup(pred, true), "cold lookup");
    kv_gets += lookup.kv_gets;
    ++iters;
    benchmark::DoNotOptimize(lookup);
  }
  state.counters["kv_gets"] =
      static_cast<double>(kv_gets) / static_cast<double>(iters);
  state.counters["cache_hit_rate"] = 0.0;
}
BENCHMARK(BM_DgfLookupCold);

// Same box with a warm decoded-GFU cache: the acceptance bar is >= 5x
// faster than BM_DgfLookupCold.
void BM_DgfLookupWarm(benchmark::State& state) {
  auto& meter = Meter();
  core::DgfIndex* index = meter.Dgf(bench::IntervalClass::kLarge);
  const query::Predicate pred = MeterBox(meter.config(), 200, 600, 2, 7, 1, 6);
  bench::CheckOk(index->Lookup(pred, true), "warmup lookup");
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t kv_gets = 0;
  uint64_t iters = 0;
  for (auto _ : state) {
    auto lookup = bench::CheckOk(index->Lookup(pred, true), "warm lookup");
    hits += lookup.cache_hits;
    misses += lookup.cache_misses;
    kv_gets += lookup.kv_gets;
    ++iters;
    benchmark::DoNotOptimize(lookup);
  }
  state.counters["kv_gets"] =
      static_cast<double>(kv_gets) / static_cast<double>(iters);
  state.counters["cache_hit_rate"] =
      hits + misses == 0
          ? 0.0
          : static_cast<double>(hits) / static_cast<double>(hits + misses);
}
BENCHMARK(BM_DgfLookupWarm);

constexpr int kLsmBatch = 256;

std::unique_ptr<kv::LsmKv> MakeBenchLsm(const std::string& dir) {
  kv::LsmKv::Options options;
  options.dfs = Meter().dfs();
  options.dir = dir;
  options.memtable_flush_bytes = 16 * 1024;  // several runs
  auto store = bench::CheckOk(kv::LsmKv::Open(options), "open lsm");
  std::string value(64, 'v');
  for (int64_t i = 0; i < 5000; ++i) {
    std::string key;
    PutOrderedInt64(&key, i);
    bench::CheckOk(store->Put(key, value), "lsm put");
  }
  return store;
}

std::vector<std::string> LsmProbeKeys(uint64_t seed) {
  Random rng(seed);
  std::vector<std::string> keys;
  keys.reserve(kLsmBatch);
  for (int i = 0; i < kLsmBatch; ++i) {
    std::string key;
    PutOrderedInt64(&key, rng.UniformRange(0, 4999));
    keys.push_back(std::move(key));
  }
  return keys;
}

// Baseline for BM_LsmMultiGet: the same batch as one Get per key.
void BM_LsmGetSequential(benchmark::State& state) {
  auto store = MakeBenchLsm("/bench_kv_seq");
  const auto keys = LsmProbeKeys(6);
  for (auto _ : state) {
    for (const auto& key : keys) {
      benchmark::DoNotOptimize(store->Get(key));
    }
  }
  state.SetItemsProcessed(state.iterations() * kLsmBatch);
  state.counters["kv_gets"] = static_cast<double>(kLsmBatch);
}
BENCHMARK(BM_LsmGetSequential);

// One MultiGet batch: sorted probe order shares index probes and record
// parses across the run files.
void BM_LsmMultiGet(benchmark::State& state) {
  auto store = MakeBenchLsm("/bench_kv_mget");
  const auto keys = LsmProbeKeys(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store->MultiGet(keys));
  }
  state.SetItemsProcessed(state.iterations() * kLsmBatch);
  state.counters["kv_gets"] = 1.0;
}
BENCHMARK(BM_LsmMultiGet);

// Boundary slices of a fig08-style unaligned box, read one reader per slice
// (the pre-coalescing read path).
void BM_SliceScanPerSlice(benchmark::State& state) {
  auto& meter = Meter();
  core::DgfIndex* index = meter.Dgf(bench::IntervalClass::kLarge);
  const query::Predicate pred = MeterBox(meter.config(), 55, 1333, 1, 8);
  auto lookup = bench::CheckOk(index->Lookup(pred, true), "slice lookup");
  const table::Schema schema = meter.meter().schema;
  uint64_t records = 0;
  uint64_t preads = 0;
  for (auto _ : state) {
    const uint64_t preads_before = meter.dfs()->TotalPreadCalls();
    records = 0;
    for (const auto& slice : lookup.slices) {
      auto reader = bench::CheckOk(
          core::OpenSliceReader(meter.dfs(), slice, schema), "slice reader");
      table::Row row;
      while (bench::CheckOk(reader->Next(&row), "slice next")) ++records;
    }
    preads = meter.dfs()->TotalPreadCalls() - preads_before;
  }
  state.counters["preads"] = static_cast<double>(preads);
  state.counters["records"] = static_cast<double>(records);
}
BENCHMARK(BM_SliceScanPerSlice);

// The same slices coalesced into merged ranges and served by the merged
// reader: measurably fewer Preads, identical record count.
void BM_SliceScanCoalesced(benchmark::State& state) {
  auto& meter = Meter();
  core::DgfIndex* index = meter.Dgf(bench::IntervalClass::kLarge);
  const query::Predicate pred = MeterBox(meter.config(), 55, 1333, 1, 8);
  auto lookup = bench::CheckOk(index->Lookup(pred, true), "slice lookup");
  const table::Schema schema = meter.meter().schema;
  uint64_t records = 0;
  uint64_t preads = 0;
  for (auto _ : state) {
    const uint64_t preads_before = meter.dfs()->TotalPreadCalls();
    records = 0;
    auto planned = bench::CheckOk(
        core::PlanSlicedSplits(meter.dfs(), lookup.slices,
                               meter.options().block_size),
        "plan splits");
    for (const auto& sliced : planned) {
      auto reader = bench::CheckOk(
          core::SliceRecordReader::Open(meter.dfs(), sliced, schema),
          "merged reader");
      table::Row row;
      while (bench::CheckOk(reader->Next(&row), "merged next")) ++records;
    }
    preads = meter.dfs()->TotalPreadCalls() - preads_before;
  }
  state.counters["preads"] = static_cast<double>(preads);
  state.counters["records"] = static_cast<double>(records);
}
BENCHMARK(BM_SliceScanCoalesced);

// The coalesced scan under concurrent readers: every thread pins its own
// snapshot (epoch + guard + KV view), consults the shared decoded-GFU cache,
// and scans the same table. Real-time per-op latency across 1/2/4/8 threads
// shows what snapshot acquisition and the sharded cache cost under
// contention; record counts are per-thread and must not vary with thread
// count (each reader sees a full consistent view).
void BM_SliceScanCoalescedMT(benchmark::State& state) {
  auto& meter = Meter();
  core::DgfIndex* index = meter.Dgf(bench::IntervalClass::kLarge);
  const query::Predicate pred = MeterBox(meter.config(), 55, 1333, 1, 8);
  const table::Schema schema = meter.meter().schema;
  uint64_t records = 0;
  for (auto _ : state) {
    auto snap = bench::CheckOk(index->Pin(), "pin snapshot");
    auto lookup =
        bench::CheckOk(index->Lookup(snap, pred, true), "mt lookup");
    records = 0;
    auto planned = bench::CheckOk(
        core::PlanSlicedSplits(meter.dfs(), lookup.slices,
                               meter.options().block_size),
        "plan splits");
    for (const auto& sliced : planned) {
      auto reader = bench::CheckOk(
          core::SliceRecordReader::Open(meter.dfs(), sliced, schema),
          "merged reader");
      table::Row row;
      while (bench::CheckOk(reader->Next(&row), "merged next")) ++records;
    }
    benchmark::DoNotOptimize(records);
  }
  state.counters["records"] = benchmark::Counter(
      static_cast<double>(records), benchmark::Counter::kAvgThreads);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(records));
}
BENCHMARK(BM_SliceScanCoalescedMT)->ThreadRange(1, 8)->UseRealTime();

// A DGF index over columnar slices for the same meter world (built once,
// shared by the columnar scan cases below).
core::DgfIndex* ColDgf() {
  static std::unique_ptr<core::DgfIndex> index = [] {
    auto& meter = Meter();
    core::DgfBuilder::Options options;
    const int64_t interval = std::max<int64_t>(
        1,
        meter.config().num_users / IntervalCount(bench::IntervalClass::kLarge));
    options.dims = {
        {"userId", table::DataType::kInt64, 0, static_cast<double>(interval)},
        {"regionId", table::DataType::kInt64, 0, 1},
        {"time", table::DataType::kDate,
         static_cast<double>(meter.config().start_day), 1}};
    options.precompute = {"sum(powerConsumed)", "count(*)"};
    options.data_dir = "/warehouse/meterdata_dgf_col";
    std::shared_ptr<kv::KvStore> store = bench::CheckOk(
        kv::LsmKv::Open({.dfs = meter.dfs(), .dir = "/kv" + options.data_dir}),
        "open store");
    options.data_format = table::FileFormat::kColumnar;
    options.job.cluster = meter.options().cluster;
    options.job.worker_threads = meter.options().worker_threads;
    return bench::CheckOk(core::DgfBuilder::Build(meter.dfs(), store,
                                                  meter.meter(), options),
                          "build col dgf");
  }();
  return index.get();
}

// The fig08-style boundary box over columnar slices, with zone-map block
// skipping off (arg 0) and on (arg 1). Record counts are equal either way
// only post-predicate — here the reader itself filters, so the "on" case
// reports how many column blocks the zone maps disproved and the payload
// bytes it never pulled.
void BM_ColSliceScan(benchmark::State& state) {
  auto& meter = Meter();
  core::DgfIndex* index = ColDgf();
  const query::Predicate pred = MeterBox(meter.config(), 55, 1333, 1, 8);
  auto lookup = bench::CheckOk(index->Lookup(pred, true), "col lookup");
  const table::Schema schema = meter.meter().schema;
  const bool zone_on = state.range(0) != 0;
  table::ZoneMapPredicate zone_pred;
  if (zone_on) {
    table::ZoneMapRange user;
    user.column = bench::CheckOk(schema.FieldIndex("userId"), "userId field");
    user.lower = table::Value::Int64(55);
    user.upper = table::Value::Int64(1333);
    user.upper_inclusive = false;
    zone_pred.push_back(user);
  }
  uint64_t records = 0;
  uint64_t bytes = 0;
  uint64_t skipped = 0;
  for (auto _ : state) {
    records = 0;
    bytes = 0;
    skipped = 0;
    for (const auto& slice : lookup.slices) {
      obs::Counter skip_counter;
      auto reader = bench::CheckOk(
          core::OpenSliceReader(meter.dfs(), slice, schema,
                                table::FileFormat::kColumnar,
                                zone_on ? &zone_pred : nullptr,
                                &skip_counter),
          "col slice reader");
      table::Row row;
      while (bench::CheckOk(reader->Next(&row), "col slice next")) ++records;
      bytes += reader->BytesRead();
      skipped += skip_counter.Value();
    }
  }
  state.counters["records"] = static_cast<double>(records);
  state.counters["bytes_read"] = static_cast<double>(bytes);
  state.counters["blocks_skipped"] = static_cast<double>(skipped);
}
BENCHMARK(BM_ColSliceScan)->Arg(0)->Arg(1);

}  // namespace
}  // namespace dgf

// BENCHMARK_MAIN plus optional JSON report: DGF_BENCH_JSON=<path> appends
// --benchmark_out so future runs have a perf trajectory to diff against.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  std::string fmt_flag;
  if (const char* json = std::getenv("DGF_BENCH_JSON");
      json != nullptr && *json != '\0') {
    out_flag = std::string("--benchmark_out=") + json;
    fmt_flag = "--benchmark_out_format=json";
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
