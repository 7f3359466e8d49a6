// The traced pass. It times calls into each module's public functions from
// outside and reads the spans and counters the code already returns; nothing
// inside src/ is instrumented. Order of work:
//
//   1. an untraced query window (seconds / 2): the reference for the
//      tracing overhead;
//   2. a single-threaded layer replay of every pooled query in blocking
//      order, Parse -> Pin -> Lookup -> Plan -> decode -> Execute, on every
//      node (times and counts sum over nodes);
//   3. on single-node worlds, a one-shard coordinator probe, so the coord
//      layer (and, for in-process workloads, the server layer) is measured
//      where the workload's own path bypasses it;
//   4. a traced query window (seconds / 2) keeping each response's spans.
//
// Appends run as in the untraced run (beside the windows, or after them),
// probing Pin and GetSnapshot right after every acknowledged publish.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <random>
#include <set>

#include "bench.h"
#include "common/stopwatch.h"
#include "dgf/dgf_input_format.h"
#include "query/parser.h"
#include "server/client.h"
#include "testing/differential.h"

namespace dgf::perfbench {
namespace {

/// Per-query layer costs from the replay; vectors hold one entry per query.
struct Replay {
  /// Execute time by index into World::cases.
  std::vector<double> execute_by_case;
  std::vector<double> parse_us, pin_us, lookup_ms, plan_ms, decode_ms,
      execute_ms;
  std::vector<double> gfus, kv_reads, preads, bytes_read, map_tasks;
  uint64_t inner_gfus = 0, all_gfus = 0, cache_hits = 0, cache_misses = 0;
  uint64_t decoded_rows = 0, matched_rows = 0, pread_bytes = 0;
  double decode_s = 0, pread_s = 0;
};

Status ReplayCase(World& world, size_t index, Replay* r) {
  const Case& c = world.cases[index];
  const Node& first = *world.nodes.front();
  Stopwatch watch;
  DGF_ASSIGN_OR_RETURN(
      query::Query parsed,
      query::ParseQuery(c.sql, first.meter.schema,
                        c.query.join ? &first.user_info.schema : nullptr));
  r->parse_us.push_back(watch.ElapsedSeconds() * 1e6);
  (void)parsed;

  double pin_s = 0, lookup_s = 0, plan_s = 0, decode_s = 0, execute_s = 0;
  double gfus = 0, kv_reads = 0, preads = 0, bytes_read = 0, map_tasks = 0;
  for (const auto& node : world.nodes) {
    watch.Restart();
    DGF_ASSIGN_OR_RETURN(core::DgfIndex::Snapshot snap, node->dgf->Pin());
    pin_s += watch.ElapsedSeconds();

    const bool aggregation =
        c.query.IsPlainAggregation() &&
        core::DgfIndex::CoversAggregations(*snap.aggs, c.query.Aggregations());
    watch.Restart();
    DGF_ASSIGN_OR_RETURN(core::DgfIndex::LookupResult lookup,
                         node->dgf->Lookup(snap, c.query.where, aggregation));
    lookup_s += watch.ElapsedSeconds();
    gfus += static_cast<double>(lookup.inner_gfus + lookup.boundary_gfus);
    kv_reads += static_cast<double>(lookup.kv_gets + lookup.kv_scan_entries);
    r->inner_gfus += lookup.inner_gfus;
    r->all_gfus += lookup.inner_gfus + lookup.boundary_gfus;
    r->cache_hits += lookup.cache_hits;
    r->cache_misses += lookup.cache_misses;

    watch.Restart();
    DGF_ASSIGN_OR_RETURN(std::vector<core::SlicedSplit> splits,
                         core::PlanSlicedSplits(node->dfs, lookup.slices));
    plan_s += watch.ElapsedSeconds();

    DGF_ASSIGN_OR_RETURN(query::BoundPredicate bound,
                         c.query.where.Bind(node->meter.schema));
    watch.Restart();
    for (const core::SlicedSplit& sliced : splits) {
      DGF_ASSIGN_OR_RETURN(
          auto reader,
          core::SliceRecordReader::Open(node->dfs, sliced, node->meter.schema,
                                        node->dgf->data_format()));
      table::Row row;
      for (;;) {
        DGF_ASSIGN_OR_RETURN(bool more, reader->Next(&row));
        if (!more) break;
        ++r->decoded_rows;
        if (bound.Matches(row)) ++r->matched_rows;
      }
    }
    decode_s += watch.ElapsedSeconds();

    watch.Restart();
    std::map<std::string, std::unique_ptr<fs::DfsReader>> files;
    std::string buffer;
    for (const core::SliceLocation& slice :
         core::CoalesceSlices(lookup.slices)) {
      std::unique_ptr<fs::DfsReader>& file = files[slice.file];
      if (file == nullptr) {
        DGF_ASSIGN_OR_RETURN(file, node->dfs->OpenForRead(slice.file));
      }
      DGF_RETURN_IF_ERROR(file->Pread(slice.start, slice.length(), &buffer));
      r->pread_bytes += buffer.size();
    }
    r->pread_s += watch.ElapsedSeconds();

    const uint64_t preads_before = node->dfs->TotalPreadCalls();
    const uint64_t bytes_before = node->dfs->TotalBytesRead();
    watch.Restart();
    DGF_ASSIGN_OR_RETURN(query::QueryResult result,
                         node->service->executor()->Execute(c.query));
    execute_s += watch.ElapsedSeconds();
    preads += static_cast<double>(node->dfs->TotalPreadCalls() - preads_before);
    bytes_read += static_cast<double>(node->dfs->TotalBytesRead() - bytes_before);
    map_tasks += result.stats.splits_scanned;
  }
  r->pin_us.push_back(pin_s * 1e6);
  r->lookup_ms.push_back(lookup_s * 1e3);
  r->plan_ms.push_back(plan_s * 1e3);
  r->decode_ms.push_back(decode_s * 1e3);
  r->decode_s += decode_s;
  r->execute_ms.push_back(execute_s * 1e3);
  r->execute_by_case[index] = execute_s * 1e3;
  r->gfus.push_back(gfus);
  r->kv_reads.push_back(kv_reads);
  r->preads.push_back(preads);
  r->bytes_read.push_back(bytes_read);
  r->map_tasks.push_back(map_tasks);
  return Status::OK();
}

/// KvSnapshot::MultiGet over 512 GFU keys sampled with the run's seed;
/// median of five passes, per key.
Result<double> MultiGetUsPerKey(const Node& node, uint64_t seed) {
  DGF_ASSIGN_OR_RETURN(core::DgfIndex::Snapshot snap, node.dgf->Pin());
  std::vector<std::string> keys;
  auto it = snap.kv->NewIterator();
  for (it->Seek(std::string(1, core::kGfuKeyPrefix));
       it->Valid() && it->key().front() == core::kGfuKeyPrefix; it->Next()) {
    keys.emplace_back(it->key());
  }
  if (keys.empty()) return Status::Internal("index holds no GFU keys");
  std::mt19937_64 rng(seed);
  std::shuffle(keys.begin(), keys.end(), rng);
  keys.resize(std::min<size_t>(keys.size(), 512));
  std::sort(keys.begin(), keys.end());
  std::vector<double> per_key_us;
  for (int pass = 0; pass < 5; ++pass) {
    Stopwatch watch;
    const auto values = snap.kv->MultiGet(keys);
    per_key_us.push_back(watch.ElapsedSeconds() * 1e6 /
                         static_cast<double>(keys.size()));
    for (const auto& value : values) DGF_RETURN_IF_ERROR(value.status());
  }
  return Median(per_key_us);
}

class NoopMapper : public exec::Mapper {
 public:
  Status Map(const fs::FileSplit&, exec::MapContext*) override {
    return Status::OK();
  }
};

/// Median wall of JobRunner::Run over one split whose mapper does nothing:
/// the per-job floor every query pays.
Result<double> JobFloorUs(int worker_threads) {
  exec::JobRunner::Options options;
  options.worker_threads = worker_threads;
  exec::JobRunner runner(options);
  const std::vector<fs::FileSplit> splits = {fs::FileSplit{"/noop", 0, 1}};
  std::vector<double> us;
  for (int i = 0; i < 50; ++i) {
    Stopwatch watch;
    DGF_RETURN_IF_ERROR(
        runner.Run(splits, [] { return std::make_unique<NoopMapper>(); })
            .status());
    us.push_back(watch.ElapsedSeconds() * 1e6);
  }
  return Median(us);
}

double Stat(const std::vector<std::pair<std::string, double>>& stats,
            const std::string& name) {
  for (const auto& [key, value] : stats) {
    if (key == name) return value;
  }
  return 0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void Concat(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

}  // namespace

RunOutcome RunTraced(World& world, double seconds) {
  const Spec& spec = *world.spec;
  RunOutcome out;
  std::vector<std::string> errors;
  auto note = [&](const std::string& error) {
    if (!error.empty() && errors.size() < 5) errors.push_back(error);
  };
  auto fail = [&](const std::string& error) {
    ++out.failed;
    note(error);
  };

  const double half = seconds / 2;
  const int window_batches =
      spec.concurrent_appends
          ? static_cast<int>(std::lround(half / spec.append_period_s))
          : 0;
  Node& target = world.append_node();
  const auto stats_before = target.service->StatsSnapshot();
  const std::vector<std::string> runs_before = LsmRunFiles(world);

  std::vector<AppendRun> append_runs(3);
  const QueryWindow plain = RunQueries(world, half, /*traced=*/false,
                                       window_batches, true, &append_runs[0]);

  Replay replay;
  replay.execute_by_case.assign(world.cases.size(), 0);
  for (size_t i = 0; i < world.cases.size(); ++i) {
    ++out.attempted;
    const Status status = ReplayCase(world, i, &replay);
    if (!status.ok()) {
      fail("replay " + world.cases[i].sql + ": " + status.ToString());
    }
  }

  std::vector<WireSample> probe;
  if (spec.shards == 1) {
    auto front = StartCoordinator(world);
    auto client = front.ok() ? server::ServerClient::ConnectTcp(
                                   "127.0.0.1", (*front)->server->port())
                             : Result<std::unique_ptr<server::ServerClient>>(
                                   front.status());
    // One query per class: each probe pays two wire hops.
    for (size_t i = 0; i < world.cases.size();
         i += static_cast<size_t>(spec.variants)) {
      const Case& c = world.cases[i];
      ++out.attempted;
      if (!client.ok()) {
        fail("coordinator probe: " + client.status().ToString());
        continue;
      }
      WireSample sample;
      auto got = WireQuery(client->get(), c.sql, &sample);
      const std::string diff =
          got.ok() ? testing::DescribeResultMismatch(c.expected, *got)
                   : got.status().ToString();
      if (!diff.empty()) {
        fail("coordinator probe " + c.sql + ": " + diff);
        continue;
      }
      probe.push_back(std::move(sample));
    }
  }

  const QueryWindow traced = RunQueries(world, half, /*traced=*/true,
                                        window_batches, true, &append_runs[1]);
  if (!spec.concurrent_appends) {
    append_runs[2] = RunAppends(world, spec.append_batches, /*probe=*/true);
  }

  AppendRun appends;
  for (const AppendRun& run : append_runs) {
    Concat(appends.pin_us, run.pin_us);
    Concat(appends.snapshot_us, run.snapshot_us);
    appends.rows_acked += run.rows_acked;
    out.attempted += run.attempted;
    out.failed += run.failed;
    note(run.first_error);
  }
  for (const QueryWindow* window : {&plain, &traced}) {
    out.attempted += window->attempted;
    out.failed += window->failed;
    note(window->first_error);
  }
  ++out.attempted;
  const std::string count_error = CheckAppendedCount(world, appends.rows_acked);
  if (!count_error.empty()) fail(count_error);

  const auto stats_after = target.service->StatsSnapshot();
  auto delta = [&](const char* name) {
    return Stat(stats_after, name) - Stat(stats_before, name);
  };
  const double flushes = delta("appends.flushes");
  const std::set<std::string> before(runs_before.begin(), runs_before.end());
  double new_runs = 0;
  for (const std::string& run : LsmRunFiles(world)) {
    if (before.count(run) == 0) ++new_runs;
  }

  // Server layer: the front hop on wire workloads; the shard hop of the
  // probe for in-process ones. Coord layer: the front on sharded worlds,
  // else the probe.
  const std::vector<WireSample>& server_samples =
      spec.wire ? traced.wire : probe;
  std::vector<double> gap, admission, codec, response_bytes;
  for (const WireSample& s : server_samples) {
    if (spec.wire) {
      gap.push_back(s.rtt_ms - s.admission_ms - s.service_ms);
      admission.push_back(s.admission_ms);
    } else if (!s.shard_gap_ms.empty()) {
      gap.push_back(s.shard_gap_ms.front());
      admission.push_back(s.shard_admission_ms.front());
    }
    codec.push_back(s.codec_us);
    response_bytes.push_back(s.response_bytes);
  }
  const std::vector<WireSample>& coord_samples =
      spec.shards > 1 ? traced.wire : probe;
  std::vector<double> rpc, slowest_rpc, merge, skew;
  for (const WireSample& s : coord_samples) {
    if (s.rpc_ms.empty()) continue;
    Concat(rpc, s.rpc_ms);
    const auto [lo, hi] = std::minmax_element(s.rpc_ms.begin(), s.rpc_ms.end());
    slowest_rpc.push_back(*hi);
    skew.push_back(*lo > 0 ? *hi / *lo : 1.0);
    if (s.merge_ms >= 0) merge.push_back(s.merge_ms);
  }

  out.attempted += 2;
  auto multiget = MultiGetUsPerKey(*world.nodes.front(), world.seed);
  if (!multiget.ok()) fail("multiget probe: " + multiget.status().ToString());
  auto job_floor = JobFloorUs(spec.query_threads);
  if (!job_floor.ok()) fail("job floor probe: " + job_floor.status().ToString());
  out.correct = out.failed == 0;

  // The blocking path the client waits on, by workload shape, summed per
  // traced sample (so the query mix matches the client's) and compared at
  // the median.
  const double traced_p50 = Median(traced.latency_ms);
  const double plain_p50 = Median(plain.latency_ms);
  const char* path = "query.execute_ms";
  if (spec.wire && spec.shards > 1) {
    path = "server.wire_gap_ms + server.admission_wait_ms + slowest "
           "coord.rpc_ms + coord.merge_ms";
  } else if (spec.wire) {
    path = "server.wire_gap_ms + server.admission_wait_ms + query.execute_ms";
  }
  std::vector<double> explained_per_sample;
  for (size_t i = 0; i < traced.latency_ms.size(); ++i) {
    double explained = replay.execute_by_case[traced.case_of_sample[i]];
    if (spec.wire) {
      const WireSample& s = traced.wire[i];
      explained = s.rtt_ms - s.service_ms;  // wire gap + admission wait
      if (spec.shards > 1) {
        if (!s.rpc_ms.empty()) {
          explained += *std::max_element(s.rpc_ms.begin(), s.rpc_ms.end());
        }
        explained += std::max(0.0, s.merge_ms);
      } else {
        explained += replay.execute_by_case[traced.case_of_sample[i]];
      }
    }
    explained_per_sample.push_back(explained);
  }
  const double explained = Median(explained_per_sample);

  std::printf("# traced workload=%s seed=%llu seconds=%g\n", spec.name.c_str(),
              static_cast<unsigned long long>(world.seed), seconds);
  std::printf("# query_p50_ms untraced %.3f (%zu samples), traced %.3f "
              "(%zu samples): tracing overhead %.3f ms\n",
              plain_p50, plain.latency_ms.size(), traced_p50,
              traced.latency_ms.size(), traced_p50 - plain_p50);
  std::printf("# blocking path: %s = %.3f ms; unexplained %.3f ms of %.3f\n",
              path, explained, traced_p50 - explained, traced_p50);
  std::printf("# replay medians over %zu queries: execute %.3f ms; pin "
              "%.3f, lookup %.3f, plan %.3f, decode %.3f ms\n",
              replay.execute_ms.size(), Median(replay.execute_ms),
              Median(replay.pin_us) / 1e3, Median(replay.lookup_ms),
              Median(replay.plan_ms), Median(replay.decode_ms));
  std::printf("# ops_failed_frac = %.6f (%llu of %llu)\n",
              Ratio(static_cast<double>(out.failed),
                    static_cast<double>(out.attempted)),
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  for (const std::string& error : errors) {
    std::printf("# FAIL: %s\n", error.c_str());
  }

  auto stage = [&](const char* name) {
    double total = 0;
    for (const auto& node : world.nodes) {
      total += node->build.stage_seconds.Seconds(name);
    }
    return total;
  };
  out.metrics = {
      {"server.wire_gap_ms", Median(gap), "ms"},
      {"server.admission_wait_ms", Median(admission), "ms"},
      {"server.codec_us", Median(codec), "us"},
      {"server.response_bytes", Median(response_bytes), "bytes"},
      {"server.append_flush_ms",
       Ratio((delta("appends.staging_s") + delta("appends.reorg_s")) * 1e3,
             flushes),
       "ms"},
      {"server.append_coalesce", Ratio(delta("appends.batches"), flushes),
       "calls/flush"},
      {"coord.rpc_ms", Median(rpc), "ms"},
      {"coord.merge_ms", Median(merge), "ms"},
      {"coord.shard_skew", Median(skew), "ratio"},
      {"query.parse_us", Median(replay.parse_us), "us"},
      {"query.execute_ms", Median(replay.execute_ms), "ms"},
      {"dgf.pin_us", Median(replay.pin_us), "us"},
      {"dgf.pin_after_publish_us", Median(appends.pin_us), "us"},
      {"dgf.lookup_ms", Median(replay.lookup_ms), "ms"},
      {"dgf.gfus_per_query", Median(replay.gfus), "count"},
      {"dgf.inner_frac",
       Ratio(static_cast<double>(replay.inner_gfus),
             static_cast<double>(replay.all_gfus)),
       "ratio"},
      {"dgf.cache_hit_rate",
       Ratio(static_cast<double>(replay.cache_hits),
             static_cast<double>(replay.cache_hits + replay.cache_misses)),
       "ratio"},
      {"dgf.plan_ms", Median(replay.plan_ms), "ms"},
      {"dgf.build_stage_s.shard", stage("shard"), "s"},
      {"dgf.build_stage_s.merge", stage("merge"), "s"},
      {"dgf.build_stage_s.slice_write", stage("slice_write"), "s"},
      {"dgf.build_stage_s.bounds", stage("bounds"), "s"},
      {"dgf.build_stage_s.publish", stage("publish"), "s"},
      {"kv.snapshot_us", Median(appends.snapshot_us), "us"},
      {"kv.gets_per_query", Median(replay.kv_reads), "count"},
      {"kv.multiget_us_per_key", multiget.ok() ? *multiget : 0, "us"},
      {"kv.flushes", new_runs, "count"},
      {"fs.preads_per_query", Median(replay.preads), "count"},
      {"fs.bytes_read_per_query", Median(replay.bytes_read), "bytes"},
      {"fs.pread_mb_per_s",
       Ratio(static_cast<double>(replay.pread_bytes) / 1e6, replay.pread_s),
       "MB/s"},
      {"table.decode_rows_per_s",
       Ratio(static_cast<double>(replay.decoded_rows), replay.decode_s),
       "rows/s"},
      {"table.match_frac",
       Ratio(static_cast<double>(replay.matched_rows),
             static_cast<double>(replay.decoded_rows)),
       "ratio"},
      {"exec.job_floor_us", job_floor.ok() ? *job_floor : 0, "us"},
      {"exec.map_tasks_per_query", Median(replay.map_tasks), "count"},
      {"trace.overhead_ms", traced_p50 - plain_p50, "ms"},
      {"trace.unexplained_ms", traced_p50 - explained, "ms"},
  };
  return out;
}

}  // namespace dgf::perfbench
