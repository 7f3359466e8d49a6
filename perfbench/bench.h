#ifndef DGF_PERFBENCH_BENCH_H_
#define DGF_PERFBENCH_BENCH_H_

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "coord/coordinator.h"
#include "dgf/dgf_index.h"
#include "exec/mapreduce.h"
#include "fs/mini_dfs.h"
#include "kv/kv_store.h"
#include "query/executor.h"
#include "server/query_service.h"
#include "server/server.h"
#include "workload/meter_gen.h"
#include "workload/query_gen.h"

namespace dgf::perfbench {

/// One workload: the world it builds and the traffic it drives. Every field
/// is fixed per workload; only the seed varies between runs.
struct Spec {
  std::string name;
  int64_t users = 0;
  int days = 0;
  int64_t regions = 0;
  /// Grid interval of the userId dimension (regionId: 1, time: 1 day).
  int64_t user_interval = 0;
  /// Nodes holding the data; 2 or more puts a Coordinator in front.
  int shards = 1;
  /// Clients reach the front over loopback TCP; otherwise they call
  /// QueryExecutor::Execute in-process.
  bool wire = true;
  /// Closed-loop query clients (one connection each on the wire).
  int clients = 4;
  /// Worker threads inside each query's scan job.
  int query_threads = 2;
  std::vector<std::pair<workload::MeterQueryKind, workload::Selectivity>>
      classes;
  /// Distinct placements per class; the query pool is classes x variants.
  int variants = 4;
  /// True: the open-loop appender runs beside the query clients and sends
  /// through the front server. False: it runs after the query window (reads
  /// never see a publish) and calls QueryService::Append in-process, so the
  /// tail is about the append path rather than wire-stall timing. Those
  /// appends take milliseconds; larger batches sent one at a time keep host
  /// scheduling hiccups from dominating their p95.
  bool concurrent_appends = false;
  int append_rows = 400;
  double append_period_s = 0.03;
  /// Appender connections (threads in-process); lane j sends the batches
  /// k with k mod lanes == j.
  int append_lanes = 1;
  /// Batches of the post-window append phase (ignored when concurrent: the
  /// appender then covers the query window).
  int append_batches = 100;
};

/// The workload named `name`, or null.
const Spec* FindSpec(const std::string& name);
std::vector<std::string> SpecNames();

/// One node: its DFS, tables, LSM-backed DGF index, query service, and
/// loopback server. Declaration order is teardown order reversed: the server
/// drains before the service, the index and the DFS go away.
struct Node {
  std::shared_ptr<fs::MiniDfs> dfs;
  table::TableDesc meter;
  table::TableDesc user_info;
  std::shared_ptr<kv::KvStore> store;
  std::unique_ptr<core::DgfIndex> dgf;
  exec::JobResult build;
  double build_seconds = 0;
  uint64_t base_bytes = 0;
  uint64_t slice_bytes = 0;
  uint64_t kv_bytes = 0;
  std::unique_ptr<server::QueryService> service;
  std::unique_ptr<server::Server> server;

  ~Node();
};

/// A coordinator over a world's node servers plus the server fronting it.
struct Front {
  std::unique_ptr<coord::Coordinator> coordinator;
  std::unique_ptr<server::Server> server;

  ~Front();
};

/// A query of the workload's pool with its full-scan oracle answer.
struct Case {
  /// Template and selectivity, e.g. "groupby/5%".
  std::string label;
  query::Query query;
  std::string sql;
  query::QueryResult expected;
};

/// Everything one run drives. All files live under `dir`, removed on
/// destruction.
struct World {
  const Spec* spec = nullptr;
  uint64_t seed = 0;
  workload::MeterConfig config;
  std::filesystem::path dir;
  std::vector<std::unique_ptr<Node>> nodes;
  /// Separate single-node copy of the whole dataset answering the oracle
  /// queries when the data is sharded (else null: nodes[0] answers them).
  std::unique_ptr<Node> oracle;
  /// The coordinator clients talk to when the data is sharded.
  std::unique_ptr<Front> front;
  std::vector<Case> cases;
  /// Next new day an append batch carries; appended days lie past every
  /// query window, so the oracle answers stay valid.
  int64_t next_append_day = 0;
  int64_t first_append_day = 0;
  /// Setup phases: generation + build + servers, oracle, warm-up.
  double nodes_s = 0, oracle_s = 0, warmup_s = 0;

  ~World();
  /// Port the workload's wire clients connect to.
  int port() const;
  /// Node receiving appended days (the last time band).
  Node& append_node() { return *nodes.back(); }
};

/// Generates the data, builds every node, starts the servers (and the
/// coordinator for sharded worlds), computes the oracle answers with a forced
/// full scan, and warms up by running every case once through the
/// workload's path, checking each answer.
Result<std::unique_ptr<World>> BuildWorld(const Spec& spec, uint64_t seed);

/// Wall seconds of one more DgfBuilder::Build of every node's index (same
/// tables and options, into scratch paths that are deleted afterwards).
Result<double> TimeIndexBuild(const World& world);

/// Starts a coordinator (plus front server) over the world's node servers,
/// one shard per node. Sharded worlds keep theirs in World::front; the
/// traced run starts a one-shard one to measure the coord and server layers
/// where the workload's own path bypasses them.
Result<std::unique_ptr<Front>> StartCoordinator(const World& world);

// ---- Statistics ----

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double PeakRssMb();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// ---- Traffic (workloads.cc) ----

/// Spans and sizes of one wire query, as the client saw them.
struct WireSample {
  double rtt_ms = 0;
  /// Front hop: admission wait plus the front service's own time.
  double admission_ms = 0;
  double service_ms = 0;
  /// Per shard hop behind a coordinator.
  std::vector<double> rpc_ms;
  std::vector<double> shard_admission_ms;
  std::vector<double> shard_gap_ms;
  double merge_ms = -1;
  double codec_us = 0;
  double response_bytes = 0;
};

struct QueryWindow {
  std::vector<double> latency_ms;
  /// Index into World::cases of each latency sample.
  std::vector<size_t> case_of_sample;
  /// The same samples split by Case::label.
  std::map<std::string, std::vector<double>> latency_by_label;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double elapsed_s = 0;
  std::string first_error;
  /// Filled only when traced and on the wire; parallel to latency_ms.
  std::vector<WireSample> wire;
};

struct AppendRun {
  std::vector<double> latency_ms;
  /// How late each send left against its due time.
  std::vector<double> lateness_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rows_acked = 0;
  uint64_t text_bytes = 0;
  uint64_t dfs_bytes_written = 0;
  std::string first_error;
  /// Filled only when probing: right after each acknowledged publish.
  std::vector<double> pin_us;
  std::vector<double> snapshot_us;
};

/// Closed-loop query clients for `seconds`, every answer checked against
/// its oracle. With `traced`, wire clients keep each response's spans and
/// time its codec. With `appends` > 0 the open-loop appender runs alongside.
QueryWindow RunQueries(World& world, double seconds, bool traced,
                       int appends, bool probe_appends, AppendRun* append_out);

/// The open-loop appender alone: `batches` new-day batches on the
/// workload's fixed schedule.
AppendRun RunAppends(World& world, int batches, bool probe);

/// Issues one SQL query through the workload's path (front server or
/// in-process executor).
Result<query::QueryResult> RunOnPath(const World& world, const query::Query& q);

/// Runs `sql` over `client`. A non-null `sample` receives the round trip,
/// the response's spans, and the cost of re-encoding and decoding it.
Result<query::QueryResult> WireQuery(server::ServerClient* client,
                                     const std::string& sql,
                                     WireSample* sample);

/// Checks that a count(*) over the appended days equals the acknowledged
/// rows. Empty on success, else the failure.
std::string CheckAppendedCount(World& world, uint64_t rows_acked);

/// LSM run files present on every node, as node-qualified paths.
std::vector<std::string> LsmRunFiles(const World& world);

// ---- Runs (main.cc / traced.cc) ----

struct RunOutcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// The traced pass: per-layer metrics of `world`'s workload.
RunOutcome RunTraced(World& world, double seconds);

}  // namespace dgf::perfbench

#endif  // DGF_PERFBENCH_BENCH_H_
