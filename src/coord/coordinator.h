#ifndef DGF_COORD_COORDINATOR_H_
#define DGF_COORD_COORDINATOR_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "coord/shard_map.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/service_interface.h"
#include "table/table.h"

namespace dgf::coord {

/// Scatter-gather query coordinator over N shard servers.
///
/// Implements the same `WireService` interface a local QueryService does, so
/// a `Server` can front it and clients cannot tell a coordinator from a
/// single node. Per query: the SQL is parsed against the coordinator's
/// catalog, the query box is decomposed by the ShardMap into per-shard
/// sub-boxes, each sub-query fans out over the wire protocol on its own
/// connection (with the remaining deadline attached), and the partial
/// results merge:
///
///  - row streams (projections, joins) by sorted merge — shard row sets are
///    disjoint, so concatenation + canonical order is the exact answer;
///  - aggregates exactly, by the same additive fold the GFU headers use:
///    sum/count/sum-product add, min/max fold, and avg is rewritten into
///    sum + count at the shards and divided at the coordinator (partial avgs
///    do not merge; partial sums do);
///  - group-bys by key: per-group aggregate states from different shards
///    fold with the same rules;
///  - QueryStats field-wise (sums), wall time being the coordinator's own.
///
/// Failure policy: a shard that cannot be reached, dies mid-query, or stays
/// silent past `shard_response_timeout_seconds` fails the whole query with a
/// structured Unavailable — a partial result is never silently returned.
/// Coordinator-level CANCEL and deadline expiry fan out as CANCELs to every
/// shard still working.
///
/// Cross-shard APPEND parses each row's partition-dimension value, routes
/// whole row groups to their owning shards, and rides each shard's
/// group-commit pipeline; per shard a batch is atomic (readers see a shard's
/// slice of the batch entirely or not at all).
class Coordinator : public server::WireService {
 public:
  struct Options {
    ShardMap shard_map;
    /// One endpoint per shard; size must equal shard_map.num_shards().
    std::vector<ShardEndpoint> shards;
    /// Fan-out workers == queries the coordinator runs at once.
    int max_concurrent = 4;
    /// Admitted-but-not-running queries beyond that; one more is
    /// Unavailable (same backpressure contract as QueryService).
    int max_pending = 16;
    /// Bounds the TCP handshake to a shard (dead endpoint fails fast).
    double connect_timeout_seconds = 2.0;
    /// A shard producing no response for this long (while one is due) is
    /// declared dead and the query fails Unavailable. Distinct from the
    /// query deadline: this guards against a hung shard, not a slow query.
    double shard_response_timeout_seconds = 30.0;
    /// Await slice between checks of the coordinator's own cancel token.
    double poll_interval_seconds = 0.02;
    /// Registry the coordinator's metrics land in; null gives it a private
    /// one (same contract as QueryService::Options::metrics).
    obs::MetricsRegistry* metrics = nullptr;
  };

  explicit Coordinator(Options options);
  ~Coordinator() override;

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Catalog registration (schema only — the data lives on the shards).
  /// Call before serving traffic.
  void RegisterTable(const table::TableDesc& desc);

  // WireService:
  Status SubmitQuery(uint64_t request_id, std::string sql,
                     double deadline_seconds, uint64_t trace_id,
                     server::WireService::QueryDone done) override;
  bool CancelQuery(uint64_t request_id) override;
  Result<uint64_t> Append(const std::string& table,
                          const std::vector<std::string>& rows) override;
  std::vector<std::pair<std::string, double>> StatsSnapshot() const override;
  void BeginDrain() override;
  void Drain() override;

  /// The registry this coordinator reports into (Options.metrics or the
  /// private one) — what an HTTP exporter should serve.
  obs::MetricsRegistry* metrics() const { return metrics_; }
  /// Ring buffer of recent cross-shard query traces (per-shard RPC spans).
  obs::TraceLog* trace_log() { return &trace_log_; }

 private:
  /// One shard's in-flight sub-query during a fan-out.
  struct ShardCall {
    int shard = 0;
    std::unique_ptr<server::ServerClient> client;
    uint64_t request_id = 0;
    bool done = false;
    server::Response response;
    bool cancel_sent = false;
    /// Transport-level failure: the connection is not returned to the pool.
    bool broken = false;
    /// Trace bookkeeping: offsets (on the scatter stopwatch) when the
    /// sub-query was dispatched and when its response was observed. The
    /// difference is the shard's RPC span.
    double dispatch_seconds = 0;
    double response_seconds = 0;
  };

  Result<std::unique_ptr<server::ServerClient>> Checkout(int shard);
  void Checkin(int shard, std::unique_ptr<server::ServerClient> client);
  /// One shard's slice of an APPEND over a pooled connection.
  Status AppendToShard(int shard, const std::string& table,
                       const std::vector<std::string>& rows);

  /// `queued` was started at admission; its elapsed time when the fan-out
  /// worker picks the query up is the admission-wait span.
  void RunQuery(uint64_t request_id, std::string sql, double deadline_seconds,
                uint64_t trace_id, Stopwatch queued,
                std::shared_ptr<CancelToken> token,
                server::WireService::QueryDone done);
  Result<query::Query> Parse(const std::string& sql) const;
  /// The scatter-gather proper: decompose, fan out, gather, merge.
  /// `trace_id` rides every sub-query so shard executions join this trace;
  /// the merged stats carry per-shard RPC spans plus the shards' own spans
  /// prefixed `shard<N>.`.
  Result<query::QueryResult> ExecuteScatterGather(const query::Query& q,
                                                  double deadline_seconds,
                                                  uint64_t trace_id,
                                                  CancelToken* token);
  /// Sends CANCEL for every still-pending call (best effort).
  void FanOutCancel(std::vector<ShardCall>& calls);

  Options options_;
  /// Backing storage when Options.metrics is null.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::map<std::string, table::TableDesc> catalog_;
  ThreadPool pool_;
  obs::TraceLog trace_log_;

  /// Idle pooled connections, one free list per shard.
  mutable std::mutex pool_mu_;
  std::vector<std::vector<std::unique_ptr<server::ServerClient>>> free_;

  mutable std::mutex mu_;
  std::condition_variable drained_;
  bool draining_ = false;
  int in_flight_ = 0;
  std::map<uint64_t, std::shared_ptr<CancelToken>> tokens_;

  // Registry-backed counters (relaxed atomics; no mu_ needed), mirroring
  // QueryService's STATS names so dashboards work unchanged, plus coord.*
  // fan-out counters.
  obs::Counter* c_admitted_ = nullptr;
  obs::Counter* c_served_ = nullptr;
  obs::Counter* c_rejected_ = nullptr;
  obs::Counter* c_cancelled_ = nullptr;
  obs::Counter* c_deadline_exceeded_ = nullptr;
  obs::Counter* c_failed_ = nullptr;
  obs::Counter* c_subqueries_ = nullptr;
  obs::Counter* c_shards_skipped_ = nullptr;
  obs::Counter* c_shard_errors_ = nullptr;
  obs::Counter* c_appends_ = nullptr;
  obs::Counter* c_rows_appended_ = nullptr;
  obs::Counter* c_append_shard_batches_ = nullptr;
  /// Coordinator-side query wall time (seconds); replaces the old window.
  obs::Histogram* latency_ = nullptr;
};

}  // namespace dgf::coord

#endif  // DGF_COORD_COORDINATOR_H_
