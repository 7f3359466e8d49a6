#ifndef DGF_SERVER_QUERY_SERVICE_H_
#define DGF_SERVER_QUERY_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
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
#include "dgf/dgf_index.h"
#include "fs/mini_dfs.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/executor.h"
#include "server/service_interface.h"

namespace dgf::server {

/// Finds the identifier following keyword `kw` ("from"/"join") in `sql`,
/// case-insensitively; empty when absent. The parser proper needs the table
/// schema up front to type literals, so catalog holders (QueryService, the
/// coordinator) peek at the table names first.
std::string TableAfterKeyword(std::string_view sql, std::string_view kw);

/// The server-side query engine: a catalog of tables and indexes, a worker
/// pool bounding query concurrency, admission control bounding the pending
/// queue, and per-query cancellation tokens.
///
/// Concurrency model: the catalog is frozen before serving (registration is
/// not thread-safe against queries); query execution shares one
/// QueryExecutor, whose read path is snapshot-isolated (each DGF query pins
/// one index epoch), so concurrent queries and appends never tear a result.
/// Appends serialize on the target index's mutation lock inside
/// DgfBuilder::Append.
///
/// Observability: every counter lives in an obs::MetricsRegistry (injected
/// via Options, or a private one), latencies feed a log-bucketed histogram,
/// and each query leaves a trace (admission wait + execution spans) in the
/// /trace ring buffer.
class QueryService : public WireService {
 public:
  struct Options {
    std::shared_ptr<fs::MiniDfs> dfs;
    /// Queries executing at once (worker pool size).
    int max_concurrent = 4;
    /// Admitted-but-not-running queries beyond that; one more is
    /// Unavailable (the structured backpressure signal).
    int max_pending = 16;
    /// At most this many threads, the query's own worker included, run
    /// each query's scan job (on the process pool).
    int query_worker_threads = 2;
    uint64_t split_size = 0;
    /// Registry the service's metrics land in. Null gives the service a
    /// private registry (tests build many services in one process; merging
    /// their counters into one Default() would make assertions racy).
    /// dgf_serverd passes obs::MetricsRegistry::Default() so the HTTP
    /// exporter sees everything.
    obs::MetricsRegistry* metrics = nullptr;
  };

  explicit QueryService(Options options);
  /// Drains in-flight queries (equivalent to BeginDrain + Drain).
  ~QueryService() override;

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Catalog registration; call before serving traffic.
  void RegisterTable(const table::TableDesc& desc);
  void RegisterDgfIndex(const std::string& table, core::DgfIndex* index);

  using QueryDone = WireService::QueryDone;

  /// Admits and asynchronously executes one SQL query. On admission returns
  /// OK and later invokes `done` exactly once on a worker thread; on
  /// rejection (queue full, or draining) returns Unavailable without ever
  /// calling `done`. `request_id` keys cancellation and must be unique among
  /// in-flight queries of this service. `trace_id` 0 assigns a fresh one.
  Status SubmitQuery(uint64_t request_id, std::string sql,
                     double deadline_seconds, uint64_t trace_id,
                     QueryDone done) override;

  /// Trips the cancel token of an in-flight query. False when no query with
  /// that id is in flight (already finished, or never admitted).
  bool CancelQuery(uint64_t request_id) override;

  /// Appends text rows to `table`'s DGF index (the paper's incremental batch
  /// load) through a double-buffered group-commit pipeline: concurrent
  /// Append calls to one table accumulate into an open group; one caller
  /// becomes the group's leader, stages its rows as a single batch table,
  /// and then — while the *next* group's leader is already staging — waits
  /// its turn to reorganize the batch into the index (one slice-file
  /// extension, one atomic KvStore::WriteBatch publish). Only the
  /// reorganize+publish step serializes on the index, so under load the
  /// pipeline overlaps group N's publish with group N+1's staging and group
  /// N+2's accumulation. Readers see whole groups or nothing (PR 3's epoch
  /// semantics), groups publish in leader order, and K concurrent appenders
  /// cost one publish per flush, not per call. Returns this call's row count
  /// once the group holding it has published.
  Result<uint64_t> Append(const std::string& table,
                          const std::vector<std::string>& rows) override;

  /// Counter snapshot for the STATS opcode: the registry's snapshot, the
  /// same names HTTP `/stats` serves.
  std::vector<std::pair<std::string, double>> StatsSnapshot() const override;

  /// Stops admitting queries (new submissions get Unavailable).
  void BeginDrain() override;
  /// Blocks until every admitted query has completed.
  void Drain() override;

  query::QueryExecutor* executor() { return executor_.get(); }
  /// The registry this service reports into (Options.metrics or the private
  /// one) — what an HTTP exporter should serve.
  obs::MetricsRegistry* metrics() const { return metrics_; }
  /// Ring buffer of recent query traces, for the /trace endpoint.
  obs::TraceLog* trace_log() { return &trace_log_; }

 private:
  /// One group-commit unit: the concatenated rows of every Append call that
  /// joined it, plus the shared flush outcome. Guarded by mu_.
  struct AppendGroup {
    std::vector<std::string> rows;
    bool done = false;
    Status status;
  };

  struct TableEntry {
    table::TableDesc desc;
    core::DgfIndex* dgf = nullptr;
    /// Batch ids claimed by leaders so far; names staging directories.
    int append_batches = 0;
    /// Group accepting new Append calls; null until the first joiner.
    /// Invariant: while !staging, a non-done group equals open_group.
    std::shared_ptr<AppendGroup> open_group;
    /// True while a leader is writing its group's staging table. Cleared
    /// before reorganize+publish, so the next group's staging overlaps it.
    bool staging = false;
    /// The batch id allowed to reorganize+publish next: staged batches enter
    /// the index strictly in leader order, whatever order staging finishes.
    /// `append_batches - publish_turn` is the pipeline depth; leaders are
    /// admitted only while it is < 2 (one batch publishing, one staging),
    /// which is the backpressure that coalesces concurrent calls into
    /// groups.
    int publish_turn = 0;
  };

  /// `queued` was started at admission: its elapsed time when the worker
  /// picks the query up is the admission-wait span.
  void RunQuery(uint64_t request_id, std::string sql, uint64_t trace_id,
                Stopwatch queued, std::shared_ptr<CancelToken> token,
                QueryDone done);
  Result<query::Query> Parse(const std::string& sql) const;
  /// Pipeline stage 1 of a group commit: writes `rows` as batch table
  /// `batch_id` (no index state touched, so it overlaps the previous
  /// group's publish). Runs outside mu_. Fills `*batch` for stage 2.
  Status StageAppendGroup(const TableEntry& entry, int batch_id,
                          const std::vector<std::string>& rows,
                          table::TableDesc* batch);
  /// Pipeline stage 2: reorganizes the staged batch into the index (one
  /// slice file) and publishes one WriteBatch. Serializes on the index
  /// mutation lock inside DgfBuilder::Append. Runs outside mu_.
  Status ReorganizeAppendBatch(const TableEntry& entry,
                               const table::TableDesc& batch);

  Options options_;
  /// Backing storage when Options.metrics is null.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<query::QueryExecutor> executor_;
  std::map<std::string, TableEntry> catalog_;
  ThreadPool pool_;
  obs::TraceLog trace_log_;

  mutable std::mutex mu_;
  std::condition_variable drained_;
  /// Wakes append waiters when a flush completes (their group published) or
  /// leadership of the open group becomes available.
  std::condition_variable append_cv_;
  bool draining_ = false;
  /// Admitted queries not yet completed (queued + running). Guarded by mu_
  /// (it gates admission); mirrored into the registry via a callback gauge.
  int in_flight_ = 0;
  std::map<uint64_t, std::shared_ptr<CancelToken>> tokens_;

  // Registry-backed counters, resolved once in the constructor; increments
  // are relaxed atomics, so none of them need mu_.
  obs::Counter* c_admitted_ = nullptr;
  obs::Counter* c_served_ = nullptr;
  obs::Counter* c_rejected_ = nullptr;
  obs::Counter* c_cancelled_ = nullptr;
  obs::Counter* c_deadline_exceeded_ = nullptr;
  obs::Counter* c_failed_ = nullptr;
  obs::Counter* c_appends_ = nullptr;
  obs::Counter* c_rows_appended_ = nullptr;
  /// Group-commit flushes (<= appends; the gap is the batching win).
  obs::Counter* c_append_flushes_ = nullptr;
  /// Cumulative wall seconds the append pipeline spent per stage. Staging
  /// overlaps the previous group's reorganize, so under load the two sums
  /// together exceeding the end-to-end append wall time is the direct
  /// evidence the double buffer overlaps.
  obs::Gauge* g_append_staging_s_ = nullptr;
  obs::Gauge* g_append_reorg_s_ = nullptr;
  obs::Counter* c_cache_hits_ = nullptr;
  obs::Counter* c_cache_misses_ = nullptr;
  obs::Counter* c_records_read_ = nullptr;
  /// Query wall-time histogram (seconds); replaces the old sliding window.
  obs::Histogram* latency_ = nullptr;
};

}  // namespace dgf::server

#endif  // DGF_SERVER_QUERY_SERVICE_H_
