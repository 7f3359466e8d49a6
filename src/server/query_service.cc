#include "server/query_service.h"

#include <algorithm>
#include <cctype>

#include "common/stopwatch.h"
#include "dgf/dgf_builder.h"
#include "query/parser.h"
#include "table/table.h"
#include "testing/crash_point.h"

namespace dgf::server {

std::string TableAfterKeyword(std::string_view sql, std::string_view kw) {
  auto lower = [](char c) {
    return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  };
  for (size_t i = 0; i + kw.size() < sql.size(); ++i) {
    bool match = (i == 0 || std::isspace(static_cast<unsigned char>(sql[i - 1])));
    for (size_t j = 0; match && j < kw.size(); ++j) {
      match = lower(sql[i + j]) == kw[j];
    }
    if (!match) continue;
    size_t p = i + kw.size();
    if (p >= sql.size() || !std::isspace(static_cast<unsigned char>(sql[p]))) {
      continue;
    }
    while (p < sql.size() && std::isspace(static_cast<unsigned char>(sql[p]))) {
      ++p;
    }
    size_t end = p;
    while (end < sql.size() &&
           (std::isalnum(static_cast<unsigned char>(sql[end])) ||
            sql[end] == '_')) {
      ++end;
    }
    if (end > p) return std::string(sql.substr(p, end - p));
  }
  return std::string();
}

QueryService::QueryService(Options options)
    : options_(std::move(options)),
      pool_(std::max(1, options_.max_concurrent)) {
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  c_admitted_ = metrics_->GetCounter("queries.admitted");
  c_served_ = metrics_->GetCounter("queries.served");
  c_rejected_ = metrics_->GetCounter("queries.rejected");
  c_cancelled_ = metrics_->GetCounter("queries.cancelled");
  c_deadline_exceeded_ = metrics_->GetCounter("queries.deadline_exceeded");
  c_failed_ = metrics_->GetCounter("queries.failed");
  c_appends_ = metrics_->GetCounter("appends.batches");
  c_rows_appended_ = metrics_->GetCounter("appends.rows");
  c_append_flushes_ = metrics_->GetCounter("appends.flushes");
  g_append_staging_s_ = metrics_->GetGauge("appends.staging_s");
  g_append_reorg_s_ = metrics_->GetGauge("appends.reorg_s");
  c_cache_hits_ = metrics_->GetCounter("cache.hits");
  c_cache_misses_ = metrics_->GetCounter("cache.misses");
  c_records_read_ = metrics_->GetCounter("scan.records_read");
  latency_ = metrics_->GetHistogram("latency");
  metrics_->SetCallback("queries.in_flight", [this] {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<double>(in_flight_);
  });

  query::QueryExecutor::Options exec_options;
  exec_options.dfs = options_.dfs;
  exec_options.split_size = options_.split_size;
  exec_options.worker_threads = std::max(1, options_.query_worker_threads);
  exec_options.metrics = metrics_;
  executor_ = std::make_unique<query::QueryExecutor>(exec_options);
}

QueryService::~QueryService() {
  BeginDrain();
  Drain();
}

void QueryService::RegisterTable(const table::TableDesc& desc) {
  catalog_[desc.name].desc = desc;
  executor_->RegisterTable(desc);
}

void QueryService::RegisterDgfIndex(const std::string& table,
                                    core::DgfIndex* index) {
  catalog_[table].dgf = index;
  executor_->RegisterDgfIndex(table, index);
}

Result<query::Query> QueryService::Parse(const std::string& sql) const {
  const std::string from = TableAfterKeyword(sql, "from");
  if (from.empty()) return Status::InvalidArgument("no FROM table in: " + sql);
  auto it = catalog_.find(from);
  if (it == catalog_.end()) {
    return Status::NotFound("table not registered: " + from);
  }
  const table::Schema* right = nullptr;
  const std::string join = TableAfterKeyword(sql, "join");
  if (!join.empty()) {
    auto jt = catalog_.find(join);
    if (jt == catalog_.end()) {
      return Status::NotFound("join table not registered: " + join);
    }
    right = &jt->second.desc.schema;
  }
  return query::ParseQuery(sql, it->second.desc.schema, right);
}

Status QueryService::SubmitQuery(uint64_t request_id, std::string sql,
                                 double deadline_seconds, uint64_t trace_id,
                                 QueryDone done) {
  auto token = std::make_shared<CancelToken>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) {
      c_rejected_->Increment();
      return Status::Unavailable("server is draining");
    }
    if (in_flight_ >= options_.max_concurrent + options_.max_pending) {
      c_rejected_->Increment();
      return Status::Unavailable(
          "admission queue full (" + std::to_string(in_flight_) +
          " in flight)");
    }
    if (!tokens_.emplace(request_id, token).second) {
      c_rejected_->Increment();
      return Status::InvalidArgument("duplicate in-flight request id");
    }
    ++in_flight_;
    c_admitted_->Increment();
  }
  if (deadline_seconds > 0) token->SetDeadlineAfter(deadline_seconds);
  // `queued` starts here; its reading when the worker dequeues the query is
  // the admission-wait span of the trace.
  Stopwatch queued;
  pool_.Submit([this, request_id, sql = std::move(sql), trace_id, queued,
                token, done = std::move(done)]() mutable {
    RunQuery(request_id, std::move(sql), trace_id, queued, std::move(token),
             std::move(done));
  });
  return Status::OK();
}

void QueryService::RunQuery(uint64_t request_id, std::string sql,
                            uint64_t trace_id, Stopwatch queued,
                            std::shared_ptr<CancelToken> token,
                            QueryDone done) {
  if (trace_id == 0) trace_id = obs::NextTraceId();
  const double wait_seconds = queued.ElapsedSeconds();
  Stopwatch wall;
  Result<query::QueryResult> result = [&]() -> Result<query::QueryResult> {
    DGF_ASSIGN_OR_RETURN(query::Query q, Parse(sql));
    return executor_->Execute(q, std::nullopt, token.get());
  }();
  const double exec_seconds = wall.ElapsedSeconds();
  if (result.ok()) {
    result->stats.trace_id = trace_id;
    result->stats.spans.insert(
        result->stats.spans.begin(),
        {{"admission_wait", 0.0, wait_seconds},
         {"execute", wait_seconds, exec_seconds}});
    trace_log_.Record({trace_id, sql, wait_seconds + exec_seconds,
                       result->stats.spans});
    c_served_->Increment();
    c_cache_hits_->Increment(result->stats.cache_hits);
    c_cache_misses_->Increment(result->stats.cache_misses);
    c_records_read_->Increment(result->stats.records_read);
  } else if (result.status().IsCancelled()) {
    c_cancelled_->Increment();
  } else if (result.status().IsDeadlineExceeded()) {
    c_deadline_exceeded_->Increment();
  } else {
    c_failed_->Increment();
  }
  // Served latency: admission wait through completion.
  latency_->Observe(queued.ElapsedSeconds());
  {
    std::lock_guard<std::mutex> lock(mu_);
    tokens_.erase(request_id);
    --in_flight_;
    if (in_flight_ == 0) drained_.notify_all();
  }
  done(std::move(result));
}

bool QueryService::CancelQuery(uint64_t request_id) {
  std::shared_ptr<CancelToken> token;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tokens_.find(request_id);
    if (it == tokens_.end()) return false;
    token = it->second;
  }
  token->Cancel();
  return true;
}

Result<uint64_t> QueryService::Append(const std::string& table,
                                      const std::vector<std::string>& rows) {
  auto it = catalog_.find(table);
  if (it == catalog_.end()) {
    return Status::NotFound("table not registered: " + table);
  }
  TableEntry& entry = it->second;
  if (entry.dgf == nullptr) {
    return Status::NotSupported("APPEND requires a DGF index on " + table);
  }

  // Double-buffered group commit. Join the open group, then either ride a
  // leader's flush (our group publishes while we wait) or become the leader
  // ourselves. A leader blocks the next leader only while *staging* its
  // group's batch table; the reorganize+publish step runs after the staging
  // flag clears, so group N+1 stages while group N publishes and group N+2
  // accumulates. K concurrent calls still cost one staging table, one
  // slice-file extension, and one atomic WriteBatch publish per flush — not
  // per call — but the stages now overlap instead of running end-to-end.
  std::shared_ptr<AppendGroup> group;
  int batch_id;
  {
    // Appends are admitted even while draining (they are the background
    // load the drain is waiting out queries against), but still count.
    std::unique_lock<std::mutex> lock(mu_);
    c_appends_->Increment();
    c_rows_appended_->Increment(rows.size());
    if (entry.open_group == nullptr) {
      entry.open_group = std::make_shared<AppendGroup>();
    }
    group = entry.open_group;
    group->rows.insert(group->rows.end(), rows.begin(), rows.end());
    // Leader admission: the pipeline is two deep — one batch between
    // staged and published, one batch staging. While it is full, arriving
    // calls accumulate in the open group instead of claiming batches of
    // their own; that backpressure is what makes groups form. A call may
    // lead only while its group is still the open one — once a leader
    // claims the group, the rest of its members wait for done (their rows
    // are the leader's cargo).
    append_cv_.wait(lock, [&] {
      return group->done ||
             (entry.open_group == group && !entry.staging &&
              entry.append_batches - entry.publish_turn < 2);
    });
    if (group->done) {
      // A leader flushed our group for us; its publish covered our rows.
      DGF_RETURN_IF_ERROR(group->status);
      return static_cast<uint64_t>(rows.size());
    }
    // No staging in progress and our group not yet taken: lead it. Closing
    // the group here (before dropping mu_) means rows arriving during our
    // flush start the next group instead of mutating the one being written.
    entry.open_group = nullptr;
    entry.staging = true;
    batch_id = entry.append_batches++;
  }

  // Stage 1 (overlaps the previous group's publish): write the batch table.
  Stopwatch staging_watch;
  table::TableDesc batch;
  Status flushed = StageAppendGroup(entry, batch_id, group->rows, &batch);
  g_append_staging_s_->Add(staging_watch.ElapsedSeconds());
  {
    std::lock_guard<std::mutex> lock(mu_);
    entry.staging = false;
  }
  // Staging is free again: wake the next group's leader so it stages while
  // we wait for our publish turn below.
  append_cv_.notify_all();

  if (flushed.ok()) {
    // Stage 2: batches enter the index strictly in leader order, so a
    // staged-early batch waits for its predecessor's publish.
    {
      std::unique_lock<std::mutex> lock(mu_);
      append_cv_.wait(lock, [&] { return entry.publish_turn == batch_id; });
    }
    Stopwatch reorg_watch;
    flushed = ReorganizeAppendBatch(entry, batch);
    g_append_reorg_s_->Add(reorg_watch.ElapsedSeconds());
  } else {
    // The turn must still be claimed, or every later batch deadlocks.
    std::unique_lock<std::mutex> lock(mu_);
    append_cv_.wait(lock, [&] { return entry.publish_turn == batch_id; });
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    group->done = true;
    group->status = flushed;
    entry.publish_turn = batch_id + 1;
    c_append_flushes_->Increment();
  }
  append_cv_.notify_all();
  DGF_RETURN_IF_ERROR(flushed);
  return static_cast<uint64_t>(rows.size());
}

Status QueryService::StageAppendGroup(const TableEntry& entry, int batch_id,
                                      const std::vector<std::string>& rows,
                                      table::TableDesc* batch) {
  DGF_CRASH_POINT("dgf.append.group.before_flush");
  // Stage the group as its own table (the paper's "verified temporary
  // files"). Batch directories are per-table sequential (batch_id was
  // claimed under mu_), so concurrent stagings never collide; no index
  // state is read or written here.
  *batch = table::TableDesc{
      entry.desc.name + "_append" + std::to_string(batch_id),
      entry.desc.schema, table::FileFormat::kText,
      entry.desc.dir + "_append" + std::to_string(batch_id)};
  DGF_ASSIGN_OR_RETURN(auto writer,
                       table::TableWriter::Create(options_.dfs, *batch));
  for (const std::string& line : rows) {
    DGF_ASSIGN_OR_RETURN(table::Row row,
                         table::ParseRowText(line, batch->schema));
    DGF_RETURN_IF_ERROR(writer->Append(row));
  }
  return writer->Close();
}

Status QueryService::ReorganizeAppendBatch(const TableEntry& entry,
                                           const table::TableDesc& batch) {
  exec::JobRunner::Options job;
  job.worker_threads = std::max(1, options_.query_worker_threads);
  // One slice file per flush: the whole group extends the index by a single
  // data-file write, whatever the group's size.
  job.num_reducers = 1;
  auto appended =
      core::DgfBuilder::Append(entry.dgf, batch, job, options_.split_size);
  if (appended.ok()) {
    // Surface the builder's per-stage timers (map/shuffle/publish/...) as
    // cumulative gauges, so a scrape shows where append time goes.
    for (const auto& [stage, seconds] : appended->stage_seconds.Sorted()) {
      metrics_->GetGauge("build." + stage + "_s")->Add(seconds);
    }
  }
  return appended.status();
}

std::vector<std::pair<std::string, double>> QueryService::StatsSnapshot()
    const {
  return metrics_->Snapshot();
}

void QueryService::BeginDrain() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = true;
}

void QueryService::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drained_.wait(lock, [this] { return in_flight_ == 0; });
}

}  // namespace dgf::server
