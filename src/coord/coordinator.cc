#include "coord/coordinator.h"

#include <algorithm>

#include "common/stopwatch.h"
#include "query/parser.h"
#include "server/query_service.h"

namespace dgf::coord {
namespace {

using server::Response;
using server::ServerClient;

/// How the merged result is assembled from shard-level rows.
///
/// The shard query equals the original except every avg(c) is replaced by
/// sum(c), with one shared count(*) appended to the select — partial avgs do
/// not merge, partial sums and counts do.
///
/// Shard row layout mirrors the executor's output modes exactly:
///  - GROUP BY: [group value, aggregations in select order] — the group
///    column leads regardless of its select position;
///  - aggregation, no GROUP BY: [aggregations in select order] only;
///  - projection/join: select order.
struct MergePlan {
  query::Query shard_query;
  /// Group-merge (group-by or aggregation) vs sorted row merge (projection).
  bool group_merge = false;
  /// Shard-row slots forming the group key (the leading group value, if
  /// any); empty key = plain aggregation = a single global group.
  std::vector<size_t> key_slots;
  /// One per merged output column, in the oracle's output order.
  struct Item {
    bool is_agg = false;
    bool is_avg = false;
    core::AggFunc func = core::AggFunc::kCount;
    /// Spec of the *original* aggregation (names the merged output column).
    core::AggSpec spec;
    /// Shard-row slot (for avg: the rewritten sum's slot).
    size_t slot = 0;
  };
  std::vector<Item> items;
  /// Shard-row slot of the shared count(*) for avg; unused when no avg.
  size_t count_slot = 0;
};

MergePlan PlanMerge(const query::Query& q) {
  MergePlan plan;
  plan.shard_query = q;
  bool has_aggs = false;
  bool any_avg = false;
  for (const query::SelectItem& item : q.select) {
    if (!item.is_aggregation()) continue;
    has_aggs = true;
    if (item.agg->func == core::AggFunc::kAvg) any_avg = true;
  }
  plan.group_merge = has_aggs || q.group_by.has_value();
  if (!plan.group_merge) return plan;

  // Rewrite avgs in place; select positions are otherwise preserved, so the
  // shard-side Aggregations() order equals the original's.
  for (query::SelectItem& item : plan.shard_query.select) {
    if (item.is_aggregation() && item.agg->func == core::AggFunc::kAvg) {
      item.agg->func = core::AggFunc::kSum;
    }
  }

  const size_t base = q.group_by.has_value() ? 1 : 0;
  if (q.group_by.has_value()) plan.key_slots.push_back(0);

  size_t agg_index = 0;
  if (q.group_by.has_value()) {
    MergePlan::Item group;
    group.slot = 0;
    plan.items.push_back(group);
  }
  for (const query::SelectItem& item : q.select) {
    if (!item.is_aggregation()) continue;
    MergePlan::Item out;
    out.is_agg = true;
    out.func = item.agg->func;
    out.spec = *item.agg;
    out.is_avg = item.agg->func == core::AggFunc::kAvg;
    out.slot = base + agg_index++;
    plan.items.push_back(out);
  }
  if (any_avg) {
    plan.count_slot = base + agg_index;
    plan.shard_query.select.push_back(query::SelectItem::Aggregation(
        core::AggSpec{core::AggFunc::kCount, "", ""}));
  }
  return plan;
}

/// Lexicographic canonical row order (same key DescribeResultMismatch sorts
/// by): deterministic output independent of shard arrival order.
bool RowLess(const table::Row& x, const table::Row& y) {
  const size_t n = std::min(x.size(), y.size());
  for (size_t i = 0; i < n; ++i) {
    const int c = x[i].Compare(y[i]);
    if (c != 0) return c < 0;
  }
  return x.size() < y.size();
}

/// Folds one shard's aggregate cell into the accumulator cell — the same
/// additive merge the GFU headers use, over final result values. Counts stay
/// int64; sums/min/max are doubles (AggResultValue's output types).
table::Value FoldCell(core::AggFunc func, const table::Value& acc,
                      const table::Value& next) {
  switch (func) {
    case core::AggFunc::kCount:
      return table::Value::Int64(acc.int64() + next.int64());
    case core::AggFunc::kSum:
    case core::AggFunc::kSumProduct:
    case core::AggFunc::kAvg:  // shard slot holds the rewritten partial sum
      return table::Value::Double(acc.AsDouble() + next.AsDouble());
    case core::AggFunc::kMin:
      return next.Compare(acc) < 0 ? next : acc;
    case core::AggFunc::kMax:
      return next.Compare(acc) > 0 ? next : acc;
  }
  return acc;
}

Result<std::vector<table::Row>> ParseShardRows(
    const server::QueryResultPayload& payload) {
  std::vector<table::Row> rows;
  rows.reserve(payload.rows.size());
  for (const std::string& line : payload.rows) {
    DGF_ASSIGN_OR_RETURN(table::Row row,
                         table::ParseRowText(line, payload.schema));
    rows.push_back(std::move(row));
  }
  return rows;
}

void FoldStats(query::QueryStats* into, const query::QueryStats& part) {
  into->records_read += part.records_read;
  into->records_matched += part.records_matched;
  into->bytes_read += part.bytes_read;
  into->splits_scanned += part.splits_scanned;
  into->kv_gets += part.kv_gets;
  into->cache_hits += part.cache_hits;
  into->cache_misses += part.cache_misses;
  into->index_seconds += part.index_seconds;
  into->data_seconds += part.data_seconds;
  into->total_seconds += part.total_seconds;
}

}  // namespace

Coordinator::Coordinator(Options options)
    : options_(std::move(options)),
      pool_(std::max(1, options_.max_concurrent)),
      free_(std::max<size_t>(1, options_.shards.size())) {
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
  c_subqueries_ = metrics_->GetCounter("coord.subqueries");
  c_shards_skipped_ = metrics_->GetCounter("coord.shards_skipped");
  c_shard_errors_ = metrics_->GetCounter("coord.shard_errors");
  c_appends_ = metrics_->GetCounter("appends.batches");
  c_rows_appended_ = metrics_->GetCounter("appends.rows");
  c_append_shard_batches_ = metrics_->GetCounter("appends.shard_batches");
  latency_ = metrics_->GetHistogram("latency");
  metrics_->GetGauge("coord.shards")
      ->Set(static_cast<double>(options_.shard_map.num_shards()));
  metrics_->SetCallback("queries.in_flight", [this] {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<double>(in_flight_);
  });
}

Coordinator::~Coordinator() {
  BeginDrain();
  Drain();
}

void Coordinator::RegisterTable(const table::TableDesc& desc) {
  catalog_[desc.name] = desc;
}

Result<query::Query> Coordinator::Parse(const std::string& sql) const {
  const std::string from = server::TableAfterKeyword(sql, "from");
  if (from.empty()) return Status::InvalidArgument("no FROM table in: " + sql);
  auto it = catalog_.find(from);
  if (it == catalog_.end()) {
    return Status::NotFound("table not registered: " + from);
  }
  const table::Schema* right = nullptr;
  const std::string join = server::TableAfterKeyword(sql, "join");
  if (!join.empty()) {
    auto jt = catalog_.find(join);
    if (jt == catalog_.end()) {
      return Status::NotFound("join table not registered: " + join);
    }
    right = &jt->second.schema;
  }
  return query::ParseQuery(sql, it->second.schema, right);
}

Result<std::unique_ptr<ServerClient>> Coordinator::Checkout(int shard) {
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    auto& idle = free_[static_cast<size_t>(shard)];
    if (!idle.empty()) {
      auto client = std::move(idle.back());
      idle.pop_back();
      return client;
    }
  }
  const ShardEndpoint& endpoint = options_.shards[static_cast<size_t>(shard)];
  Result<std::unique_ptr<ServerClient>> client =
      endpoint.unix_path.empty()
          ? ServerClient::ConnectTcp(endpoint.host, endpoint.port,
                                     options_.connect_timeout_seconds)
          : ServerClient::ConnectUnix(endpoint.unix_path);
  if (!client.ok()) return client;
  // A shard that accepts the connection but then stalls mid-frame must not
  // wedge a fan-out thread forever.
  DGF_RETURN_IF_ERROR((*client)->SetRecvTimeout(
      std::max(1.0, options_.shard_response_timeout_seconds)));
  return client;
}

void Coordinator::Checkin(int shard, std::unique_ptr<ServerClient> client) {
  std::lock_guard<std::mutex> lock(pool_mu_);
  free_[static_cast<size_t>(shard)].push_back(std::move(client));
}

Status Coordinator::SubmitQuery(uint64_t request_id, std::string sql,
                                double deadline_seconds, uint64_t trace_id,
                                server::WireService::QueryDone done) {
  auto token = std::make_shared<CancelToken>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) {
      c_rejected_->Increment();
      return Status::Unavailable("coordinator is draining");
    }
    if (in_flight_ >= options_.max_concurrent + options_.max_pending) {
      c_rejected_->Increment();
      return Status::Unavailable("admission queue full (" +
                                 std::to_string(in_flight_) + " in flight)");
    }
    if (!tokens_.emplace(request_id, token).second) {
      c_rejected_->Increment();
      return Status::InvalidArgument("duplicate in-flight request id");
    }
    ++in_flight_;
    c_admitted_->Increment();
  }
  if (deadline_seconds > 0) token->SetDeadlineAfter(deadline_seconds);
  Stopwatch queued;
  pool_.Submit([this, request_id, sql = std::move(sql), deadline_seconds,
                trace_id, queued, token, done = std::move(done)]() mutable {
    RunQuery(request_id, std::move(sql), deadline_seconds, trace_id, queued,
             std::move(token), std::move(done));
  });
  return Status::OK();
}

void Coordinator::RunQuery(uint64_t request_id, std::string sql,
                           double deadline_seconds, uint64_t trace_id,
                           Stopwatch queued,
                           std::shared_ptr<CancelToken> token,
                           server::WireService::QueryDone done) {
  if (trace_id == 0) trace_id = obs::NextTraceId();
  const double wait_seconds = queued.ElapsedSeconds();
  Stopwatch wall;
  Result<query::QueryResult> result = [&]() -> Result<query::QueryResult> {
    DGF_ASSIGN_OR_RETURN(query::Query q, Parse(sql));
    return ExecuteScatterGather(q, deadline_seconds, trace_id, token.get());
  }();
  if (result.ok()) {
    result->stats.wall_seconds = wall.ElapsedSeconds();
    result->stats.trace_id = trace_id;
    // The scatter-gather spans are offsets on its own clock, which started
    // after the admission wait; rebase onto the query's start.
    for (obs::SpanTiming& span : result->stats.spans) {
      span.start_seconds += wait_seconds;
    }
    result->stats.spans.insert(result->stats.spans.begin(),
                               {"admission_wait", 0.0, wait_seconds});
    trace_log_.Record({trace_id, sql,
                       wait_seconds + result->stats.wall_seconds,
                       result->stats.spans});
    c_served_->Increment();
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

void Coordinator::FanOutCancel(std::vector<ShardCall>& calls) {
  for (ShardCall& call : calls) {
    if (call.done || call.broken || call.cancel_sent) continue;
    call.cancel_sent = true;
    // A CANCEL leaves its own ack in flight on the connection, so the
    // connection is retired after this query either way; failure to send
    // just means the shard finishes on its own.
    if (!call.client->StartCancel(call.request_id).ok()) call.broken = true;
  }
}

Result<query::QueryResult> Coordinator::ExecuteScatterGather(
    const query::Query& q, double deadline_seconds, uint64_t trace_id,
    CancelToken* token) {
  const int num_shards = options_.shard_map.num_shards();
  if (options_.shards.size() != static_cast<size_t>(num_shards)) {
    return Status::InvalidArgument(
        "shard map has " + std::to_string(num_shards) + " shards but " +
        std::to_string(options_.shards.size()) + " endpoints configured");
  }

  const MergePlan plan = PlanMerge(q);

  // Decompose the query box into per-shard sub-boxes. A shard whose band
  // cannot intersect the box is skipped. When *no* shard intersects (the
  // query's own range is empty), shard 0 serves the full query: its answer —
  // zero rows, or identity aggregates — is already the global answer.
  std::vector<std::pair<int, std::string>> targets;
  for (int shard = 0; shard < num_shards; ++shard) {
    std::optional<query::Query> sub =
        options_.shard_map.Restrict(plan.shard_query, shard);
    if (!sub) continue;
    targets.emplace_back(shard, sub->ToSql());
  }
  if (targets.empty()) targets.emplace_back(0, plan.shard_query.ToSql());

  c_subqueries_->Increment(targets.size());
  c_shards_skipped_->Increment(static_cast<uint64_t>(num_shards) -
                               targets.size());

  // Scatter: start every sub-query before awaiting any, so shard-side
  // execution overlaps; each call owns its connection (ServerClient is
  // single-threaded, and one in-flight query per connection keeps CANCEL
  // routing trivial).
  Stopwatch elapsed;
  std::vector<ShardCall> calls;
  calls.reserve(targets.size());
  Status failure;
  for (const auto& [shard, sub_sql] : targets) {
    ShardCall call;
    call.shard = shard;
    auto client = Checkout(shard);
    if (!client.ok()) {
      failure = Status::Unavailable(
          "shard " + std::to_string(shard) + " (" +
          options_.shards[static_cast<size_t>(shard)].ToString() +
          ") unavailable: " + client.status().message());
      break;
    }
    call.client = std::move(*client);
    const double remaining =
        deadline_seconds > 0
            ? std::max(0.001, deadline_seconds - elapsed.ElapsedSeconds())
            : 0;
    call.dispatch_seconds = elapsed.ElapsedSeconds();
    auto started = call.client->StartQuery(sub_sql, remaining, trace_id);
    if (!started.ok()) {
      failure = Status::Unavailable(
          "shard " + std::to_string(shard) + " (" +
          options_.shards[static_cast<size_t>(shard)].ToString() +
          ") unavailable: " + started.status().message());
      break;
    }
    call.request_id = *started;
    calls.push_back(std::move(call));
  }

  // Gather: await each pending call in short slices, checking our own token
  // between slices. The first failure (transport error, shard timeout, or
  // our own cancel/deadline) fans a CANCEL out to every other shard and
  // wins; stragglers' connections are simply not pooled again.
  bool token_tripped = false;
  Stopwatch cancel_wait;
  for (size_t i = 0; failure.ok() && i < calls.size(); ++i) {
    ShardCall& call = calls[i];
    Stopwatch silent;
    while (!call.done) {
      auto got =
          call.client->AwaitFor(call.request_id,
                                options_.poll_interval_seconds);
      if (!got.ok()) {
        call.broken = true;
        failure = Status::Unavailable(
            "shard " + std::to_string(call.shard) + " (" +
            options_.shards[static_cast<size_t>(call.shard)].ToString() +
            ") died mid-query: " + got.status().message());
        break;
      }
      if (got->has_value()) {
        call.response = std::move(**got);
        call.response_seconds = elapsed.ElapsedSeconds();
        call.done = true;
        break;
      }
      if (!token_tripped && !token->Check().ok()) {
        // Our own cancel or deadline: tell every shard to stop, then keep
        // draining so the failure we report is the token's, not a fake
        // shard timeout.
        token_tripped = true;
        cancel_wait.Restart();
        FanOutCancel(calls);
      }
      if (call.broken) {
        // FanOutCancel could not reach this shard; stop waiting on it.
        failure = token->Check();
        break;
      }
      const double silent_for =
          token_tripped ? cancel_wait.ElapsedSeconds() : silent.ElapsedSeconds();
      if (silent_for > options_.shard_response_timeout_seconds) {
        call.broken = true;
        failure =
            token_tripped
                ? token->Check()
                : Status::Unavailable(
                      "shard " + std::to_string(call.shard) + " (" +
                      options_.shards[static_cast<size_t>(call.shard)]
                          .ToString() +
                      ") unresponsive after " +
                      std::to_string(
                          options_.shard_response_timeout_seconds) +
                      "s");
        break;
      }
    }
  }

  if (failure.ok() && !token->Check().ok()) {
    // Token tripped after the last response arrived: still honor it.
    failure = token->Check();
  }

  if (!failure.ok()) {
    FanOutCancel(calls);
    c_shard_errors_->Increment();
  } else {
    // All shards answered. A non-OK shard response propagates as-is (it is
    // already a structured error; Cancelled/DeadlineExceeded from a shard's
    // own deadline included).
    for (ShardCall& call : calls) {
      if (call.response.ok()) continue;
      failure = server::ResponseStatus(call.response);
      break;
    }
  }

  // Connections with no leftover in-flight traffic go back to the pool.
  for (ShardCall& call : calls) {
    if (call.done && !call.broken && !call.cancel_sent) {
      Checkin(call.shard, std::move(call.client));
    }
  }
  DGF_RETURN_IF_ERROR(failure);

  // Merge. Shard schemas must agree (same catalog everywhere).
  const table::Schema& schema = calls.front().response.result.schema;
  for (const ShardCall& call : calls) {
    if (call.response.result.schema.num_fields() != schema.num_fields()) {
      return Status::Internal("shard result schemas disagree");
    }
  }

  query::QueryResult merged;
  merged.stats = calls.front().response.result.stats;
  for (size_t i = 1; i < calls.size(); ++i) {
    FoldStats(&merged.stats, calls[i].response.result.stats);
  }

  // Rebuild the trace from scratch (the first shard's spans rode along in
  // the stats copy above): one RPC span per shard call, then each shard's
  // own spans prefixed `shard<N>.` and rebased onto its dispatch offset, so
  // the cross-shard timeline reads in coordinator time.
  merged.stats.spans.clear();
  for (const ShardCall& call : calls) {
    const std::string prefix = "shard" + std::to_string(call.shard) + ".";
    merged.stats.spans.push_back(
        {prefix + "rpc", call.dispatch_seconds,
         std::max(0.0, call.response_seconds - call.dispatch_seconds)});
    for (const obs::SpanTiming& span : call.response.result.stats.spans) {
      merged.stats.spans.push_back(
          {prefix + span.name, call.dispatch_seconds + span.start_seconds,
           span.duration_seconds});
    }
  }
  const double merge_start = elapsed.ElapsedSeconds();
  Stopwatch merge_watch;

  if (!plan.group_merge) {
    // Sorted row merge: shard row sets are disjoint, so the union is exact.
    merged.schema = schema;
    for (ShardCall& call : calls) {
      DGF_ASSIGN_OR_RETURN(std::vector<table::Row> rows,
                           ParseShardRows(call.response.result));
      merged.rows.insert(merged.rows.end(),
                         std::make_move_iterator(rows.begin()),
                         std::make_move_iterator(rows.end()));
    }
    std::sort(merged.rows.begin(), merged.rows.end(), RowLess);
    merged.stats.spans.push_back(
        {"merge", merge_start, merge_watch.ElapsedSeconds()});
    return merged;
  }

  // Group-merge (a plain aggregation is the empty-key case: every shard
  // returns exactly one row and all fold into one group). Keyed by the
  // leading group value; aggregate slots fold additively — the rewritten avg
  // slots as sums, the shared count(*) once per incoming row.
  const bool any_avg = std::any_of(
      plan.items.begin(), plan.items.end(),
      [](const MergePlan::Item& item) { return item.is_avg; });
  std::map<std::string, table::Row> groups;
  for (ShardCall& call : calls) {
    DGF_ASSIGN_OR_RETURN(std::vector<table::Row> rows,
                         ParseShardRows(call.response.result));
    for (table::Row& row : rows) {
      std::string key;
      for (size_t slot : plan.key_slots) {
        key += row[slot].ToText();
        key.push_back('\x1f');
      }
      auto [it, inserted] = groups.emplace(std::move(key), std::move(row));
      if (inserted) continue;
      table::Row& acc = it->second;
      for (const MergePlan::Item& item : plan.items) {
        if (!item.is_agg) continue;
        acc[item.slot] = FoldCell(item.func, acc[item.slot], row[item.slot]);
      }
      if (any_avg) {
        acc[plan.count_slot] = FoldCell(core::AggFunc::kCount,
                                        acc[plan.count_slot],
                                        row[plan.count_slot]);
      }
    }
  }

  // Project back to the oracle's output layout — [group column,] one column
  // per requested aggregation, named by the *original* spec (so a rewritten
  // avg reads "avg(col)", not "sum(col)") — dividing out rewritten avgs.
  std::vector<table::Field> fields;
  for (const MergePlan::Item& item : plan.items) {
    if (!item.is_agg) {
      fields.push_back(schema.fields()[item.slot]);
    } else {
      fields.push_back({item.spec.ToString(),
                        item.func == core::AggFunc::kCount
                            ? table::DataType::kInt64
                            : table::DataType::kDouble});
    }
  }
  merged.schema = table::Schema(std::move(fields));
  for (auto& [key, row] : groups) {
    table::Row out;
    out.reserve(plan.items.size());
    for (const MergePlan::Item& item : plan.items) {
      if (item.is_avg) {
        const double count = row[plan.count_slot].AsDouble();
        out.push_back(table::Value::Double(
            count > 0 ? row[item.slot].AsDouble() / count : 0.0));
      } else {
        out.push_back(row[item.slot]);
      }
    }
    merged.rows.push_back(std::move(out));
  }
  std::sort(merged.rows.begin(), merged.rows.end(), RowLess);
  merged.stats.spans.push_back(
      {"merge", merge_start, merge_watch.ElapsedSeconds()});
  return merged;
}

bool Coordinator::CancelQuery(uint64_t request_id) {
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

Result<uint64_t> Coordinator::Append(const std::string& table,
                                     const std::vector<std::string>& rows) {
  auto it = catalog_.find(table);
  if (it == catalog_.end()) {
    return Status::NotFound("table not registered: " + table);
  }
  const table::Schema& schema = it->second.schema;
  int part_col = -1;
  for (int i = 0; i < schema.num_fields(); ++i) {
    if (table::ColumnNameEquals(schema.fields()[static_cast<size_t>(i)].name,
                                options_.shard_map.column())) {
      part_col = i;
      break;
    }
  }
  if (part_col < 0) {
    return Status::InvalidArgument("table " + table +
                                   " has no partition column " +
                                   options_.shard_map.column());
  }

  // Route each row by its partition-dimension value. One bucket per shard;
  // each non-empty bucket becomes exactly one APPEND to its shard, riding
  // that shard's group-commit pipeline, so a shard's slice of this call
  // publishes atomically.
  std::vector<std::vector<std::string>> buckets(
      static_cast<size_t>(options_.shard_map.num_shards()));
  for (const std::string& line : rows) {
    DGF_ASSIGN_OR_RETURN(table::Row row, table::ParseRowText(line, schema));
    const table::Value& v = row[static_cast<size_t>(part_col)];
    const int64_t key = (v.is_int64() || v.is_date())
                            ? v.int64()
                            : static_cast<int64_t>(v.AsDouble());
    buckets[static_cast<size_t>(options_.shard_map.ShardForValue(key))]
        .push_back(line);
  }

  // Fan out on the process pool so the shards' group-commit pipelines
  // overlap (they are independent machines); a one-shard append runs inline.
  std::vector<size_t> targets;
  for (size_t shard = 0; shard < buckets.size(); ++shard) {
    if (!buckets[shard].empty()) targets.push_back(shard);
  }
  std::vector<Status> statuses(targets.size());
  ParallelFor(targets.size(), static_cast<int>(targets.size()), [&](size_t t) {
    statuses[t] = AppendToShard(static_cast<int>(targets[t]), table,
                                buckets[targets[t]]);
  });
  Status failure;
  uint64_t appended = 0;
  for (size_t t = 0; t < targets.size(); ++t) {
    if (statuses[t].ok()) {
      appended += buckets[targets[t]].size();
    } else if (failure.ok()) {
      failure = statuses[t];
    }
  }

  c_appends_->Increment();
  c_rows_appended_->Increment(rows.size());
  c_append_shard_batches_->Increment(targets.size());
  // Partial failure is reported, never hidden: some shards may have
  // published their slice (each atomically); the caller knows the batch as
  // a whole did not commit and can retry — re-appending is the documented
  // at-least-once contract, same as a retried single-node APPEND.
  DGF_RETURN_IF_ERROR(failure);
  return appended;
}

Status Coordinator::AppendToShard(int shard, const std::string& table,
                                  const std::vector<std::string>& rows) {
  const std::string name =
      "shard " + std::to_string(shard) + " (" +
      options_.shards[static_cast<size_t>(shard)].ToString() + ")";
  auto client = Checkout(shard);
  if (!client.ok()) {
    return Status::Unavailable(name + " unavailable: " +
                               client.status().message());
  }
  auto response = (*client)->Append(table, rows);
  if (!response.ok()) {
    return Status::Unavailable(name + " died mid-append: " +
                               response.status().message());
  }
  DGF_RETURN_IF_ERROR(server::ResponseStatus(*response));
  Checkin(shard, std::move(*client));
  return Status::OK();
}

std::vector<std::pair<std::string, double>> Coordinator::StatsSnapshot()
    const {
  return metrics_->Snapshot();
}

void Coordinator::BeginDrain() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = true;
}

void Coordinator::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drained_.wait(lock, [this] { return in_flight_ == 0; });
}

}  // namespace dgf::coord
