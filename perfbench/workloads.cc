// Load generation: closed-loop query clients, the open-loop appender, and
// the end-of-run append count check.

#include <chrono>
#include <mutex>
#include <thread>

#include "bench.h"
#include "common/stopwatch.h"
#include "server/client.h"
#include "server/wire.h"
#include "testing/differential.h"
#include "testing/shard_sweep.h"

namespace dgf::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Fills the hop fields of `sample` from the response's spans. Shard spans
/// arrive prefixed `shard<N>.`; only a shard's own top-level spans count.
void ReadSpans(const query::QueryStats& stats, WireSample* sample) {
  struct Hop {
    double rpc = -1, admission = 0, execute = 0;
  };
  std::vector<Hop> hops;
  bool has_execute = false;
  for (const obs::SpanTiming& span : stats.spans) {
    const double ms = span.duration_seconds * 1000.0;
    if (span.name == "admission_wait") {
      sample->admission_ms = ms;
    } else if (span.name == "execute") {
      sample->service_ms = ms;
      has_execute = true;
    } else if (span.name == "merge") {
      sample->merge_ms = ms;
    } else if (span.name.rfind("shard", 0) == 0) {
      const size_t dot = span.name.find('.');
      if (dot == std::string::npos || dot == 5) continue;
      const std::string rest = span.name.substr(dot + 1);
      const size_t shard = std::stoul(span.name.substr(5, dot - 5));
      if (shard >= hops.size()) hops.resize(shard + 1);
      if (rest == "rpc") hops[shard].rpc = ms;
      if (rest == "admission_wait") hops[shard].admission = ms;
      if (rest == "execute") hops[shard].execute = ms;
    }
  }
  // A coordinator reports no execute span of its own: its service time is
  // the scatter-gather wall.
  if (!has_execute) sample->service_ms = stats.wall_seconds * 1000.0;
  for (const Hop& hop : hops) {
    if (hop.rpc < 0) continue;  // shard skipped by the shard map
    sample->rpc_ms.push_back(hop.rpc);
    sample->shard_admission_ms.push_back(hop.admission);
    sample->shard_gap_ms.push_back(hop.rpc - hop.admission - hop.execute);
  }
}

/// Text rows of one new-day append batch, spread across the user range.
std::vector<std::string> AppendRows(const workload::MeterConfig& config,
                                    int64_t day, int rows) {
  std::vector<std::string> lines;
  lines.reserve(static_cast<size_t>(rows));
  const int64_t stride = std::max<int64_t>(1, config.num_users / rows);
  for (int i = 0; i < rows; ++i) {
    const int64_t user = (i * stride) % config.num_users;
    table::Row row = {table::Value::Int64(user),
                      table::Value::Int64(workload::RegionOfUser(config, user)),
                      table::Value::Date(day),
                      table::Value::Double(1.0 + 0.125 * i)};
    for (int extra = 0; extra < config.extra_metrics; ++extra) {
      row.push_back(table::Value::Double(0.25 * extra));
    }
    lines.push_back(table::FormatRowText(row));
  }
  return lines;
}

uint64_t DfsBytesWritten(const World& world) {
  uint64_t total = 0;
  for (const auto& node : world.nodes) total += node->dfs->TotalBytesWritten();
  return total;
}

}  // namespace

/// Runs `batches` append batches on the workload's fixed schedule (batch k
/// is due at k * period). A lane that is behind sends at once: latency runs
/// from the due time, so a stall also charges the batches queued behind it.
AppendRun RunAppends(World& world, int batches, bool probe) {
  const Spec& spec = *world.spec;
  const int lanes_total = spec.append_lanes;
  const int64_t first_day = world.next_append_day;
  world.next_append_day += batches;
  Node& target = world.append_node();
  AppendRun run;
  std::mutex mu;
  const uint64_t written_before = DfsBytesWritten(world);
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> lanes;
  for (int lane = 0; lane < lanes_total; ++lane) {
    lanes.emplace_back([&, lane] {
      AppendRun local;
      std::unique_ptr<server::ServerClient> client;
      if (spec.concurrent_appends) {
        auto connected = server::ServerClient::ConnectTcp("127.0.0.1",
                                                          world.port());
        if (!connected.ok()) {
          local.first_error = connected.status().ToString();
        } else {
          client = std::move(*connected);
        }
      }
      for (int k = lane; k < batches; k += lanes_total) {
        const std::vector<std::string> rows =
            AppendRows(world.config, first_day + k, spec.append_rows);
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(k * spec.append_period_s));
        std::this_thread::sleep_until(due);
        const Clock::time_point sent = Clock::now();
        ++local.attempted;
        Status status;
        if (spec.concurrent_appends) {
          if (client == nullptr) {
            status = Status::Unavailable("no appender connection");
          } else {
            auto response = client->Append("meterdata", rows);
            status = !response.ok() ? response.status()
                                    : server::ResponseStatus(*response);
          }
        } else {
          status = target.service->Append("meterdata", rows).status();
        }
        const Clock::time_point acked = Clock::now();
        if (!status.ok()) {
          ++local.failed;
          if (local.first_error.empty()) local.first_error = status.ToString();
          continue;
        }
        local.latency_ms.push_back(MsBetween(due, acked));
        local.lateness_ms.push_back(MsBetween(due, sent));
        local.rows_acked += rows.size();
        for (const std::string& line : rows) local.text_bytes += line.size() + 1;
        if (probe) {
          Stopwatch snapshot_watch;
          auto snapshot = target.store->GetSnapshot();
          local.snapshot_us.push_back(snapshot_watch.ElapsedSeconds() * 1e6);
          Stopwatch pin_watch;
          auto pinned = target.dgf->Pin();
          local.pin_us.push_back(pin_watch.ElapsedSeconds() * 1e6);
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      auto append = [](std::vector<double>& to, const std::vector<double>& from) {
        to.insert(to.end(), from.begin(), from.end());
      };
      append(run.latency_ms, local.latency_ms);
      append(run.lateness_ms, local.lateness_ms);
      append(run.pin_us, local.pin_us);
      append(run.snapshot_us, local.snapshot_us);
      run.attempted += local.attempted;
      run.failed += local.failed;
      run.rows_acked += local.rows_acked;
      run.text_bytes += local.text_bytes;
      if (run.first_error.empty()) run.first_error = local.first_error;
    });
  }
  for (std::thread& lane : lanes) lane.join();
  run.dfs_bytes_written = DfsBytesWritten(world) - written_before;
  return run;
}

Result<query::QueryResult> WireQuery(server::ServerClient* client,
                                     const std::string& sql,
                                     WireSample* sample) {
  const Clock::time_point start = Clock::now();
  auto response = client->Query(sql);
  const double rtt_ms = MsBetween(start, Clock::now());
  if (!response.ok()) return response.status();
  if (!response->ok()) return server::ResponseStatus(*response);
  if (sample != nullptr) {
    sample->rtt_ms = rtt_ms;
    ReadSpans(response->result.stats, sample);
    Stopwatch codec_watch;
    const std::string body = server::EncodeResponse(*response);
    auto decoded = server::DecodeResponse(body);
    sample->codec_us = codec_watch.ElapsedSeconds() * 1e6;
    sample->response_bytes = static_cast<double>(body.size());
    if (!decoded.ok()) return decoded.status();
  }
  return testing::ResultFromPayload(response->result);
}

Result<query::QueryResult> RunOnPath(const World& world, const query::Query& q) {
  if (!world.spec->wire) {
    return world.nodes.front()->service->executor()->Execute(q);
  }
  DGF_ASSIGN_OR_RETURN(auto client,
                       server::ServerClient::ConnectTcp("127.0.0.1", world.port()));
  return WireQuery(client.get(), q.ToSql(), nullptr);
}

QueryWindow RunQueries(World& world, double seconds, bool traced, int appends,
                       bool probe_appends, AppendRun* append_out) {
  const Spec& spec = *world.spec;
  const size_t pool = world.cases.size();
  QueryWindow window;
  std::mutex mu;
  std::thread appender;
  if (appends > 0) {
    appender = std::thread([&] {
      *append_out = RunAppends(world, appends, probe_appends);
    });
  }
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (int c = 0; c < spec.clients; ++c) {
    clients.emplace_back([&, c] {
      QueryWindow local;
      std::unique_ptr<server::ServerClient> client;
      if (spec.wire) {
        auto connected =
            server::ServerClient::ConnectTcp("127.0.0.1", world.port());
        if (!connected.ok()) {
          ++local.attempted;
          ++local.failed;
          local.first_error = connected.status().ToString();
        } else {
          client = std::move(*connected);
        }
      }
      // Clients start at evenly spaced offsets of the pool and walk it in
      // order, so every run replays the same sequence for a seed.
      const size_t offset = pool * static_cast<size_t>(c) /
                            static_cast<size_t>(spec.clients);
      for (size_t i = 0; (client != nullptr || !spec.wire) &&
                         Clock::now() < deadline;
           ++i) {
        const size_t index = (offset + i) % pool;
        const Case& item = world.cases[index];
        ++local.attempted;
        WireSample sample;
        const Clock::time_point sent = Clock::now();
        Result<query::QueryResult> got =
            spec.wire ? WireQuery(client.get(), item.sql,
                                  traced ? &sample : nullptr)
                      : world.nodes.front()->service->executor()->Execute(
                            item.query);
        const double ms = MsBetween(sent, Clock::now());
        std::string error;
        if (!got.ok()) {
          error = got.status().ToString();
        } else {
          const std::string diff =
              testing::DescribeResultMismatch(item.expected, *got);
          if (!diff.empty()) error = "wrong answer: " + diff;
        }
        if (!error.empty()) {
          ++local.failed;
          if (local.first_error.empty()) local.first_error = item.sql + ": " + error;
          continue;
        }
        local.latency_ms.push_back(ms);
        local.case_of_sample.push_back(index);
        local.latency_by_label[item.label].push_back(ms);
        if (traced && spec.wire) local.wire.push_back(std::move(sample));
      }
      std::lock_guard<std::mutex> lock(mu);
      window.latency_ms.insert(window.latency_ms.end(), local.latency_ms.begin(),
                               local.latency_ms.end());
      window.case_of_sample.insert(window.case_of_sample.end(),
                                   local.case_of_sample.begin(),
                                   local.case_of_sample.end());
      window.wire.insert(window.wire.end(), local.wire.begin(), local.wire.end());
      for (const auto& [label, samples] : local.latency_by_label) {
        std::vector<double>& to = window.latency_by_label[label];
        to.insert(to.end(), samples.begin(), samples.end());
      }
      window.attempted += local.attempted;
      window.failed += local.failed;
      if (window.first_error.empty()) window.first_error = local.first_error;
    });
  }
  for (std::thread& client : clients) client.join();
  window.elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (appender.joinable()) appender.join();
  return window;
}

std::string CheckAppendedCount(World& world, uint64_t rows_acked) {
  query::Query q;
  q.table = "meterdata";
  auto count = core::AggSpec::Parse("count(*)");
  if (!count.ok()) return count.status().ToString();
  q.select.push_back(query::SelectItem::Aggregation(*count));
  q.where.And(query::ColumnRange::Between(
      "time", table::Value::Date(world.first_append_day), true,
      table::Value::Date(world.next_append_day), false));
  auto got = RunOnPath(world, q);
  if (!got.ok()) return "count query failed: " + got.status().ToString();
  const double counted =
      got->rows.empty() || got->rows[0].empty() ? 0 : got->rows[0][0].AsDouble();
  if (counted != static_cast<double>(rows_acked)) {
    return "count(*) over appended days is " + std::to_string(counted) +
           ", acknowledged rows " + std::to_string(rows_acked);
  }
  return std::string();
}

std::vector<std::string> LsmRunFiles(const World& world) {
  std::vector<std::string> names;
  for (size_t i = 0; i < world.nodes.size(); ++i) {
    for (const fs::FileStatus& file : world.nodes[i]->dfs->ListFiles("/kv/run-")) {
      names.push_back(std::to_string(i) + ":" + file.path);
    }
  }
  return names;
}

}  // namespace dgf::perfbench
