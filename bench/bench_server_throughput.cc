// Client load harness for the query service: N client threads replay the
// paper's meter-query templates (Listings 4-7 at the evaluated
// selectivities) against an in-process dgf_serverd-style world over real
// sockets, optionally while an appender lands new day batches. Emits one
// JSON report with throughput and per-percentile latency.
//
//   bench_server_throughput [--threads=8] [--queries=40] [--appender]
//                           [--users=200] [--days=5] [--regions=5]
//                           [--max-concurrent=4] [--max-pending=32]
//                           [--shards=N] [--replication=k] [--http-port=P]
//
// --http-port=P (0 = ephemeral) starts the HTTP observability exporter on
// the serving process and a poller thread that hammers /metrics and
// /healthz throughout the load window; every probe must succeed — an
// exporter that blocks or errors under full query load fails the run. The
// probe count lands in the JSON report.
//
// With --shards=N the same load is driven through an in-process N-shard
// cluster (per-shard servers behind the scatter-gather coordinator) instead
// of a single server, so the sharded and single-node configurations are
// directly comparable. --replication=k backs every DFS with k replica
// stores (fan-out writes, chunk checksums, failover reads), making the
// write amplification and read-path cost of replication a measurable axis
// of the same report. Every run appends one QPS/latency record to
// BENCH_build.json (path overridable via DGF_BENCH_BUILD_JSON).
//
// Exits non-zero if any query fails with an error other than the structured
// admission rejection (Unavailable counts as backpressure, not failure).

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "dgf/dgf_builder.h"
#include "kv/lsm_kv.h"
#include "obs/http_exporter.h"
#include "server/client.h"
#include "server/query_service.h"
#include "server/server.h"
#include "table/schema.h"
#include "testing/shard_sweep.h"
#include "workload/meter_gen.h"
#include "workload/query_gen.h"

namespace dgf::server {
namespace {

struct Flags {
  int threads = 8;
  int queries_per_thread = 40;
  bool appender = false;
  int64_t users = 200;
  int days = 5;
  int64_t regions = 5;
  int max_concurrent = 4;
  int max_pending = 32;
  /// 0 = single server; N >= 1 = N-shard cluster behind the coordinator.
  int shards = 0;
  /// DFS replication factor (1 = one checksummed copy).
  int replication = 1;
  /// >= 0: serve the HTTP observability exporter and assert it stays
  /// responsive under load (0 = ephemeral port). < 0 (default): off.
  int http_port = -1;
};

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

struct BenchWorld {
  std::filesystem::path dir;
  std::shared_ptr<fs::MiniDfs> dfs;
  workload::MeterConfig config;
  table::TableDesc meter;
  table::TableDesc user_info;
  std::shared_ptr<kv::KvStore> store;
  std::unique_ptr<core::DgfIndex> dgf;

  ~BenchWorld() {
    if (dir.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

Result<std::unique_ptr<BenchWorld>> BuildBenchWorld(const Flags& flags) {
  auto world = std::make_unique<BenchWorld>();
  world->dir = std::filesystem::temp_directory_path() /
               ("dgf_bench_server_" + std::to_string(::getpid()));
  std::filesystem::remove_all(world->dir);

  fs::MiniDfs::Options dfs_options;
  dfs_options.root_dir = world->dir.string();
  dfs_options.block_size = 256 * 1024;
  dfs_options.replication = flags.replication;
  DGF_ASSIGN_OR_RETURN(world->dfs, fs::MiniDfs::Open(dfs_options));

  world->config.num_users = flags.users;
  world->config.num_days = flags.days;
  world->config.num_regions = flags.regions;
  world->config.extra_metrics = 2;
  DGF_ASSIGN_OR_RETURN(
      world->meter, workload::GenerateMeterTable(world->dfs, "/warehouse/meter",
                                                 world->config));
  DGF_ASSIGN_OR_RETURN(world->user_info,
                       workload::GenerateUserInfoTable(
                           world->dfs, "/warehouse/userinfo", world->config));

  core::DgfBuilder::Options build;
  build.dims = {
      {"userId", table::DataType::kInt64, 0, 50},
      {"regionId", table::DataType::kInt64, 0, 1},
      {"time", table::DataType::kDate,
       static_cast<double>(world->config.start_day), 1},
  };
  build.precompute = {"sum(powerConsumed)", "count(*)"};
  build.data_dir = "/warehouse/dgf";
  DGF_ASSIGN_OR_RETURN(world->store, kv::LsmKv::Open({.dfs = world->dfs,
                                                      .dir = "/index/meter"}));
  DGF_ASSIGN_OR_RETURN(world->dgf,
                       core::DgfBuilder::Build(world->dfs, world->store,
                                               world->meter, build));
  return world;
}

double Percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

int Main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (std::strcmp(argv[i], "--appender") == 0) {
      flags.appender = true;
    } else if (ParseFlag(argv[i], "--threads", &value)) {
      flags.threads = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--queries", &value)) {
      flags.queries_per_thread = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--users", &value)) {
      flags.users = std::atoll(value.c_str());
    } else if (ParseFlag(argv[i], "--days", &value)) {
      flags.days = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--regions", &value)) {
      flags.regions = std::atoll(value.c_str());
    } else if (ParseFlag(argv[i], "--max-concurrent", &value)) {
      flags.max_concurrent = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--max-pending", &value)) {
      flags.max_pending = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--shards", &value)) {
      flags.shards = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--replication", &value)) {
      flags.replication = std::atoi(value.c_str());
      if (flags.replication < 1) {
        std::fprintf(stderr, "bad --replication factor: %s\n", value.c_str());
        return 2;
      }
    } else if (ParseFlag(argv[i], "--http-port", &value)) {
      flags.http_port = std::atoi(value.c_str());
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  // Single-node and sharded paths differ only in who answers the port; the
  // client threads, appender, and reporting below are shared.
  std::unique_ptr<BenchWorld> world;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<Server> server;
  std::unique_ptr<testing::ShardedCluster> cluster;
  workload::MeterConfig config;
  int port = 0;
  if (flags.shards >= 1) {
    config.num_users = flags.users;
    config.num_days = flags.days;
    config.num_regions = flags.regions;
    config.extra_metrics = 2;
    testing::ShardedCluster::Options cluster_options;
    cluster_options.config = config;
    cluster_options.dims = {
        {"userId", table::DataType::kInt64, 0, 50},
        {"regionId", table::DataType::kInt64, 0, 1},
        {"time", table::DataType::kDate, static_cast<double>(config.start_day),
         1},
    };
    cluster_options.num_shards = flags.shards;
    cluster_options.with_user_info = true;  // join templates need the archive
    cluster_options.replication = flags.replication;
    cluster_options.max_concurrent = flags.max_concurrent;
    cluster_options.max_pending = flags.max_pending;
    auto started = testing::ShardedCluster::Start(cluster_options);
    if (!started.ok()) {
      std::fprintf(stderr, "cluster: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    cluster = std::move(*started);
    port = cluster->front()->port();
  } else {
    auto built = BuildBenchWorld(flags);
    if (!built.ok()) {
      std::fprintf(stderr, "world: %s\n", built.status().ToString().c_str());
      return 1;
    }
    world = std::move(*built);
    config = world->config;
    QueryService::Options service_options;
    service_options.dfs = world->dfs;
    service_options.max_concurrent = flags.max_concurrent;
    service_options.max_pending = flags.max_pending;
    service = std::make_unique<QueryService>(service_options);
    service->RegisterTable(world->meter);
    service->RegisterTable(world->user_info);
    service->RegisterDgfIndex(world->meter.name, world->dgf.get());

    Server::Options server_options;
    server_options.service = service.get();
    server_options.port = 0;
    auto started = Server::Start(server_options);
    if (!started.ok()) {
      std::fprintf(stderr, "start: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    server = std::move(*started);
    port = server->port();
  }

  // Observability exporter under load: serve the frontmost service's
  // registry (single node: the QueryService's; cluster: the coordinator's)
  // and poll it from a dedicated thread for the whole load window.
  std::unique_ptr<obs::HttpExporter> exporter;
  std::atomic<bool> stop_poller{false};
  std::atomic<uint64_t> http_probes{0};
  std::atomic<uint64_t> http_probe_failures{0};
  std::thread poller;
  if (flags.http_port >= 0) {
    obs::HttpExporter::Options http_options;
    http_options.port = flags.http_port;
    if (cluster != nullptr) {
      http_options.registry = cluster->coordinator()->metrics();
      http_options.trace_log = cluster->coordinator()->trace_log();
    } else {
      http_options.registry = service->metrics();
      http_options.trace_log = service->trace_log();
    }
    auto started = obs::HttpExporter::Start(http_options);
    if (!started.ok()) {
      std::fprintf(stderr, "http exporter: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    exporter = std::move(*started);
    poller = std::thread([&, http_port = exporter->port()] {
      while (!stop_poller.load()) {
        for (const char* path : {"/metrics", "/healthz"}) {
          auto probe = obs::HttpGet(http_port, path, 5.0);
          http_probes.fetch_add(1);
          if (!probe.ok() || probe->status_code != 200) {
            http_probe_failures.fetch_add(1);
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
  }

  // The paper's template mix: aggregation, group-by, join, and
  // partial-specified, at the three evaluated selectivities.
  constexpr workload::MeterQueryKind kKinds[] = {
      workload::MeterQueryKind::kAggregation,
      workload::MeterQueryKind::kGroupBy, workload::MeterQueryKind::kJoin,
      workload::MeterQueryKind::kPartial};
  constexpr workload::Selectivity kSels[] = {
      workload::Selectivity::kPoint, workload::Selectivity::kFivePercent,
      workload::Selectivity::kTwelvePercent};

  std::atomic<bool> stop_appender{false};
  std::atomic<uint64_t> append_batches{0};
  std::thread appender;
  if (flags.appender) {
    appender = std::thread([&] {
      auto client = ServerClient::ConnectTcp("127.0.0.1", port);
      if (!client.ok()) return;
      // New-day batches sit past the last cut, so against the cluster the
      // coordinator's time-routed append lands them on the last shard.
      const int64_t first_day = config.start_day + config.num_days;
      for (int batch = 0; !stop_appender.load(); ++batch) {
        std::vector<std::string> rows;
        for (int i = 0; i < 50; ++i) {
          table::Row row = {
              table::Value::Int64(i % config.num_users),
              table::Value::Int64(1 + i % config.num_regions),
              table::Value::Date(first_day + batch),
              table::Value::Double(1.0 + 0.125 * i)};
          for (int extra = 0; extra < config.extra_metrics; ++extra) {
            row.push_back(table::Value::Double(0.25 * extra));
          }
          rows.push_back(table::FormatRowText(row));
        }
        auto response = (*client)->Append("meterdata", rows);
        if (!response.ok() || !response->ok()) return;
        append_batches.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
  }

  std::mutex mu;
  std::vector<double> latencies_ms;
  uint64_t ok_count = 0;
  uint64_t rejected_count = 0;
  uint64_t error_count = 0;
  std::string first_error;

  Stopwatch wall;
  std::vector<std::thread> clients;
  for (int t = 0; t < flags.threads; ++t) {
    clients.emplace_back([&, t] {
      auto client = ServerClient::ConnectTcp("127.0.0.1", port);
      if (!client.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        ++error_count;
        if (first_error.empty()) first_error = client.status().ToString();
        return;
      }
      std::vector<double> local_ms;
      uint64_t local_ok = 0, local_rejected = 0, local_errors = 0;
      std::string local_first_error;
      for (int i = 0; i < flags.queries_per_thread; ++i) {
        const uint64_t variant =
            static_cast<uint64_t>(t) * 1000003ULL + static_cast<uint64_t>(i);
        const query::Query q = workload::MakeMeterQuery(
            config, kKinds[variant % 4], kSels[(variant / 4) % 3], variant);
        const auto start = std::chrono::steady_clock::now();
        auto response = (*client)->Query(q.ToSql());
        const double ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (!response.ok()) {
          ++local_errors;
          if (local_first_error.empty()) {
            local_first_error = response.status().ToString();
          }
          continue;
        }
        if (!response->ok()) {
          const Status status = ResponseStatus(*response);
          if (status.IsUnavailable()) {
            ++local_rejected;  // structured backpressure, retryable
          } else {
            ++local_errors;
            if (local_first_error.empty()) {
              local_first_error = q.ToSql() + ": " + status.ToString();
            }
          }
          continue;
        }
        ++local_ok;
        local_ms.push_back(ms);
      }
      std::lock_guard<std::mutex> lock(mu);
      latencies_ms.insert(latencies_ms.end(), local_ms.begin(),
                          local_ms.end());
      ok_count += local_ok;
      rejected_count += local_rejected;
      error_count += local_errors;
      if (first_error.empty()) first_error = local_first_error;
    });
  }
  for (std::thread& thread : clients) thread.join();
  const double elapsed = wall.ElapsedSeconds();

  stop_appender.store(true);
  if (appender.joinable()) appender.join();
  stop_poller.store(true);
  if (poller.joinable()) poller.join();
  exporter.reset();

  // Replica write amplification actually paid by the run (single node: the
  // bench world's DFS; cluster: summed over the shard DFSes). Snapshotted
  // before teardown releases the DFS handles.
  uint64_t logical_bytes = 0;
  uint64_t replica_bytes = 0;
  if (world != nullptr) {
    logical_bytes = world->dfs->TotalBytesWritten();
    replica_bytes = world->dfs->TotalReplicaBytesWritten();
  } else if (cluster != nullptr) {
    for (int i = 0; i < cluster->num_shards(); ++i) {
      logical_bytes += cluster->shard_dfs(i)->TotalBytesWritten();
      replica_bytes += cluster->shard_dfs(i)->TotalReplicaBytesWritten();
    }
  }

  if (server != nullptr) {
    auto client = ServerClient::ConnectTcp("127.0.0.1", port);
    if (client.ok()) (void)(*client)->Shutdown();
    server->Shutdown();
  }
  cluster.reset();  // front drains before the shards go away

  std::sort(latencies_ms.begin(), latencies_ms.end());
  const double qps =
      elapsed > 0 ? static_cast<double>(ok_count) / elapsed : 0;
  const double p50 = Percentile(latencies_ms, 0.50);
  const double p95 = Percentile(latencies_ms, 0.95);
  const double p99 = Percentile(latencies_ms, 0.99);
  std::printf(
      "{\"shards\": %d, \"replication\": %d, \"threads\": %d, "
      "\"queries_per_thread\": %d, "
      "\"ok\": %llu, \"rejected\": %llu, \"errors\": %llu, "
      "\"wall_seconds\": %.3f, \"qps\": %.1f, \"latency_ms\": "
      "{\"p50\": %.2f, \"p90\": %.2f, \"p95\": %.2f, \"p99\": %.2f, "
      "\"max\": %.2f}, \"append_batches\": %llu, "
      "\"logical_bytes_written\": %llu, \"replica_bytes_written\": %llu, "
      "\"http_probes\": %llu, \"http_probe_failures\": %llu}\n",
      flags.shards, flags.replication, flags.threads,
      flags.queries_per_thread, static_cast<unsigned long long>(ok_count),
      static_cast<unsigned long long>(rejected_count),
      static_cast<unsigned long long>(error_count), elapsed, qps, p50,
      Percentile(latencies_ms, 0.90), p95, p99,
      latencies_ms.empty() ? 0 : latencies_ms.back(),
      static_cast<unsigned long long>(append_batches.load()),
      static_cast<unsigned long long>(logical_bytes),
      static_cast<unsigned long long>(replica_bytes),
      static_cast<unsigned long long>(http_probes.load()),
      static_cast<unsigned long long>(http_probe_failures.load()));
  bench::AppendBenchJson(
      "DGF_BENCH_BUILD_JSON", "BENCH_build.json",
      StringPrintf("{\"bench\": \"server_throughput\", \"shards\": %d, "
                   "\"replication\": %d, "
                   "\"threads\": %d, \"ok\": %llu, \"rejected\": %llu, "
                   "\"wall_s\": %.3f, \"qps\": %.1f, \"p50_ms\": %.2f, "
                   "\"p95_ms\": %.2f, \"p99_ms\": %.2f, "
                   "\"replica_bytes_written\": %llu, \"host_cpus\": %u}",
                   flags.shards, flags.replication, flags.threads,
                   static_cast<unsigned long long>(ok_count),
                   static_cast<unsigned long long>(rejected_count), elapsed,
                   qps, p50, p95, p99,
                   static_cast<unsigned long long>(replica_bytes),
                   std::max(1u, std::thread::hardware_concurrency())));
  if (error_count > 0) {
    std::fprintf(stderr, "first error: %s\n", first_error.c_str());
    return 1;
  }
  if (flags.http_port >= 0 &&
      (http_probes.load() == 0 || http_probe_failures.load() > 0)) {
    std::fprintf(stderr,
                 "http exporter unresponsive under load: %llu/%llu probes "
                 "failed\n",
                 static_cast<unsigned long long>(http_probe_failures.load()),
                 static_cast<unsigned long long>(http_probes.load()));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace dgf::server

int main(int argc, char** argv) { return dgf::server::Main(argc, argv); }
