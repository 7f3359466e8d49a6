// dgf_serverd: standalone query-service daemon over a generated demo world.
//
// Builds the paper's smart-meter dataset in a temporary MiniDfs, reorganizes
// it under a DGFIndex (sum/count precomputed) whose GFU pairs live in an
// LsmKv on that same MiniDfs, registers the userInfo join table, and serves
// the wire protocol until a SHUTDOWN request.
//
//   dgf_serverd --port=4641              # TCP on 127.0.0.1
//   dgf_serverd --unix=/tmp/dgf.sock     # Unix socket
//   dgf_serverd --smoke                  # self-test: serve, query, shut down
//
// Coordinator mode fronts N already-running shard servers with the
// scatter-gather coordinator, speaking the same wire protocol, so dgf_cli
// cannot tell the cluster from a single node. Each shard should serve a
// contiguous day band; --cuts lists the band boundaries (first day owned by
// shard i+1), so with N shards there are N-1 cuts:
//
//   dgf_serverd --port=4642 --start-day=15675 --days=2 &   # shard 0
//   dgf_serverd --port=4643 --start-day=15677 --days=3 &   # shard 1
//   dgf_serverd --coordinator --port=4641 --cuts=15677
//               --shard=127.0.0.1:4642 --shard=127.0.0.1:4643
//
// Replication: `--replication=k` backs the shard's DFS with k replica
// stores, each 512 B chunk checksummed, and reads fail over between them —
// the shard survives a lost store or disk. It does not survive its own
// process dying: the coordinator then fails the shard's queries Unavailable
// until the daemon is restarted, and a restart rebuilds the demo world.
//
// Observability: `--http-port=P` (0 = ephemeral, printed at startup) serves
// GET /metrics (Prometheus text), /stats (JSON), /trace (recent query
// traces), and /healthz on 127.0.0.1 — works in both shard and coordinator
// mode, so every process of a cluster exports its own metrics:
//
//   dgf_serverd --port=4642 --http-port=9642 ... &
//   dgf_serverd --coordinator --port=4641 --http-port=9641 ...
//   curl -s 127.0.0.1:9641/metrics | grep dgf_coord
//
// World shape flags: --users, --days, --regions, --start-day. Service
// flags: --max-concurrent, --max-pending.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "coord/coordinator.h"
#include "coord/shard_map.h"
#include "dgf/dgf_builder.h"
#include "kv/lsm_kv.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/query_service.h"
#include "server/server.h"
#include "workload/meter_gen.h"

namespace dgf::server {
namespace {

struct Flags {
  int port = 4641;
  std::string unix_path;
  bool smoke = false;
  int64_t users = 200;
  int days = 5;
  int64_t regions = 5;
  int64_t start_day = 15675;
  int max_concurrent = 4;
  int max_pending = 16;
  /// DFS replication factor of the served world (k replica stores with
  /// failover reads; every k checksums each 512 B chunk).
  int replication = 1;
  /// >= 0: serve the HTTP observability endpoints (/metrics, /stats, /trace,
  /// /healthz) on this port (0 picks an ephemeral one, printed at startup).
  /// < 0 (default): no HTTP exporter.
  int http_port = -1;
  bool coordinator = false;
  std::vector<coord::ShardEndpoint> shards;
  std::vector<int64_t> cuts;
};

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

/// The served world; owns the DFS directory and index for the process
/// lifetime.
struct DemoWorld {
  std::filesystem::path dir;
  std::shared_ptr<fs::MiniDfs> dfs;
  workload::MeterConfig config;
  table::TableDesc meter;
  table::TableDesc user_info;
  std::shared_ptr<kv::KvStore> store;
  std::unique_ptr<core::DgfIndex> dgf;

  ~DemoWorld() {
    if (dir.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

Result<std::unique_ptr<DemoWorld>> BuildDemoWorld(const Flags& flags) {
  auto world = std::make_unique<DemoWorld>();
  world->dir = std::filesystem::temp_directory_path() /
               ("dgf_serverd_" + std::to_string(::getpid()));
  std::filesystem::remove_all(world->dir);

  fs::MiniDfs::Options dfs_options;
  dfs_options.root_dir = world->dir.string();
  dfs_options.block_size = 256 * 1024;
  dfs_options.replication = flags.replication;
  DGF_ASSIGN_OR_RETURN(world->dfs, fs::MiniDfs::Open(dfs_options));

  world->config.num_users = flags.users;
  world->config.num_days = flags.days;
  world->config.num_regions = flags.regions;
  world->config.start_day = flags.start_day;
  world->config.extra_metrics = 2;
  DGF_ASSIGN_OR_RETURN(
      world->meter,
      workload::GenerateMeterTable(world->dfs, "/warehouse/meter",
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

int RunSmoke() {
  Flags flags;
  flags.users = 60;
  flags.days = 3;
  auto world = BuildDemoWorld(flags);
  if (!world.ok()) {
    std::fprintf(stderr, "SMOKE FAIL: world: %s\n",
                 world.status().ToString().c_str());
    return 1;
  }
  QueryService::Options service_options;
  service_options.dfs = (*world)->dfs;
  QueryService service(service_options);
  service.RegisterTable((*world)->meter);
  service.RegisterTable((*world)->user_info);
  service.RegisterDgfIndex((*world)->meter.name, (*world)->dgf.get());

  Server::Options server_options;
  server_options.service = &service;
  server_options.port = 0;
  auto server = Server::Start(server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "SMOKE FAIL: start: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  auto client = ServerClient::ConnectTcp("127.0.0.1", (*server)->port());
  if (!client.ok()) {
    std::fprintf(stderr, "SMOKE FAIL: connect: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }
  auto check = [](const char* what, const Result<Response>& r) {
    if (r.ok() && r->ok()) return true;
    std::fprintf(stderr, "SMOKE FAIL: %s: %s\n", what,
                 r.ok() ? ResponseStatus(*r).ToString().c_str()
                        : r.status().ToString().c_str());
    return false;
  };
  if (!check("ping", (*client)->Ping())) return 1;
  auto query = (*client)->Query(
      "SELECT count(*), sum(powerConsumed) FROM meterdata WHERE regionId >= 0");
  if (!check("query", query)) return 1;
  const auto expected = static_cast<double>(flags.users * flags.days);
  if (query->result.rows.size() != 1) {
    std::fprintf(stderr, "SMOKE FAIL: expected 1 row, got %zu\n",
                 query->result.rows.size());
    return 1;
  }
  const double count = std::strtod(query->result.rows[0].c_str(), nullptr);
  if (count != expected) {
    std::fprintf(stderr, "SMOKE FAIL: count(*) = %f, want %f\n", count,
                 expected);
    return 1;
  }
  auto stats = (*client)->Stats();
  if (!check("stats", stats)) return 1;
  if (!check("shutdown", (*client)->Shutdown())) return 1;
  (*server)->WaitShutdown();
  (*server)->Shutdown();
  std::printf("SMOKE PASS (1 query, %d rows scanned check ok)\n", 1);
  return 0;
}

/// Bridges the served world's pre-existing atomic totals (DFS byte/failover
/// counters, the index's decoded-GFU cache totals) into `registry` as
/// snapshot-time callback gauges, so /metrics covers the whole process, not
/// just what the services record directly.
void RegisterWorldGauges(obs::MetricsRegistry* registry,
                         const DemoWorld& world) {
  const auto dfs = world.dfs;
  registry->SetCallback("fs.bytes_written", [dfs] {
    return static_cast<double>(dfs->TotalBytesWritten());
  });
  registry->SetCallback("fs.replica_bytes_written", [dfs] {
    return static_cast<double>(dfs->TotalReplicaBytesWritten());
  });
  registry->SetCallback("fs.bytes_read", [dfs] {
    return static_cast<double>(dfs->TotalBytesRead());
  });
  registry->SetCallback("fs.pread_calls", [dfs] {
    return static_cast<double>(dfs->TotalPreadCalls());
  });
  registry->SetCallback("fs.read_failovers", [dfs] {
    return static_cast<double>(dfs->TotalReadFailovers());
  });
  registry->SetCallback("fs.checksum_failures", [dfs] {
    return static_cast<double>(dfs->TotalChecksumFailures());
  });
  const core::DgfIndex* dgf = world.dgf.get();  // lives as long as the daemon
  registry->SetCallback("index.cache_hits_total", [dgf] {
    return static_cast<double>(dgf->cumulative_cache_hits());
  });
  registry->SetCallback("index.cache_misses_total", [dgf] {
    return static_cast<double>(dgf->cumulative_cache_misses());
  });
}

/// Starts the HTTP observability endpoint when --http-port was given.
/// Returns null (success) when it was not.
Result<std::unique_ptr<obs::HttpExporter>> MaybeStartExporter(
    const Flags& flags, obs::MetricsRegistry* registry,
    obs::TraceLog* trace_log) {
  if (flags.http_port < 0) return std::unique_ptr<obs::HttpExporter>();
  obs::HttpExporter::Options options;
  options.port = flags.http_port;
  options.registry = registry;
  options.trace_log = trace_log;
  DGF_ASSIGN_OR_RETURN(auto exporter, obs::HttpExporter::Start(options));
  std::printf("dgf_serverd: http observability on 127.0.0.1:%d "
              "(/metrics /stats /trace /healthz)\n",
              exporter->port());
  return exporter;
}

int RunServer(const Flags& flags) {
  auto world = BuildDemoWorld(flags);
  if (!world.ok()) {
    std::fprintf(stderr, "dgf_serverd: %s\n",
                 world.status().ToString().c_str());
    return 1;
  }
  QueryService::Options service_options;
  service_options.dfs = (*world)->dfs;
  service_options.max_concurrent = flags.max_concurrent;
  service_options.max_pending = flags.max_pending;
  service_options.metrics = obs::MetricsRegistry::Default();
  QueryService service(service_options);
  service.RegisterTable((*world)->meter);
  service.RegisterTable((*world)->user_info);
  service.RegisterDgfIndex((*world)->meter.name, (*world)->dgf.get());
  RegisterWorldGauges(service.metrics(), **world);
  auto exporter =
      MaybeStartExporter(flags, service.metrics(), service.trace_log());
  if (!exporter.ok()) {
    std::fprintf(stderr, "dgf_serverd: http exporter: %s\n",
                 exporter.status().ToString().c_str());
    return 1;
  }

  Server::Options server_options;
  server_options.service = &service;
  server_options.unix_path = flags.unix_path;
  server_options.port = flags.port;
  auto server = Server::Start(server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "dgf_serverd: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  if (flags.unix_path.empty()) {
    std::printf("dgf_serverd: serving %s (%lld rows) on 127.0.0.1:%d\n",
                (*world)->meter.name.c_str(),
                static_cast<long long>((*world)->config.TotalRows()),
                (*server)->port());
  } else {
    std::printf("dgf_serverd: serving %s (%lld rows) on %s\n",
                (*world)->meter.name.c_str(),
                static_cast<long long>((*world)->config.TotalRows()),
                flags.unix_path.c_str());
  }
  std::fflush(stdout);
  (*server)->WaitShutdown();
  (*server)->Shutdown();
  std::printf("dgf_serverd: drained, bye\n");
  return 0;
}

/// Fronts already-running shard servers with a Coordinator behind a server
/// speaking the same wire protocol. The catalog mirrors the demo world's
/// schemas (every shard serves one); only schemas matter to the coordinator,
/// which never scans local data.
int RunCoordinator(const Flags& flags) {
  if (flags.shards.empty()) {
    std::fprintf(stderr, "dgf_serverd: --coordinator needs >= 1 --shard\n");
    return 2;
  }
  if (flags.cuts.size() + 1 != flags.shards.size()) {
    std::fprintf(stderr,
                 "dgf_serverd: %zu shards need %zu cuts (got %zu): each cut "
                 "is the first day owned by the next shard\n",
                 flags.shards.size(), flags.shards.size() - 1,
                 flags.cuts.size());
    return 2;
  }
  workload::MeterConfig config;
  config.extra_metrics = 2;  // the demo world's schema shape

  coord::Coordinator::Options options;
  options.shard_map =
      coord::ShardMap::ByCuts("time", table::DataType::kDate, flags.cuts);
  options.shards = flags.shards;
  options.max_concurrent = flags.max_concurrent;
  options.max_pending = flags.max_pending;
  options.metrics = obs::MetricsRegistry::Default();
  coord::Coordinator coordinator(std::move(options));
  coordinator.RegisterTable(table::TableDesc{
      "meterdata", workload::MeterSchema(config), table::FileFormat::kText,
      ""});
  coordinator.RegisterTable(table::TableDesc{
      "userinfo", workload::UserInfoSchema(), table::FileFormat::kText, ""});
  auto exporter = MaybeStartExporter(flags, coordinator.metrics(),
                                     coordinator.trace_log());
  if (!exporter.ok()) {
    std::fprintf(stderr, "dgf_serverd: http exporter: %s\n",
                 exporter.status().ToString().c_str());
    return 1;
  }

  Server::Options server_options;
  server_options.service = &coordinator;
  server_options.unix_path = flags.unix_path;
  server_options.port = flags.port;
  auto server = Server::Start(server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "dgf_serverd: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  std::string shard_list;
  for (const coord::ShardEndpoint& endpoint : flags.shards) {
    if (!shard_list.empty()) shard_list += ", ";
    shard_list += endpoint.ToString();
  }
  if (flags.unix_path.empty()) {
    std::printf("dgf_serverd: coordinating %zu shard%s (%s) on 127.0.0.1:%d\n",
                flags.shards.size(), flags.shards.size() == 1 ? "" : "s",
                shard_list.c_str(), (*server)->port());
  } else {
    std::printf("dgf_serverd: coordinating %zu shard%s (%s) on %s\n",
                flags.shards.size(), flags.shards.size() == 1 ? "" : "s",
                shard_list.c_str(), flags.unix_path.c_str());
  }
  std::fflush(stdout);
  (*server)->WaitShutdown();
  (*server)->Shutdown();
  std::printf("dgf_serverd: drained, bye\n");
  return 0;
}

/// "host:port" or "unix:/path" -> endpoint.
bool ParseEndpoint(const std::string& value, coord::ShardEndpoint* out) {
  if (value.rfind("unix:", 0) == 0) {
    out->unix_path = value.substr(5);
    return !out->unix_path.empty();
  }
  const size_t colon = value.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  out->host = value.substr(0, colon);
  out->port = std::atoi(value.c_str() + colon + 1);
  return out->port > 0;
}

int Main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (std::strcmp(argv[i], "--smoke") == 0) {
      flags.smoke = true;
    } else if (std::strcmp(argv[i], "--coordinator") == 0) {
      flags.coordinator = true;
    } else if (ParseFlag(argv[i], "--shard", &value)) {
      coord::ShardEndpoint endpoint;
      if (!ParseEndpoint(value, &endpoint)) {
        std::fprintf(stderr, "bad --shard endpoint: %s\n", value.c_str());
        return 2;
      }
      flags.shards.push_back(std::move(endpoint));
    } else if (ParseFlag(argv[i], "--cuts", &value)) {
      const char* p = value.c_str();
      while (*p != '\0') {
        char* end = nullptr;
        const long long cut = std::strtoll(p, &end, 10);
        if (end == p) {
          std::fprintf(stderr, "bad --cuts list: %s\n", value.c_str());
          return 2;
        }
        flags.cuts.push_back(cut);
        p = (*end == ',') ? end + 1 : end;
      }
    } else if (ParseFlag(argv[i], "--start-day", &value)) {
      flags.start_day = std::atoll(value.c_str());
    } else if (ParseFlag(argv[i], "--port", &value)) {
      flags.port = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--unix", &value)) {
      flags.unix_path = value;
    } else if (ParseFlag(argv[i], "--users", &value)) {
      flags.users = std::atoll(value.c_str());
    } else if (ParseFlag(argv[i], "--days", &value)) {
      flags.days = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--regions", &value)) {
      flags.regions = std::atoll(value.c_str());
    } else if (ParseFlag(argv[i], "--replication", &value)) {
      flags.replication = std::atoi(value.c_str());
      if (flags.replication < 1) {
        std::fprintf(stderr, "bad --replication factor: %s\n", value.c_str());
        return 2;
      }
    } else if (ParseFlag(argv[i], "--http-port", &value)) {
      flags.http_port = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--max-concurrent", &value)) {
      flags.max_concurrent = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--max-pending", &value)) {
      flags.max_pending = std::atoi(value.c_str());
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  if (flags.smoke) return RunSmoke();
  return flags.coordinator ? RunCoordinator(flags) : RunServer(flags);
}

}  // namespace
}  // namespace dgf::server

int main(int argc, char** argv) { return dgf::server::Main(argc, argv); }
