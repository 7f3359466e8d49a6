// Workload definitions and world construction: data generation, index
// builds, servers, the full-scan oracle, and warm-up.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <thread>

#include "bench.h"
#include "common/stopwatch.h"
#include "dgf/dgf_builder.h"
#include "kv/lsm_kv.h"
#include "table/table.h"
#include "testing/differential.h"

namespace dgf::perfbench {
namespace {

using workload::MeterQueryKind;
using workload::Selectivity;

std::vector<Spec> MakeSpecs() {
  std::vector<Spec> specs;

  // Tiny per-query work over a world far below the 16,384-entry decoded-GFU
  // cache: fixed per-query costs (framing, admission, parse, pin, job
  // launch) dominate.
  Spec serve;
  serve.name = "serve_point";
  serve.users = 2000;
  serve.days = 7;
  serve.regions = 5;
  serve.user_interval = 50;  // ~1.4K GFUs
  serve.shards = 1;
  serve.wire = true;
  serve.clients = 4;
  for (MeterQueryKind kind :
       {MeterQueryKind::kAggregation, MeterQueryKind::kGroupBy,
        MeterQueryKind::kJoin, MeterQueryKind::kPartial}) {
    for (Selectivity sel : {Selectivity::kPoint, Selectivity::kFivePercent}) {
      serve.classes.push_back({kind, sel});
    }
  }
  serve.variants = 4;
  specs.push_back(serve);

  // In-process scans over a medium-interval grid of ~176K GFUs, >10x the
  // decoded-GFU cache: the dgf/kv/fs/table/exec layers with no wire.
  Spec scan;
  scan.name = "scan_wide";
  scan.users = 8000;
  scan.days = 30;
  scan.regions = 11;
  scan.user_interval = 8;  // 1000 userId intervals: the medium class
  scan.shards = 1;
  scan.wire = false;
  scan.clients = 2;
  // Scan-bound group-by/join plus lookup-bound aggregation/partial. Seven
  // equally weighted classes put the median inside one class's latencies
  // instead of on the gap between two, which would make p50 jump.
  scan.classes = {{MeterQueryKind::kGroupBy, Selectivity::kFivePercent},
                  {MeterQueryKind::kGroupBy, Selectivity::kTwelvePercent},
                  {MeterQueryKind::kJoin, Selectivity::kFivePercent},
                  {MeterQueryKind::kJoin, Selectivity::kTwelvePercent},
                  {MeterQueryKind::kAggregation, Selectivity::kFivePercent},
                  {MeterQueryKind::kAggregation, Selectivity::kTwelvePercent},
                  {MeterQueryKind::kPartial, Selectivity::kTwelvePercent}};
  scan.variants = 2;
  specs.push_back(scan);

  // Two LSM-backed shards behind the coordinator, queried while an
  // open-loop appender lands new days: fan-out/merge plus writes beside
  // reads.
  Spec ingest;
  ingest.name = "ingest_sharded";
  ingest.users = 2000;
  ingest.days = 14;
  ingest.regions = 5;
  ingest.user_interval = 50;
  ingest.shards = 2;
  ingest.wire = true;
  ingest.clients = 2;
  ingest.classes = {{MeterQueryKind::kAggregation, Selectivity::kFivePercent},
                    {MeterQueryKind::kAggregation, Selectivity::kTwelvePercent},
                    {MeterQueryKind::kGroupBy, Selectivity::kFivePercent},
                    {MeterQueryKind::kGroupBy, Selectivity::kTwelvePercent}};
  ingest.variants = 4;
  ingest.concurrent_appends = true;
  ingest.append_rows = 100;
  ingest.append_period_s = 0.125;
  ingest.append_lanes = 2;  // with the 2 query connections, 4 in all
  specs.push_back(ingest);
  return specs;
}

const std::vector<Spec>& Specs() {
  static const std::vector<Spec> specs = MakeSpecs();
  return specs;
}

const char* KindName(MeterQueryKind kind) {
  switch (kind) {
    case MeterQueryKind::kAggregation:
      return "aggregation";
    case MeterQueryKind::kGroupBy:
      return "groupby";
    case MeterQueryKind::kJoin:
      return "join";
    case MeterQueryKind::kPartial:
      return "partial";
  }
  return "?";
}

constexpr uint64_t kBlockBytes = 1ULL << 20;
constexpr int kBuildThreads = 4;
constexpr int kTimeSlot = 2;  // MeterSchema: userId, regionId, time, ...

core::DgfBuilder::Options BuildOptions(const World& world,
                                       const std::string& data_dir) {
  core::DgfBuilder::Options build;
  build.dims = {
      {"userId", table::DataType::kInt64, 0,
       static_cast<double>(world.spec->user_interval)},
      {"regionId", table::DataType::kInt64, 0, 1},
      {"time", table::DataType::kDate,
       static_cast<double>(world.config.start_day), 1},
  };
  build.precompute = {"sum(powerConsumed)", "count(*)"};
  build.data_dir = data_dir;
  build.job.worker_threads = kBuildThreads;
  build.build_threads = kBuildThreads;
  return build;
}

Result<std::shared_ptr<kv::KvStore>> OpenStore(const Node& node,
                                               const std::string& dir) {
  kv::LsmKv::Options lsm_options;
  lsm_options.dfs = node.dfs;
  lsm_options.dir = dir;
  DGF_ASSIGN_OR_RETURN(auto lsm, kv::LsmKv::Open(std::move(lsm_options)));
  return std::shared_ptr<kv::KvStore>(std::move(lsm));
}

using RowFilter = std::function<bool(const table::Row&)>;

/// A node holding only the tables: the meter rows `keep` accepts plus the
/// userInfo archive.
Result<std::unique_ptr<Node>> WriteTables(const World& world,
                                          const std::filesystem::path& root,
                                          const RowFilter& keep) {
  auto node = std::make_unique<Node>();
  fs::MiniDfs::Options dfs_options;
  dfs_options.root_dir = root.string();
  dfs_options.block_size = kBlockBytes;
  DGF_ASSIGN_OR_RETURN(node->dfs, fs::MiniDfs::Open(dfs_options));

  node->meter = table::TableDesc{"meterdata", workload::MeterSchema(world.config),
                                 table::FileFormat::kText, "/warehouse/meter"};
  DGF_ASSIGN_OR_RETURN(auto writer,
                       table::TableWriter::Create(node->dfs, node->meter));
  DGF_RETURN_IF_ERROR(workload::ForEachMeterRow(
      world.config, [&](const table::Row& row) -> Status {
        return keep(row) ? writer->Append(row) : Status::OK();
      }));
  DGF_RETURN_IF_ERROR(writer->Close());
  DGF_ASSIGN_OR_RETURN(node->user_info,
                       workload::GenerateUserInfoTable(
                           node->dfs, "/warehouse/userinfo", world.config));
  return node;
}

/// Builds one serving node over the rows `keep` accepts: tables, the
/// LSM-backed DGF index, the query service, and its loopback server.
Result<std::unique_ptr<Node>> BuildNode(const World& world,
                                        const std::filesystem::path& root,
                                        const RowFilter& keep) {
  const Spec& spec = *world.spec;
  DGF_ASSIGN_OR_RETURN(auto node, WriteTables(world, root, keep));
  DGF_ASSIGN_OR_RETURN(node->store, OpenStore(*node, "/kv"));

  const core::DgfBuilder::Options build = BuildOptions(world, "/warehouse/dgf");
  Stopwatch build_watch;
  DGF_ASSIGN_OR_RETURN(node->dgf,
                       core::DgfBuilder::Build(node->dfs, node->store,
                                               node->meter, build,
                                               &node->build));
  node->build_seconds = build_watch.ElapsedSeconds();

  DGF_ASSIGN_OR_RETURN(node->base_bytes,
                       table::TableDataBytes(node->dfs, node->meter));
  for (const fs::FileStatus& file : node->dfs->ListFiles(build.data_dir + "/")) {
    node->slice_bytes += file.length;
  }
  DGF_ASSIGN_OR_RETURN(node->kv_bytes, node->dgf->IndexSizeBytes());

  server::QueryService::Options service_options;
  service_options.dfs = node->dfs;
  service_options.max_concurrent = 4;
  service_options.max_pending = 16;
  service_options.query_worker_threads = spec.query_threads;
  node->service = std::make_unique<server::QueryService>(service_options);
  node->service->RegisterTable(node->meter);
  node->service->RegisterTable(node->user_info);
  node->service->RegisterDgfIndex(node->meter.name, node->dgf.get());
  server::Server::Options server_options;
  server_options.service = node->service.get();
  server_options.port = 0;
  DGF_ASSIGN_OR_RETURN(node->server, server::Server::Start(server_options));
  return node;
}

}  // namespace

const Spec* FindSpec(const std::string& name) {
  for (const Spec& spec : Specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> SpecNames() {
  std::vector<std::string> names;
  for (const Spec& spec : Specs()) names.push_back(spec.name);
  return names;
}

Node::~Node() {
  if (server != nullptr) server->Shutdown();
}

World::~World() {
  // Clients reach the coordinator through the front; stop both before the
  // shards they fan out to.
  front.reset();
  oracle.reset();
  nodes.clear();
  std::error_code ec;
  if (!dir.empty()) std::filesystem::remove_all(dir, ec);
}

int World::port() const {
  return (front != nullptr ? front->server : nodes.front()->server)->port();
}

Front::~Front() {
  if (server != nullptr) server->Shutdown();
}

Result<std::unique_ptr<Front>> StartCoordinator(const World& world) {
  coord::Coordinator::Options options;
  options.shard_map = coord::ShardMap::ByTimeRange(
      "time", world.config.start_day,
      world.config.start_day + world.config.num_days - 1,
      static_cast<int>(world.nodes.size()));
  for (const auto& node : world.nodes) {
    coord::ShardEndpoint endpoint;
    endpoint.port = node->server->port();
    options.shards.push_back(endpoint);
  }
  options.max_concurrent = 4;
  options.max_pending = 16;
  auto front = std::make_unique<Front>();
  front->coordinator = std::make_unique<coord::Coordinator>(std::move(options));
  front->coordinator->RegisterTable(world.nodes.front()->meter);
  front->coordinator->RegisterTable(world.nodes.front()->user_info);
  server::Server::Options front_options;
  front_options.service = front->coordinator.get();
  front_options.port = 0;
  DGF_ASSIGN_OR_RETURN(front->server, server::Server::Start(front_options));
  return front;
}

Result<std::unique_ptr<World>> BuildWorld(const Spec& spec, uint64_t seed) {
  static std::atomic<int> counter{0};
  auto world = std::make_unique<World>();
  world->spec = &spec;
  world->seed = seed;
  world->config.num_users = spec.users;
  world->config.num_days = spec.days;
  world->config.num_regions = spec.regions;
  world->config.extra_metrics = 4;
  world->config.seed = seed;
  world->first_append_day = world->config.start_day + spec.days;
  world->next_append_day = world->first_append_day;
  world->dir = std::filesystem::temp_directory_path() /
               ("dgf_perfbench_" + std::to_string(::getpid()) + "_" +
                std::to_string(counter++));
  std::filesystem::remove_all(world->dir);

  Stopwatch phase;
  const coord::ShardMap map = coord::ShardMap::ByTimeRange(
      "time", world->config.start_day,
      world->config.start_day + spec.days - 1, spec.shards);
  for (int shard = 0; shard < spec.shards; ++shard) {
    DGF_ASSIGN_OR_RETURN(
        auto node,
        BuildNode(*world, world->dir / ("node" + std::to_string(shard)),
                  [&](const table::Row& row) {
                    return map.ShardForValue(row[kTimeSlot].int64()) == shard;
                  }));
    world->nodes.push_back(std::move(node));
  }
  if (spec.shards > 1) {
    DGF_ASSIGN_OR_RETURN(world->front, StartCoordinator(*world));
    DGF_ASSIGN_OR_RETURN(world->oracle,
                         WriteTables(*world, world->dir / "oracle",
                                     [](const table::Row&) { return true; }));
  }
  world->nodes_s = phase.ElapsedSeconds();
  phase.Restart();
  // The oracle scans the unindexed tables of one whole copy of the data.
  const Node& source = world->oracle != nullptr ? *world->oracle
                                                : *world->nodes.front();
  query::QueryExecutor::Options oracle_options;
  oracle_options.dfs = source.dfs;
  oracle_options.worker_threads = kBuildThreads;
  query::QueryExecutor oracle(oracle_options);
  oracle.RegisterTable(source.meter);
  oracle.RegisterTable(source.user_info);
  for (const auto& [kind, sel] : spec.classes) {
    int kept = 0;
    // Placements whose time window misses a shard band are skipped, so on
    // sharded worlds every query fans out to every shard.
    for (uint64_t variant = 0; kept < spec.variants; ++variant) {
      if (variant == 1000) {
        return Status::Internal("no query placement spans every shard");
      }
      Case c;
      c.query = workload::MakeMeterQuery(world->config, kind, sel, variant);
      bool spans = true;
      for (int shard = 0; shard < map.num_shards(); ++shard) {
        spans = spans && map.Restrict(c.query, shard).has_value();
      }
      if (!spans) continue;
      ++kept;
      c.label = std::string(KindName(kind)) + "/" +
                workload::SelectivityName(sel);
      c.sql = c.query.ToSql();
      DGF_ASSIGN_OR_RETURN(c.expected,
                           oracle.Execute(c.query, query::AccessPath::kFullScan));
      world->cases.push_back(std::move(c));
    }
  }
  world->oracle_s = phase.ElapsedSeconds();

  // Warm-up: every case once through the workload's path, spread over as
  // many threads as the workload has clients.
  phase.Restart();
  std::vector<std::string> errors(static_cast<size_t>(spec.clients));
  std::vector<std::thread> threads;
  for (int t = 0; t < spec.clients; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < world->cases.size();
           i += static_cast<size_t>(spec.clients)) {
        const Case& c = world->cases[i];
        auto got = RunOnPath(*world, c.query);
        const std::string diff =
            got.ok() ? testing::DescribeResultMismatch(c.expected, *got)
                     : got.status().ToString();
        if (!diff.empty()) {
          errors[static_cast<size_t>(t)] = c.sql + ": " + diff;
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::string& error : errors) {
    if (!error.empty()) return Status::Internal("warm-up: " + error);
  }
  world->warmup_s = phase.ElapsedSeconds();
  return world;
}

Result<double> TimeIndexBuild(const World& world) {
  double seconds = 0;
  for (const auto& node : world.nodes) {
    {
      DGF_ASSIGN_OR_RETURN(auto store, OpenStore(*node, "/rebuild/kv"));
      Stopwatch watch;
      DGF_ASSIGN_OR_RETURN(
          auto index,
          core::DgfBuilder::Build(node->dfs, store, node->meter,
                                  BuildOptions(world, "/rebuild/dgf")));
      seconds += watch.ElapsedSeconds();
    }
    for (const fs::FileStatus& file : node->dfs->ListFiles("/rebuild/")) {
      DGF_RETURN_IF_ERROR(node->dfs->Delete(file.path));
    }
  }
  return seconds;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double PeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace dgf::perfbench
