#include "testing/shard_sweep.h"

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "dgf/dgf_builder.h"
#include "kv/lsm_kv.h"
#include "table/table.h"

namespace dgf::testing {
namespace {

struct ShardDirRemover {
  std::filesystem::path path;
  ~ShardDirRemover() {
    if (path.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

constexpr int kTimeSlot = 2;  // MeterSchema: userId, regionId, time, ...

}  // namespace

/// One shard: its own DFS, its day band of the dataset, a DGF index over the
/// shared grid policy, and a live server. Member order is destruction order
/// in reverse: the server drains before the index and DFS go away.
struct ShardedCluster::Shard {
  ShardDirRemover remover;
  std::shared_ptr<fs::MiniDfs> dfs;
  table::TableDesc meter;
  table::TableDesc user_info;
  std::shared_ptr<kv::KvStore> store;
  std::unique_ptr<core::DgfIndex> dgf;
  std::unique_ptr<server::QueryService> service;
  std::unique_ptr<server::Server> server;
};

Result<std::unique_ptr<ShardedCluster>> ShardedCluster::Start(
    const Options& options) {
  std::unique_ptr<ShardedCluster> cluster(new ShardedCluster());
  const workload::MeterConfig& config = options.config;
  cluster->shard_map_ = coord::ShardMap::ByTimeRange(
      "time", config.start_day, config.start_day + config.num_days - 1,
      options.num_shards);
  const int num_shards = cluster->shard_map_.num_shards();

  static std::atomic<int> counter{0};
  std::vector<coord::ShardEndpoint> endpoints;
  for (int shard = 0; shard < num_shards; ++shard) {
    auto s = std::make_unique<Shard>();
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("dgf_shard_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter++));
    std::filesystem::remove_all(dir);
    s->remover.path = dir;

    fs::MiniDfs::Options dfs_options;
    dfs_options.root_dir = dir.string();
    dfs_options.block_size = 16384;
    dfs_options.replication = options.replication;
    DGF_ASSIGN_OR_RETURN(s->dfs, fs::MiniDfs::Open(dfs_options));

    // The shard's slice of the dataset: exactly the rows whose time value
    // the shard map routes here — the same routing cross-shard APPEND uses.
    s->meter = table::TableDesc{"meterdata", workload::MeterSchema(config),
                                table::FileFormat::kText, "/s/meter"};
    table::TableWriter::Options writer_options;
    writer_options.max_file_bytes = 48 * 1024;
    DGF_ASSIGN_OR_RETURN(
        auto writer, table::TableWriter::Create(s->dfs, s->meter,
                                                writer_options));
    DGF_RETURN_IF_ERROR(workload::ForEachMeterRow(
        config, [&](const table::Row& row) -> Status {
          if (cluster->shard_map_.ShardForValue(row[kTimeSlot].int64()) !=
              shard) {
            return Status::OK();
          }
          return writer->Append(row);
        }));
    DGF_RETURN_IF_ERROR(writer->Close());

    core::DgfBuilder::Options dgf_build;
    dgf_build.dims = options.dims;
    dgf_build.precompute = options.precompute;
    dgf_build.split_size = 16384;
    dgf_build.data_dir = "/s/dgf";
    dgf_build.data_format = table::FileFormat::kText;
    DGF_ASSIGN_OR_RETURN(s->store,
                         kv::LsmKv::Open({.dfs = s->dfs, .dir = "/s/kv"}));
    DGF_ASSIGN_OR_RETURN(
        s->dgf, core::DgfBuilder::Build(s->dfs, s->store, s->meter, dgf_build));

    server::QueryService::Options service_options;
    service_options.dfs = s->dfs;
    service_options.max_concurrent = options.max_concurrent;
    service_options.max_pending = options.max_pending;
    service_options.split_size = 16384;
    s->service = std::make_unique<server::QueryService>(service_options);
    s->service->RegisterTable(s->meter);
    s->service->RegisterDgfIndex(s->meter.name, s->dgf.get());
    if (options.with_user_info) {
      // The archive is tiny and broadcast by the join anyway: replicate it.
      DGF_ASSIGN_OR_RETURN(
          s->user_info,
          workload::GenerateUserInfoTable(s->dfs, "/s/userinfo", config));
      s->service->RegisterTable(s->user_info);
    }

    server::Server::Options server_options;
    server_options.service = s->service.get();
    server_options.port = 0;
    DGF_ASSIGN_OR_RETURN(s->server,
                         server::Server::Start(server_options));
    coord::ShardEndpoint endpoint;
    endpoint.host = "127.0.0.1";
    endpoint.port = s->server->port();
    endpoints.push_back(std::move(endpoint));
    cluster->shards_.push_back(std::move(s));
  }

  coord::Coordinator::Options coord_options;
  coord_options.shard_map = cluster->shard_map_;
  coord_options.shards = std::move(endpoints);
  coord_options.max_concurrent = options.max_concurrent;
  coord_options.max_pending = options.max_pending;
  coord_options.connect_timeout_seconds = options.connect_timeout_seconds;
  coord_options.shard_response_timeout_seconds =
      options.shard_response_timeout_seconds;
  cluster->coordinator_ =
      std::make_unique<coord::Coordinator>(std::move(coord_options));
  cluster->coordinator_->RegisterTable(cluster->shards_.front()->meter);
  if (options.with_user_info) {
    cluster->coordinator_->RegisterTable(cluster->shards_.front()->user_info);
  }

  server::Server::Options front_options;
  front_options.service = cluster->coordinator_.get();
  front_options.port = 0;
  DGF_ASSIGN_OR_RETURN(cluster->front_,
                       server::Server::Start(front_options));
  return cluster;
}

ShardedCluster::~ShardedCluster() {
  // Stop client traffic into the coordinator before the shards go away;
  // remaining members tear down in reverse declaration order.
  if (front_ != nullptr) front_->Shutdown();
}

Result<std::unique_ptr<server::ServerClient>> ShardedCluster::Connect()
    const {
  return server::ServerClient::ConnectTcp("127.0.0.1", front_->port());
}

server::Server* ShardedCluster::shard_server(int i) {
  return shards_[static_cast<size_t>(i)]->server.get();
}

server::QueryService* ShardedCluster::shard_service(int i) {
  return shards_[static_cast<size_t>(i)]->service.get();
}

const std::shared_ptr<fs::MiniDfs>& ShardedCluster::shard_dfs(int i) {
  return shards_[static_cast<size_t>(i)]->dfs;
}

std::string ShardedCluster::shard_dir(int i) const {
  return shards_[static_cast<size_t>(i)]->remover.path.string();
}

const table::TableDesc& ShardedCluster::meter_desc() const {
  return shards_.front()->meter;
}

void ShardedCluster::KillShardDaemon(int i) {
  Shard& s = *shards_[static_cast<size_t>(i)];
  if (s.server != nullptr) s.server->Shutdown();
  s.server.reset();
  s.service.reset();
  s.dgf.reset();
  s.store.reset();
  s.dfs.reset();
  // s.remover stays: the on-disk state survives for recovery checks and is
  // cleaned up with the cluster.
}

Result<query::QueryResult> ResultFromPayload(
    const server::QueryResultPayload& payload) {
  query::QueryResult result;
  result.schema = payload.schema;
  result.rows.reserve(payload.rows.size());
  for (const std::string& line : payload.rows) {
    DGF_ASSIGN_OR_RETURN(table::Row row,
                         table::ParseRowText(line, result.schema));
    result.rows.push_back(std::move(row));
  }
  result.stats = payload.stats;
  return result;
}

namespace {

std::string ShardRepro(uint64_t seed, int shards, int case_id) {
  std::string repro = "dgf_difftest --shard-sweep --seed=" +
                      std::to_string(seed) +
                      " --shards=" + std::to_string(shards);
  if (case_id >= 0) repro += " --case=" + std::to_string(case_id);
  return repro;
}

}  // namespace

MarkerBatch MakeMarkerBatch(const workload::MeterConfig& config, int rows) {
  MarkerBatch batch;
  for (int j = 0; j < rows; ++j) {
    table::Row row;
    row.push_back(table::Value::Int64(config.num_users + j));
    row.push_back(table::Value::Int64(1 + (j % config.num_regions)));
    const int64_t day = config.start_day + (j % config.num_days);
    row.push_back(table::Value::Date(day));
    const double power = 7.25 + 1.5 * j;
    row.push_back(table::Value::Double(power));
    for (int m = 0; m < config.extra_metrics; ++m) {
      row.push_back(table::Value::Double(0.5 * m));
    }
    batch.lines.push_back(table::FormatRowText(row));
    batch.days.push_back(day);
    batch.powers.push_back(power);
    ++batch.expected_count;
    batch.expected_sum += power;
  }
  return batch;
}

Status CheckMarkerAppend(server::ServerClient* client,
                         const workload::MeterConfig& config,
                         const MarkerBatch& batch) {
  DGF_ASSIGN_OR_RETURN(server::Response append,
                       client->Append("meterdata", batch.lines));
  if (!append.ok()) return server::ResponseStatus(append);
  if (append.rows_appended != batch.lines.size()) {
    return Status::Internal(
        "append acknowledged " + std::to_string(append.rows_appended) +
        " rows, sent " + std::to_string(batch.lines.size()));
  }
  const std::string base =
      "SELECT count(*), sum(powerConsumed) FROM meterdata WHERE userId >= " +
      std::to_string(config.num_users);
  const std::string banded =
      base + " AND time >= '" + table::FormatDate(config.start_day) +
      "' AND time <= '" +
      table::FormatDate(config.start_day + config.num_days - 1) + "'";
  for (const std::string& sql : {base, banded}) {
    DGF_ASSIGN_OR_RETURN(server::Response response, client->Query(sql));
    if (!response.ok()) return server::ResponseStatus(response);
    DGF_ASSIGN_OR_RETURN(query::QueryResult result,
                         ResultFromPayload(response.result));
    if (result.rows.size() != 1 || result.rows[0].size() != 2) {
      return Status::Internal("marker probe did not return one row: " + sql);
    }
    const int64_t count = result.rows[0][0].int64();
    const double sum = result.rows[0][1].AsDouble();
    if (count != batch.expected_count) {
      return Status::Internal(
          "marker probe count=" + std::to_string(count) + " expected=" +
          std::to_string(batch.expected_count) + " for: " + sql);
    }
    const double tolerance =
        1e-9 * std::max(1.0, std::fabs(batch.expected_sum));
    if (std::fabs(sum - batch.expected_sum) > tolerance) {
      return Status::Internal("marker probe sum=" + std::to_string(sum) +
                              " expected=" +
                              std::to_string(batch.expected_sum) +
                              " for: " + sql);
    }
  }
  return Status::OK();
}

Result<ShardSweepReport> RunShardSweep(const ShardSweepOptions& options) {
  ShardSweepReport report;
  std::vector<int> shard_counts = {1, 2, 4};
  if (options.only_shards > 0) shard_counts = {options.only_shards};

  for (uint64_t seed = options.seed;
       seed < options.seed + static_cast<uint64_t>(options.count); ++seed) {
    DGF_ASSIGN_OR_RETURN(SeededWorld world,
                         SeededWorld::Build(seed, /*worker_threads=*/2));
    ++report.seeds_run;

    // The oracle answers every case once; each cluster size replays the
    // same cases through the coordinator.
    struct Case {
      int case_id;
      query::Query query;
      query::QueryResult oracle;
    };
    std::vector<Case> cases;
    for (int case_id = 0; case_id < options.num_queries; ++case_id) {
      if (options.only_case >= 0 && case_id != options.only_case) continue;
      query::Query q = world.GenerateQuery(seed, case_id);
      DGF_ASSIGN_OR_RETURN(query::QueryResult oracle, world.Oracle(q));
      cases.push_back(Case{case_id, std::move(q), std::move(oracle)});
    }

    for (int requested : shard_counts) {
      ShardedCluster::Options cluster_options;
      cluster_options.config = world.config();
      cluster_options.dims = world.dims();
      cluster_options.num_shards = requested;
      DGF_ASSIGN_OR_RETURN(auto cluster,
                           ShardedCluster::Start(cluster_options));
      ++report.clusters_run;
      DGF_ASSIGN_OR_RETURN(auto client, cluster->Connect());

      auto diverge = [&](int case_id, const std::string& query,
                         const std::string& detail) {
        Divergence divergence;
        divergence.seed = seed;
        divergence.case_id = case_id;
        divergence.query = query;
        divergence.path_a = "oracle";
        divergence.path_b =
            "coordinator(" + std::to_string(cluster->num_shards()) +
            " shards)";
        divergence.detail = detail;
        divergence.repro = ShardRepro(seed, requested, case_id);
        report.divergences.push_back(std::move(divergence));
      };

      for (const Case& c : cases) {
        const std::string sql = c.query.ToSql();
        auto response = client->Query(sql);
        ++report.queries_run;
        if (!response.ok()) {
          diverge(c.case_id, sql,
                  "transport: " + response.status().ToString());
          continue;
        }
        if (!response->ok()) {
          diverge(c.case_id, sql,
                  "error response: " +
                      server::ResponseStatus(*response).ToString());
          continue;
        }
        auto sharded = ResultFromPayload(response->result);
        if (!sharded.ok()) {
          diverge(c.case_id, sql,
                  "result parse: " + sharded.status().ToString());
          continue;
        }
        const std::string mismatch =
            DescribeResultMismatch(c.oracle, *sharded);
        if (!mismatch.empty()) {
          diverge(c.case_id, sql, mismatch);
          continue;
        }
        // Stats invariants: every shard answers via its DGF index, and a
        // projection's merged match count is exactly the oracle's row count
        // (shard row sets are disjoint).
        if (sharded->stats.path != query::AccessPath::kDgfIndex) {
          diverge(c.case_id, sql,
                  std::string("merged access path was ") +
                      query::AccessPathName(sharded->stats.path));
          continue;
        }
        const bool projection =
            !c.query.group_by.has_value() &&
            c.query.Aggregations().empty();
        if (projection &&
            sharded->stats.records_matched != c.oracle.rows.size()) {
          diverge(c.case_id, sql,
                  "merged records_matched=" +
                      std::to_string(sharded->stats.records_matched) +
                      " oracle rows=" +
                      std::to_string(c.oracle.rows.size()));
          continue;
        }
        if (options.verbose) {
          std::fprintf(stderr, "seed=%llu shards=%d case=%d ok\n",
                       static_cast<unsigned long long>(seed),
                       cluster->num_shards(), c.case_id);
        }
      }

      if (options.only_case < 0) {
        // Cross-shard append: a marker batch spanning every day band, then
        // exact-routing probes.
        const MarkerBatch batch =
            MakeMarkerBatch(world.config(), /*rows=*/3 * world.config().num_days);
        const Status appended =
            CheckMarkerAppend(client.get(), world.config(), batch);
        ++report.appends_checked;
        if (!appended.ok()) {
          diverge(-1, "APPEND " + std::to_string(batch.lines.size()) +
                          " marker rows",
                  appended.ToString());
        }
      }
    }
  }
  return report;
}

}  // namespace dgf::testing
