#include "testing/node_crash_sweep.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dgf/dgf_index.h"
#include "fs/mini_dfs.h"
#include "kv/lsm_kv.h"
#include "query/executor.h"
#include "query/parser.h"
#include "table/table.h"
#include "testing/shard_sweep.h"
#include "workload/meter_gen.h"

namespace dgf::testing {
namespace {

constexpr int kTimeSlot = 2;  // MeterSchema: userId, regionId, time, ...

constexpr char kCountSumSql[] =
    "SELECT count(*), sum(powerConsumed) FROM meterdata";

/// Deterministic per-cluster choreography stream (splitmix64): which shard
/// and store die, and at which case index, are all functions of the seed.
uint64_t NextRand(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::string NodeCrashRepro(uint64_t seed, int shards) {
  return "dgf_difftest --node-crash-sweep --seed=" + std::to_string(seed) +
         " --seeds=1 --shards=" + std::to_string(shards);
}

Status CheckCountSum(const std::pair<int64_t, double>& got,
                     int64_t expected_count, double expected_sum,
                     const std::string& what) {
  if (got.first != expected_count) {
    return Status::Internal(what + ": count=" + std::to_string(got.first) +
                            " expected=" + std::to_string(expected_count));
  }
  const double tolerance = 1e-9 * std::max(1.0, std::fabs(expected_sum));
  if (std::fabs(got.second - expected_sum) > tolerance) {
    return Status::Internal(what + ": sum=" + std::to_string(got.second) +
                            " expected=" + std::to_string(expected_sum));
  }
  return Status::OK();
}

}  // namespace

Result<NodeCrashSweepReport> RunNodeCrashSweep(
    const NodeCrashSweepOptions& options) {
  NodeCrashSweepReport report;
  std::vector<int> shard_counts = {2, 4};
  if (options.only_shards > 0) shard_counts = {options.only_shards};

  for (uint64_t seed = options.seed;
       seed < options.seed + static_cast<uint64_t>(options.count); ++seed) {
    DGF_ASSIGN_OR_RETURN(SeededWorld world,
                         SeededWorld::Build(seed, /*worker_threads=*/2));
    ++report.seeds_run;
    const workload::MeterConfig& config = world.config();
    const table::Schema schema = workload::MeterSchema(config);

    struct Case {
      int case_id;
      query::Query query;
      query::QueryResult oracle;
    };
    std::vector<Case> cases;
    for (int case_id = 0; case_id < options.num_queries; ++case_id) {
      query::Query q = world.GenerateQuery(seed, case_id);
      DGF_ASSIGN_OR_RETURN(query::QueryResult oracle, world.Oracle(q));
      cases.push_back(Case{case_id, std::move(q), std::move(oracle)});
    }

    for (int requested : shard_counts) {
      ShardedCluster::Options cluster_options;
      cluster_options.config = config;
      cluster_options.dims = world.dims();
      cluster_options.num_shards = requested;
      cluster_options.replication = 2;
      DGF_ASSIGN_OR_RETURN(auto cluster,
                           ShardedCluster::Start(cluster_options));
      ++report.clusters_run;
      DGF_ASSIGN_OR_RETURN(auto client, cluster->Connect());

      auto diverge = [&](const std::string& stage, const std::string& query,
                         const std::string& detail) {
        Divergence divergence;
        divergence.seed = seed;
        divergence.case_id = -1;
        divergence.query = query;
        divergence.path_a = "oracle";
        divergence.path_b = "node-crash(" +
                            std::to_string(cluster->num_shards()) +
                            " shards, " + stage + ")";
        divergence.detail = detail;
        divergence.repro = NodeCrashRepro(seed, requested);
        report.divergences.push_back(std::move(divergence));
      };

      // Every case query through the coordinator must equal the oracle,
      // whatever has been killed so far.
      auto run_case = [&](const Case& c, const std::string& stage) {
        const std::string sql = c.query.ToSql();
        ++report.queries_run;
        auto response = client->Query(sql);
        if (!response.ok()) {
          diverge(stage, sql, "transport: " + response.status().ToString());
          return;
        }
        if (!response->ok()) {
          diverge(stage, sql,
                  "error response: " +
                      server::ResponseStatus(*response).ToString());
          return;
        }
        auto sharded = ResultFromPayload(response->result);
        if (!sharded.ok()) {
          diverge(stage, sql,
                  "result parse: " + sharded.status().ToString());
          return;
        }
        const std::string mismatch = DescribeResultMismatch(c.oracle, *sharded);
        if (!mismatch.empty()) diverge(stage, sql, mismatch);
      };

      uint64_t rng = seed * 0x9E3779B97F4A7C15ull + 0x100 +
                     static_cast<uint64_t>(requested);
      const int num_shards = cluster->num_shards();
      const int victim_shard = static_cast<int>(
          NextRand(rng) % static_cast<uint64_t>(num_shards));
      const int victim_store = static_cast<int>(NextRand(rng) % 2);
      const size_t kill_at =
          cases.size() >= 2 ? 1 + NextRand(rng) % (cases.size() - 1) : 0;
      const auto& victim_dfs = cluster->shard_dfs(victim_shard);

      // --- Stage 1: healthy prefix, then a replica store's process dies
      // (its copies stay on disk) at a seed-derived case index.
      for (size_t i = 0; i < kill_at; ++i) run_case(cases[i], "healthy");
      DGF_RETURN_IF_ERROR(victim_dfs->KillStore(victim_store,
                                                /*wipe_data=*/false));
      ++report.store_kills;
      // Deterministic failover exercise: read a file whose *preferred*
      // replica is the dead store; the read must succeed via the survivor
      // and the failover counter must move.
      const uint64_t failovers_before = victim_dfs->TotalReadFailovers();
      for (const fs::FileStatus& fstat : victim_dfs->ListFiles("/")) {
        if (fstat.length == 0) continue;
        const std::vector<int> order = victim_dfs->ReplicaOrder(fstat.path);
        if (order.empty() || order[0] != victim_store) continue;
        auto reader = victim_dfs->OpenForRead(fstat.path);
        if (!reader.ok()) {
          diverge("store-down", "Pread " + fstat.path,
                  "open: " + reader.status().ToString());
          break;
        }
        std::string buf;
        const Status read = (*reader)->Pread(
            0, std::min<uint64_t>(fstat.length, 1024), &buf);
        if (!read.ok()) {
          diverge("store-down", "Pread " + fstat.path,
                  "read did not fail over: " + read.ToString());
        } else if (victim_dfs->TotalReadFailovers() <= failovers_before) {
          diverge("store-down", "Pread " + fstat.path,
                  "preferred replica was down but no failover was counted");
        }
        break;
      }
      for (size_t i = kill_at; i < cases.size(); ++i) {
        run_case(cases[i], "store-down");
      }
      report.read_failovers +=
          victim_dfs->TotalReadFailovers() - failovers_before;

      // --- Stage 2: the store comes back, then its *disk* is lost. Reads
      // route around the wiped copy via the per-file replica-valid flags;
      // ReReplicate() repairs it from the survivor and VerifyReplicas
      // proves every copy byte-identical.
      DGF_RETURN_IF_ERROR(victim_dfs->ReviveStore(victim_store));
      DGF_RETURN_IF_ERROR(victim_dfs->KillStore(victim_store,
                                                /*wipe_data=*/true));
      ++report.store_kills;
      const size_t mid = cases.size() / 2;
      for (size_t i = 0; i < mid; ++i) run_case(cases[i], "store-wiped");
      DGF_RETURN_IF_ERROR(victim_dfs->ReviveStore(victim_store));
      DGF_ASSIGN_OR_RETURN(const uint64_t repaired,
                           victim_dfs->ReReplicate());
      report.replicas_repaired += repaired;
      if (repaired == 0) {
        diverge("re-replicate", "ReReplicate()",
                "wiped store repaired 0 replicas");
      }
      for (const fs::FileStatus& fstat : victim_dfs->ListFiles("/")) {
        const Status verified = victim_dfs->VerifyReplicas(fstat.path);
        if (!verified.ok()) {
          diverge("re-replicate", "VerifyReplicas " + fstat.path,
                  verified.ToString());
        }
      }
      for (size_t i = mid; i < cases.size(); ++i) {
        run_case(cases[i], "repaired");
      }

      // --- Stage 3: an acknowledged cross-shard marker append (riding each
      // shard's replicated WAL), then one shard's whole daemon dies, and one
      // replica store's directory is wiped on disk. Reopening the survivor
      // cold (DFS → re-replication → LsmKv WAL/MANIFEST replay → DGF index →
      // executor) must reproduce exactly the acknowledged prefix for that
      // shard.
      const MarkerBatch batch =
          MakeMarkerBatch(config, /*rows=*/3 * config.num_days);
      const Status appended =
          CheckMarkerAppend(client.get(), config, batch);
      if (!appended.ok()) {
        diverge("append", "APPEND " + std::to_string(batch.lines.size()) +
                              " marker rows",
                appended.ToString());
      }

      const int downed_shard = static_cast<int>(
          NextRand(rng) % static_cast<uint64_t>(num_shards));
      cluster->KillShardDaemon(downed_shard);
      ++report.daemon_kills;

      int64_t expected_count = 0;
      double expected_sum = 0;
      const int power_slot = kTimeSlot + 1;  // powerConsumed follows time.
      DGF_RETURN_IF_ERROR(workload::ForEachMeterRow(
          config, [&](const table::Row& row) -> Status {
            if (cluster->shard_map().ShardForValue(
                    row[kTimeSlot].int64()) == downed_shard) {
              ++expected_count;
              expected_sum += row[power_slot].AsDouble();
            }
            return Status::OK();
          }));
      for (size_t j = 0; j < batch.days.size(); ++j) {
        if (cluster->shard_map().ShardForValue(batch.days[j]) ==
            downed_shard) {
          ++expected_count;
          expected_sum += batch.powers[j];
        }
      }

      // With k=2 an *open* file (the LsmKv WAL) is never re-replicated, so
      // on the store-killed shard it has exactly one current copy; losing
      // that disk too would lose acknowledged data by design. Wipe the
      // other store there; elsewhere both copies are current, either goes.
      const int lost_store = downed_shard == victim_shard
                                 ? victim_store
                                 : static_cast<int>(NextRand(rng) % 2);
      std::error_code ec;
      std::filesystem::remove_all(
          std::filesystem::path(cluster->shard_dir(downed_shard)) /
              ("r" + std::to_string(lost_store)),
          ec);

      const Status recovered = [&]() -> Status {
        fs::MiniDfs::Options dfs_options;
        dfs_options.root_dir = cluster->shard_dir(downed_shard);
        dfs_options.block_size = 16384;
        dfs_options.replication = 2;
        DGF_ASSIGN_OR_RETURN(auto dfs, fs::MiniDfs::Open(dfs_options));
        DGF_ASSIGN_OR_RETURN(const uint64_t rebuilt, dfs->ReReplicate());
        if (rebuilt == 0) {
          return Status::Internal(
              "wiped store rebuilt 0 replicas on reopen");
        }
        report.replicas_repaired += rebuilt;
        kv::LsmKv::Options lsm_options;
        lsm_options.dfs = dfs;
        lsm_options.dir = "/s/kv";
        DGF_ASSIGN_OR_RETURN(auto lsm, kv::LsmKv::Open(std::move(lsm_options)));
        std::shared_ptr<kv::KvStore> store(std::move(lsm));
        DGF_ASSIGN_OR_RETURN(auto dgf,
                             core::DgfIndex::Open(dfs, store, schema));
        query::QueryExecutor::Options exec_options;
        exec_options.dfs = dfs;
        exec_options.split_size = 16384;
        exec_options.worker_threads = 2;
        query::QueryExecutor exec(exec_options);
        exec.RegisterTable(cluster->meter_desc());
        exec.RegisterDgfIndex(cluster->meter_desc().name, dgf.get());
        DGF_ASSIGN_OR_RETURN(query::Query probe,
                             query::ParseQuery(kCountSumSql, schema));
        DGF_ASSIGN_OR_RETURN(query::QueryResult result, exec.Execute(probe));
        if (result.rows.size() != 1 || result.rows[0].size() != 2) {
          return Status::Internal("recovery probe did not return one row");
        }
        return CheckCountSum(
            {result.rows[0][0].int64(), result.rows[0][1].AsDouble()},
            expected_count, expected_sum, "recovered shard");
      }();
      ++report.recoveries_checked;
      if (!recovered.ok()) {
        diverge("recovery", kCountSumSql, recovered.ToString());
      }

      if (options.verbose) {
        std::fprintf(stderr,
                     "seed=%llu shards=%d node-crash ok=%d (victim shard %d "
                     "store %d, downed shard %d)\n",
                     static_cast<unsigned long long>(seed), num_shards,
                     report.divergences.empty() ? 1 : 0, victim_shard,
                     victim_store, downed_shard);
      }
    }
  }
  return report;
}

}  // namespace dgf::testing
