#ifndef DGF_TESTING_SHARD_SWEEP_H_
#define DGF_TESTING_SHARD_SWEEP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "coord/coordinator.h"
#include "coord/shard_map.h"
#include "dgf/splitting_policy.h"
#include "server/client.h"
#include "server/query_service.h"
#include "server/server.h"
#include "testing/differential.h"
#include "workload/meter_gen.h"

namespace dgf::testing {

/// An in-process sharded cluster: N shard servers, each a full QueryService
/// over its contiguous day band of the meter dataset (own MiniDfs, own DGF
/// index built over the same grid policy), fronted by a Coordinator behind
/// its own wire-protocol Server. Clients connect to the front server and
/// cannot tell the cluster from a single node — which is exactly what the
/// shard sweep verifies.
class ShardedCluster {
 public:
  struct Options {
    workload::MeterConfig config;
    /// Grid policy shared by every shard's index (use the oracle world's).
    std::vector<core::DimensionPolicy> dims;
    std::vector<std::string> precompute = {"sum(powerConsumed)", "count(*)"};
    /// Requested shard count; clamped to the day span (`num_shards()` is the
    /// effective value).
    int num_shards = 2;
    /// Replicate the userInfo archive to every shard (broadcast joins).
    bool with_user_info = false;
    /// MiniDfs replication factor for every shard's DFS: k replica stores
    /// with failover reads (1 = one checksummed copy, nothing to fail over
    /// to).
    int replication = 1;
    int max_concurrent = 4;
    int max_pending = 16;
    double connect_timeout_seconds = 2.0;
    double shard_response_timeout_seconds = 30.0;
  };

  static Result<std::unique_ptr<ShardedCluster>> Start(const Options& options);
  ~ShardedCluster();

  ShardedCluster(const ShardedCluster&) = delete;
  ShardedCluster& operator=(const ShardedCluster&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const coord::ShardMap& shard_map() const { return shard_map_; }
  coord::Coordinator* coordinator() { return coordinator_.get(); }
  /// The coordinator-fronting server clients talk to.
  server::Server* front() { return front_.get(); }
  server::Server* shard_server(int i);
  server::QueryService* shard_service(int i);
  const std::shared_ptr<fs::MiniDfs>& shard_dfs(int i);
  /// Local filesystem directory backing shard i's DFS (survives daemon
  /// kills; removed when the cluster is destroyed).
  std::string shard_dir(int i) const;
  /// The grid policy / table descriptor every shard shares.
  const table::TableDesc& meter_desc() const;

  /// Stops shard i's server and tears down its service, index, KV store,
  /// and DFS handle, leaving only the on-disk state — the sweep then reopens
  /// that state to check recovery equals the acknowledged prefix.
  void KillShardDaemon(int i);

  Result<std::unique_ptr<server::ServerClient>> Connect() const;

 private:
  struct Shard;
  ShardedCluster() = default;

  coord::ShardMap shard_map_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<coord::Coordinator> coordinator_;
  std::unique_ptr<server::Server> front_;
};

/// Parses a wire query payload back into typed rows against its schema (the
/// client-side inverse of the server's result encoding).
Result<query::QueryResult> ResultFromPayload(
    const server::QueryResultPayload& payload);

/// The marker rows a sweep appends: userIds >= num_users (disjoint from the
/// base data, so `userId >= num_users` selects exactly them), spread across
/// every base day so the batch crosses every shard band. `days` / `powers`
/// record each row's routing dimension and aggregate contribution so a
/// caller can compute per-shard expectations without re-parsing lines.
struct MarkerBatch {
  std::vector<std::string> lines;
  std::vector<int64_t> days;
  std::vector<double> powers;
  int64_t expected_count = 0;
  double expected_sum = 0;
};

MarkerBatch MakeMarkerBatch(const workload::MeterConfig& config, int rows);

/// Runs the marker-append check against a live cluster: append, then probe
/// with and without an explicit full-range time predicate. Both probes must
/// see exactly the whole batch; a row routed to the wrong shard would be
/// visible to the open probe but missing from the banded one.
Status CheckMarkerAppend(server::ServerClient* client,
                         const workload::MeterConfig& config,
                         const MarkerBatch& batch);

/// Sharded-vs-oracle differential sweep (the PR's acceptance gate): for each
/// seeded world, every generated paper-template query is answered by an
/// in-process 1/2/4-shard cluster through the coordinator and must match the
/// single-node full-scan oracle exactly (rows, aggregates, and the stats
/// invariants DGF execution guarantees). Each cluster then takes a
/// cross-shard APPEND of marker rows spanning every day band and is probed
/// for exact routing: the marker aggregate must be identical with and
/// without an explicit full-range time predicate (a misrouted row would be
/// invisible to the banded probe).
struct ShardSweepOptions {
  uint64_t seed = 1;
  /// Worlds swept: seeds [seed, seed + count).
  int count = 1;
  int num_queries = 20;
  /// >= 0: replay only this case id.
  int only_case = -1;
  /// > 0: run only this shard count (replay); else 1, 2, and 4.
  int only_shards = 0;
  bool verbose = false;
};

struct ShardSweepReport {
  int seeds_run = 0;
  int clusters_run = 0;
  int queries_run = 0;
  int appends_checked = 0;
  std::vector<Divergence> divergences;

  bool ok() const { return divergences.empty(); }
};

Result<ShardSweepReport> RunShardSweep(const ShardSweepOptions& options);

}  // namespace dgf::testing

#endif  // DGF_TESTING_SHARD_SWEEP_H_
