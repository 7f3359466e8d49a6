#ifndef DGF_TESTING_NODE_CRASH_SWEEP_H_
#define DGF_TESTING_NODE_CRASH_SWEEP_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "testing/differential.h"

namespace dgf::testing {

/// Kill-a-node survivability sweep: every seeded world is served by
/// replicated 2- and 4-shard clusters (replication=2 MiniDfs per shard,
/// LsmKv so the metadata/epoch log rides DFS replication), and nodes die at
/// seed-derived points while the paper-template queries must keep matching
/// the single-node oracle exactly:
///
///  1. a replica *store* dies mid-case-stream (process kill: data intact,
///     reads fail over); then its disk is wiped: reads route around the
///     lost copy, `ReReplicate()` repairs it and `VerifyReplicas` proves the
///     copies;
///  2. after an acknowledged cross-shard marker append, a shard's whole
///     *daemon* dies; its on-disk state (minus one replica store, wiped to
///     model disk loss) is reopened cold — DFS, LsmKv, DGF index, executor —
///     and must equal the acknowledged prefix.
///
/// Redundancy here is MiniDfs replication only: a dead shard process fails
/// the coordinator's queries Unavailable (coord_test covers that), it does
/// not fail over.
struct NodeCrashSweepOptions {
  uint64_t seed = 1;
  /// Worlds swept: seeds [seed, seed + count).
  int count = 1;
  int num_queries = 12;
  /// > 0: run only this shard count (replay); else 2 and 4.
  int only_shards = 0;
  bool verbose = false;
};

struct NodeCrashSweepReport {
  int seeds_run = 0;
  int clusters_run = 0;
  int queries_run = 0;
  int store_kills = 0;
  int daemon_kills = 0;
  int recoveries_checked = 0;
  /// Replicas repaired by ReReplicate across the sweep (wipe scenarios).
  uint64_t replicas_repaired = 0;
  /// Failover reads observed on killed-store shards across the sweep.
  uint64_t read_failovers = 0;
  std::vector<Divergence> divergences;

  bool ok() const { return divergences.empty(); }
};

Result<NodeCrashSweepReport> RunNodeCrashSweep(
    const NodeCrashSweepOptions& options);

}  // namespace dgf::testing

#endif  // DGF_TESTING_NODE_CRASH_SWEEP_H_
