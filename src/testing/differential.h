#ifndef DGF_TESTING_DIFFERENTIAL_H_
#define DGF_TESTING_DIFFERENTIAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "query/executor.h"
#include "workload/meter_gen.h"

namespace dgf::testing {

struct World;

/// Handle over one seeded differential world — the schema-varied meter
/// dataset with every access path built over it that `RunDifferential`
/// checks. Re-exported so the query-server tests and load harness can serve
/// the exact worlds the differential oracle validates: the server's answers
/// are diffed against `Oracle()` (a sequential full scan) with the same
/// mismatch report the differential run uses.
class SeededWorld {
 public:
  /// Deterministic for a fixed seed (same dataset, grid, and indexes the
  /// differential harness would build).
  static Result<SeededWorld> Build(uint64_t seed, int worker_threads = 2);

  SeededWorld(SeededWorld&&) noexcept;
  SeededWorld& operator=(SeededWorld&&) noexcept;
  ~SeededWorld();

  const std::shared_ptr<fs::MiniDfs>& dfs() const;
  const table::TableDesc& meter() const;
  const workload::MeterConfig& config() const;
  /// The seed's randomized grid policy (the shard sweep rebuilds per-shard
  /// indexes over the identical grid).
  const std::vector<core::DimensionPolicy>& dims() const;
  /// The DGFIndex over TextFile slices (what a server registers).
  core::DgfIndex* dgf_text() const;

  /// Sequential full-scan oracle answer for `q`.
  Result<query::QueryResult> Oracle(const query::Query& q) const;

  /// `q` on the base table forced onto `path` (full scan, Compact, Bitmap
  /// or the Aggregate rewrite).
  Result<query::QueryResult> Execute(const query::Query& q,
                                     query::AccessPath path) const;

  /// Case `case_id` of seed `seed`'s generated workload (paper templates
  /// mixed with randomized multidimensional ranges).
  query::Query GenerateQuery(uint64_t seed, int case_id) const;

 private:
  explicit SeededWorld(std::unique_ptr<World> world);
  std::unique_ptr<World> world_;
};

/// Empty string when the two results agree (row order ignored, tight
/// tolerance on doubles); else a description of the first difference.
std::string DescribeResultMismatch(const query::QueryResult& oracle,
                                   const query::QueryResult& other);

/// One confirmed disagreement between two access paths (or an unexpected
/// execution error). `repro` is a standalone command line that replays
/// exactly this case.
struct Divergence {
  uint64_t seed = 0;
  int case_id = 0;
  /// Textual form of the (possibly shrunk) query that diverged.
  std::string query;
  /// The two access paths that disagreed (path_a is the oracle).
  std::string path_a;
  std::string path_b;
  /// First mismatching cell / row-count mismatch / error status.
  std::string detail;
  std::string repro;

  std::string ToString() const;
};

/// Cross-engine differential run: every generated query is executed through
/// brute-force scan (the oracle), Compact Index, Bitmap Index, DGFIndex over
/// TextFile slices, DGFIndex over RCFile slices, and — when the query shape
/// qualifies — the Aggregate Index count rewrite. All paths re-apply the full
/// predicate during their data scan, so any difference in results is a bug.
struct DiffOptions {
  uint64_t seed = 1;
  int num_queries = 100;
  /// >= 0: generate and run only this case id (seed replay of one failure).
  int only_case = -1;
  /// Bisect a diverging query down to a smaller one before reporting.
  bool shrink = true;
  bool verbose = false;
  /// > 1: run the case set concurrently on this many reader threads, each
  /// case diffed against an oracle result computed sequentially up front.
  /// Exercises the snapshot-isolated read path (shared executors, shared
  /// decoded-GFU cache) under real thread interleavings; results must be
  /// byte-identical to a sequential run. Ignored when only_case is set.
  int threads = 1;
};

struct DiffReport {
  int queries_run = 0;
  /// Path executions compared against the oracle (>= queries_run * 4).
  int comparisons = 0;
  std::vector<Divergence> divergences;

  bool ok() const { return divergences.empty(); }
};

/// Builds a seeded random world (schema variation, dataset, grid policy, all
/// five access paths) and differentially checks `num_queries` generated
/// queries. Deterministic for a fixed (seed, case) pair.
Result<DiffReport> RunDifferential(const DiffOptions& options);

/// Fault sweep: the same differential worlds queried while a seed-replayable
/// SeededFaultSchedule injects transient read errors and short reads into
/// every MiniDfs read. Queries must either succeed with exactly the oracle's
/// rows or fail with the injected structured IOError — never return wrong
/// data. A corruption stage follows: a few times, one seeded byte of a
/// seeded file under the world's directory is flipped on disk, every query
/// reruns on every path, and the byte is flipped back. A query must then
/// return the pre-flip oracle's rows or fail with Corruption.
struct FaultSweepOptions {
  uint64_t seed = 1;
  int num_queries = 40;
  bool verbose = false;
};

struct FaultReport {
  int queries_run = 0;
  /// Path executions checked, under read-fault injection and on a corrupt
  /// disk.
  int executions = 0;
  /// Executions that failed with the injected structured error (retried
  /// transient bursts longer than the reader's budget).
  int structured_errors = 0;
  uint64_t faults_injected = 0;
  uint64_t short_reads = 0;
  /// Corruption stage: on-disk byte flips made, and path executions that
  /// failed with Corruption while a flip was in place.
  int flips = 0;
  int corruptions_detected = 0;
  std::vector<Divergence> divergences;

  bool ok() const { return divergences.empty(); }
};

Result<FaultReport> RunFaultSweep(const FaultSweepOptions& options);

}  // namespace dgf::testing

#endif  // DGF_TESTING_DIFFERENTIAL_H_
