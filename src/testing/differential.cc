#include "testing/differential.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/random.h"
#include "dgf/dgf_builder.h"
#include "index/bitmap_index.h"
#include "index/compact_index.h"
#include "kv/lsm_kv.h"
#include "query/executor.h"
#include "table/table.h"
#include "testing/corruption.h"
#include "testing/fault_schedule.h"
#include "workload/meter_gen.h"
#include "workload/query_gen.h"

namespace dgf::testing {

using query::AccessPath;

/// Held as the first member of World so the backing directory outlives (and
/// is removed after) every handle into it.
struct DirRemover {
  std::filesystem::path path;
  ~DirRemover() {
    if (path.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

/// One seeded world: a randomized meter dataset materialized as an RCFile
/// base table (Bitmap requires RCFile) with every access path built over it.
/// The three DGFIndexes (text, rcfile, columnar Slices) live in separate
/// executors because an executor holds one DGF index per table.
struct World {
  DirRemover remover;
  std::shared_ptr<fs::MiniDfs> dfs;
  workload::MeterConfig config;
  table::TableDesc meter;
  std::vector<core::DimensionPolicy> dims;
  std::unique_ptr<index::CompactIndex> compact;
  std::unique_ptr<index::BitmapIndex> bitmap;
  std::unique_ptr<index::AggregateIndex> aggregate;
  std::shared_ptr<kv::KvStore> text_store;
  std::shared_ptr<kv::KvStore> rc_store;
  std::shared_ptr<kv::KvStore> col_store;
  std::unique_ptr<core::DgfIndex> dgf_text;
  std::unique_ptr<core::DgfIndex> dgf_rc;
  std::unique_ptr<core::DgfIndex> dgf_col;
  std::unique_ptr<query::QueryExecutor> base_exec;
  std::unique_ptr<query::QueryExecutor> dgf_text_exec;
  std::unique_ptr<query::QueryExecutor> dgf_rc_exec;
  std::unique_ptr<query::QueryExecutor> dgf_col_exec;
};

namespace {

core::AggSpec Agg(const char* text) {
  auto spec = core::AggSpec::Parse(text);
  // Generator aggregations are fixed literals; Parse cannot fail on them.
  return *spec;
}

Result<std::unique_ptr<World>> BuildWorld(uint64_t seed, int worker_threads) {
  auto world = std::make_unique<World>();
  Random rng(seed * 0x9E3779B97F4A7C15ULL + 0xD1FF);

  // Randomize the dataset shape: user count, region cardinality, day span,
  // extra columns, and skew all vary per seed so structural edge cases
  // (single-region tables, near-empty days) get coverage across seeds.
  workload::MeterConfig& config = world->config;
  config.num_users = 40 + static_cast<int64_t>(rng.Uniform(160));
  config.num_regions = 3 + static_cast<int64_t>(rng.Uniform(9));
  config.num_days = 3 + static_cast<int>(rng.Uniform(5));
  config.readings_per_day = 1;
  config.extra_metrics = static_cast<int>(rng.Uniform(3));
  config.user_skew = (rng.Uniform(2) == 0) ? 0.0 : 0.8;
  config.seed = seed ^ 0xC0FFEEULL;

  static std::atomic<int> counter{0};
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("dgf_difftest_" + std::to_string(::getpid()) + "_" +
       std::to_string(seed) + "_" + std::to_string(counter++));
  std::filesystem::remove_all(dir);
  world->remover.path = dir;

  fs::MiniDfs::Options dfs_options;
  dfs_options.root_dir = dir.string();
  dfs_options.block_size = 16384;
  DGF_ASSIGN_OR_RETURN(world->dfs, fs::MiniDfs::Open(dfs_options));

  // Small data files force multi-file, multi-split tables.
  DGF_ASSIGN_OR_RETURN(
      world->meter,
      workload::GenerateMeterTable(world->dfs, "/w/meter", config,
                                   table::FileFormat::kRcFile,
                                   /*max_file_bytes=*/48 * 1024));

  // Randomized grid: interval sizes are the main driver of inner/boundary
  // GFU classification, the logic the differential run is hunting in.
  world->dims = {
      {"userId", table::DataType::kInt64, 0,
       static_cast<double>(1 + rng.Uniform(50))},
      {"regionId", table::DataType::kInt64, 0,
       static_cast<double>(1 + rng.Uniform(3))},
      {"time", table::DataType::kDate, static_cast<double>(config.start_day),
       static_cast<double>(1 + rng.Uniform(3))},
  };

  index::CompactIndex::BuildOptions compact_build;
  compact_build.dims = {"regionId", "time"};
  compact_build.index_dir = "/w/idx_compact";
  compact_build.split_size = 16384;
  // The index lookups copy their build's job options: a one-thread world
  // must read its index files on one thread too, or the fault sweep's
  // read-ordinal schedule stops replaying.
  compact_build.job.worker_threads = worker_threads;
  DGF_ASSIGN_OR_RETURN(
      world->compact,
      index::CompactIndex::Build(world->dfs, world->meter, compact_build));

  index::BitmapIndex::BuildOptions bitmap_build;
  bitmap_build.dims = {"regionId", "time"};
  bitmap_build.index_dir = "/w/idx_bitmap";
  bitmap_build.split_size = 16384;
  bitmap_build.job.worker_threads = worker_threads;
  DGF_ASSIGN_OR_RETURN(
      world->bitmap,
      index::BitmapIndex::Build(world->dfs, world->meter, bitmap_build));

  index::CompactIndex::BuildOptions agg_build;
  agg_build.dims = {"regionId", "time"};
  agg_build.index_dir = "/w/idx_agg";
  agg_build.index_format = table::FileFormat::kText;
  agg_build.split_size = 16384;
  agg_build.job.worker_threads = worker_threads;
  DGF_ASSIGN_OR_RETURN(
      world->aggregate,
      index::AggregateIndex::Build(world->dfs, world->meter, agg_build));

  // The three GFU stores live under /kv/, outside the /w/ tree whose files
  // the fault sweep's corruption stage flips.
  core::DgfBuilder::Options dgf_build;
  dgf_build.dims = world->dims;
  // sum+count precomputed, min/max not: queries exercise both the
  // precomputed-header path and the fall-back slice path.
  dgf_build.precompute = {"sum(powerConsumed)", "count(*)"};
  dgf_build.split_size = 16384;
  dgf_build.data_dir = "/w/dgf_text";
  dgf_build.data_format = table::FileFormat::kText;
  DGF_ASSIGN_OR_RETURN(world->text_store,
                       kv::LsmKv::Open({.dfs = world->dfs, .dir = "/kv/text"}));
  DGF_ASSIGN_OR_RETURN(world->dgf_text,
                       core::DgfBuilder::Build(world->dfs, world->text_store,
                                               world->meter, dgf_build));
  dgf_build.data_dir = "/w/dgf_rc";
  dgf_build.data_format = table::FileFormat::kRcFile;
  DGF_ASSIGN_OR_RETURN(world->rc_store,
                       kv::LsmKv::Open({.dfs = world->dfs, .dir = "/kv/rc"}));
  DGF_ASSIGN_OR_RETURN(world->dgf_rc,
                       core::DgfBuilder::Build(world->dfs, world->rc_store,
                                               world->meter, dgf_build));
  dgf_build.data_dir = "/w/dgf_col";
  dgf_build.data_format = table::FileFormat::kColumnar;
  DGF_ASSIGN_OR_RETURN(world->col_store,
                       kv::LsmKv::Open({.dfs = world->dfs, .dir = "/kv/col"}));
  DGF_ASSIGN_OR_RETURN(world->dgf_col,
                       core::DgfBuilder::Build(world->dfs, world->col_store,
                                               world->meter, dgf_build));

  query::QueryExecutor::Options exec_options;
  exec_options.dfs = world->dfs;
  exec_options.split_size = 16384;
  exec_options.worker_threads = worker_threads;

  world->base_exec = std::make_unique<query::QueryExecutor>(exec_options);
  world->base_exec->RegisterTable(world->meter);
  world->base_exec->RegisterCompactIndex(world->meter.name,
                                         world->compact.get());
  world->base_exec->RegisterBitmapIndex(world->meter.name,
                                        world->bitmap.get());
  world->base_exec->RegisterAggregateIndex(world->meter.name,
                                           world->aggregate.get());

  world->dgf_text_exec = std::make_unique<query::QueryExecutor>(exec_options);
  world->dgf_text_exec->RegisterTable(world->meter);
  world->dgf_text_exec->RegisterDgfIndex(world->meter.name,
                                         world->dgf_text.get());

  world->dgf_rc_exec = std::make_unique<query::QueryExecutor>(exec_options);
  world->dgf_rc_exec->RegisterTable(world->meter);
  world->dgf_rc_exec->RegisterDgfIndex(world->meter.name,
                                       world->dgf_rc.get());

  world->dgf_col_exec = std::make_unique<query::QueryExecutor>(exec_options);
  world->dgf_col_exec->RegisterTable(world->meter);
  world->dgf_col_exec->RegisterDgfIndex(world->meter.name,
                                        world->dgf_col.get());
  return world;
}

table::Value DimValue(int dim, int64_t v) {
  return dim == 2 ? table::Value::Date(v) : table::Value::Int64(v);
}

/// Generates case `case_id` of `seed`'s workload: a query with 0-3 range
/// conditions on the grid dimensions (point / two-sided / half-open, bounds
/// sometimes snapped exactly onto grid-cell boundaries), optionally a
/// condition on the non-indexed measure, under one of five select shapes.
query::Query GenerateCase(const World& world, uint64_t seed, int case_id) {
  Random rng(seed + 0x9E3779B97F4A7C15ULL *
                        (static_cast<uint64_t>(case_id) + 1));
  query::Query q;
  q.table = world.meter.name;

  if (rng.Uniform(100) < 20) {
    // Paper query templates (Listings 4/5/7 via workload/query_gen): the
    // exact shapes the evaluation runs, at the evaluated selectivities.
    // Join (Listing 6) is excluded — the world has no userInfo table.
    constexpr workload::MeterQueryKind kKinds[] = {
        workload::MeterQueryKind::kAggregation,
        workload::MeterQueryKind::kGroupBy,
        workload::MeterQueryKind::kPartial};
    constexpr workload::Selectivity kSels[] = {
        workload::Selectivity::kPoint, workload::Selectivity::kFivePercent,
        workload::Selectivity::kTwelvePercent};
    return workload::MakeMeterQuery(world.config, kKinds[rng.Uniform(3)],
                                    kSels[rng.Uniform(3)],
                                    /*variant=*/rng.Next());
  }

  for (int d = 0; d < 3; ++d) {
    if (rng.Uniform(100) < 30) continue;  // partial-specified query
    const core::DimensionPolicy& dim = world.dims[static_cast<size_t>(d)];
    int64_t domain_lo = 0;
    int64_t domain_hi = 0;  // one past the real values: empty-edge coverage
    switch (d) {
      case 0:
        domain_hi = world.config.num_users;
        break;
      case 1:
        domain_hi = world.config.num_regions;
        break;
      default:
        domain_lo = world.config.start_day;
        domain_hi = world.config.start_day + world.config.num_days;
        break;
    }
    auto pick = [&]() -> int64_t {
      int64_t v = domain_lo + static_cast<int64_t>(rng.Uniform(
                                  static_cast<uint64_t>(domain_hi - domain_lo) + 1));
      if (rng.Uniform(2) == 0) {
        // Snap onto the grid boundary at or below v; sometimes step one
        // value inside the previous cell. Boundary-aligned predicates are
        // where inner/boundary-GFU classification off-by-ones live.
        const auto interval = static_cast<int64_t>(dim.interval);
        const auto min = static_cast<int64_t>(dim.min);
        v = min + ((v - min) / interval) * interval;
        if (rng.Uniform(4) == 0) v -= 1;
      }
      return v;
    };
    switch (rng.Uniform(4)) {
      case 0:
        q.where.And(query::ColumnRange::Equal(dim.column, DimValue(d, pick())));
        break;
      case 1: {
        int64_t a = pick();
        int64_t b = pick();
        if (a > b) std::swap(a, b);
        q.where.And(query::ColumnRange::Between(
            dim.column, DimValue(d, a), rng.Uniform(2) == 0, DimValue(d, b),
            rng.Uniform(2) == 0));
        break;
      }
      case 2: {
        query::ColumnRange range;
        range.column = dim.column;
        range.lower = query::Bound{DimValue(d, pick()), rng.Uniform(2) == 0};
        q.where.And(std::move(range));
        break;
      }
      default: {
        query::ColumnRange range;
        range.column = dim.column;
        range.upper = query::Bound{DimValue(d, pick()), rng.Uniform(2) == 0};
        q.where.And(std::move(range));
        break;
      }
    }
  }
  if (rng.Uniform(100) < 30) {
    // Condition on the non-indexed measure: the index consultation cannot
    // use it, so every path must re-apply it during the data scan.
    const double lo = rng.UniformDouble(0, 20);
    q.where.And(query::ColumnRange::Between(
        "powerConsumed", table::Value::Double(lo), true,
        table::Value::Double(lo + rng.UniformDouble(0, 20)), false));
  }

  switch (rng.Uniform(5)) {
    case 0:  // fully precomputed aggregation: DGF answers inner GFUs from headers
      q.select.push_back(query::SelectItem::Aggregation(Agg("sum(powerConsumed)")));
      if (rng.Uniform(2) == 0) {
        q.select.push_back(query::SelectItem::Aggregation(Agg("count(*)")));
      }
      break;
    case 1:  // not precomputed: DGF must fall back to scanning slices
      q.select.push_back(query::SelectItem::Aggregation(Agg("min(powerConsumed)")));
      q.select.push_back(query::SelectItem::Aggregation(Agg("max(powerConsumed)")));
      break;
    case 2:  // projection: row-for-row comparison across paths
      q.select.push_back(query::SelectItem::Column("userId"));
      q.select.push_back(query::SelectItem::Column("time"));
      q.select.push_back(query::SelectItem::Column("powerConsumed"));
      break;
    case 3:
      q.select.push_back(query::SelectItem::Column("time"));
      q.select.push_back(query::SelectItem::Aggregation(Agg("sum(powerConsumed)")));
      q.group_by = "time";
      break;
    default: {  // count group-by: eligible for the Aggregate Index rewrite
      const char* col = rng.Uniform(2) == 0 ? "regionId" : "time";
      q.select.push_back(query::SelectItem::Column(col));
      q.select.push_back(query::SelectItem::Aggregation(Agg("count(*)")));
      q.group_by = col;
      break;
    }
  }
  return q;
}

bool AggregateRewriteEligible(const query::Query& q) {
  if (!q.group_by.has_value() || q.select.size() != 2) return false;
  const std::vector<core::AggSpec> aggs = q.Aggregations();
  if (aggs.size() != 1 || aggs[0].func != core::AggFunc::kCount) return false;
  const auto in_dims = [](const std::string& column) {
    return table::ColumnNameEquals(column, "regionId") ||
           table::ColumnNameEquals(column, "time");
  };
  if (!in_dims(*q.group_by)) return false;
  for (const auto& range : q.where.ranges()) {
    if (!in_dims(range.column)) return false;
  }
  return true;
}

/// Cell equality: exact for ints/dates/strings, tight relative tolerance for
/// doubles (partial sums merge in path-dependent order).
bool ValuesClose(const table::Value& a, const table::Value& b) {
  if (a.is_string() != b.is_string()) return false;
  if (a.is_string()) return a.str() == b.str();
  if (a.is_double() || b.is_double()) {
    const double da = a.AsDouble();
    const double db = b.AsDouble();
    // Exact match first: min/max over an empty selection yield +-inf
    // identities, where da - db would be NaN.
    if (da == db) return true;
    const double tol = 1e-9 * std::max({1.0, std::fabs(da), std::fabs(db)});
    return std::fabs(da - db) <= tol;
  }
  return a.Compare(b) == 0;
}

std::vector<table::Row> CanonicalRows(const query::QueryResult& result) {
  std::vector<table::Row> rows = result.rows;
  // Row order is not part of the contract (paths scan splits in different
  // orders); non-aggregated cells are decoded from identical stored bytes,
  // so exact comparison is a sound sort key.
  std::sort(rows.begin(), rows.end(),
            [](const table::Row& x, const table::Row& y) {
              const size_t n = std::min(x.size(), y.size());
              for (size_t i = 0; i < n; ++i) {
                const int c = x[i].Compare(y[i]);
                if (c != 0) return c < 0;
              }
              return x.size() < y.size();
            });
  return rows;
}

/// Empty string when the results agree; else the first difference.
std::string DescribeMismatch(const query::QueryResult& oracle,
                             const query::QueryResult& other) {
  const std::vector<table::Row> a = CanonicalRows(oracle);
  const std::vector<table::Row> b = CanonicalRows(other);
  if (a.size() != b.size()) {
    return "row count " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) {
      return "row " + std::to_string(i) + " width " +
             std::to_string(a[i].size()) + " vs " + std::to_string(b[i].size());
    }
    for (size_t j = 0; j < a[i].size(); ++j) {
      if (!ValuesClose(a[i][j], b[i][j])) {
        return "row " + std::to_string(i) + " col " + std::to_string(j) +
               ": " + a[i][j].ToText() + " vs " + b[i][j].ToText();
      }
    }
  }
  return std::string();
}

struct PathRun {
  const char* name;
  query::QueryExecutor* exec;
  AccessPath path;
};

std::vector<PathRun> PathsFor(World& world, const query::Query& q) {
  std::vector<PathRun> paths = {
      {"CompactIndex", world.base_exec.get(), AccessPath::kCompactIndex},
      {"BitmapIndex", world.base_exec.get(), AccessPath::kBitmapIndex},
      {"DGFIndex/text", world.dgf_text_exec.get(), AccessPath::kDgfIndex},
      {"DGFIndex/rcfile", world.dgf_rc_exec.get(), AccessPath::kDgfIndex},
      {"DGFIndex/columnar", world.dgf_col_exec.get(), AccessPath::kDgfIndex},
  };
  if (AggregateRewriteEligible(q)) {
    paths.push_back({"AggregateRewrite", world.base_exec.get(),
                     AccessPath::kAggregateRewrite});
  }
  return paths;
}

/// Runs oracle + one path on `q`; empty string = agree.
std::string ComparePair(World& world, const query::Query& q,
                        const PathRun& path) {
  auto oracle = world.base_exec->Execute(q, AccessPath::kFullScan);
  if (!oracle.ok()) return std::string();  // not this path's divergence
  auto other = path.exec->Execute(q, path.path);
  if (!other.ok()) return "error: " + other.status().ToString();
  return DescribeMismatch(*oracle, *other);
}

/// Minimizes a diverging query: first tries dropping whole conditions, then
/// halving two-sided ranges, keeping each candidate that still diverges.
query::Query Shrink(World& world, const query::Query& original,
                    const PathRun& path, int budget = 48) {
  query::Query best = original;
  bool progress = true;
  while (progress && budget > 0) {
    progress = false;
    const std::vector<query::ColumnRange> ranges = best.where.ranges();
    for (size_t drop = 0; drop < ranges.size() && budget > 0; ++drop) {
      query::Query candidate = best;
      candidate.where = query::Predicate();
      for (size_t j = 0; j < ranges.size(); ++j) {
        if (j != drop) candidate.where.And(ranges[j]);
      }
      --budget;
      if (!ComparePair(world, candidate, path).empty()) {
        best = std::move(candidate);
        progress = true;
        break;
      }
    }
    if (progress) continue;
    for (size_t i = 0; i < ranges.size() && budget > 0; ++i) {
      const query::ColumnRange& range = ranges[i];
      if (!range.lower.has_value() || !range.upper.has_value()) continue;
      if (range.lower->value.is_string()) continue;
      const double lo = range.lower->value.AsDouble();
      const double hi = range.upper->value.AsDouble();
      if (hi - lo < 1.0) continue;
      const auto mid = static_cast<int64_t>(std::floor((lo + hi) / 2));
      const table::Value mid_value =
          range.lower->value.is_date()     ? table::Value::Date(mid)
          : range.lower->value.is_int64()  ? table::Value::Int64(mid)
                                           : table::Value::Double(
                                                 static_cast<double>(mid));
      for (int half = 0; half < 2 && budget > 0; ++half) {
        query::ColumnRange narrowed = range;
        if (half == 0) {
          narrowed.upper = query::Bound{mid_value, true};
        } else {
          narrowed.lower = query::Bound{mid_value, true};
        }
        query::Query candidate = best;
        candidate.where = query::Predicate();
        for (size_t j = 0; j < ranges.size(); ++j) {
          candidate.where.And(j == i ? narrowed : ranges[j]);
        }
        --budget;
        if (!ComparePair(world, candidate, path).empty()) {
          best = std::move(candidate);
          progress = true;
          break;
        }
      }
      if (progress) break;
    }
  }
  return best;
}

std::string ReproLine(uint64_t seed, int case_id) {
  return "dgf_difftest --seed=" + std::to_string(seed) +
         " --case=" + std::to_string(case_id);
}

/// Threaded differential: oracle results are computed sequentially first (the
/// reference is single-threaded by definition), then `options.threads` reader
/// threads share the world's executors — and through them one DGF index and
/// one decoded-GFU cache per format — and re-run every path concurrently.
/// Any divergence from the sequential oracle is either a real query bug or a
/// concurrency bug in the snapshot machinery; shrinking happens after the
/// threads join so it cannot perturb the concurrent phase.
Result<DiffReport> RunDifferentialThreaded(const DiffOptions& options,
                                           World& world) {
  DiffReport report;
  const int n = options.num_queries;
  std::vector<query::Query> queries;
  queries.reserve(static_cast<size_t>(n));
  for (int case_id = 0; case_id < n; ++case_id) {
    queries.push_back(GenerateCase(world, options.seed, case_id));
  }

  std::vector<std::optional<query::QueryResult>> oracles(
      static_cast<size_t>(n));
  for (int case_id = 0; case_id < n; ++case_id) {
    ++report.queries_run;
    auto oracle =
        world.base_exec->Execute(queries[static_cast<size_t>(case_id)],
                                 AccessPath::kFullScan);
    if (oracle.ok()) {
      oracles[static_cast<size_t>(case_id)] = std::move(*oracle);
      continue;
    }
    Divergence d;
    d.seed = options.seed;
    d.case_id = case_id;
    d.query = queries[static_cast<size_t>(case_id)].ToString();
    d.path_a = "FullScan";
    d.path_b = "FullScan";
    d.detail = "oracle failed: " + oracle.status().ToString();
    d.repro = ReproLine(options.seed, case_id);
    report.divergences.push_back(std::move(d));
  }

  struct PendingDivergence {
    int case_id;
    std::string path_name;
    std::string detail;
  };
  std::mutex mu;
  std::vector<PendingDivergence> pending;
  std::atomic<int> comparisons{0};
  const int num_threads = std::max(1, std::min(options.threads, n));
  std::vector<std::thread> readers;
  readers.reserve(static_cast<size_t>(num_threads));
  for (int tid = 0; tid < num_threads; ++tid) {
    readers.emplace_back([&, tid] {
      for (int i = tid; i < n; i += num_threads) {
        const auto idx = static_cast<size_t>(i);
        if (!oracles[idx].has_value()) continue;
        for (const PathRun& path : PathsFor(world, queries[idx])) {
          comparisons.fetch_add(1, std::memory_order_relaxed);
          auto other = path.exec->Execute(queries[idx], path.path);
          std::string detail =
              other.ok() ? DescribeMismatch(*oracles[idx], *other)
                         : "error: " + other.status().ToString();
          if (detail.empty()) continue;
          std::lock_guard<std::mutex> lock(mu);
          pending.push_back(PendingDivergence{i, path.name, std::move(detail)});
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  report.comparisons = comparisons.load(std::memory_order_relaxed);

  std::sort(pending.begin(), pending.end(),
            [](const PendingDivergence& a, const PendingDivergence& b) {
              if (a.case_id != b.case_id) return a.case_id < b.case_id;
              return a.path_name < b.path_name;
            });
  for (PendingDivergence& p : pending) {
    const query::Query& q = queries[static_cast<size_t>(p.case_id)];
    const PathRun* run = nullptr;
    std::vector<PathRun> paths = PathsFor(world, q);
    for (const PathRun& candidate : paths) {
      if (p.path_name == candidate.name) run = &candidate;
    }
    const query::Query shrunk =
        (options.shrink && run != nullptr) ? Shrink(world, q, *run) : q;
    Divergence d;
    d.seed = options.seed;
    d.case_id = p.case_id;
    d.query = shrunk.ToString();
    d.path_a = "FullScan";
    d.path_b = std::move(p.path_name);
    d.detail = std::move(p.detail);
    // Sequential replay first; if the case only fails concurrently, the
    // full threaded run is the repro.
    d.repro = ReproLine(options.seed, p.case_id) + " (threaded run: --seed=" +
              std::to_string(options.seed) +
              " --threads=" + std::to_string(options.threads) + ")";
    report.divergences.push_back(std::move(d));
  }
  return report;
}

}  // namespace

std::string Divergence::ToString() const {
  return "DIVERGENCE seed=" + std::to_string(seed) +
         " case=" + std::to_string(case_id) + " " + path_a + " vs " + path_b +
         "\n  query:  " + query + "\n  detail: " + detail +
         "\n  repro:  " + repro;
}

Result<DiffReport> RunDifferential(const DiffOptions& options) {
  DiffReport report;
  DGF_ASSIGN_OR_RETURN(std::unique_ptr<World> world,
                       BuildWorld(options.seed, /*worker_threads=*/4));
  if (options.threads > 1 && options.only_case < 0) {
    return RunDifferentialThreaded(options, *world);
  }
  const int begin = options.only_case >= 0 ? options.only_case : 0;
  const int end =
      options.only_case >= 0 ? options.only_case + 1 : options.num_queries;
  for (int case_id = begin; case_id < end; ++case_id) {
    const query::Query q = GenerateCase(*world, options.seed, case_id);
    if (options.verbose) {
      std::fprintf(stderr, "[difftest] seed=%llu case=%d %s\n",
                   static_cast<unsigned long long>(options.seed), case_id,
                   q.ToString().c_str());
    }
    ++report.queries_run;
    auto oracle = world->base_exec->Execute(q, AccessPath::kFullScan);
    if (!oracle.ok()) {
      Divergence d;
      d.seed = options.seed;
      d.case_id = case_id;
      d.query = q.ToString();
      d.path_a = "FullScan";
      d.path_b = "FullScan";
      d.detail = "oracle failed: " + oracle.status().ToString();
      d.repro = ReproLine(options.seed, case_id);
      report.divergences.push_back(std::move(d));
      continue;
    }
    for (const PathRun& path : PathsFor(*world, q)) {
      ++report.comparisons;
      auto other = path.exec->Execute(q, path.path);
      std::string detail =
          other.ok() ? DescribeMismatch(*oracle, *other)
                     : "error: " + other.status().ToString();
      if (detail.empty()) continue;
      const query::Query shrunk =
          options.shrink ? Shrink(*world, q, path) : q;
      Divergence d;
      d.seed = options.seed;
      d.case_id = case_id;
      d.query = shrunk.ToString();
      d.path_a = "FullScan";
      d.path_b = path.name;
      d.detail = std::move(detail);
      d.repro = ReproLine(options.seed, case_id);
      report.divergences.push_back(std::move(d));
    }
  }
  return report;
}

Result<FaultReport> RunFaultSweep(const FaultSweepOptions& options) {
  FaultReport report;
  // Single worker thread: the schedule's decision ordinals then line up with
  // a deterministic read sequence, so a failing seed replays exactly.
  DGF_ASSIGN_OR_RETURN(std::unique_ptr<World> world,
                       BuildWorld(options.seed, /*worker_threads=*/1));
  struct Probe {
    int case_id;
    query::Query query;
    query::QueryResult oracle;
  };
  // Runs `probe` on every path, FullScan included: a result must equal the
  // oracle and an error must pass `allowed`. Returns the allowed errors.
  auto check_paths = [&](const Probe& probe, const std::string& context,
                         bool (*allowed)(const Status&)) {
    std::vector<PathRun> paths = PathsFor(*world, probe.query);
    paths.push_back({"FullScan", world->base_exec.get(), AccessPath::kFullScan});
    int allowed_errors = 0;
    for (const PathRun& path : paths) {
      ++report.executions;
      auto result = path.exec->Execute(probe.query, path.path);
      std::string detail;
      if (result.ok()) {
        detail = DescribeMismatch(probe.oracle, *result);
        if (!detail.empty()) detail = "wrong data " + context + ": " + detail;
      } else if (allowed(result.status())) {
        ++allowed_errors;
      } else {
        detail = "unstructured error " + context + ": " +
                 result.status().ToString();
      }
      if (detail.empty()) continue;
      Divergence d;
      d.seed = options.seed;
      d.case_id = probe.case_id;
      d.query = probe.query.ToString();
      d.path_a = "FullScan(no faults)";
      d.path_b = path.name;
      d.detail = std::move(detail);
      d.repro =
          "dgf_difftest --fault-sweep --seed=" + std::to_string(options.seed);
      report.divergences.push_back(std::move(d));
    }
    return allowed_errors;
  };

  auto schedule = std::make_shared<SeededFaultSchedule>(
      SeededFaultSchedule::Options{.seed = options.seed});
  std::vector<Probe> probes;
  for (int case_id = 0; case_id < options.num_queries; ++case_id) {
    const query::Query q =
        GenerateCase(*world, options.seed ^ 0xFA57ULL, case_id);
    auto oracle = world->base_exec->Execute(q, AccessPath::kFullScan);
    if (!oracle.ok()) continue;
    ++report.queries_run;
    probes.push_back(Probe{case_id, q, std::move(*oracle)});
    world->dfs->SetReadFaultInjector(schedule);
    // A burst that outlasts the reader's retry budget is the structured
    // failure the contract allows.
    report.structured_errors += check_paths(
        probes.back(), "under fault injection", [](const Status& status) {
          return status.ToString().find("injected transient read error") !=
                 std::string::npos;
        });
    world->dfs->SetReadFaultInjector(nullptr);
  }
  report.faults_injected = schedule->transient_faults();
  report.short_reads = schedule->short_reads();

  // Corruption stage: base table, index tables and slice files alike.
  std::vector<fs::FileStatus> files;
  for (fs::FileStatus& file : world->dfs->ListFiles("/w/")) {
    if (file.length > 0) files.push_back(std::move(file));
  }
  constexpr int kFlips = 4;
  Random rng(options.seed * 0x9E3779B97F4A7C15ULL + 0xF11B);
  for (int flip = 0; flip < kFlips && !files.empty(); ++flip) {
    const fs::FileStatus& file = files[rng.Uniform(files.size())];
    const uint64_t at = rng.Uniform(file.length);
    const std::string context = "with byte " + std::to_string(at) + " of " +
                                file.path + " flipped on disk";
    DGF_RETURN_IF_ERROR(FlipReplicaByte(world->dfs, 0, file.path, at));
    ++report.flips;
    for (const Probe& probe : probes) {
      report.corruptions_detected +=
          check_paths(probe, context, [](const Status& status) {
            return status.IsCorruption();
          });
    }
    DGF_RETURN_IF_ERROR(FlipReplicaByte(world->dfs, 0, file.path, at));
  }
  return report;
}

SeededWorld::SeededWorld(std::unique_ptr<World> world)
    : world_(std::move(world)) {}
SeededWorld::SeededWorld(SeededWorld&&) noexcept = default;
SeededWorld& SeededWorld::operator=(SeededWorld&&) noexcept = default;
SeededWorld::~SeededWorld() = default;

Result<SeededWorld> SeededWorld::Build(uint64_t seed, int worker_threads) {
  DGF_ASSIGN_OR_RETURN(auto world, BuildWorld(seed, worker_threads));
  return SeededWorld(std::move(world));
}

const std::shared_ptr<fs::MiniDfs>& SeededWorld::dfs() const {
  return world_->dfs;
}

const table::TableDesc& SeededWorld::meter() const { return world_->meter; }

const workload::MeterConfig& SeededWorld::config() const {
  return world_->config;
}

const std::vector<core::DimensionPolicy>& SeededWorld::dims() const {
  return world_->dims;
}

core::DgfIndex* SeededWorld::dgf_text() const {
  return world_->dgf_text.get();
}

Result<query::QueryResult> SeededWorld::Oracle(const query::Query& q) const {
  return Execute(q, AccessPath::kFullScan);
}

Result<query::QueryResult> SeededWorld::Execute(const query::Query& q,
                                                AccessPath path) const {
  return world_->base_exec->Execute(q, path);
}

query::Query SeededWorld::GenerateQuery(uint64_t seed, int case_id) const {
  return GenerateCase(*world_, seed, case_id);
}

std::string DescribeResultMismatch(const query::QueryResult& oracle,
                                   const query::QueryResult& other) {
  return DescribeMismatch(oracle, other);
}

}  // namespace dgf::testing
