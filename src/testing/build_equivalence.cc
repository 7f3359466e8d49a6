#include "testing/build_equivalence.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "common/random.h"
#include "dgf/dgf_builder.h"
#include "dgf/dgf_input_format.h"
#include "kv/lsm_kv.h"
#include "table/table.h"
#include "workload/meter_gen.h"

namespace dgf::testing {
namespace {

/// Held first so the backing directory outlives every handle into it.
/// Move-only: ownership of the directory travels with the world object.
struct DirRemover {
  std::filesystem::path path;
  DirRemover() = default;
  DirRemover(DirRemover&& other) noexcept : path(std::move(other.path)) {
    other.path.clear();
  }
  DirRemover& operator=(DirRemover&& other) noexcept {
    std::swap(path, other.path);
    return *this;
  }
  DirRemover(const DirRemover&) = delete;
  DirRemover& operator=(const DirRemover&) = delete;
  ~DirRemover() {
    if (path.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

/// One built engine variant: format x build_threads over the same dataset.
struct BuiltIndex {
  std::string data_dir;
  std::shared_ptr<kv::KvStore> store;
  std::unique_ptr<core::DgfIndex> index;
};

Result<std::map<std::string, std::string>> DumpStore(kv::KvStore* store) {
  std::map<std::string, std::string> out;
  auto it = store->NewIterator();
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    out.emplace(std::string(it->key()), std::string(it->value()));
  }
  return out;
}

/// Relative form of `path` under `dir` (slice files are compared modulo the
/// per-build data directory).
std::string StripDir(const std::string& path, const std::string& dir) {
  if (path.rfind(dir + "/", 0) == 0) return path.substr(dir.size() + 1);
  return path;
}

bool SameDoubleBits(double a, double b) {
  uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

bool FieldsClose(const std::string& a, const std::string& b) {
  if (a == b) return true;
  char* end_a = nullptr;
  char* end_b = nullptr;
  const double da = std::strtod(a.c_str(), &end_a);
  const double db = std::strtod(b.c_str(), &end_b);
  if (end_a != a.c_str() + a.size() || end_b != b.c_str() + b.size()) {
    return false;
  }
  const double scale = std::max({1.0, std::fabs(da), std::fabs(db)});
  return std::fabs(da - db) <= 1e-9 * scale;
}

std::vector<std::string> SplitFields(const std::string& line) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == '|') {
      out.push_back(line.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

/// Exact match first; numeric fallback with tight tolerance (RCFile round
/// trips values through its own encoding).
bool LinesClose(const std::string& a, const std::string& b) {
  if (a == b) return true;
  const std::vector<std::string> fa = SplitFields(a);
  const std::vector<std::string> fb = SplitFields(b);
  if (fa.size() != fb.size()) return false;
  for (size_t i = 0; i < fa.size(); ++i) {
    if (!FieldsClose(fa[i], fb[i])) return false;
  }
  return true;
}

/// The sweep's world: one generated dataset + append batch, shared by every
/// engine variant built over it.
struct SweepWorld {
  DirRemover remover;
  std::shared_ptr<fs::MiniDfs> dfs;
  workload::MeterConfig base_config;
  workload::MeterConfig append_config;
  table::TableDesc base;
  table::TableDesc append;
  std::vector<core::DimensionPolicy> dims;
  std::vector<std::string> precompute;
  int num_reducers = 2;
};

Result<SweepWorld> MakeWorld(uint64_t seed) {
  SweepWorld world;
  Random rng(seed * 0x9E3779B97F4A7C15ULL + 0xB111D);

  workload::MeterConfig& config = world.base_config;
  config.num_users = 20 + static_cast<int64_t>(rng.Uniform(40));
  config.num_regions = 2 + static_cast<int64_t>(rng.Uniform(5));
  config.num_days = 2 + static_cast<int>(rng.Uniform(3));
  config.readings_per_day = 1;
  config.extra_metrics = static_cast<int>(rng.Uniform(3));
  config.user_skew = (rng.Uniform(2) == 0) ? 0.0 : 0.8;
  config.seed = seed ^ 0xC0FFEEULL;

  // The append batch extends the time dimension past the base days — the
  // paper's incremental-load shape — with the same row schema.
  world.append_config = config;
  world.append_config.start_day = config.start_day + config.num_days;
  world.append_config.num_days = 1 + static_cast<int>(rng.Uniform(2));
  world.append_config.seed = seed ^ 0xABBAULL;

  static std::atomic<int> counter{0};
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("dgf_buildsweep_" + std::to_string(::getpid()) + "_" +
       std::to_string(seed) + "_" + std::to_string(counter++));
  std::filesystem::remove_all(dir);
  world.remover.path = dir;

  fs::MiniDfs::Options dfs_options;
  dfs_options.root_dir = dir.string();
  dfs_options.block_size = 8192;
  DGF_ASSIGN_OR_RETURN(world.dfs, fs::MiniDfs::Open(dfs_options));

  // Small data files force multi-file, multi-split inputs — the sharding
  // the parallel pipeline actually distributes.
  DGF_ASSIGN_OR_RETURN(
      world.base,
      workload::GenerateMeterTable(world.dfs, "/w/meter", config,
                                   table::FileFormat::kText,
                                   /*max_file_bytes=*/4096));
  DGF_ASSIGN_OR_RETURN(
      world.append,
      workload::GenerateMeterTable(world.dfs, "/w/append", world.append_config,
                                   table::FileFormat::kText,
                                   /*max_file_bytes=*/4096));

  world.dims = {
      {"userId", table::DataType::kInt64, 0,
       static_cast<double>(1 + rng.Uniform(20))},
      {"regionId", table::DataType::kInt64, 0,
       static_cast<double>(1 + rng.Uniform(3))},
      {"time", table::DataType::kDate, static_cast<double>(config.start_day),
       static_cast<double>(1 + rng.Uniform(2))},
  };
  world.precompute = {"sum(powerConsumed)", "count(*)", "min(powerConsumed)",
                      "max(powerConsumed)"};
  world.num_reducers = 1 + static_cast<int>(rng.Uniform(4));
  return world;
}

Result<BuiltIndex> BuildVariant(const SweepWorld& world,
                                table::FileFormat format, int threads) {
  BuiltIndex built;
  const std::string variant =
      std::string(format == table::FileFormat::kText
                      ? "text"
                      : format == table::FileFormat::kRcFile ? "rc" : "col") +
      "/t" + std::to_string(threads);
  built.data_dir = "/dgf/" + variant;
  // The store lives outside every data dir the comparison lists.
  DGF_ASSIGN_OR_RETURN(built.store, kv::LsmKv::Open({.dfs = world.dfs,
                                                     .dir = "/kv/" + variant}));
  core::DgfBuilder::Options options;
  options.dims = world.dims;
  options.precompute = world.precompute;
  options.data_dir = built.data_dir;
  options.data_format = format;
  options.job.num_reducers = world.num_reducers;
  options.job.worker_threads = threads;
  options.split_size = 4096;
  options.build_threads = threads;
  DGF_ASSIGN_OR_RETURN(
      built.index,
      core::DgfBuilder::Build(world.dfs, built.store, world.base, options));
  DGF_RETURN_IF_ERROR(core::DgfBuilder::Append(built.index.get(), world.append,
                                               options.job, options.split_size,
                                               threads)
                          .status());
  return built;
}

/// Byte-level comparison of two builds of the same world (KV artifacts and
/// slice files), modulo the per-build data directory.
void CompareBuilds(const SweepWorld& world, const BuiltIndex& baseline,
                   const BuiltIndex& other, const std::string& context,
                   BuildSweepReport* report) {
  auto fail = [&](const std::string& what) {
    report->failures.push_back(context + ": " + what);
  };
  auto base_dump = DumpStore(baseline.store.get());
  auto other_dump = DumpStore(other.store.get());
  if (!base_dump.ok() || !other_dump.ok()) {
    fail("store dump failed");
    return;
  }
  for (const auto& [key, value] : *base_dump) {
    if (!other_dump->count(key)) {
      fail("missing key " + key);
      return;
    }
  }
  for (const auto& [key, value] : *other_dump) {
    if (!base_dump->count(key)) {
      fail("extra key " + key);
      return;
    }
  }
  for (const auto& [key, base_value] : *base_dump) {
    ++report->comparisons;
    const std::string& other_value = other_dump->at(key);
    if (!key.empty() && key.front() == core::kGfuKeyPrefix) {
      auto a = core::GfuValue::Decode(base_value);
      auto b = core::GfuValue::Decode(other_value);
      if (!a.ok() || !b.ok()) {
        fail("GfuValue decode failed for key " + key);
        return;
      }
      if (a->record_count != b->record_count) {
        fail("record_count differs for key " + key + ": " +
             std::to_string(a->record_count) + " vs " +
             std::to_string(b->record_count));
        return;
      }
      if (a->header.size() != b->header.size()) {
        fail("header arity differs for key " + key);
        return;
      }
      for (size_t i = 0; i < a->header.size(); ++i) {
        if (!SameDoubleBits(a->header[i], b->header[i])) {
          fail("header[" + std::to_string(i) + "] differs for key " + key +
               ": " + std::to_string(a->header[i]) + " vs " +
               std::to_string(b->header[i]) + " (not bit-identical)");
          return;
        }
      }
      if (a->slices.size() != b->slices.size()) {
        fail("slice count differs for key " + key);
        return;
      }
      for (size_t i = 0; i < a->slices.size(); ++i) {
        const core::SliceLocation& sa = a->slices[i];
        const core::SliceLocation& sb = b->slices[i];
        if (StripDir(sa.file, baseline.data_dir) !=
                StripDir(sb.file, other.data_dir) ||
            sa.start != sb.start || sa.end != sb.end) {
          fail("slice " + std::to_string(i) + " differs for key " + key);
          return;
        }
      }
    } else if (key == core::kMetaDataDirKey) {
      // Per-build by construction.
    } else if (base_value != other_value) {
      fail("meta value differs for key " + key);
      return;
    }
  }
  // Slice files: same relative names, same bytes.
  const auto base_files = world.dfs->ListFiles(baseline.data_dir + "/");
  const auto other_files = world.dfs->ListFiles(other.data_dir + "/");
  if (base_files.size() != other_files.size()) {
    fail("file count differs: " + std::to_string(base_files.size()) + " vs " +
         std::to_string(other_files.size()));
    return;
  }
  for (size_t i = 0; i < base_files.size(); ++i) {
    ++report->comparisons;
    const std::string rel_a = StripDir(base_files[i].path, baseline.data_dir);
    const std::string rel_b = StripDir(other_files[i].path, other.data_dir);
    if (rel_a != rel_b) {
      fail("file name differs: " + rel_a + " vs " + rel_b);
      return;
    }
    if (base_files[i].length != other_files[i].length) {
      fail("file length differs for " + rel_a);
      return;
    }
    auto reader_a = world.dfs->OpenForRead(base_files[i].path);
    auto reader_b = world.dfs->OpenForRead(other_files[i].path);
    if (!reader_a.ok() || !reader_b.ok()) {
      fail("open failed for " + rel_a);
      return;
    }
    std::string bytes_a, bytes_b;
    if (!(*reader_a)->Pread(0, base_files[i].length, &bytes_a).ok() ||
        !(*reader_b)->Pread(0, other_files[i].length, &bytes_b).ok()) {
      fail("read failed for " + rel_a);
      return;
    }
    if (bytes_a != bytes_b) {
      fail("file bytes differ for " + rel_a);
      return;
    }
  }
}

/// The expected contents of the index: every generated row (base + append)
/// with its grid cell coordinates.
struct ExpectedData {
  std::vector<std::vector<int64_t>> cells;  // per row
  std::vector<std::string> lines;           // FormatRowText per row
  std::vector<int64_t> min_cell;
  std::vector<int64_t> max_cell;
  std::map<std::string, uint64_t> per_key_records;  // encoded key -> rows
};

Result<ExpectedData> ComputeExpected(const SweepWorld& world) {
  DGF_ASSIGN_OR_RETURN(
      core::SplittingPolicy policy,
      core::SplittingPolicy::Create(world.dims, world.base.schema));
  std::vector<int> dim_fields;
  for (const core::DimensionPolicy& dim : world.dims) {
    DGF_ASSIGN_OR_RETURN(int field, world.base.schema.FieldIndex(dim.column));
    dim_fields.push_back(field);
  }
  ExpectedData expected;
  const int num_dims = static_cast<int>(world.dims.size());
  expected.min_cell.assign(static_cast<size_t>(num_dims),
                           std::numeric_limits<int64_t>::max());
  expected.max_cell.assign(static_cast<size_t>(num_dims),
                           std::numeric_limits<int64_t>::min());
  const auto sink = [&](const table::Row& row) -> Status {
    std::vector<int64_t> cells(static_cast<size_t>(num_dims));
    for (int d = 0; d < num_dims; ++d) {
      cells[static_cast<size_t>(d)] = policy.CellOf(
          d, row[static_cast<size_t>(dim_fields[static_cast<size_t>(d)])]);
      expected.min_cell[static_cast<size_t>(d)] =
          std::min(expected.min_cell[static_cast<size_t>(d)],
                   cells[static_cast<size_t>(d)]);
      expected.max_cell[static_cast<size_t>(d)] =
          std::max(expected.max_cell[static_cast<size_t>(d)],
                   cells[static_cast<size_t>(d)]);
    }
    core::GfuKey key;
    key.cells = cells;
    ++expected.per_key_records[key.Encode()];
    expected.cells.push_back(std::move(cells));
    expected.lines.push_back(table::FormatRowText(row));
    return Status::OK();
  };
  DGF_RETURN_IF_ERROR(workload::ForEachMeterRow(world.base_config, sink));
  DGF_RETURN_IF_ERROR(workload::ForEachMeterRow(world.append_config, sink));
  return expected;
}

/// Checks one baseline build against the data itself: key sets, per-key
/// record counts, dimension bounds, and cell-box query answers (Lookup +
/// slice scan vs a sequential scan of the generated rows).
void CheckAgainstData(const SweepWorld& world, const ExpectedData& expected,
                      const BuiltIndex& built, table::FileFormat format,
                      int queries, uint64_t seed, const std::string& context,
                      BuildSweepReport* report) {
  auto fail = [&](const std::string& what) {
    report->failures.push_back(context + ": " + what);
  };
  auto dump = DumpStore(built.store.get());
  if (!dump.ok()) {
    fail("store dump failed");
    return;
  }
  const int num_dims = static_cast<int>(world.dims.size());

  // Key set and per-key record counts must match the data exactly.
  std::map<std::string, core::GfuValue> gfus;
  for (const auto& [key, value] : *dump) {
    if (key.empty() || key.front() != core::kGfuKeyPrefix) continue;
    auto decoded = core::GfuValue::Decode(value);
    if (!decoded.ok()) {
      fail("GfuValue decode failed");
      return;
    }
    gfus.emplace(key, std::move(*decoded));
  }
  ++report->comparisons;
  if (gfus.size() != expected.per_key_records.size()) {
    fail("GFU count " + std::to_string(gfus.size()) + " != expected " +
         std::to_string(expected.per_key_records.size()));
    return;
  }
  for (const auto& [key, records] : expected.per_key_records) {
    auto it = gfus.find(key);
    if (it == gfus.end()) {
      fail("expected key missing from index");
      return;
    }
    if (it->second.record_count != records) {
      fail("record_count " + std::to_string(it->second.record_count) +
           " != expected " + std::to_string(records));
      return;
    }
  }
  // Dimension bounds metadata must equal a fold over the published keys.
  for (int d = 0; d < num_dims; ++d) {
    ++report->comparisons;
    auto min_it = dump->find(core::kMetaDimMinPrefix + std::to_string(d));
    auto max_it = dump->find(core::kMetaDimMaxPrefix + std::to_string(d));
    if (min_it == dump->end() || max_it == dump->end()) {
      fail("missing dimension bound meta for dim " + std::to_string(d));
      return;
    }
    if (min_it->second !=
            std::to_string(expected.min_cell[static_cast<size_t>(d)]) ||
        max_it->second !=
            std::to_string(expected.max_cell[static_cast<size_t>(d)])) {
      fail("dimension bounds differ for dim " + std::to_string(d));
      return;
    }
  }

  // Cell-box queries: Lookup + slice scans vs the sequential-scan oracle.
  Random rng(seed * 0x51AB5ULL + 0x9E37);
  for (int q = 0; q < queries; ++q) {
    std::vector<int64_t> lo(static_cast<size_t>(num_dims));
    std::vector<int64_t> hi(static_cast<size_t>(num_dims));
    for (int d = 0; d < num_dims; ++d) {
      const int64_t min_c = expected.min_cell[static_cast<size_t>(d)];
      const int64_t max_c = expected.max_cell[static_cast<size_t>(d)];
      lo[static_cast<size_t>(d)] = rng.UniformRange(min_c, max_c);
      hi[static_cast<size_t>(d)] =
          rng.UniformRange(lo[static_cast<size_t>(d)], max_c);
    }
    std::vector<std::string> want;
    for (size_t r = 0; r < expected.cells.size(); ++r) {
      bool inside = true;
      for (int d = 0; d < num_dims && inside; ++d) {
        const int64_t c = expected.cells[r][static_cast<size_t>(d)];
        inside = c >= lo[static_cast<size_t>(d)] &&
                 c <= hi[static_cast<size_t>(d)];
      }
      if (inside) want.push_back(expected.lines[r]);
    }
    std::vector<std::string> got;
    bool scan_failed = false;
    for (const auto& [key, value] : gfus) {
      auto decoded_key = core::GfuKey::Decode(key, num_dims);
      if (!decoded_key.ok()) {
        fail("GfuKey decode failed");
        return;
      }
      bool inside = true;
      for (int d = 0; d < num_dims && inside; ++d) {
        const int64_t c = decoded_key->cells[static_cast<size_t>(d)];
        inside = c >= lo[static_cast<size_t>(d)] &&
                 c <= hi[static_cast<size_t>(d)];
      }
      if (!inside) continue;
      for (const core::SliceLocation& slice : value.slices) {
        auto reader = core::OpenSliceReader(world.dfs, slice,
                                            world.base.schema, format);
        if (!reader.ok()) {
          scan_failed = true;
          break;
        }
        table::Row row;
        for (;;) {
          auto more = (*reader)->Next(&row);
          if (!more.ok()) {
            scan_failed = true;
            break;
          }
          if (!*more) break;
          got.push_back(table::FormatRowText(row));
        }
        if (scan_failed) break;
      }
      if (scan_failed) break;
    }
    if (scan_failed) {
      fail("slice scan failed for query " + std::to_string(q));
      return;
    }
    ++report->comparisons;
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    if (want.size() != got.size()) {
      fail("query " + std::to_string(q) + " row count " +
           std::to_string(got.size()) + " != oracle " +
           std::to_string(want.size()));
      return;
    }
    for (size_t i = 0; i < want.size(); ++i) {
      if (!LinesClose(want[i], got[i])) {
        fail("query " + std::to_string(q) + " row " + std::to_string(i) +
             " differs: oracle '" + want[i] + "' vs index '" + got[i] + "'");
        return;
      }
    }
  }
}

Status RunOneSeed(const BuildSweepOptions& options, uint64_t seed,
                  BuildSweepReport* report) {
  DGF_ASSIGN_OR_RETURN(SweepWorld world, MakeWorld(seed));
  DGF_ASSIGN_OR_RETURN(ExpectedData expected, ComputeExpected(world));

  const table::FileFormat formats[] = {table::FileFormat::kText,
                                       table::FileFormat::kRcFile,
                                       table::FileFormat::kColumnar};
  const char* format_names[] = {"text", "rc", "col"};
  BuiltIndex baselines[3];
  for (int f = 0; f < 3; ++f) {
    const table::FileFormat format = formats[f];
    const char* format_name = format_names[f];
    for (size_t t = 0; t < options.thread_counts.size(); ++t) {
      const int threads = options.thread_counts[t];
      DGF_ASSIGN_OR_RETURN(BuiltIndex built,
                           BuildVariant(world, format, threads));
      ++report->builds;
      const std::string context = "seed " + std::to_string(seed) + " " +
                                  format_name + " threads=" +
                                  std::to_string(threads);
      if (t == 0) {
        // The baseline must agree with the data itself; the other thread
        // counts must then byte-match the baseline.
        CheckAgainstData(world, expected, built, format,
                         options.queries_per_world, seed, context, report);
        baselines[f] = std::move(built);
      } else {
        CompareBuilds(world, baselines[f], built,
                      context + " vs threads=" +
                          std::to_string(options.thread_counts[0]),
                      report);
      }
    }
  }
  // Cross-format agreement: same keys, counts, and headers (all formats
  // shard the same text input, so even the header bits must match).
  for (int f = 1; f < 3; ++f) {
    const std::string context = "seed " + std::to_string(seed) + " text vs " +
                                format_names[f];
    auto text_dump = DumpStore(baselines[0].store.get());
    auto other_dump = DumpStore(baselines[f].store.get());
    if (!text_dump.ok() || !other_dump.ok()) {
      report->failures.push_back(context + ": store dump failed");
      return Status::OK();
    }
    for (const auto& [key, value] : *text_dump) {
      if (key.empty() || key.front() != core::kGfuKeyPrefix) continue;
      ++report->comparisons;
      auto it = other_dump->find(key);
      if (it == other_dump->end()) {
        report->failures.push_back(context + ": key missing from " +
                                   std::string(format_names[f]) + " build");
        return Status::OK();
      }
      auto a = core::GfuValue::Decode(value);
      auto b = core::GfuValue::Decode(it->second);
      if (!a.ok() || !b.ok() || a->record_count != b->record_count ||
          a->header.size() != b->header.size()) {
        report->failures.push_back(context + ": GFU shape differs");
        return Status::OK();
      }
      for (size_t i = 0; i < a->header.size(); ++i) {
        if (!SameDoubleBits(a->header[i], b->header[i])) {
          report->failures.push_back(context + ": header differs for " + key);
          return Status::OK();
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace

Result<BuildSweepReport> RunBuildEquivalenceSweep(
    const BuildSweepOptions& options) {
  BuildSweepReport report;
  if (options.thread_counts.empty()) {
    return Status::InvalidArgument("thread_counts must not be empty");
  }
  for (int i = 0; i < options.count; ++i) {
    const uint64_t seed = options.seed + static_cast<uint64_t>(i);
    DGF_RETURN_IF_ERROR(RunOneSeed(options, seed, &report));
    ++report.seeds_run;
    if (options.verbose) {
      std::fprintf(stderr,
                   "[build-sweep] seed %llu done (%d builds, %llu checks, %zu "
                   "failures)\n",
                   static_cast<unsigned long long>(seed), report.builds,
                   static_cast<unsigned long long>(report.comparisons),
                   report.failures.size());
    }
    if (report.failures.size() >= 20) break;  // enough signal to debug
  }
  return report;
}

}  // namespace dgf::testing
