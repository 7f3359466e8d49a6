#include "dgf/dgf_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <span>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "dgf/dgf_input_format.h"
#include "table/text_format.h"

namespace dgf::core {
namespace {

using table::DataType;
using table::Value;

// Upper bound on the number of cells a single lookup may enumerate; a box
// larger than this means the splitting policy is far too fine for the query
// pattern (the paper's policy-choice discussion) and we fail loudly instead
// of grinding.
constexpr uint64_t kMaxLookupCells = 8ULL << 20;

// One MultiGet round trip resolves up to this many cache-missed cells.
constexpr size_t kMultiGetBatch = 256;

// Large-box scanner: entries buffered per wave, and the miss count below
// which a wave is decoded serially (fan-out overhead beats the win).
constexpr size_t kScanWaveSize = 8192;
constexpr size_t kParallelDecodeThreshold = 256;

}  // namespace

/// Deferred-deletion anchor for data files replaced by the slice optimizer.
///
/// Every Snapshot pins the guard that was current at pin time. When the
/// optimizer retires files it closes the current guard — attaching the
/// retired paths and a reference to the fresh successor guard — and swaps
/// the successor in for future pins. The closed guard's destructor deletes
/// the attached files, and it runs only once every pin of this guard AND of
/// every older guard is gone (older guards hold their successor alive
/// through `next_`): exactly the set of snapshots whose KV state could still
/// reference the retired files.
class RetireGuard {
 public:
  explicit RetireGuard(std::shared_ptr<fs::MiniDfs> dfs)
      : dfs_(std::move(dfs)) {}

  RetireGuard(const RetireGuard&) = delete;
  RetireGuard& operator=(const RetireGuard&) = delete;

  ~RetireGuard() {
    for (const std::string& path : files_) {
      Status st = dfs_->Delete(path);
      if (!st.ok() && !st.IsNotFound()) {
        DGF_LOG(kWarn) << "retired file delete: " << st.ToString();
      }
    }
  }

  /// Seals this guard: `files` await deletion, `next` (the successor guard)
  /// stays alive at least as long as this one. Called once, under the
  /// index's guard_mu_; the destructor's reads are ordered after all Close
  /// calls by the shared_ptr refcount release.
  void Close(std::vector<std::string> files, std::shared_ptr<RetireGuard> next) {
    files_ = std::move(files);
    next_ = std::move(next);
  }

 private:
  std::shared_ptr<fs::MiniDfs> dfs_;
  std::vector<std::string> files_;
  std::shared_ptr<RetireGuard> next_;
};

DgfIndex::DgfIndex(std::shared_ptr<fs::MiniDfs> dfs,
                   std::shared_ptr<kv::KvStore> store, table::Schema schema,
                   SplittingPolicy policy, AggregatorList aggs,
                   std::string data_dir, table::FileFormat data_format)
    : dfs_(std::move(dfs)),
      store_(std::move(store)),
      schema_(std::move(schema)),
      policy_(std::move(policy)),
      data_dir_(std::move(data_dir)),
      data_format_(data_format) {
  aggs_serialized_ = aggs.Serialize();
  aggs_ = std::make_shared<const AggregatorList>(std::move(aggs));
  retire_guard_ = std::make_shared<RetireGuard>(dfs_);
}

Result<std::unique_ptr<DgfIndex>> DgfIndex::Open(
    std::shared_ptr<fs::MiniDfs> dfs, std::shared_ptr<kv::KvStore> store,
    table::Schema schema) {
  DGF_ASSIGN_OR_RETURN(std::string policy_text, store->Get(kMetaPolicyKey));
  DGF_ASSIGN_OR_RETURN(SplittingPolicy policy,
                       SplittingPolicy::Deserialize(policy_text));
  DGF_ASSIGN_OR_RETURN(std::string aggs_text, store->Get(kMetaAggsKey));
  DGF_ASSIGN_OR_RETURN(AggregatorList aggs,
                       AggregatorList::Deserialize(aggs_text, schema));
  DGF_ASSIGN_OR_RETURN(std::string data_dir, store->Get(kMetaDataDirKey));
  table::FileFormat format = table::FileFormat::kText;
  if (auto format_text = store->Get(kMetaDataFormatKey); format_text.ok()) {
    if (*format_text == "rcfile") {
      format = table::FileFormat::kRcFile;
    } else if (*format_text == "columnar") {
      format = table::FileFormat::kColumnar;
    }
  }
  return std::unique_ptr<DgfIndex>(new DgfIndex(
      std::move(dfs), std::move(store), std::move(schema), std::move(policy),
      std::move(aggs), std::move(data_dir), format));
}

Result<DgfIndex::Snapshot> DgfIndex::Pin() const {
  Snapshot snap;
  // Guard before KV snapshot: the publisher applies its batch first and
  // swaps the guard second, so any KV state we can observe is covered by the
  // guard we already hold (or a newer state that references no retired
  // files).
  {
    std::lock_guard<std::mutex> lock(guard_mu_);
    snap.guard = retire_guard_;
  }
  snap.kv = store_->GetSnapshot();
  snap.epoch = snap.kv->version();
  // The aggregator list must match the pinned KV state, not the latest
  // publish: compare the snapshot's serialized list against the cached one
  // and fall back to deserializing from the snapshot when a concurrent
  // AddAggregation slipped between our KV snapshot and this read.
  auto aggs_text = snap.kv->Get(kMetaAggsKey);
  {
    std::lock_guard<std::mutex> lock(aggs_mu_);
    if (!aggs_text.ok() || *aggs_text == aggs_serialized_) {
      snap.aggs = aggs_;
      return snap;
    }
  }
  DGF_ASSIGN_OR_RETURN(AggregatorList aggs,
                       AggregatorList::Deserialize(*aggs_text, schema_));
  snap.aggs = std::make_shared<const AggregatorList>(std::move(aggs));
  return snap;
}

std::shared_ptr<const AggregatorList> DgfIndex::aggregators() const {
  std::lock_guard<std::mutex> lock(aggs_mu_);
  return aggs_;
}

void DgfIndex::SetAggs(std::shared_ptr<const AggregatorList> aggs,
                       std::string serialized) {
  std::lock_guard<std::mutex> lock(aggs_mu_);
  aggs_ = std::move(aggs);
  aggs_serialized_ = std::move(serialized);
}

void DgfIndex::RetireDataFiles(std::vector<std::string> files) {
  if (files.empty()) return;
  std::lock_guard<std::mutex> lock(guard_mu_);
  auto next = std::make_shared<RetireGuard>(dfs_);
  retire_guard_->Close(std::move(files), next);
  retire_guard_ = std::move(next);
}

table::TableDesc DgfIndex::DataDesc() const {
  table::TableDesc desc;
  desc.name = "__dgf_data__";
  desc.schema = schema_;
  desc.format = data_format_;
  desc.dir = data_dir_;
  return desc;
}

Result<uint64_t> DgfIndex::NumGfus() const {
  uint64_t count = 0;
  auto it = store_->NewIterator();
  const std::string prefix(1, kGfuKeyPrefix);
  for (it->Seek(prefix); it->Valid(); it->Next()) {
    if (it->key().empty() || it->key().front() != kGfuKeyPrefix) break;
    ++count;
  }
  return count;
}

Result<GfuValue> DgfIndex::GetGfu(const GfuKey& key) const {
  DGF_ASSIGN_OR_RETURN(std::string encoded, store_->Get(key.Encode()));
  return GfuValue::Decode(encoded);
}

Result<int64_t> DgfIndex::MetaCell(const Snapshot& snap,
                                   const std::string& prefix, int dim,
                                   LookupResult* counters) const {
  const std::string key = prefix + std::to_string(dim);
  if (auto cached = meta_cache_.Get(key, snap.epoch)) {
    ++counters->cache_hits;
    return *cached;
  }
  ++counters->cache_misses;
  ++counters->kv_gets;
  DGF_ASSIGN_OR_RETURN(std::string text, snap.kv->Get(key));
  DGF_ASSIGN_OR_RETURN(int64_t cell, ParseInt64(text));
  meta_cache_.Put(key, snap.epoch, cell);
  return cell;
}

void DgfIndex::InvalidateCache() {
  gfu_cache_.Clear();
  meta_cache_.Clear();
}

bool DgfIndex::CoversAggregations(const AggregatorList& aggs,
                                  const std::vector<AggSpec>& requested) {
  for (const AggSpec& spec : requested) {
    if (!aggs.IndexOf(spec).ok()) return false;
  }
  return !requested.empty();
}

bool DgfIndex::CoversAggregations(const std::vector<AggSpec>& requested) const {
  return CoversAggregations(*aggregators(), requested);
}

Result<DgfIndex::CellRange> DgfIndex::DimCellRange(
    const Snapshot& snap, int dim, const query::Predicate& pred,
    LookupResult* counters) const {
  const DimensionPolicy& dp = policy_.dim(dim);
  const query::ColumnRange* range = pred.FindColumn(dp.column);

  CellRange out;
  // Stored domain of this dimension (cells observed at build time). Also the
  // completion for missing predicate dimensions — the paper's partial query
  // handling fetches these from the KV store (cached after the first query).
  DGF_ASSIGN_OR_RETURN(const int64_t min_cell,
                       MetaCell(snap, kMetaDimMinPrefix, dim, counters));
  DGF_ASSIGN_OR_RETURN(const int64_t max_cell,
                       MetaCell(snap, kMetaDimMaxPrefix, dim, counters));

  if (range == nullptr ||
      (!range->lower.has_value() && !range->upper.has_value())) {
    // Unconstrained: whole domain, and every cell is inner on this axis.
    out.lo = out.inner_lo = min_cell;
    out.hi = out.inner_hi = max_cell;
    return out;
  }

  if (dp.type == DataType::kDouble) {
    // Real-valued dimension: work with the bound values directly.
    double lo_value = -std::numeric_limits<double>::infinity();
    bool lo_inclusive = true;
    double hi_value = std::numeric_limits<double>::infinity();
    bool hi_inclusive = true;
    if (range->lower.has_value()) {
      lo_value = range->lower->value.AsDouble();
      lo_inclusive = range->lower->inclusive;
    }
    if (range->upper.has_value()) {
      hi_value = range->upper->value.AsDouble();
      hi_inclusive = range->upper->inclusive;
    }
    if (lo_value > hi_value || (lo_value == hi_value && !(lo_inclusive && hi_inclusive))) {
      return out;  // empty
    }
    out.lo = std::isinf(lo_value) ? min_cell
                                  : policy_.CellOf(dim, Value::Double(lo_value));
    if (std::isinf(hi_value)) {
      out.hi = max_cell;
    } else {
      out.hi = policy_.CellOf(dim, Value::Double(hi_value));
      // An exclusive upper bound sitting exactly on a cell edge does not
      // reach into that cell.
      if (!hi_inclusive &&
          hi_value == policy_.CellLowerBound(dim, out.hi).AsDouble()) {
        --out.hi;
      }
    }
    out.lo = std::max(out.lo, min_cell);
    out.hi = std::min(out.hi, max_cell);
    // Inner cells: [cell_lb, cell_ub) fully inside the value range.
    out.inner_lo = out.lo;
    if (!std::isinf(lo_value)) {
      const double lb = policy_.CellLowerBound(dim, out.lo).AsDouble();
      const bool lo_cell_inner = lo_inclusive ? (lb >= lo_value) : (lb > lo_value);
      out.inner_lo = lo_cell_inner ? out.lo : out.lo + 1;
    }
    out.inner_hi = out.hi;
    if (!std::isinf(hi_value)) {
      const double ub = policy_.CellUpperBound(dim, out.hi).AsDouble();
      // Cell values are < ub; they all satisfy "< hi" or "<= hi" iff ub <= hi.
      const bool hi_cell_inner = ub <= hi_value;
      out.inner_hi = hi_cell_inner ? out.hi : out.hi - 1;
    }
    return out;
  }

  // Integer / date dimension: convert to an effective closed integer range.
  int64_t lo = INT64_MIN, hi = INT64_MAX;
  bool lo_bounded = false, hi_bounded = false;
  if (range->lower.has_value()) {
    lo = range->lower->value.int64();
    if (!range->lower->inclusive) ++lo;
    lo_bounded = true;
  }
  if (range->upper.has_value()) {
    hi = range->upper->value.int64();
    if (!range->upper->inclusive) --hi;
    hi_bounded = true;
  }
  if (lo > hi) return out;  // empty
  out.lo = lo_bounded ? policy_.CellOf(dim, Value::Int64(lo)) : min_cell;
  out.hi = hi_bounded ? policy_.CellOf(dim, Value::Int64(hi)) : max_cell;
  out.lo = std::max(out.lo, min_cell);
  out.hi = std::min(out.hi, max_cell);
  // Inner: the cell's closed value range [lb, ub-1] within [lo, hi].
  out.inner_lo = out.lo;
  if (lo_bounded && policy_.CellLowerBound(dim, out.lo).int64() < lo) {
    out.inner_lo = out.lo + 1;
  }
  out.inner_hi = out.hi;
  if (hi_bounded && policy_.CellUpperBound(dim, out.hi).int64() - 1 > hi) {
    out.inner_hi = out.hi - 1;
  }
  return out;
}

Result<DgfIndex::LookupResult> DgfIndex::Lookup(const query::Predicate& pred,
                                                bool aggregation) {
  DGF_ASSIGN_OR_RETURN(Snapshot snap, Pin());
  return Lookup(snap, pred, aggregation);
}

Result<DgfIndex::LookupResult> DgfIndex::Lookup(const Snapshot& snap,
                                                const query::Predicate& pred,
                                                bool aggregation) const {
  const AggregatorList& aggs = *snap.aggs;
  LookupResult result;
  result.aggregation_path = aggregation;
  result.inner_header = aggs.Identity();

  const int num_dims = policy_.num_dims();
  std::vector<CellRange> ranges(static_cast<size_t>(num_dims));
  uint64_t total_cells = 1;
  for (int d = 0; d < num_dims; ++d) {
    DGF_ASSIGN_OR_RETURN(ranges[static_cast<size_t>(d)],
                         DimCellRange(snap, d, pred, &result));
    const CellRange& r = ranges[static_cast<size_t>(d)];
    if (r.empty()) return result;  // provably no matching data
    total_cells *= static_cast<uint64_t>(r.hi - r.lo + 1);
    if (total_cells > kMaxLookupCells) {
      return Status::OutOfRange(
          "query region spans too many GFUs; use a coarser splitting policy");
    }
  }

  // Whether the cell at `cells` lies fully inside the query box.
  const auto cell_is_inner = [&](const std::vector<int64_t>& cells) -> bool {
    for (int d = 0; d < num_dims; ++d) {
      const CellRange& r = ranges[static_cast<size_t>(d)];
      const int64_t c = cells[static_cast<size_t>(d)];
      if (c < r.inner_lo || c > r.inner_hi) return false;
    }
    return true;
  };

  // Folds one present GFU cell into the result.
  const auto absorb = [&](bool inner, const GfuValue& value) -> void {
    if (inner && aggregation) {
      aggs.Merge(&result.inner_header, value.header);
      result.inner_records += value.record_count;
      ++result.inner_gfus;
    } else {
      result.slices.insert(result.slices.end(), value.slices.begin(),
                           value.slices.end());
      if (inner) {
        ++result.inner_gfus;
      } else {
        ++result.boundary_gfus;
      }
    }
  };

  // Accumulate the per-lookup cache counters into the process-wide atomics
  // on every exit path.
  struct CacheTotalsFlush {
    const DgfIndex* index;
    const LookupResult* result;
    ~CacheTotalsFlush() {
      index->cumulative_cache_hits_.fetch_add(result->cache_hits,
                                              std::memory_order_relaxed);
      index->cumulative_cache_misses_.fetch_add(result->cache_misses,
                                                std::memory_order_relaxed);
    }
  } totals_flush{this, &result};

  // Strategy: small boxes use batched point gets; large boxes open one
  // HBase-style scanner over the box's encoded key range (row-major order)
  // and filter streamed entries against the box.
  constexpr uint64_t kScanThresholdCells = 512;
  if (total_cells <= kScanThresholdCells) {
    // Enumerate the box row-major, resolving each cell cache-first. Cache
    // misses are collected and served by O(1) MultiGet round trips instead
    // of one Get per cell; kv_gets counts the round trips. The hot loop is
    // allocation-free on hits: keys encode into a reused scratch buffer and
    // only the inner/boundary bit is kept per cell.
    std::vector<std::shared_ptr<const GfuValue>> values;
    std::vector<uint8_t> inner_flags;
    values.reserve(total_cells);
    inner_flags.reserve(total_cells);
    std::vector<size_t> miss_slots;
    std::vector<std::string> miss_keys;

    GfuKey key;
    std::string encoded_key;
    std::vector<int64_t> cursor(static_cast<size_t>(num_dims));
    for (int d = 0; d < num_dims; ++d) {
      cursor[static_cast<size_t>(d)] = ranges[static_cast<size_t>(d)].lo;
    }
    for (;;) {
      key.cells.assign(cursor.begin(), cursor.end());
      key.EncodeInto(&encoded_key);
      if (auto cached = gfu_cache_.Get(encoded_key, snap.epoch)) {
        ++result.cache_hits;
        values.push_back(std::move(*cached));
      } else {
        ++result.cache_misses;
        values.push_back(nullptr);
        miss_slots.push_back(values.size() - 1);
        miss_keys.push_back(encoded_key);
      }
      inner_flags.push_back(cell_is_inner(cursor) ? 1 : 0);
      int d = num_dims - 1;
      for (; d >= 0; --d) {
        const CellRange& r = ranges[static_cast<size_t>(d)];
        if (++cursor[static_cast<size_t>(d)] <= r.hi) break;
        cursor[static_cast<size_t>(d)] = r.lo;
      }
      if (d < 0) break;
    }

    for (size_t start = 0; start < miss_keys.size(); start += kMultiGetBatch) {
      const size_t count = std::min(kMultiGetBatch, miss_keys.size() - start);
      ++result.kv_gets;  // one batched round trip
      auto batch = snap.kv->MultiGet(
          std::span<const std::string>(miss_keys).subspan(start, count));
      for (size_t j = 0; j < count; ++j) {
        const Result<std::string>& got = batch[j];
        if (!got.ok()) {
          if (got.status().IsNotFound()) continue;  // empty cell
          return got.status();
        }
        DGF_ASSIGN_OR_RETURN(GfuValue value, GfuValue::Decode(*got));
        auto shared = std::make_shared<const GfuValue>(std::move(value));
        gfu_cache_.Put(miss_keys[start + j], snap.epoch, shared);
        values[miss_slots[start + j]] = std::move(shared);
      }
    }

    // Absorb in enumeration (row-major) order so results — including the
    // FP-sum merge order of aggregation headers — match the serial path.
    for (size_t i = 0; i < values.size(); ++i) {
      if (values[i] != nullptr) absorb(inner_flags[i] != 0, *values[i]);
    }
    return result;
  }

  GfuKey lower_key, upper_key;
  for (int d = 0; d < num_dims; ++d) {
    lower_key.cells.push_back(ranges[static_cast<size_t>(d)].lo);
    upper_key.cells.push_back(ranges[static_cast<size_t>(d)].hi);
  }
  const std::string lower = lower_key.Encode();
  const std::string upper = upper_key.Encode();

  // Streamed entries are buffered into waves; each wave's cache-missed
  // values are decoded in parallel, then absorbed serially in stream order
  // (so FP-sensitive header merges stay deterministic).
  struct ScanEntry {
    GfuKey key;
    std::string encoded_key;
    std::string raw_value;  // set only when the cache missed
    std::shared_ptr<const GfuValue> value;
    bool cached = false;
  };
  std::vector<ScanEntry> wave;
  wave.reserve(kScanWaveSize);

  const auto flush_wave = [&]() -> Status {
    if (wave.empty()) return Status::OK();
    std::vector<size_t> miss;
    for (size_t i = 0; i < wave.size(); ++i) {
      if (!wave[i].cached) miss.push_back(i);
    }
    // A large wave decodes on the process pool. The caller helps, so a
    // lookup inside a map task never waits for a free pool thread.
    std::vector<Status> statuses(miss.size());
    ParallelFor(miss.size(),
                miss.size() >= kParallelDecodeThreshold
                    ? ProcessPool().num_threads()
                    : 1,
                [&](size_t i) {
                  ScanEntry& entry = wave[miss[i]];
                  auto decoded = GfuValue::Decode(entry.raw_value);
                  if (!decoded.ok()) {
                    statuses[i] = decoded.status();
                    return;
                  }
                  entry.value =
                      std::make_shared<const GfuValue>(std::move(*decoded));
                });
    for (const Status& st : statuses) DGF_RETURN_IF_ERROR(st);
    for (ScanEntry& entry : wave) {
      if (!entry.cached) {
        gfu_cache_.Put(entry.encoded_key, snap.epoch, entry.value);
      }
      absorb(cell_is_inner(entry.key.cells), *entry.value);
    }
    wave.clear();
    return Status::OK();
  };

  auto it = snap.kv->NewIterator();
  ++result.kv_gets;  // scanner open
  for (it->Seek(lower); it->Valid() && it->key() <= upper; it->Next()) {
    ++result.kv_scan_entries;
    if (it->key().empty() || it->key().front() != kGfuKeyPrefix) break;
    DGF_ASSIGN_OR_RETURN(GfuKey key, GfuKey::Decode(it->key(), num_dims));
    bool in_box = true;
    for (int d = 0; d < num_dims && in_box; ++d) {
      const CellRange& r = ranges[static_cast<size_t>(d)];
      const int64_t c = key.cells[static_cast<size_t>(d)];
      in_box = (c >= r.lo && c <= r.hi);
    }
    if (!in_box) continue;
    ScanEntry entry;
    entry.key = std::move(key);
    entry.encoded_key.assign(it->key());
    if (auto cached = gfu_cache_.Get(entry.encoded_key, snap.epoch)) {
      ++result.cache_hits;
      entry.value = std::move(*cached);
      entry.cached = true;
    } else {
      ++result.cache_misses;
      entry.raw_value.assign(it->value());
    }
    wave.push_back(std::move(entry));
    if (wave.size() >= kScanWaveSize) DGF_RETURN_IF_ERROR(flush_wave());
  }
  DGF_RETURN_IF_ERROR(flush_wave());
  return result;
}

Status DgfIndex::AddAggregation(const AggSpec& spec) {
  // Serialize with other mutators; readers keep going against their pinned
  // snapshots throughout.
  std::unique_lock<std::mutex> mutation = AcquireMutationLock();

  std::shared_ptr<const AggregatorList> current = aggregators();
  if (current->IndexOf(spec).ok()) {
    return Status::AlreadyExists("aggregation already precomputed: " +
                                 spec.ToString());
  }
  std::vector<AggSpec> extended = current->specs();
  extended.push_back(spec);
  DGF_ASSIGN_OR_RETURN(AggregatorList new_aggs,
                       AggregatorList::Create(extended, schema_));
  // One-aggregator list to compute the new header slot per GFU.
  DGF_ASSIGN_OR_RETURN(AggregatorList only_new,
                       AggregatorList::Create({spec}, schema_));

  // Rewrite every GFU: scan its slices, compute the new accumulator, append.
  // The scan runs against a pinned snapshot; the mutation lock guarantees
  // nothing publishes between it and our ApplyBatch below.
  DGF_ASSIGN_OR_RETURN(Snapshot snap, Pin());
  auto it = snap.kv->NewIterator();
  const std::string prefix(1, kGfuKeyPrefix);
  kv::WriteBatch batch;
  for (it->Seek(prefix); it->Valid(); it->Next()) {
    if (it->key().empty() || it->key().front() != kGfuKeyPrefix) break;
    DGF_ASSIGN_OR_RETURN(GfuValue value, GfuValue::Decode(it->value()));
    std::vector<double> acc = only_new.Identity();
    for (const SliceLocation& slice : value.slices) {
      DGF_ASSIGN_OR_RETURN(auto reader,
                           OpenSliceReader(dfs_, slice, schema_, data_format_));
      table::Row row;
      for (;;) {
        DGF_ASSIGN_OR_RETURN(bool more, reader->Next(&row));
        if (!more) break;
        only_new.Update(&acc, row);
      }
    }
    value.header.push_back(acc[0]);
    batch.Put(it->key(), value.Encode());
  }
  std::string serialized = new_aggs.Serialize();
  batch.Put(kMetaAggsKey, serialized);
  // Single atomic publish: every header grows its new slot and the list
  // under kMetaAggsKey changes in the same epoch bump.
  DGF_RETURN_IF_ERROR(store_->ApplyBatch(batch));
  SetAggs(std::make_shared<const AggregatorList>(std::move(new_aggs)),
          std::move(serialized));
  // Memory hygiene only: epoch tags already keep stale decodes from being
  // served to post-publish readers.
  InvalidateCache();
  return Status::OK();
}

}  // namespace dgf::core
