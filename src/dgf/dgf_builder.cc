#include "dgf/dgf_builder.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/stage_timer.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "table/col_format.h"
#include "table/rc_format.h"
#include "table/text_format.h"
#include "testing/crash_point.h"

namespace dgf::core {
namespace {

/// Per-GFU partial state one shard task accumulates over one input split:
/// the records (text form, input order) plus a thread-local partial header.
struct GfuShard {
  std::vector<double> header;
  uint64_t records = 0;
  uint64_t line_bytes = 0;
  std::vector<std::string> lines;
};

/// Everything one shard task extracts from its split. Shards are keyed by
/// split index, so the pipeline's output depends only on the split list —
/// never on how many threads ran the tasks or in what order they finished.
struct SplitShard {
  std::unordered_map<std::string, GfuShard> groups;  // encoded GfuKey -> partial
  /// `groups` entries sorted by key (pointers into the node-stable map),
  /// produced once at the end of the shard task. The merge phase and the
  /// slice writers consume every shard as a sorted run, so downstream work
  /// is linear merging instead of per-key map lookups.
  std::vector<const std::pair<const std::string, GfuShard>*> ordered;
  uint64_t bytes_read = 0;
  uint64_t records = 0;
  uint64_t emitted_bytes = 0;  // key+line bytes, the shuffle-cost analogue
};

/// Map side of Algorithm 1 as a shard task: standardize index dimensions ->
/// GFUKey and group the split's records per key with a partial header.
Status ShardSplit(const std::shared_ptr<fs::MiniDfs>& dfs,
                  const table::TableDesc& input, const fs::FileSplit& split,
                  const SplittingPolicy& policy,
                  const std::vector<int>& dim_fields,
                  const AggregatorList& aggs, SplitShard* shard) {
  DGF_ASSIGN_OR_RETURN(auto reader, table::OpenSplitReader(dfs, input, split));
  table::Row row;
  GfuKey key;
  key.cells.resize(dim_fields.size());
  std::string encoded;
  for (;;) {
    DGF_ASSIGN_OR_RETURN(bool more, reader->Next(&row));
    if (!more) break;
    for (size_t d = 0; d < dim_fields.size(); ++d) {
      key.cells[d] = policy.CellOf(static_cast<int>(d),
                                   row[static_cast<size_t>(dim_fields[d])]);
    }
    key.EncodeInto(&encoded);
    auto [it, inserted] = shard->groups.try_emplace(encoded);
    GfuShard& group = it->second;
    if (inserted) group.header = aggs.Identity();
    aggs.Update(&group.header, row);
    std::string line = table::FormatRowText(row);
    shard->emitted_bytes += encoded.size() + line.size();
    group.line_bytes += line.size();
    group.lines.push_back(std::move(line));
    ++group.records;
    ++shard->records;
  }
  shard->bytes_read = reader->BytesRead();
  shard->ordered.reserve(shard->groups.size());
  for (const auto& entry : shard->groups) shard->ordered.push_back(&entry);
  std::sort(shard->ordered.begin(), shard->ordered.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  return Status::OK();
}

/// Staged output of one slice-writer task, concatenated by the coordinator
/// in writer order so the final batch is identical for every thread count.
struct WriterOutput {
  kv::WriteBatch batch;
  uint64_t bytes_written = 0;
  int64_t gfus = 0;
};

/// Reduce side of Algorithm 2 as a writer task: write each key of the
/// partition [begin, end) contiguously as a Slice, merge the per-split
/// partial headers in split order, and stage <GFUKey, GFUValue>.
Status WriteSlicePartition(const std::shared_ptr<fs::MiniDfs>& dfs,
                           const table::Schema& schema,
                           const AggregatorList& aggs,
                           const std::string& path, table::FileFormat format,
                           const std::vector<std::string>& keys, size_t begin,
                           size_t end,
                           const std::vector<Result<std::string>>& existing,
                           const std::vector<SplitShard>& shards,
                           WriterOutput* out) {
  std::unique_ptr<table::TextFileWriter> writer;
  std::unique_ptr<table::RcFileWriter> rc_writer;
  std::unique_ptr<table::ColFileWriter> col_writer;
  if (format == table::FileFormat::kText) {
    DGF_ASSIGN_OR_RETURN(writer, table::TextFileWriter::Create(dfs, path, schema));
  } else if (format == table::FileFormat::kRcFile) {
    DGF_ASSIGN_OR_RETURN(rc_writer, table::RcFileWriter::Create(dfs, path, schema));
  } else {
    DGF_ASSIGN_OR_RETURN(col_writer,
                         table::ColFileWriter::Create(dfs, path, schema));
  }
  const auto offset = [&] {
    if (writer != nullptr) return writer->Offset();
    if (rc_writer != nullptr) return rc_writer->Offset();
    return col_writer->Offset();
  };
  out->batch.Reserve(end - begin);
  // One monotone cursor per shard: the partition's keys arrive in ascending
  // order, so locating every key in every shard is one linear merge over the
  // sorted runs instead of (keys x shards) map lookups.
  std::vector<size_t> cursor(shards.size(), 0);
  for (size_t s = 0; s < shards.size(); ++s) {
    const auto& run = shards[s].ordered;
    cursor[s] = static_cast<size_t>(
        std::lower_bound(run.begin(), run.end(), keys[begin],
                         [](const auto* e, const std::string& k) {
                           return e->first < k;
                         }) -
        run.begin());
  }
  for (size_t k = begin; k < end; ++k) {
    const std::string& key = keys[k];
    const uint64_t start = offset();
    GfuValue value;
    value.header = aggs.Identity();
    // Concatenate the key's records and fold the partial headers in split
    // order: the result is the same bytes and the same floating-point header
    // no matter how many threads sharded the input.
    for (size_t s = 0; s < shards.size(); ++s) {
      const auto& run = shards[s].ordered;
      size_t& at = cursor[s];
      while (at < run.size() && run[at]->first < key) ++at;
      if (at == run.size() || run[at]->first != key) continue;
      const GfuShard& group = run[at]->second;
      aggs.Merge(&value.header, group.header);
      value.record_count += group.records;
      for (const std::string& line : group.lines) {
        if (writer != nullptr) {
          DGF_RETURN_IF_ERROR(writer->AppendLine(line));
        } else {
          DGF_ASSIGN_OR_RETURN(table::Row row,
                               table::ParseRowText(line, schema));
          if (rc_writer != nullptr) {
            DGF_RETURN_IF_ERROR(rc_writer->Append(row));
          } else {
            DGF_RETURN_IF_ERROR(col_writer->Append(row));
          }
        }
      }
    }
    // RCFile/Columnar: end the row group exactly at the GFU boundary, so the
    // Slice is a run of whole groups.
    if (rc_writer != nullptr) DGF_RETURN_IF_ERROR(rc_writer->Flush());
    if (col_writer != nullptr) DGF_RETURN_IF_ERROR(col_writer->Flush());
    const uint64_t slice_end = offset();
    value.slices.push_back(SliceLocation{path, start, slice_end});

    // Merge with a pre-existing committed entry (incremental Append
    // batches). The caller's mutation lock keeps the committed state stable
    // for the whole pipeline, so the coordinator's pre-fetched reads are
    // consistent with the publish.
    const Result<std::string>& prior = existing[k];
    if (prior.ok()) {
      DGF_ASSIGN_OR_RETURN(GfuValue old_value, GfuValue::Decode(*prior));
      aggs.Merge(&value.header, old_value.header);
      value.record_count += old_value.record_count;
      value.slices.insert(value.slices.end(), old_value.slices.begin(),
                          old_value.slices.end());
    } else if (!prior.status().IsNotFound()) {
      return prior.status();
    }
    out->batch.Put(key, value.Encode());
    ++out->gfus;
    out->bytes_written += slice_end - start;
  }
  if (writer != nullptr) return writer->Close();
  if (rc_writer != nullptr) return rc_writer->Close();
  return col_writer->Close();
}

}  // namespace

Result<exec::JobResult> DgfBuilder::RunReorganization(
    const std::shared_ptr<fs::MiniDfs>& dfs,
    const std::shared_ptr<kv::KvStore>& store, const table::TableDesc& input,
    const table::Schema& schema, const SplittingPolicy& policy,
    const AggregatorList& aggs, const std::string& data_dir,
    table::FileFormat data_format, int batch_id, exec::JobRunner::Options job,
    uint64_t split_size, int build_threads, kv::WriteBatch* out_batch) {
  std::vector<int> dim_fields;
  for (const DimensionPolicy& dim : policy.dims()) {
    DGF_ASSIGN_OR_RETURN(int field, schema.FieldIndex(dim.column));
    dim_fields.push_back(field);
  }
  DGF_ASSIGN_OR_RETURN(auto splits,
                       table::GetTableSplits(dfs, input, split_size));
  if (job.num_reducers <= 0) job.num_reducers = 8;
  const int num_writers = job.num_reducers;
  int threads = build_threads > 0 ? build_threads : job.worker_threads;
  if (threads <= 0) threads = 1;

  Stopwatch wall;
  exec::JobResult result;
  result.num_map_tasks = static_cast<int>(splits.size());
  result.num_reduce_tasks = num_writers;
  StageTimes& stages = result.stage_seconds;

  // Every phase (shard, merge, slice write) is a ParallelFor on the process
  // pool, so a small append batch's flush starts no thread.

  // ---- Shard phase: one task per split, no shared mutable state. ----
  std::vector<SplitShard> shards(splits.size());
  std::vector<double> shard_seconds(splits.size(), 0.0);
  std::vector<Status> shard_status(splits.size());
  {
    ScopedStage stage(&stages, "shard");
    ParallelFor(splits.size(), threads, [&](size_t i) {
      Stopwatch task_watch;
      shard_status[i] = ShardSplit(dfs, input, splits[i], policy, dim_fields,
                                   aggs, &shards[i]);
      shard_seconds[i] = task_watch.ElapsedSeconds();
    });
  }
  for (const Status& st : shard_status) DGF_RETURN_IF_ERROR(st);
  DGF_CRASH_POINT("dgf.reorg.after_shard");
  result.local_task_seconds = shard_seconds;

  ScopedStage sim_stage(&stages, "sim_model");
  const exec::ClusterConfig& cluster = job.cluster;
  std::vector<double> map_costs;
  map_costs.reserve(shards.size());
  for (const SplitShard& shard : shards) {
    result.counters.Add(exec::kCounterMapInputBytes,
                        static_cast<int64_t>(shard.bytes_read));
    result.counters.Add(exec::kCounterMapInputRecords,
                        static_cast<int64_t>(shard.records));
    result.counters.Add(exec::kCounterMapOutputRecords,
                        static_cast<int64_t>(shard.records));
    // Under data_scale, one local task stands for the many 64 MB map tasks
    // the full-size deployment would have run over the same data.
    const double scaled_bytes =
        cluster.data_scale * static_cast<double>(shard.bytes_read);
    const double scaled_records =
        cluster.data_scale * static_cast<double>(shard.records);
    const auto virtual_tasks = static_cast<int64_t>(std::clamp(
        std::ceil(scaled_bytes / cluster.virtual_split_bytes), 1.0, 1.0e6));
    const double per_task =
        cluster.task_launch_overhead_s +
        scaled_bytes / virtual_tasks / (1e6 * cluster.scan_mb_per_s) +
        scaled_records / virtual_tasks * cluster.record_cpu_s;
    for (int64_t v = 0; v < virtual_tasks; ++v) map_costs.push_back(per_task);
  }
  result.simulated_map_seconds =
      exec::SimulateMakespan(map_costs, cluster.total_map_slots());
  sim_stage.Stop();

  // ---- Merge phase: sorted key union -> contiguous writer partitions. ----
  // Partitions are cut from the sorted key union balanced by record count, so
  // both the file a key lands in and the order within the file are functions
  // of the data alone ("byte-stable" across thread counts and vs. serial).
  //
  // The union itself is a range-partitioned parallel multiway merge over the
  // shards' sorted runs: pivot keys (sampled from the largest run) cut every
  // run into aligned ranges, each range merges on its own task, and the
  // per-range outputs concatenate in pivot order. The result — the sorted
  // union with per-key sums — is a function of the data alone, whatever the
  // pivots or the task schedule.
  struct KeyTotals {
    uint64_t records = 0;
    uint64_t bytes = 0;
  };
  std::vector<std::string> keys;
  std::vector<KeyTotals> totals;
  uint64_t total_records = 0;
  {
    ScopedStage stage(&stages, "merge");
    const auto key_at = [&](size_t s, size_t i) -> const std::string& {
      return shards[s].ordered[i]->first;
    };
    // Merges the aligned ranges [lo[s], hi[s]) of every shard into the
    // ascending key union with summed totals (linear min-scan; the shard
    // count is the split count, small by construction).
    const auto merge_ranges = [&](const std::vector<size_t>& lo,
                                  const std::vector<size_t>& hi) {
      std::vector<std::pair<std::string, KeyTotals>> out;
      std::vector<size_t> cur = lo;
      for (;;) {
        const std::string* min_key = nullptr;
        for (size_t s = 0; s < shards.size(); ++s) {
          if (cur[s] >= hi[s]) continue;
          const std::string& k = key_at(s, cur[s]);
          if (min_key == nullptr || k < *min_key) min_key = &k;
        }
        if (min_key == nullptr) break;
        KeyTotals t;
        for (size_t s = 0; s < shards.size(); ++s) {
          if (cur[s] >= hi[s] || key_at(s, cur[s]) != *min_key) continue;
          const GfuShard& group = shards[s].ordered[cur[s]]->second;
          t.records += group.records;
          t.bytes += min_key->size() * group.records + group.line_bytes;
          ++cur[s];
        }
        out.emplace_back(*min_key, t);
      }
      return out;
    };

    // Interior pivots from the largest run; fewer tasks than threads when
    // the data has fewer distinct keys.
    std::vector<std::string> pivots;
    if (threads > 1 && !shards.empty()) {
      size_t largest = 0;
      for (size_t s = 1; s < shards.size(); ++s) {
        if (shards[s].ordered.size() > shards[largest].ordered.size()) {
          largest = s;
        }
      }
      const auto& run = shards[largest].ordered;
      for (int t = 1; t < threads && !run.empty(); ++t) {
        const std::string& k =
            run[run.size() * static_cast<size_t>(t) /
                static_cast<size_t>(threads)]
                ->first;
        if (pivots.empty() || pivots.back() < k) pivots.push_back(k);
      }
    }
    const size_t ranges = pivots.size() + 1;
    // cuts[p][s]: start of range p in shard s; range p spans
    // [cuts[p][s], cuts[p+1][s]).
    std::vector<std::vector<size_t>> cuts(
        ranges + 1, std::vector<size_t>(shards.size(), 0));
    for (size_t s = 0; s < shards.size(); ++s) {
      const auto& run = shards[s].ordered;
      cuts[ranges][s] = run.size();
      for (size_t p = 1; p < ranges; ++p) {
        cuts[p][s] = static_cast<size_t>(
            std::lower_bound(run.begin(), run.end(), pivots[p - 1],
                             [](const auto* e, const std::string& k) {
                               return e->first < k;
                             }) -
            run.begin());
      }
    }
    std::vector<std::vector<std::pair<std::string, KeyTotals>>> merged(ranges);
    ParallelFor(ranges, threads,
                [&](size_t p) { merged[p] = merge_ranges(cuts[p], cuts[p + 1]); });
    size_t union_size = 0;
    for (const auto& part : merged) union_size += part.size();
    keys.reserve(union_size);
    totals.reserve(union_size);
    for (auto& part : merged) {
      for (auto& [key, t] : part) {
        keys.push_back(std::move(key));
        totals.push_back(t);
        total_records += t.records;
      }
    }
  }

  // A crashed earlier attempt of this batch may have left slice files behind
  // (written, never published — slices only become reachable through the
  // batch's KV publish). DFS files are write-once, so a retry must reclaim
  // the names; the files are unreferenced by every published epoch.
  {
    ScopedStage stage(&stages, "orphan_scan");
    const std::string orphan_prefix = StringPrintf("part-b%03d-", batch_id);
    for (const fs::FileStatus& file : dfs->ListFiles(data_dir + "/")) {
      const size_t slash = file.path.find_last_of('/');
      const std::string name = file.path.substr(slash + 1);
      if (name.rfind(orphan_prefix, 0) == 0) {
        DGF_RETURN_IF_ERROR(dfs->Delete(file.path));
      }
    }
  }

  std::vector<double> writer_seconds(static_cast<size_t>(num_writers), 0.0);
  std::vector<uint64_t> partition_bytes(static_cast<size_t>(num_writers), 0);
  std::vector<WriterOutput> outputs(static_cast<size_t>(num_writers));
  if (!keys.empty()) {
    // One batched probe fetches every committed entry the writers will merge
    // with (the HBase multi-get analogue of the old per-key reducer Get).
    ScopedStage probe_stage(&stages, "kv_probe");
    const std::vector<Result<std::string>> existing = store->MultiGet(keys);
    probe_stage.Stop();

    ScopedStage write_stage(&stages, "slice_write");
    std::vector<size_t> bounds(static_cast<size_t>(num_writers) + 1, 0);
    {
      uint64_t cum = 0;
      size_t k = 0;
      for (int w = 0; w < num_writers; ++w) {
        bounds[static_cast<size_t>(w)] = k;
        const uint64_t target =
            total_records * static_cast<uint64_t>(w + 1) /
            static_cast<uint64_t>(num_writers);
        while (k < keys.size() && cum < target) {
          cum += totals[k].records;
          ++k;
        }
      }
      bounds[static_cast<size_t>(num_writers)] = keys.size();
    }
    std::vector<Status> writer_status(static_cast<size_t>(num_writers));
    ParallelFor(static_cast<size_t>(num_writers), threads, [&](size_t w) {
      const size_t begin = bounds[w];
      const size_t end = bounds[w + 1];
      if (begin == end) return;  // no file for an empty partition
      for (size_t k = begin; k < end; ++k) {
        partition_bytes[w] += totals[k].bytes;
      }
      const std::string path =
          data_dir + "/" +
          StringPrintf("part-b%03d-r%05zu.%s", batch_id, w,
                       table::FileFormatExtension(data_format));
      Stopwatch task_watch;
      writer_status[w] = WriteSlicePartition(dfs, schema, aggs, path,
                                             data_format, keys, begin, end,
                                             existing, shards, &outputs[w]);
      writer_seconds[w] = task_watch.ElapsedSeconds();
    });
    for (const Status& st : writer_status) DGF_RETURN_IF_ERROR(st);
  }
  DGF_CRASH_POINT("dgf.reorg.after_slices");

  // Concatenate the per-writer staged batches in writer order: one
  // deterministic batch regardless of task scheduling.
  ScopedStage reduce_sim_stage(&stages, "sim_model");
  std::vector<double> reduce_costs;
  reduce_costs.reserve(static_cast<size_t>(num_writers));
  for (int w = 0; w < num_writers; ++w) {
    WriterOutput& out = outputs[static_cast<size_t>(w)];
    out_batch->Append(out.batch);
    result.counters.Add("dgf.gfus.written", out.gfus);
    result.counters.Add("dgf.slice.bytes",
                        static_cast<int64_t>(out.bytes_written));
    result.counters.Add("dgf.batch.bytes",
                        static_cast<int64_t>(out.batch.ApproximateBytes()));
    // Like map tasks, a scaled-up writer stands for the many reducers the
    // full-size job would have configured.
    const double scaled_shuffle =
        cluster.data_scale *
        static_cast<double>(partition_bytes[static_cast<size_t>(w)]);
    const double scaled_written =
        cluster.data_scale * static_cast<double>(out.bytes_written);
    const auto virtual_tasks = static_cast<int64_t>(std::clamp(
        std::ceil((scaled_shuffle + scaled_written) /
                  cluster.virtual_split_bytes),
        1.0, 1.0e6));
    const double per_task =
        cluster.task_launch_overhead_s +
        scaled_shuffle / virtual_tasks / (1e6 * cluster.shuffle_mb_per_s) +
        scaled_written / virtual_tasks / (1e6 * cluster.scan_mb_per_s);
    for (int64_t v = 0; v < virtual_tasks; ++v) reduce_costs.push_back(per_task);
  }
  result.simulated_shuffle_reduce_seconds =
      exec::SimulateMakespan(reduce_costs, cluster.total_reduce_slots());
  result.local_task_seconds.insert(result.local_task_seconds.end(),
                                   writer_seconds.begin(),
                                   writer_seconds.end());
  reduce_sim_stage.Stop();

  {
    ScopedStage stage(&stages, "bounds");
    DGF_RETURN_IF_ERROR(
        RefreshDimensionBounds(store, policy.num_dims(), out_batch));
  }
  // Charge the key-value store round trips (one put per GFU touched); at
  // fine splitting policies this is a visible share of construction time.
  result.simulated_seconds =
      cluster.job_overhead_s + result.simulated_map_seconds +
      result.simulated_shuffle_reduce_seconds +
      static_cast<double>(result.counters.Get("dgf.gfus.written")) *
          cluster.kv_get_s / cluster.total_reduce_slots();
  result.wall_seconds = wall.ElapsedSeconds();
  return result;
}

Status DgfBuilder::RefreshDimensionBounds(
    const std::shared_ptr<kv::KvStore>& store, int num_dims,
    kv::WriteBatch* out_batch) {
  std::vector<int64_t> min_cell(static_cast<size_t>(num_dims),
                                std::numeric_limits<int64_t>::max());
  std::vector<int64_t> max_cell(static_cast<size_t>(num_dims),
                                std::numeric_limits<int64_t>::min());
  bool any = false;
  const auto fold = [&](std::string_view encoded) -> Status {
    DGF_ASSIGN_OR_RETURN(GfuKey key, GfuKey::Decode(encoded, num_dims));
    any = true;
    for (int d = 0; d < num_dims; ++d) {
      min_cell[static_cast<size_t>(d)] =
          std::min(min_cell[static_cast<size_t>(d)], key.cells[static_cast<size_t>(d)]);
      max_cell[static_cast<size_t>(d)] =
          std::max(max_cell[static_cast<size_t>(d)], key.cells[static_cast<size_t>(d)]);
    }
    return Status::OK();
  };
  // Committed bounds first, then the staged-but-unpublished entries: bounds
  // must describe the state the batch will publish. The committed side folds
  // from the stored per-dimension min/max instead of scanning every GFU key:
  // bounds only ever widen (GFU keys are never deleted — the optimizer
  // rewrites values in place, and bounds publish atomically with their
  // keys), so the stored extremes summarize the committed grid exactly.
  // This turns the per-append cost from O(total GFUs) into O(dims).
  bool have_stored = false;
  {
    const Result<std::string> probe =
        store->Get(std::string(kMetaDimMinPrefix) + "0");
    if (probe.ok()) {
      have_stored = true;
    } else if (!probe.status().IsNotFound()) {
      return probe.status();
    }
  }
  if (have_stored) {
    any = true;
    for (int d = 0; d < num_dims; ++d) {
      DGF_ASSIGN_OR_RETURN(std::string lo_text,
                           store->Get(kMetaDimMinPrefix + std::to_string(d)));
      DGF_ASSIGN_OR_RETURN(std::string hi_text,
                           store->Get(kMetaDimMaxPrefix + std::to_string(d)));
      DGF_ASSIGN_OR_RETURN(int64_t lo, ParseInt64(lo_text));
      DGF_ASSIGN_OR_RETURN(int64_t hi, ParseInt64(hi_text));
      min_cell[static_cast<size_t>(d)] =
          std::min(min_cell[static_cast<size_t>(d)], lo);
      max_cell[static_cast<size_t>(d)] =
          std::max(max_cell[static_cast<size_t>(d)], hi);
    }
  }
  for (const kv::WriteBatch::Entry& entry : out_batch->entries()) {
    if (entry.is_delete || entry.key.empty() ||
        entry.key.front() != kGfuKeyPrefix) {
      continue;
    }
    DGF_RETURN_IF_ERROR(fold(entry.key));
  }
  if (!any) return Status::InvalidArgument("index is empty after build");
  for (int d = 0; d < num_dims; ++d) {
    out_batch->Put(kMetaDimMinPrefix + std::to_string(d),
                   std::to_string(min_cell[static_cast<size_t>(d)]));
    out_batch->Put(kMetaDimMaxPrefix + std::to_string(d),
                   std::to_string(max_cell[static_cast<size_t>(d)]));
  }
  return Status::OK();
}

Result<std::unique_ptr<DgfIndex>> DgfBuilder::Build(
    std::shared_ptr<fs::MiniDfs> dfs, std::shared_ptr<kv::KvStore> store,
    const table::TableDesc& base, const Options& options,
    exec::JobResult* job_result) {
  if (store->Get(kMetaPolicyKey).ok()) {
    return Status::AlreadyExists(
        "store already holds a DGFIndex (one DGFIndex per table)");
  }
  if (options.data_dir.empty() || options.data_dir.front() != '/') {
    return Status::InvalidArgument("data_dir must be absolute");
  }
  DGF_ASSIGN_OR_RETURN(SplittingPolicy policy,
                       SplittingPolicy::Create(options.dims, base.schema));
  std::vector<AggSpec> specs;
  for (const std::string& text : options.precompute) {
    DGF_ASSIGN_OR_RETURN(AggSpec spec, AggSpec::Parse(text));
    specs.push_back(std::move(spec));
  }
  DGF_ASSIGN_OR_RETURN(AggregatorList aggs,
                       AggregatorList::Create(std::move(specs), base.schema));

  kv::WriteBatch batch;
  DGF_ASSIGN_OR_RETURN(
      exec::JobResult result,
      RunReorganization(dfs, store, base, base.schema, policy, aggs,
                        options.data_dir, options.data_format, /*batch_id=*/0,
                        options.job, options.split_size, options.build_threads,
                        &batch));

  batch.Put(kMetaPolicyKey, policy.Serialize());
  batch.Put(kMetaAggsKey, aggs.Serialize());
  batch.Put(kMetaDataDirKey, options.data_dir);
  batch.Put(kMetaDataFormatKey,
            options.data_format == table::FileFormat::kText
                ? "text"
                : (options.data_format == table::FileFormat::kRcFile
                       ? "rcfile"
                       : "columnar"));
  batch.Put(kMetaBatchKey, "1");
  DGF_CRASH_POINT("dgf.build.before_publish");
  // One atomic publish: a reader of the store either sees no index at all or
  // the complete one (GFUs, bounds, and meta).
  {
    ScopedStage stage(&result.stage_seconds, "publish");
    DGF_RETURN_IF_ERROR(store->ApplyBatch(batch));
  }
  if (job_result != nullptr) *job_result = result;
  return std::unique_ptr<DgfIndex>(new DgfIndex(
      std::move(dfs), std::move(store), base.schema, std::move(policy),
      std::move(aggs), options.data_dir, options.data_format));
}

Result<exec::JobResult> DgfBuilder::AppendStaged(
    DgfIndex* index, const table::TableDesc& batch, int batch_id,
    exec::JobRunner::Options job, uint64_t split_size, int build_threads,
    kv::WriteBatch* out_batch) {
  std::shared_ptr<const AggregatorList> aggs = index->aggregators();
  return RunReorganization(index->dfs(), index->store(), batch,
                           index->schema(), index->policy(), *aggs,
                           index->data_dir(), index->data_format(), batch_id,
                           job, split_size, build_threads, out_batch);
}

Result<exec::JobResult> DgfBuilder::Append(DgfIndex* index,
                                           const table::TableDesc& batch,
                                           exec::JobRunner::Options job,
                                           uint64_t split_size,
                                           int build_threads) {
  // Serialize with other mutators (optimize, AddAggregation, other Appends):
  // the writers' read-merge-stage cycle relies on the committed GFU state
  // holding still until our publish.
  std::unique_lock<std::mutex> mutation = index->AcquireMutationLock();
  DGF_CRASH_POINT("dgf.append.before_job");

  const auto& store = index->store();
  int batch_id = 1;
  if (auto text = store->Get(kMetaBatchKey); text.ok()) {
    DGF_ASSIGN_OR_RETURN(int64_t parsed, ParseInt64(*text));
    batch_id = static_cast<int>(parsed);
  }
  kv::WriteBatch staged;
  DGF_ASSIGN_OR_RETURN(exec::JobResult result,
                       AppendStaged(index, batch, batch_id, job, split_size,
                                    build_threads, &staged));
  staged.Put(kMetaBatchKey, std::to_string(batch_id + 1));
  DGF_CRASH_POINT("dgf.append.before_publish");
  // Atomic publish: a concurrent query pinned before this line sees none of
  // the batch, one pinned after sees all of it.
  {
    ScopedStage stage(&result.stage_seconds, "publish");
    DGF_RETURN_IF_ERROR(store->ApplyBatch(staged));
  }
  return result;
}

}  // namespace dgf::core
