#include "dgf/slice_optimizer.h"

#include <mutex>
#include <set>
#include <vector>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "dgf/dgf_input_format.h"
#include "table/col_format.h"
#include "table/rc_format.h"
#include "table/text_format.h"

namespace dgf::core {

namespace {

constexpr const char* kMetaOptGenKey = "M:optgen";

/// One output file's share of the rewrite: the contiguous entry range
/// [begin, end) lands in `path`, in key order.
struct RewriteTask {
  size_t begin = 0;
  size_t end = 0;
  std::string path;
  uint64_t bytes_rewritten = 0;
};

/// Rewrites one output file. Each task owns a disjoint entry range, so
/// updating the entries' slice lists in place needs no synchronization.
Status RewriteFile(const std::shared_ptr<fs::MiniDfs>& dfs,
                   const table::Schema& schema, table::FileFormat format,
                   std::vector<std::pair<std::string, GfuValue>>* entries,
                   RewriteTask* task) {
  std::unique_ptr<table::TextFileWriter> writer;
  std::unique_ptr<table::RcFileWriter> rc_writer;
  std::unique_ptr<table::ColFileWriter> col_writer;
  if (format == table::FileFormat::kText) {
    DGF_ASSIGN_OR_RETURN(writer,
                         table::TextFileWriter::Create(dfs, task->path, schema));
  } else if (format == table::FileFormat::kRcFile) {
    DGF_ASSIGN_OR_RETURN(
        rc_writer, table::RcFileWriter::Create(dfs, task->path, schema));
  } else {
    DGF_ASSIGN_OR_RETURN(
        col_writer, table::ColFileWriter::Create(dfs, task->path, schema));
  }
  const auto offset = [&] {
    if (writer != nullptr) return writer->Offset();
    if (rc_writer != nullptr) return rc_writer->Offset();
    return col_writer->Offset();
  };
  table::Row row;
  for (size_t i = task->begin; i < task->end; ++i) {
    GfuValue& value = (*entries)[i].second;
    const uint64_t start = offset();
    for (const SliceLocation& slice : value.slices) {
      DGF_ASSIGN_OR_RETURN(auto reader,
                           OpenSliceReader(dfs, slice, schema, format));
      for (;;) {
        DGF_ASSIGN_OR_RETURN(bool more, reader->Next(&row));
        if (!more) break;
        if (writer != nullptr) {
          DGF_RETURN_IF_ERROR(writer->Append(row));
        } else if (rc_writer != nullptr) {
          DGF_RETURN_IF_ERROR(rc_writer->Append(row));
        } else {
          DGF_RETURN_IF_ERROR(col_writer->Append(row));
        }
      }
    }
    if (rc_writer != nullptr) DGF_RETURN_IF_ERROR(rc_writer->Flush());
    if (col_writer != nullptr) DGF_RETURN_IF_ERROR(col_writer->Flush());
    const uint64_t end = offset();
    task->bytes_rewritten += end - start;
    value.slices.clear();
    value.slices.push_back(SliceLocation{task->path, start, end});
  }
  if (writer != nullptr) return writer->Close();
  if (rc_writer != nullptr) return rc_writer->Close();
  return col_writer->Close();
}

}  // namespace

Result<SliceOptimizer::Stats> SliceOptimizer::Optimize(
    DgfIndex* index, uint64_t target_file_bytes, int threads) {
  // Serialize with Append/AddAggregation/other optimize runs: the rewrite
  // reads every committed GFU entry and must publish against that same
  // state. Readers keep querying their pinned snapshots throughout.
  std::unique_lock<std::mutex> mutation = index->AcquireMutationLock();

  const auto& dfs = index->dfs();
  const auto& store = index->store();
  Stats stats;

  int generation = 0;
  if (auto gen_text = store->Get(kMetaOptGenKey); gen_text.ok()) {
    DGF_ASSIGN_OR_RETURN(int64_t parsed, ParseInt64(*gen_text));
    generation = static_cast<int>(parsed);
  }

  // Snapshot the GFU entries in grid order (the iterator is already sorted
  // by the order-preserving key encoding).
  std::vector<std::pair<std::string, GfuValue>> entries;
  std::set<std::string> old_files;
  {
    auto it = store->NewIterator();
    const std::string prefix(1, kGfuKeyPrefix);
    for (it->Seek(prefix); it->Valid(); it->Next()) {
      if (it->key().empty() || it->key().front() != kGfuKeyPrefix) break;
      DGF_ASSIGN_OR_RETURN(GfuValue value, GfuValue::Decode(it->value()));
      stats.slices_before += value.slices.size();
      for (const auto& slice : value.slices) old_files.insert(slice.file);
      entries.emplace_back(std::string(it->key()), std::move(value));
    }
  }
  stats.gfus = entries.size();
  stats.files_before = old_files.size();
  if (entries.empty()) return stats;

  // Rewrite in key order, merging each GFU's slices into one. Either file
  // format is supported: text Slices are line runs, RC Slices whole groups.
  //
  // The entry->file assignment is cut up front from the key-ordered entry
  // list, rotating when the accumulated pre-rewrite slice bytes reach
  // `target_file_bytes`. That estimate stands in for the old "rotate once
  // the writer's offset crosses the target" rule and makes the assignment a
  // function of the committed state alone — which is what lets the files be
  // rewritten by independent parallel tasks with identical output.
  const table::FileFormat format = index->data_format();
  std::vector<RewriteTask> tasks;
  {
    uint64_t acc = 0;
    for (size_t i = 0; i < entries.size(); ++i) {
      if (i == 0 || acc >= target_file_bytes) {
        if (!tasks.empty()) tasks.back().end = i;
        RewriteTask task;
        task.begin = i;
        task.path =
            index->data_dir() + "/" +
            StringPrintf("part-opt%03d-%05d.%s", generation,
                         static_cast<int>(tasks.size()),
                         table::FileFormatExtension(format));
        tasks.push_back(std::move(task));
        acc = 0;
      }
      for (const SliceLocation& slice : entries[i].second.slices) {
        acc += slice.length();
      }
    }
    tasks.back().end = entries.size();
  }
  std::vector<Status> rewrite_status(tasks.size());
  ParallelFor(tasks.size(), threads, [&](size_t t) {
    rewrite_status[t] =
        RewriteFile(dfs, index->schema(), format, &entries, &tasks[t]);
  });
  for (const Status& st : rewrite_status) DGF_RETURN_IF_ERROR(st);
  for (const RewriteTask& task : tasks) {
    stats.bytes_rewritten += task.bytes_rewritten;
  }
  stats.files_after = tasks.size();
  stats.slices_after = entries.size();

  // Atomic publish: every GFU entry flips to the new layout in one epoch
  // bump, so no query can see a mix of old and new slice lists.
  kv::WriteBatch batch;
  for (const auto& [key, value] : entries) {
    batch.Put(key, value.Encode());
  }
  batch.Put(kMetaOptGenKey, std::to_string(generation + 1));
  DGF_RETURN_IF_ERROR(store->ApplyBatch(batch));
  // Old files are retired, not deleted: snapshots pinned before the publish
  // may still scan them. The retire guard deletes each file once the last
  // such snapshot is released.
  index->RetireDataFiles(
      std::vector<std::string>(old_files.begin(), old_files.end()));
  // Memory hygiene: cached GfuValues for older epochs will never be served
  // to post-publish readers (epoch tags), but dropping them frees the slices
  // vectors early.
  index->InvalidateCache();
  return stats;
}

}  // namespace dgf::core
