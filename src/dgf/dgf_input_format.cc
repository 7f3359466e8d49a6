#include "dgf/dgf_input_format.h"

#include <algorithm>
#include <map>

#include "table/col_format.h"
#include "table/rc_format.h"
#include "table/text_format.h"

namespace dgf::core {

std::vector<SliceLocation> CoalesceSlices(std::vector<SliceLocation> slices) {
  // Group by file, sorted by start offset. Zero-length slices carry no
  // records and are dropped.
  std::map<std::string, std::vector<SliceLocation>> by_file;
  for (SliceLocation& slice : slices) {
    if (slice.length() == 0) continue;
    by_file[slice.file].push_back(std::move(slice));
  }
  std::vector<SliceLocation> out;
  out.reserve(slices.size());
  for (auto& [file, file_slices] : by_file) {
    std::sort(file_slices.begin(), file_slices.end(),
              [](const SliceLocation& a, const SliceLocation& b) {
                return a.start < b.start;
              });
    size_t write_pos = 0;
    for (size_t i = 1; i < file_slices.size(); ++i) {
      if (file_slices[i].start <= file_slices[write_pos].end) {
        file_slices[write_pos].end =
            std::max(file_slices[write_pos].end, file_slices[i].end);
      } else {
        ++write_pos;
        if (write_pos != i) file_slices[write_pos] = std::move(file_slices[i]);
      }
    }
    file_slices.resize(write_pos + 1);
    out.insert(out.end(), std::make_move_iterator(file_slices.begin()),
               std::make_move_iterator(file_slices.end()));
  }
  return out;
}

Result<std::vector<SlicedSplit>> PlanSlicedSplits(
    const std::shared_ptr<fs::MiniDfs>& dfs,
    const std::vector<SliceLocation>& slices, uint64_t split_size) {
  std::map<std::string, std::vector<SliceLocation>> by_file;
  for (SliceLocation& slice : CoalesceSlices(slices)) {
    by_file[slice.file].push_back(std::move(slice));
  }
  std::vector<SlicedSplit> out;
  for (auto& [file, file_slices] : by_file) {
    DGF_ASSIGN_OR_RETURN(auto splits, dfs->GetSplits(file, split_size));
    size_t cursor = 0;
    for (const fs::FileSplit& split : splits) {
      SlicedSplit sliced;
      sliced.split = split;
      while (cursor < file_slices.size() &&
             file_slices[cursor].start < split.end()) {
        sliced.slices.push_back(file_slices[cursor]);
        ++cursor;
      }
      if (!sliced.slices.empty()) out.push_back(std::move(sliced));
      if (cursor >= file_slices.size()) break;
    }
  }
  return out;
}

Result<std::unique_ptr<table::RecordReader>> OpenSliceReader(
    const std::shared_ptr<fs::MiniDfs>& dfs, const SliceLocation& slice,
    const table::Schema& schema, table::FileFormat format,
    const table::ZoneMapPredicate* zone_filter, obs::Counter* skipped) {
  fs::FileSplit range{slice.file, slice.start, slice.length()};
  if (format == table::FileFormat::kText) {
    DGF_ASSIGN_OR_RETURN(auto reader,
                         table::TextSplitReader::OpenExactRange(dfs, range,
                                                                schema));
    return std::unique_ptr<table::RecordReader>(std::move(reader));
  }
  // RCFile/Columnar Slices are whole row groups: the first sync sits exactly
  // at the Slice start and no group straddles the end, so plain split
  // semantics read exactly the Slice.
  if (format == table::FileFormat::kColumnar) {
    DGF_ASSIGN_OR_RETURN(auto reader,
                         table::ColSplitReader::Open(dfs, range, schema));
    reader->ConfirmGroupAtStart();
    if (zone_filter != nullptr && !zone_filter->empty()) {
      reader->SetZoneMapFilter(*zone_filter, skipped);
    }
    return std::unique_ptr<table::RecordReader>(std::move(reader));
  }
  DGF_ASSIGN_OR_RETURN(auto reader,
                       table::RcSplitReader::Open(dfs, range, schema));
  return std::unique_ptr<table::RecordReader>(std::move(reader));
}

namespace {

// Merged-range reading: chunk size per Pread, and the largest inter-part gap
// that is cheaper to read through than to reopen past.
constexpr uint64_t kMergedReadChunk = 1024 * 1024;
constexpr uint64_t kGapReadThrough = 64 * 1024;

}  // namespace

MergedSliceTextReader::MergedSliceTextReader(
    std::unique_ptr<fs::DfsReader> reader, std::vector<SliceLocation> parts,
    std::vector<uint64_t> run_end, table::Schema schema)
    : reader_(std::move(reader)),
      parts_(std::move(parts)),
      run_end_(std::move(run_end)),
      schema_(std::move(schema)) {}

Result<std::unique_ptr<MergedSliceTextReader>> MergedSliceTextReader::Open(
    const std::shared_ptr<fs::MiniDfs>& dfs, const std::string& file,
    std::vector<SliceLocation> parts, table::Schema schema) {
  DGF_ASSIGN_OR_RETURN(auto reader, dfs->OpenForRead(file));
  // run_end_[i]: keep reading contiguously while the gap to the next part is
  // small; computed back-to-front so a run of close parts shares one cap.
  std::vector<uint64_t> run_end(parts.size());
  for (size_t i = parts.size(); i-- > 0;) {
    run_end[i] = parts[i].end;
    if (i + 1 < parts.size() &&
        parts[i + 1].start - parts[i].end <= kGapReadThrough) {
      run_end[i] = run_end[i + 1];
    }
  }
  return std::unique_ptr<MergedSliceTextReader>(new MergedSliceTextReader(
      std::move(reader), std::move(parts), std::move(run_end),
      std::move(schema)));
}

bool MergedSliceTextReader::AdvancePart() {
  if (next_part_ >= parts_.size()) return false;
  const SliceLocation& part = parts_[next_part_];
  fill_cap_ = run_end_[next_part_];
  ++next_part_;
  ++seeks_;  // one positional jump per part, buffered or not
  const uint64_t buffered_end = file_pos_ + (buffer_.size() - buffer_pos_);
  if (part.start >= file_pos_ && part.start <= buffered_end) {
    // The gap (if any) is already in the buffer: skip in place, no Pread.
    buffer_pos_ += static_cast<size_t>(part.start - file_pos_);
  } else {
    buffer_.clear();
    buffer_pos_ = 0;
  }
  file_pos_ = part.start;
  part_end_ = part.end;
  fill_exhausted_ = false;
  return true;
}

Status MergedSliceTextReader::FillBuffer() {
  if (buffer_pos_ > 0) {
    buffer_.erase(0, buffer_pos_);
    buffer_pos_ = 0;
  }
  const uint64_t read_at = file_pos_ + buffer_.size();
  if (read_at >= fill_cap_) {
    fill_exhausted_ = true;
    return Status::OK();
  }
  const uint64_t want = std::min(kMergedReadChunk, fill_cap_ - read_at);
  std::string chunk;
  DGF_RETURN_IF_ERROR(reader_->Pread(read_at, want, &chunk));
  if (chunk.empty()) {
    fill_exhausted_ = true;
  } else {
    bytes_read_ += chunk.size();
    buffer_ += chunk;
  }
  return Status::OK();
}

Result<bool> MergedSliceTextReader::NextLineView(std::string_view* line) {
  for (;;) {
    if (file_pos_ >= part_end_) {
      if (!AdvancePart()) return false;
      continue;
    }
    const size_t nl = buffer_.find('\n', buffer_pos_);
    if (nl != std::string::npos &&
        // A newline beyond the current part belongs to a later part (or the
        // gap); parts end on line boundaries, so this only guards corrupt
        // metadata from over-reading.
        file_pos_ + (nl - buffer_pos_) < part_end_) {
      line_start_ = file_pos_;
      *line = std::string_view(buffer_).substr(buffer_pos_, nl - buffer_pos_);
      file_pos_ += (nl - buffer_pos_) + 1;
      buffer_pos_ = nl + 1;
      return true;
    }
    if (fill_exhausted_) {
      if (buffer_pos_ >= buffer_.size()) {
        // Ran dry inside the part (truncated file); move on.
        file_pos_ = part_end_;
        continue;
      }
      // Final line without trailing newline.
      const size_t take = std::min<size_t>(
          buffer_.size() - buffer_pos_,
          static_cast<size_t>(part_end_ - file_pos_));
      line_start_ = file_pos_;
      *line = std::string_view(buffer_).substr(buffer_pos_, take);
      file_pos_ += take;
      buffer_pos_ += take;
      return true;
    }
    DGF_RETURN_IF_ERROR(FillBuffer());
  }
}

Result<bool> MergedSliceTextReader::Next(table::Row* row) {
  std::string_view line;
  DGF_ASSIGN_OR_RETURN(bool have, NextLineView(&line));
  if (!have) return false;
  DGF_RETURN_IF_ERROR(
      table::ParseRowTextInto(line, schema_, row, &fields_scratch_));
  return true;
}

Result<std::unique_ptr<SliceRecordReader>> SliceRecordReader::Open(
    std::shared_ptr<fs::MiniDfs> dfs, const SlicedSplit& sliced,
    table::Schema schema, table::FileFormat format,
    const table::ZoneMapPredicate* zone_filter, obs::Counter* skipped) {
  std::unique_ptr<SliceRecordReader> out(new SliceRecordReader(
      std::move(dfs), sliced, std::move(schema), format));
  if (zone_filter != nullptr && !zone_filter->empty()) {
    out->zone_filter_ = *zone_filter;
    out->skipped_ = skipped;
  }
  if (format == table::FileFormat::kText && !out->sliced_.slices.empty()) {
    // All of a split's slices live in one file: serve them with one merged
    // stream so adjacent/near slices share Preads.
    DGF_ASSIGN_OR_RETURN(
        auto merged,
        MergedSliceTextReader::Open(out->dfs_, out->sliced_.split.path,
                                    out->sliced_.slices, out->schema_));
    out->merged_ = merged.get();
    out->current_ = std::move(merged);
  }
  return out;
}

Status SliceRecordReader::AdvanceSlice() {
  if (current_ != nullptr) {
    finished_bytes_ += current_->BytesRead();
    current_.reset();
  }
  if (next_slice_ >= sliced_.slices.size()) return Status::OK();
  const SliceLocation& slice = sliced_.slices[next_slice_++];
  DGF_ASSIGN_OR_RETURN(
      current_,
      OpenSliceReader(dfs_, slice, schema_, format_,
                      zone_filter_.has_value() ? &*zone_filter_ : nullptr,
                      skipped_));
  ++seeks_;
  return Status::OK();
}

Result<bool> SliceRecordReader::Next(table::Row* row) {
  if (merged_ != nullptr) return merged_->Next(row);
  for (;;) {
    if (current_ == nullptr) {
      DGF_RETURN_IF_ERROR(AdvanceSlice());
      if (current_ == nullptr) return false;
    }
    DGF_ASSIGN_OR_RETURN(bool more, current_->Next(row));
    if (more) return true;
    finished_bytes_ += current_->BytesRead();
    current_.reset();
  }
}

uint64_t SliceRecordReader::SeekCount() const {
  return merged_ != nullptr ? merged_->SeekCount() : seeks_;
}

uint64_t SliceRecordReader::CurrentBlockOffset() const {
  return current_ != nullptr ? current_->CurrentBlockOffset() : 0;
}

uint64_t SliceRecordReader::BytesRead() const {
  return finished_bytes_ + (current_ != nullptr ? current_->BytesRead() : 0);
}

}  // namespace dgf::core
