#ifndef DGF_TABLE_COL_FORMAT_H_
#define DGF_TABLE_COL_FORMAT_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fs/mini_dfs.h"
#include "fs/split.h"
#include "obs/metrics.h"
#include "table/record_reader.h"
#include "table/schema.h"

namespace dgf::table {

/// 16-byte marker preceding every columnar row group; split readers scan for
/// it to find the first group inside their byte range, exactly as RCFile
/// readers do (distinct bytes so a columnar file can never be mistaken for an
/// RC file by a sync scan).
inline constexpr char kColSyncMarker[16] = {
    '\x8e', '\x24', '\xb7', '\x5d', '\xf0', '\x3b', '\x61', '\xc9',
    '\x17', '\xaa', '\x4e', '\x92', '\xd8', '\x05', '\x7c', '\xe3'};

/// Compressed columnar row-group format with per-block zone maps.
///
/// Layout: repeated row groups, each
///   sync[16] varint(num_rows) varint(num_cols) fixed32(group header CRC)
///   per column, one block:
///     varint(encoding) lp(min_text) lp(max_text) varint(payload_size)
///     fixed32(block header CRC) payload[payload_size] fixed32(payload CRC)
///
/// `lp` is varint length + bytes. The group-header CRC covers the two count
/// varints; the block-header CRC covers everything from the encoding varint
/// through the payload_size varint (zone maps included, so a flipped
/// zone-map bit is detected *before* it can cause a wrong skip); the payload
/// CRC covers the payload bytes and is only verified when the payload is
/// actually decoded — skipped blocks never read their payload.
///
/// Encodings (chosen per block, purely from the data, so output is a
/// deterministic function of the appended rows + flush boundaries):
///   0 plain:    per-row lp(text cell), any type.
///   1 dict+RLE: varint(dict_size), dict_size x lp(entry) in first-occurrence
///               order, then (varint(code) varint(run_len))* with runs
///               summing to exactly num_rows. Low-cardinality strings.
///   2 delta:    zigzag-varint(first value), then num_rows-1 plain varint
///               deltas (all >= 0). Non-decreasing int64/date columns.
///   3 fixed64:  the raw little-endian bit pattern of each double, 8 bytes
///               per row (payload_size must equal 8 * num_rows). Double
///               columns, whenever that beats the shortest-round-trip texts
///               plain would store (full-precision meter readings run 17-18
///               text chars, so this roughly halves them).
///
/// Zone maps are the min/max cell texts of the block (compared via
/// Value::Compare after parsing with the column type). Row groups are the
/// "blocks" that Compact/Bitmap indexes address: `CurrentBlockOffset()` is
/// the group's sync offset, `CurrentRowInBlock()` the original row ordinal.
class ColFileWriter {
 public:
  struct Options {
    /// Rows buffered per group before flushing.
    int rows_per_group = 4096;
  };

  static Result<std::unique_ptr<ColFileWriter>> Create(
      std::shared_ptr<fs::MiniDfs> dfs, const std::string& path, Schema schema,
      Options options);
  static Result<std::unique_ptr<ColFileWriter>> Create(
      std::shared_ptr<fs::MiniDfs> dfs, const std::string& path,
      Schema schema) {
    return Create(std::move(dfs), path, std::move(schema), Options());
  }

  Status Append(const Row& row);

  /// Forces a row-group boundary now (no-op when nothing is pending). The
  /// DGFIndex builder calls this at each GFU boundary so Slices consist of
  /// whole row groups.
  Status Flush();

  /// Flushes the pending group (if any) and seals the file.
  Status Close();

  uint64_t Offset() const { return writer_->Offset(); }

 private:
  ColFileWriter(std::unique_ptr<fs::DfsWriter> writer, Schema schema,
                Options options);

  Status FlushGroup();

  std::unique_ptr<fs::DfsWriter> writer_;
  Schema schema_;
  Options options_;
  // Pending group, column-major: columns_[c] holds the appended cells.
  std::vector<std::vector<Value>> columns_;
  int pending_rows_ = 0;
};

/// One conjunctive range for the zone-map filter, resolved to a column
/// ordinal. Missing lower/upper means unbounded on that side. Defined here
/// (not in query/) so the table layer keeps its no-query dependency.
struct ZoneMapRange {
  int column = 0;
  std::optional<Value> lower;
  bool lower_inclusive = true;
  std::optional<Value> upper;
  bool upper_inclusive = true;
};

/// Conjunction of ranges: a group is skippable when ANY range is provably
/// disjoint from its column's [min, max] zone map.
using ZoneMapPredicate = std::vector<ZoneMapRange>;

/// Reads the row groups of one split of a columnar file.
///
/// A group belongs to the split whose byte range contains its sync marker.
/// An optional projection restricts decoding to the named columns; cells of
/// unprojected columns are filled with type-default values.
///
/// Fixed64 payloads store raw double bits, so user data can legitimately
/// embed the sync marker mid-payload. A marker found at an offset that is
/// not a confirmed group boundary (byte 0, a Slice start, or the exact end of
/// the previous group) is treated as speculative: if its group header fails
/// to parse or checksum, the scan resumes past the false marker instead of
/// reporting Corruption — this is what lets a split reader start its sync
/// scan inside such a payload and still find the real next group. At a
/// confirmed boundary inside the split, anything but the whole marker is
/// Corruption (a scan past a damaged marker would silently drop its group).
///
/// With `SetZoneMapFilter`, the reader walks each group's block headers
/// first (cheap: a few dozen bytes per column) and, if any filtered column's
/// zone map is disjoint from its range, jumps over every payload in the
/// group without reading or decoding it. Groups that survive are decoded
/// column-at-a-time into value vectors, the filter is evaluated over those
/// vectors (batch-at-a-time), and only matching rows are materialized —
/// callers re-applying the full predicate per row see identical results
/// with the filter on or off.
class ColSplitReader : public RecordReader {
 public:
  static Result<std::unique_ptr<ColSplitReader>> Open(
      std::shared_ptr<fs::MiniDfs> dfs, const fs::FileSplit& split,
      Schema schema,
      std::optional<std::vector<int>> projection = std::nullopt);

  Result<bool> Next(Row* row) override;
  uint64_t CurrentBlockOffset() const override { return group_offset_; }
  uint64_t CurrentRowInBlock() const override { return row_in_group_; }
  uint64_t BytesRead() const override { return bytes_read_; }

  /// Restricts the reader to the given rows of the given groups: the Bitmap
  /// index pushes its (block offset -> row bitmap) result here. Groups not
  /// mentioned are skipped entirely. Mutually exclusive with the zone-map
  /// filter (the bitmap already names exact rows).
  void SetRowFilter(std::vector<std::pair<uint64_t, std::vector<uint64_t>>>
                        groups_and_rows);

  /// Enables zone-map block skipping + vectorized row filtering for `pred`.
  /// `skipped` (optional) is incremented once per column block whose payload
  /// was never read because its group's zone maps disproved the predicate;
  /// blocks whose payloads were already fetched before the disproving
  /// column's zone map was reached are not counted.
  void SetZoneMapFilter(ZoneMapPredicate pred,
                        obs::Counter* skipped = nullptr);

  /// Declares that the split starts exactly on a group boundary, as a
  /// DGFIndex Slice does: a damaged marker there is then Corruption instead
  /// of a speculative marker to scan past. Call before the first Next().
  void ConfirmGroupAtStart() { confirmed_group_at_ = split_.offset; }

  /// Column blocks skipped via zone maps (payload never read or decoded).
  uint64_t BlocksSkipped() const { return blocks_skipped_; }
  /// Column-block payloads actually decoded (the zone-map unit test asserts
  /// this stays flat when every group is out of range).
  uint64_t BlocksDecoded() const { return blocks_decoded_; }

 private:
  ColSplitReader(std::unique_ptr<fs::DfsReader> reader, fs::FileSplit split,
                 Schema schema, std::optional<std::vector<int>> projection);

  Result<bool> LoadNextGroup();
  Status EnsureBuffered(uint64_t file_offset, uint64_t length);
  Result<int64_t> FindSync(uint64_t from_offset);

  std::unique_ptr<fs::DfsReader> reader_;
  fs::FileSplit split_;
  Schema schema_;
  std::optional<std::vector<int>> projection_;

  std::string buffer_;
  uint64_t buffer_start_ = 0;  // file offset of buffer_[0]
  uint64_t bytes_read_ = 0;

  uint64_t scan_pos_ = 0;  // file offset where the next sync search begins
  // Exact file offset of the next group boundary when known: 0 for a split
  // starting at byte 0, the start of a Slice (ConfirmGroupAtStart), then the
  // end of each successfully walked group. A
  // sync marker found anywhere else is speculative — it may be fixed64
  // payload bytes that happen to equal the marker — so its group-header
  // validation failures resume the scan instead of reporting Corruption.
  std::optional<uint64_t> confirmed_group_at_;
  bool done_ = false;

  // Decoded current group: only rows surviving the zone-map row filter, with
  // their original ordinals (CurrentRowInBlock reports the file-true row
  // number regardless of filtering).
  std::vector<Row> group_rows_;
  std::vector<uint64_t> group_ordinals_;
  uint64_t group_offset_ = 0;
  uint64_t row_in_group_ = 0;
  size_t next_row_ = 0;

  // Optional bitmap row filter: group sync offset -> sorted row ordinals.
  std::optional<std::vector<std::pair<uint64_t, std::vector<uint64_t>>>>
      row_filter_;
  size_t filter_pos_ = 0;
  std::vector<uint64_t> current_filter_rows_;
  size_t filter_row_pos_ = 0;

  // Optional zone-map filter.
  std::optional<ZoneMapPredicate> zone_filter_;
  obs::Counter* skip_counter_ = nullptr;
  uint64_t blocks_skipped_ = 0;
  uint64_t blocks_decoded_ = 0;
};

}  // namespace dgf::table

#endif  // DGF_TABLE_COL_FORMAT_H_
