// Columnar slice format: round-trips across every encoding, projection,
// GFU-style flush boundaries, determinism, zone-map skipping (property test
// vs a manually filtered full scan + a decode-counter proof that
// out-of-range blocks are never decoded), CRC corruption detection, damaged
// sync markers, and truncation behaviour.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/encoding.h"
#include "common/random.h"
#include "dgf/dgf_input_format.h"
#include "obs/metrics.h"
#include "table/col_format.h"
#include "table/rc_format.h"
#include "table/schema.h"
#include "table/table.h"
#include "table/value.h"
#include "testing/corruption.h"
#include "tests/test_util.h"

namespace dgf::table {
namespace {

using ::dgf::testing::ScopedDfs;

Schema MeterSchema() {
  return Schema({{"userId", DataType::kInt64},
                 {"region", DataType::kString},
                 {"time", DataType::kDate},
                 {"power", DataType::kDouble}});
}

Row MeterRow(int64_t user, const std::string& region, int64_t day,
             double power) {
  return {Value::Int64(user), Value::String(region), Value::Date(day),
          Value::Double(power)};
}

uint64_t FileLength(const std::shared_ptr<fs::MiniDfs>& dfs,
                    const std::string& path) {
  for (const auto& file : dfs->ListFiles(path)) {
    if (file.path == path) return file.length;
  }
  return 0;
}

std::string RowText(const Row& row) {
  std::string out;
  for (const Value& v : row) {
    out += v.ToText();
    out += '|';
  }
  return out;
}

/// Sorted-by-user meter-style rows: tight zone maps per group, a
/// low-cardinality string column (dict+RLE), a monotone date column (delta).
std::vector<Row> MakeRows(int count, uint64_t seed) {
  Random rng(seed);
  std::vector<int64_t> users;
  users.reserve(count);
  for (int i = 0; i < count; ++i) {
    users.push_back(rng.UniformRange(0, 999));
  }
  std::sort(users.begin(), users.end());
  const char* regions[] = {"north", "south", "east"};
  std::vector<Row> rows;
  rows.reserve(count);
  for (int i = 0; i < count; ++i) {
    rows.push_back(MeterRow(users[static_cast<size_t>(i)],
                            regions[rng.UniformRange(0, 2)],
                            15000 + i / 10, rng.UniformDouble(0.0, 50.0)));
  }
  return rows;
}

Result<std::string> WriteColFile(const std::shared_ptr<fs::MiniDfs>& dfs,
                                 const std::string& path,
                                 const std::vector<Row>& rows,
                                 int rows_per_group, int flush_every = 0) {
  ColFileWriter::Options options;
  options.rows_per_group = rows_per_group;
  DGF_ASSIGN_OR_RETURN(auto writer, ColFileWriter::Create(dfs, path,
                                                          MeterSchema(),
                                                          options));
  int since_flush = 0;
  for (const Row& row : rows) {
    DGF_RETURN_IF_ERROR(writer->Append(row));
    if (flush_every > 0 && ++since_flush >= flush_every) {
      DGF_RETURN_IF_ERROR(writer->Flush());
      since_flush = 0;
    }
  }
  DGF_RETURN_IF_ERROR(writer->Close());
  return path;
}

Result<std::vector<Row>> ReadAll(RecordReader* reader) {
  std::vector<Row> rows;
  Row row;
  for (;;) {
    DGF_ASSIGN_OR_RETURN(bool more, reader->Next(&row));
    if (!more) break;
    rows.push_back(row);
  }
  return rows;
}

bool InRange(const ZoneMapRange& range, const Value& v) {
  if (range.lower.has_value()) {
    const int cmp = v.Compare(*range.lower);
    if (cmp < 0 || (cmp == 0 && !range.lower_inclusive)) return false;
  }
  if (range.upper.has_value()) {
    const int cmp = v.Compare(*range.upper);
    if (cmp > 0 || (cmp == 0 && !range.upper_inclusive)) return false;
  }
  return true;
}

TEST(ColFormatTest, RoundTripAllEncodings) {
  ScopedDfs dfs("col_roundtrip");
  const auto rows = MakeRows(500, 1);
  ASSERT_OK_AND_ASSIGN(std::string path,
                       WriteColFile(dfs.get(), "/t.col", rows, 64));
  const uint64_t len = FileLength(dfs.get(), path);
  ASSERT_GT(len, 0u);
  ASSERT_OK_AND_ASSIGN(
      auto reader,
      ColSplitReader::Open(dfs.get(), fs::FileSplit{path, 0, len},
                           MeterSchema()));
  ASSERT_OK_AND_ASSIGN(std::vector<Row> got, ReadAll(reader.get()));
  ASSERT_EQ(got.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(RowText(got[i]), RowText(rows[i])) << "row " << i;
  }
  EXPECT_GT(reader->BlocksDecoded(), 0u);
  EXPECT_EQ(reader->BlocksSkipped(), 0u);
}

TEST(ColFormatTest, GfuFlushBoundariesMakeWholeGroupSlices) {
  ScopedDfs dfs("col_flush");
  const auto rows = MakeRows(100, 2);
  // Flush every 7 rows: groups become 7-row "GFU slices" despite the large
  // rows_per_group, exactly what DgfBuilder does at GFU boundaries.
  ASSERT_OK_AND_ASSIGN(std::string path,
                       WriteColFile(dfs.get(), "/t.col", rows, 4096, 7));
  const uint64_t len = FileLength(dfs.get(), path);
  ASSERT_OK_AND_ASSIGN(
      auto reader,
      ColSplitReader::Open(dfs.get(), fs::FileSplit{path, 0, len},
                           MeterSchema()));
  std::vector<uint64_t> group_offsets;
  Row row;
  for (;;) {
    ASSERT_OK_AND_ASSIGN(bool more, reader->Next(&row));
    if (!more) break;
    if (group_offsets.empty() ||
        group_offsets.back() != reader->CurrentBlockOffset()) {
      group_offsets.push_back(reader->CurrentBlockOffset());
    }
  }
  EXPECT_EQ(group_offsets.size(), (rows.size() + 6) / 7);
  EXPECT_EQ(group_offsets.front(), 0u);
}

TEST(ColFormatTest, ProjectionFillsDefaults) {
  ScopedDfs dfs("col_projection");
  const auto rows = MakeRows(60, 3);
  ASSERT_OK_AND_ASSIGN(std::string path,
                       WriteColFile(dfs.get(), "/t.col", rows, 16));
  const uint64_t len = FileLength(dfs.get(), path);
  ASSERT_OK_AND_ASSIGN(
      auto reader,
      ColSplitReader::Open(dfs.get(), fs::FileSplit{path, 0, len},
                           MeterSchema(), std::vector<int>{0, 2}));
  ASSERT_OK_AND_ASSIGN(std::vector<Row> got, ReadAll(reader.get()));
  ASSERT_EQ(got.size(), rows.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i][0].ToText(), rows[i][0].ToText());
    EXPECT_EQ(got[i][2].ToText(), rows[i][2].ToText());
    EXPECT_EQ(got[i][1].ToText(), "");    // unprojected string
    EXPECT_EQ(got[i][3].AsDouble(), 0.0);  // unprojected double
  }
}

TEST(ColFormatTest, DeterministicBytes) {
  ScopedDfs dfs("col_determinism");
  const auto rows = MakeRows(300, 4);
  ASSERT_OK_AND_ASSIGN(std::string a,
                       WriteColFile(dfs.get(), "/a.col", rows, 32, 11));
  ASSERT_OK_AND_ASSIGN(std::string b,
                       WriteColFile(dfs.get(), "/b.col", rows, 32, 11));
  const uint64_t len_a = FileLength(dfs.get(), a);
  const uint64_t len_b = FileLength(dfs.get(), b);
  ASSERT_EQ(len_a, len_b);
  ASSERT_OK_AND_ASSIGN(auto ra, dfs->OpenForRead(a));
  ASSERT_OK_AND_ASSIGN(auto rb, dfs->OpenForRead(b));
  std::string bytes_a, bytes_b;
  ASSERT_OK(ra->Pread(0, len_a, &bytes_a));
  ASSERT_OK(rb->Pread(0, len_b, &bytes_b));
  EXPECT_EQ(bytes_a, bytes_b);
}

TEST(ColFormatTest, CompressesBelowRcFile) {
  ScopedDfs dfs("col_compression");
  const auto rows = MakeRows(2000, 5);
  ASSERT_OK_AND_ASSIGN(std::string col_path,
                       WriteColFile(dfs.get(), "/t.col", rows, 256));
  ASSERT_OK_AND_ASSIGN(auto rc, RcFileWriter::Create(dfs.get(), "/t.rc",
                                                     MeterSchema()));
  for (const Row& row : rows) ASSERT_OK(rc->Append(row));
  ASSERT_OK(rc->Close());
  const uint64_t col_len = FileLength(dfs.get(), col_path);
  const uint64_t rc_len = FileLength(dfs.get(), "/t.rc");
  // Dict+RLE regions and delta dates shrink well below per-cell text.
  EXPECT_LT(col_len, rc_len * 6 / 10)
      << "columnar " << col_len << " vs rc " << rc_len;
}

// Full-precision doubles render as 17-18 shortest-round-trip text chars;
// the writer must pick the 8-byte fixed64 encoding for them (the file has
// to land below what the double column alone would cost as plain text) and
// still round-trip every value exactly. Single-digit doubles must NOT pay
// the 8-byte price — plain stays smaller and the choice is per block.
TEST(ColFormatTest, Fixed64DoublesBeatPlainText) {
  ScopedDfs dfs("col_fixed64");
  Random rng(9);
  std::vector<Row> wide;
  std::vector<Row> narrow;
  uint64_t wide_text_bytes = 0;
  for (int i = 0; i < 4096; ++i) {
    const double full = rng.UniformDouble(0.0, 500.0);
    wide.push_back(MeterRow(i / 4, "north", 15000 + i / 100, full));
    wide_text_bytes += Value::Double(full).ToText().size() + 1;
    narrow.push_back(MeterRow(i / 4, "north", 15000 + i / 100,
                              static_cast<double>(rng.UniformRange(0, 9))));
  }
  ASSERT_OK_AND_ASSIGN(std::string wide_path,
                       WriteColFile(dfs.get(), "/wide.col", wide, 4096));
  ASSERT_OK_AND_ASSIGN(std::string narrow_path,
                       WriteColFile(dfs.get(), "/narrow.col", narrow, 4096));
  const uint64_t wide_len = FileLength(dfs.get(), wide_path);
  const uint64_t narrow_len = FileLength(dfs.get(), narrow_path);
  // The whole wide file (all four columns) must undercut the text bytes of
  // just its double column — impossible unless fixed64 was chosen.
  EXPECT_LT(wide_len, wide_text_bytes)
      << "wide file " << wide_len << " vs double-column text "
      << wide_text_bytes;
  // Single-digit doubles are 1-byte texts; plain (~2 B/row) must beat
  // fixed64 (8 B/row), so the narrow file stays far below wide.
  EXPECT_LT(narrow_len + 4096 * 5, wide_len)
      << "narrow " << narrow_len << " vs wide " << wide_len;
  for (const auto& [path, rows] :
       {std::pair{wide_path, &wide}, std::pair{narrow_path, &narrow}}) {
    ASSERT_OK_AND_ASSIGN(
        auto reader,
        ColSplitReader::Open(dfs.get(),
                             fs::FileSplit{path, 0, FileLength(dfs.get(), path)},
                             MeterSchema()));
    ASSERT_OK_AND_ASSIGN(std::vector<Row> got, ReadAll(reader.get()));
    ASSERT_EQ(got.size(), rows->size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(RowText(got[i]), RowText((*rows)[i])) << path << " row " << i;
    }
  }
}

// Property: for random predicates, a zone-map filtered scan returns exactly
// the rows of an unfiltered scan passed through the same ranges row by row.
TEST(ColFormatTest, ZoneMapSkipEqualsFilteredFullScan) {
  ScopedDfs dfs("col_zonemap_prop");
  const auto rows = MakeRows(800, 6);
  ASSERT_OK_AND_ASSIGN(std::string path,
                       WriteColFile(dfs.get(), "/t.col", rows, 32));
  const uint64_t len = FileLength(dfs.get(), path);
  Random rng(99);
  for (int trial = 0; trial < 25; ++trial) {
    ZoneMapPredicate pred;
    {
      ZoneMapRange user;
      user.column = 0;
      const int64_t lo = rng.UniformRange(0, 999);
      user.lower = Value::Int64(lo);
      user.lower_inclusive = rng.UniformRange(0, 1) == 0;
      user.upper = Value::Int64(lo + rng.UniformRange(0, 200));
      user.upper_inclusive = rng.UniformRange(0, 1) == 0;
      pred.push_back(user);
    }
    if (rng.UniformRange(0, 1) == 0) {
      ZoneMapRange day;
      day.column = 2;
      day.lower = Value::Date(15000 + rng.UniformRange(0, 80));
      pred.push_back(day);
    }

    ASSERT_OK_AND_ASSIGN(
        auto plain,
        ColSplitReader::Open(dfs.get(), fs::FileSplit{path, 0, len},
                             MeterSchema()));
    ASSERT_OK_AND_ASSIGN(std::vector<Row> all, ReadAll(plain.get()));
    std::vector<std::string> expect;
    for (const Row& row : all) {
      bool keep = true;
      for (const ZoneMapRange& range : pred) {
        if (!InRange(range, row[static_cast<size_t>(range.column)])) {
          keep = false;
          break;
        }
      }
      if (keep) expect.push_back(RowText(row));
    }

    ASSERT_OK_AND_ASSIGN(
        auto filtered,
        ColSplitReader::Open(dfs.get(), fs::FileSplit{path, 0, len},
                             MeterSchema()));
    filtered->SetZoneMapFilter(pred);
    ASSERT_OK_AND_ASSIGN(std::vector<Row> got, ReadAll(filtered.get()));
    ASSERT_EQ(got.size(), expect.size()) << "trial " << trial;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(RowText(got[i]), expect[i]) << "trial " << trial;
    }
  }
}

// A predicate fully outside every group's range: no payload may be decoded
// (the counter stays flat) and every column block counts as skipped.
TEST(ColFormatTest, OutOfRangeBlocksNeverDecoded) {
  ScopedDfs dfs("col_zonemap_flat");
  // Bulky plain-encoded string payloads: each group is far larger than the
  // reader's 256 KiB readahead chunk, so a zone-map skip saves real Preads
  // (with tiny groups the whole file lands in the first readahead anyway).
  Random rng(7);
  std::vector<Row> rows;
  for (int i = 0; i < 8192; ++i) {
    std::string blob(600, ' ');
    for (char& c : blob) {
      c = static_cast<char>('a' + rng.UniformRange(0, 25));
    }
    rows.push_back(MeterRow(i % 1000, blob, 15000 + i, 1.0));
  }
  ASSERT_OK_AND_ASSIGN(std::string path,
                       WriteColFile(dfs.get(), "/t.col", rows, 2048));
  const uint64_t len = FileLength(dfs.get(), path);
  ASSERT_GT(len, 4u << 20);  // ~4 groups x ~1.2 MiB region payloads
  ASSERT_OK_AND_ASSIGN(
      auto reader,
      ColSplitReader::Open(dfs.get(), fs::FileSplit{path, 0, len},
                           MeterSchema()));
  ZoneMapPredicate pred;
  ZoneMapRange user;
  user.column = 0;
  user.lower = Value::Int64(5000);  // disjoint from every zone map
  pred.push_back(user);
  obs::Counter skip_metric;
  reader->SetZoneMapFilter(pred, &skip_metric);
  ASSERT_OK_AND_ASSIGN(std::vector<Row> got, ReadAll(reader.get()));
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(reader->BlocksDecoded(), 0u);
  const uint64_t groups = (rows.size() + 2047) / 2048;
  EXPECT_EQ(reader->BlocksSkipped(), groups * 4);
  EXPECT_EQ(skip_metric.Value(), reader->BlocksSkipped());
  // Skipped payloads are never fetched: the reader pulled well under the
  // whole file from the DFS (header readahead chunks only).
  EXPECT_LT(reader->BytesRead(), len / 2);
}

TEST(ColFormatTest, BitmapRowFilter) {
  ScopedDfs dfs("col_bitmap");
  const auto rows = MakeRows(90, 8);
  ASSERT_OK_AND_ASSIGN(std::string path,
                       WriteColFile(dfs.get(), "/t.col", rows, 30));
  const uint64_t len = FileLength(dfs.get(), path);
  // Learn the group offsets first.
  ASSERT_OK_AND_ASSIGN(
      auto scout,
      ColSplitReader::Open(dfs.get(), fs::FileSplit{path, 0, len},
                           MeterSchema()));
  std::vector<uint64_t> offsets;
  Row row;
  for (;;) {
    ASSERT_OK_AND_ASSIGN(bool more, scout->Next(&row));
    if (!more) break;
    if (offsets.empty() || offsets.back() != scout->CurrentBlockOffset()) {
      offsets.push_back(scout->CurrentBlockOffset());
    }
  }
  ASSERT_EQ(offsets.size(), 3u);
  ASSERT_OK_AND_ASSIGN(
      auto reader,
      ColSplitReader::Open(dfs.get(), fs::FileSplit{path, 0, len},
                           MeterSchema()));
  reader->SetRowFilter({{offsets[1], {0, 5, 29}}});
  ASSERT_OK_AND_ASSIGN(std::vector<Row> got, ReadAll(reader.get()));
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(RowText(got[0]), RowText(rows[30]));
  EXPECT_EQ(RowText(got[1]), RowText(rows[35]));
  EXPECT_EQ(RowText(got[2]), RowText(rows[59]));
}

// Any single bit flip after the sync marker must surface as a structured
// Corruption error — never a crash, never silently wrong rows.
TEST(ColFormatTest, FlippedBitsAreCaughtByCrcs) {
  ScopedDfs dfs("col_crc");
  const auto rows = MakeRows(64, 9);
  ASSERT_OK_AND_ASSIGN(std::string path,
                       WriteColFile(dfs.get(), "/t.col", rows, 64));
  const uint64_t len = FileLength(dfs.get(), path);
  ASSERT_GT(len, 24u);
  Random rng(123);
  for (int trial = 0; trial < 60; ++trial) {
    const uint64_t at =
        16 + static_cast<uint64_t>(rng.UniformRange(
                 0, static_cast<int64_t>(len - 17)));
    const std::string copy = "/flip.col";
    {
      ASSERT_OK_AND_ASSIGN(auto src, dfs->OpenForRead(path));
      std::string bytes;
      ASSERT_OK(src->Pread(0, len, &bytes));
      if (dfs->ListFiles(copy).size() > 0) ASSERT_OK(dfs->Delete(copy));
      ASSERT_OK_AND_ASSIGN(auto dst, dfs->Create(copy));
      ASSERT_OK(dst->Append(bytes));
      ASSERT_OK(dst->Close());
    }
    ASSERT_OK(testing::FlipByte(dfs.get(), copy, at));
    ASSERT_OK_AND_ASSIGN(
        auto reader,
        ColSplitReader::Open(dfs.get(), fs::FileSplit{copy, 0, len},
                             MeterSchema()));
    Row row;
    Status error = Status::OK();
    for (;;) {
      auto more = reader->Next(&row);
      if (!more.ok()) {
        error = more.status();
        break;
      }
      if (!*more) break;
    }
    EXPECT_TRUE(error.IsCorruption())
        << "flip at " << at << " not caught: " << error.ToString();
  }
}

// A crafted block header with honest CRCs can claim a payload_size near
// 2^64; naive `offset + size` bounds checks wrap and wave it through, after
// which the reader either dies sizing a copy from the claim or (under a
// zone-map skip) wraps its cursor backwards into an infinite re-scan. Both
// paths must instead surface Corruption.
TEST(ColFormatTest, WrappingPayloadSizeIsRejected) {
  ScopedDfs dfs("col_wrap");
  std::string bytes(kColSyncMarker, sizeof(kColSyncMarker));
  std::string header;
  PutVarint64(&header, 4);  // num_rows
  PutVarint64(&header, 4);  // num_cols (matches MeterSchema)
  bytes += header;
  PutFixed32(&bytes, Crc32(0, header));
  std::string block;
  PutVarint64(&block, 0);  // plain encoding
  PutLengthPrefixed(&block, "0");
  PutLengthPrefixed(&block, "3");
  PutVarint64(&block, std::numeric_limits<uint64_t>::max() - 2);
  bytes += block;
  PutFixed32(&bytes, Crc32(0, block));
  std::string payload;
  for (int i = 0; i < 4; ++i) {
    PutLengthPrefixed(&payload, std::to_string(i));
  }
  bytes += payload;
  PutFixed32(&bytes, Crc32(0, payload));
  const std::string path = "/wrap.col";
  {
    ASSERT_OK_AND_ASSIGN(auto writer, dfs->Create(path));
    ASSERT_OK(writer->Append(bytes));
    ASSERT_OK(writer->Close());
  }
  for (const bool with_filter : {false, true}) {
    ASSERT_OK_AND_ASSIGN(
        auto reader,
        ColSplitReader::Open(dfs.get(),
                             fs::FileSplit{path, 0, bytes.size()},
                             MeterSchema()));
    if (with_filter) {
      ZoneMapPredicate pred;
      ZoneMapRange user;
      user.column = 0;
      user.lower = Value::Int64(100);  // disjoint from the claimed [0, 3]
      pred.push_back(user);
      reader->SetZoneMapFilter(pred);
    }
    Row row;
    auto more = reader->Next(&row);
    ASSERT_FALSE(more.ok()) << "with_filter=" << with_filter;
    EXPECT_TRUE(more.status().IsCorruption())
        << "with_filter=" << with_filter << ": " << more.status().ToString();
  }
}

/// A double whose fixed64 payload bytes are exactly half of the sync marker
/// (the encoder writes the host bit pattern big-endian, so compose the bits
/// big-endian from the marker bytes).
double MarkerDouble(int half) {
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits = (bits << 8) |
           static_cast<uint8_t>(kColSyncMarker[8 * half + i]);
  }
  double d = 0;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

// Two adjacent doubles in a fixed64 block can legitimately spell the sync
// marker. A split reader whose byte range starts inside that payload must
// not lock onto the false marker and fail: it resumes the scan and finds
// the real next group.
TEST(ColFormatTest, SplitScanRecoversFromMarkerBytesInsidePayload) {
  ScopedDfs dfs("col_false_sync");
  Random rng(11);
  std::vector<Row> rows;
  for (int i = 0; i < 96; ++i) {
    // Full-precision doubles force the fixed64 encoding for the group.
    double power = rng.UniformDouble(0.0, 500.0);
    if (i == 20) power = MarkerDouble(0);
    if (i == 21) power = MarkerDouble(1);
    rows.push_back(MeterRow(i, "north", 15000 + i, power));
  }
  ASSERT_FALSE(std::isnan(rows[20][3].AsDouble()));
  ASSERT_FALSE(std::isnan(rows[21][3].AsDouble()));
  ASSERT_OK_AND_ASSIGN(std::string path,
                       WriteColFile(dfs.get(), "/t.col", rows, 32));
  const uint64_t len = FileLength(dfs.get(), path);
  std::string bytes;
  {
    ASSERT_OK_AND_ASSIGN(auto src, dfs->OpenForRead(path));
    ASSERT_OK(src->Pread(0, len, &bytes));
  }
  const std::string marker(kColSyncMarker, sizeof(kColSyncMarker));
  std::vector<size_t> marker_at;
  for (size_t at = bytes.find(marker); at != std::string::npos;
       at = bytes.find(marker, at + 1)) {
    marker_at.push_back(at);
  }
  // 3 group syncs + the embedded marker inside group 1's double payload.
  ASSERT_EQ(marker_at.size(), 4u);
  const uint64_t false_marker = marker_at[1];

  // A full scan from byte 0 never treats the embedded marker as a group
  // (each confirmed boundary leads straight to the next real sync).
  ASSERT_OK_AND_ASSIGN(
      auto full,
      ColSplitReader::Open(dfs.get(), fs::FileSplit{path, 0, len},
                           MeterSchema()));
  ASSERT_OK_AND_ASSIGN(std::vector<Row> all, ReadAll(full.get()));
  ASSERT_EQ(all.size(), rows.size());
  for (size_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(RowText(all[i]), RowText(rows[i])) << "row " << i;
  }

  // A split starting at the false marker locks onto it, rejects its garbage
  // "header", and recovers the two groups that really start in its range.
  ASSERT_OK_AND_ASSIGN(
      auto tail,
      ColSplitReader::Open(dfs.get(),
                           fs::FileSplit{path, false_marker,
                                         len - false_marker},
                           MeterSchema()));
  ASSERT_OK_AND_ASSIGN(std::vector<Row> got, ReadAll(tail.get()));
  ASSERT_EQ(got.size(), 64u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(RowText(got[i]), RowText(rows[32 + i])) << "row " << i;
  }
}

// A damaged sync marker at a confirmed group boundary must fail the read,
// not send the sync scan on to the next group and drop this one's rows. The
// damage is written through the DFS, so its chunk CRCs vouch for it (as
// for damage sealed in before a reopen).
TEST(ColFormatTest, DamagedSyncMarkerIsCorruptionNotADroppedGroup) {
  ScopedDfs dfs("col_bad_sync");
  const auto rows = MakeRows(30, 12);
  ASSERT_OK_AND_ASSIGN(std::string path,
                       WriteColFile(dfs.get(), "/t.col", rows, 10));
  const uint64_t len = FileLength(dfs.get(), path);
  std::string bytes;
  {
    ASSERT_OK_AND_ASSIGN(auto src, dfs->OpenForRead(path));
    ASSERT_OK(src->Pread(0, len, &bytes));
  }
  const std::string marker(kColSyncMarker, sizeof(kColSyncMarker));
  std::vector<size_t> marker_at;
  for (size_t at = bytes.find(marker); at != std::string::npos;
       at = bytes.find(marker, at + 1)) {
    marker_at.push_back(at);
  }
  ASSERT_EQ(marker_at.size(), 3u);
  for (size_t group = 0; group < marker_at.size(); ++group) {
    for (size_t i = 0; i < marker.size(); ++i) {
      std::string damaged = bytes;
      damaged[marker_at[group] + i] ^= 0x01;
      const std::string copy = "/bad_sync.col";
      if (dfs->ListFiles(copy).size() > 0) ASSERT_OK(dfs->Delete(copy));
      {
        ASSERT_OK_AND_ASSIGN(auto dst, dfs->Create(copy));
        ASSERT_OK(dst->Append(damaged));
        ASSERT_OK(dst->Close());
      }
      ASSERT_OK_AND_ASSIGN(
          auto reader,
          ColSplitReader::Open(dfs.get(), fs::FileSplit{copy, 0, len},
                               MeterSchema()));
      auto got = ReadAll(reader.get());
      ASSERT_FALSE(got.ok()) << "group " << group << " byte " << i
                             << ": read " << got->size() << " of "
                             << rows.size() << " rows with status OK";
      EXPECT_TRUE(got.status().IsCorruption())
          << "group " << group << " byte " << i << ": "
          << got.status().ToString();
    }
  }
}

TEST(ColFormatTest, DamagedMarkerAtSliceStartIsCorruption) {
  // A DGFIndex Slice starts exactly on a group boundary, so a damaged marker
  // there is damage, not a false marker for the sync scan to step over.
  ScopedDfs dfs("col_slice_sync");
  const auto rows = MakeRows(30, 12);
  ASSERT_OK_AND_ASSIGN(std::string path,
                       WriteColFile(dfs.get(), "/t.col", rows, 10));
  const uint64_t len = FileLength(dfs.get(), path);
  std::string bytes;
  {
    ASSERT_OK_AND_ASSIGN(auto src, dfs->OpenForRead(path));
    ASSERT_OK(src->Pread(0, len, &bytes));
  }
  const std::string marker(kColSyncMarker, sizeof(kColSyncMarker));
  const size_t group2 = bytes.find(marker, bytes.find(marker) + 1);
  ASSERT_NE(group2, std::string::npos);
  const core::SliceLocation slice{"/bad_slice.col", group2, len};
  for (size_t i = 0; i < marker.size(); ++i) {
    std::string damaged = bytes;
    damaged[group2 + i] ^= 0x01;
    if (dfs->Exists(slice.file)) ASSERT_OK(dfs->Delete(slice.file));
    {
      ASSERT_OK_AND_ASSIGN(auto dst, dfs->Create(slice.file));
      ASSERT_OK(dst->Append(damaged));
      ASSERT_OK(dst->Close());
    }
    ASSERT_OK_AND_ASSIGN(auto reader,
                         core::OpenSliceReader(dfs.get(), slice, MeterSchema(),
                                               FileFormat::kColumnar));
    auto got = ReadAll(reader.get());
    ASSERT_FALSE(got.ok()) << "byte " << i << ": read " << got->size()
                           << " of 20 rows with status OK";
    EXPECT_TRUE(got.status().IsCorruption())
        << "byte " << i << ": " << got.status().ToString();
  }
}

TEST(ColFormatTest, TruncationYieldsStructuredError) {
  ScopedDfs dfs("col_truncate");
  const auto rows = MakeRows(64, 10);
  ASSERT_OK_AND_ASSIGN(std::string path,
                       WriteColFile(dfs.get(), "/t.col", rows, 64));
  const uint64_t len = FileLength(dfs.get(), path);
  for (uint64_t keep : {len - 1, len / 2, uint64_t{40}, uint64_t{17}}) {
    const std::string copy = "/trunc.col";
    {
      ASSERT_OK_AND_ASSIGN(auto src, dfs->OpenForRead(path));
      std::string bytes;
      ASSERT_OK(src->Pread(0, len, &bytes));
      if (dfs->ListFiles(copy).size() > 0) ASSERT_OK(dfs->Delete(copy));
      ASSERT_OK_AND_ASSIGN(auto dst, dfs->Create(copy));
      ASSERT_OK(dst->Append(bytes));
      ASSERT_OK(dst->Close());
    }
    ASSERT_OK(testing::TruncateFile(dfs.get(), copy, keep));
    ASSERT_OK_AND_ASSIGN(
        auto reader,
        ColSplitReader::Open(dfs.get(), fs::FileSplit{copy, 0, keep},
                             MeterSchema()));
    Row row;
    Status error = Status::OK();
    uint64_t yielded = 0;
    for (;;) {
      auto more = reader->Next(&row);
      if (!more.ok()) {
        error = more.status();
        break;
      }
      if (!*more) break;
      ++yielded;
    }
    // A truncated single-group file can never produce complete rows: either
    // the reader reports Corruption or (header cut before the sync) nothing.
    EXPECT_TRUE(error.IsCorruption() || yielded == 0)
        << "keep=" << keep << ": " << yielded << " rows, "
        << error.ToString();
  }
}

}  // namespace
}  // namespace dgf::table
