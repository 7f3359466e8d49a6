#include "table/col_format.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>

#include "common/encoding.h"

namespace dgf::table {
namespace {

constexpr size_t kSyncLen = sizeof(kColSyncMarker);
constexpr size_t kReadChunk = 256 * 1024;
// A block header is varint(enc) + two length-prefixed zone-map texts +
// varint(payload_size); anything that does not parse within one read chunk
// is corrupt (cells are warehouse text values, not megabyte blobs).
constexpr uint64_t kMaxBlockHeader = kReadChunk;
// Claimed row counts above this are implausible for any writer configuration
// and rejected before the reader sizes row vectors from attacker bytes.
constexpr uint64_t kMaxRowsPerGroup = 1u << 22;

constexpr uint64_t kEncodingPlain = 0;
constexpr uint64_t kEncodingDictRle = 1;
constexpr uint64_t kEncodingDelta = 2;
constexpr uint64_t kEncodingFixed64 = 3;

Value DefaultValueFor(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return Value::Int64(0);
    case DataType::kDouble:
      return Value::Double(0.0);
    case DataType::kString:
      return Value::String("");
    case DataType::kDate:
      return Value::Date(0);
  }
  return Value::Int64(0);
}

uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

bool IsIntegerColumn(DataType type) {
  return type == DataType::kInt64 || type == DataType::kDate;
}

Value IntegerValue(DataType type, int64_t v) {
  return type == DataType::kDate ? Value::Date(v) : Value::Int64(v);
}

/// Values of a string column compare against numeric bounds only by
/// accident (a corrupt file or a miszoned predicate); Value::Compare asserts
/// on that mix, so the zone-map paths refuse to conclude anything instead.
bool Comparable(const Value& a, const Value& b) {
  return a.is_string() == b.is_string();
}

/// True when the block's [min, max] provably contains no value satisfying
/// `range` — the only case where skipping is sound.
bool ZoneDisjoint(const ZoneMapRange& range, const Value& min_value,
                  const Value& max_value) {
  if (range.lower.has_value() && Comparable(*range.lower, max_value)) {
    const int cmp = max_value.Compare(*range.lower);
    if (cmp < 0 || (cmp == 0 && !range.lower_inclusive)) return true;
  }
  if (range.upper.has_value() && Comparable(*range.upper, min_value)) {
    const int cmp = min_value.Compare(*range.upper);
    if (cmp > 0 || (cmp == 0 && !range.upper_inclusive)) return true;
  }
  return false;
}

bool RangeMatches(const ZoneMapRange& range, const Value& value) {
  if (range.lower.has_value()) {
    if (!Comparable(*range.lower, value)) return true;
    const int cmp = value.Compare(*range.lower);
    if (cmp < 0 || (cmp == 0 && !range.lower_inclusive)) return false;
  }
  if (range.upper.has_value()) {
    if (!Comparable(*range.upper, value)) return true;
    const int cmp = value.Compare(*range.upper);
    if (cmp > 0 || (cmp == 0 && !range.upper_inclusive)) return false;
  }
  return true;
}

// ---------- Block encoders (writer side) ----------

void EncodePlain(const std::vector<Value>& values, std::string* payload) {
  for (const Value& v : values) PutLengthPrefixed(payload, v.ToText());
}

void EncodeDelta(const std::vector<Value>& values, std::string* payload) {
  PutVarint64(payload, ZigZagEncode(values[0].int64()));
  for (size_t i = 1; i < values.size(); ++i) {
    PutVarint64(payload, static_cast<uint64_t>(values[i].int64() -
                                               values[i - 1].int64()));
  }
}

size_t VarintSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

void EncodeFixed64(const std::vector<Value>& values, std::string* payload) {
  for (const Value& v : values) {
    uint64_t bits = 0;
    const double d = v.dbl();
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    PutFixed64(payload, bits);
  }
}

void EncodeDictRle(const std::vector<Value>& values,
                   const std::vector<std::string>& dict,
                   const std::vector<uint64_t>& codes, std::string* payload) {
  PutVarint64(payload, dict.size());
  for (const std::string& entry : dict) PutLengthPrefixed(payload, entry);
  size_t i = 0;
  while (i < codes.size()) {
    size_t run = 1;
    while (i + run < codes.size() && codes[i + run] == codes[i]) ++run;
    PutVarint64(payload, codes[i]);
    PutVarint64(payload, run);
    i += run;
  }
  (void)values;
}

// ---------- Block decoders (reader side) ----------

Result<std::vector<Value>> DecodePlain(std::string_view data,
                                       uint64_t num_rows, DataType type) {
  std::vector<Value> out;
  out.reserve(num_rows);
  for (uint64_t r = 0; r < num_rows; ++r) {
    DGF_ASSIGN_OR_RETURN(std::string_view cell, GetLengthPrefixed(&data));
    DGF_ASSIGN_OR_RETURN(Value value, ParseValue(cell, type));
    out.push_back(std::move(value));
  }
  if (!data.empty()) {
    return Status::Corruption("trailing bytes in plain columnar block");
  }
  return out;
}

Result<std::vector<Value>> DecodeDelta(std::string_view data,
                                       uint64_t num_rows, DataType type) {
  if (!IsIntegerColumn(type)) {
    return Status::Corruption("delta encoding on non-integer column");
  }
  std::vector<Value> out;
  out.reserve(num_rows);
  DGF_ASSIGN_OR_RETURN(uint64_t first, GetVarint64(&data));
  int64_t value = ZigZagDecode(first);
  out.push_back(IntegerValue(type, value));
  for (uint64_t r = 1; r < num_rows; ++r) {
    DGF_ASSIGN_OR_RETURN(uint64_t delta, GetVarint64(&data));
    if (delta > static_cast<uint64_t>(std::numeric_limits<int64_t>::max() -
                                      value)) {
      return Status::Corruption("delta overflow in columnar block");
    }
    value += static_cast<int64_t>(delta);
    out.push_back(IntegerValue(type, value));
  }
  if (!data.empty()) {
    return Status::Corruption("trailing bytes in delta columnar block");
  }
  return out;
}

Result<std::vector<Value>> DecodeFixed64Block(std::string_view data,
                                         uint64_t num_rows, DataType type) {
  if (type != DataType::kDouble) {
    return Status::Corruption("fixed64 encoding on non-double column");
  }
  // The payload size is structural here: anything but exactly 8 bytes per
  // row is a lie, however valid its checksums.
  if (data.size() != num_rows * 8) {
    return Status::Corruption("fixed64 columnar block size mismatch");
  }
  std::vector<Value> out;
  out.reserve(num_rows);
  for (uint64_t r = 0; r < num_rows; ++r) {
    const uint64_t bits = DecodeFixed64(data.data() + r * 8);
    double d = 0;
    std::memcpy(&d, &bits, sizeof(d));
    out.push_back(Value::Double(d));
  }
  return out;
}

Result<std::vector<Value>> DecodeDictRle(std::string_view data,
                                         uint64_t num_rows, DataType type) {
  DGF_ASSIGN_OR_RETURN(uint64_t dict_size, GetVarint64(&data));
  // An attacker-claimed dictionary can never legitimately exceed the row
  // count (every entry appears at least once); bound before any reserve.
  if (dict_size == 0 || dict_size > num_rows) {
    return Status::Corruption("columnar dictionary size out of range");
  }
  std::vector<Value> dict;
  dict.reserve(dict_size);
  for (uint64_t d = 0; d < dict_size; ++d) {
    DGF_ASSIGN_OR_RETURN(std::string_view entry, GetLengthPrefixed(&data));
    DGF_ASSIGN_OR_RETURN(Value value, ParseValue(entry, type));
    dict.push_back(std::move(value));
  }
  std::vector<Value> out;
  out.reserve(num_rows);
  while (out.size() < num_rows) {
    DGF_ASSIGN_OR_RETURN(uint64_t code, GetVarint64(&data));
    DGF_ASSIGN_OR_RETURN(uint64_t run, GetVarint64(&data));
    if (code >= dict_size) {
      return Status::Corruption("columnar dictionary code out of range");
    }
    if (run == 0 || run > num_rows - out.size()) {
      return Status::Corruption("columnar RLE run overruns row count");
    }
    for (uint64_t i = 0; i < run; ++i) out.push_back(dict[code]);
  }
  if (!data.empty()) {
    return Status::Corruption("trailing bytes in dict columnar block");
  }
  return out;
}

}  // namespace

// ---------- ColFileWriter ----------

ColFileWriter::ColFileWriter(std::unique_ptr<fs::DfsWriter> writer,
                             Schema schema, Options options)
    : writer_(std::move(writer)),
      schema_(std::move(schema)),
      options_(options),
      columns_(static_cast<size_t>(schema_.num_fields())) {}

Result<std::unique_ptr<ColFileWriter>> ColFileWriter::Create(
    std::shared_ptr<fs::MiniDfs> dfs, const std::string& path, Schema schema,
    Options options) {
  if (options.rows_per_group <= 0) {
    return Status::InvalidArgument("rows_per_group must be positive");
  }
  DGF_ASSIGN_OR_RETURN(auto writer, dfs->Create(path));
  return std::unique_ptr<ColFileWriter>(
      new ColFileWriter(std::move(writer), std::move(schema), options));
}

Status ColFileWriter::Append(const Row& row) {
  if (static_cast<int>(row.size()) != schema_.num_fields()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  for (size_t c = 0; c < row.size(); ++c) columns_[c].push_back(row[c]);
  if (++pending_rows_ >= options_.rows_per_group) return FlushGroup();
  return Status::OK();
}

Status ColFileWriter::FlushGroup() {
  if (pending_rows_ == 0) return Status::OK();
  std::string out;
  out.append(kColSyncMarker, kSyncLen);
  std::string group_header;
  PutVarint64(&group_header, static_cast<uint64_t>(pending_rows_));
  PutVarint64(&group_header, static_cast<uint64_t>(columns_.size()));
  out.append(group_header);
  PutFixed32(&out, Crc32(0, group_header));

  for (size_t c = 0; c < columns_.size(); ++c) {
    std::vector<Value>& values = columns_[c];
    const DataType type = schema_.field(static_cast<int>(c)).type;

    // Zone maps: min/max of the block under Value::Compare.
    size_t min_at = 0;
    size_t max_at = 0;
    for (size_t i = 1; i < values.size(); ++i) {
      if (values[i].Compare(values[min_at]) < 0) min_at = i;
      if (values[i].Compare(values[max_at]) > 0) max_at = i;
    }
    const std::string min_text = values[min_at].ToText();
    const std::string max_text = values[max_at].ToText();

    // Choose the encoding purely from the data, so a block's bytes are a
    // deterministic function of the appended rows (the build-equivalence
    // sweep depends on this).
    uint64_t encoding = kEncodingPlain;
    std::vector<std::string> dict;
    std::vector<uint64_t> codes;
    if (IsIntegerColumn(type)) {
      bool non_decreasing = true;
      for (size_t i = 1; i < values.size() && non_decreasing; ++i) {
        non_decreasing = values[i].int64() >= values[i - 1].int64();
      }
      if (non_decreasing) encoding = kEncodingDelta;
    } else if (type == DataType::kDouble) {
      size_t plain_size = 0;
      for (const Value& v : values) {
        const std::string text = v.ToText();
        plain_size += text.size() + VarintSize(text.size());
      }
      if (values.size() * 8 < plain_size) encoding = kEncodingFixed64;
    } else if (type == DataType::kString) {
      std::map<std::string_view, uint64_t> index;
      codes.reserve(values.size());
      for (const Value& v : values) {
        auto [it, inserted] = index.emplace(v.str(), dict.size());
        if (inserted) dict.push_back(v.str());
        codes.push_back(it->second);
      }
      if (dict.size() * 2 <= values.size()) encoding = kEncodingDictRle;
    }

    std::string payload;
    switch (encoding) {
      case kEncodingDelta:
        EncodeDelta(values, &payload);
        break;
      case kEncodingDictRle:
        EncodeDictRle(values, dict, codes, &payload);
        break;
      case kEncodingFixed64:
        EncodeFixed64(values, &payload);
        break;
      default:
        EncodePlain(values, &payload);
        break;
    }

    std::string block_header;
    PutVarint64(&block_header, encoding);
    PutLengthPrefixed(&block_header, min_text);
    PutLengthPrefixed(&block_header, max_text);
    PutVarint64(&block_header, payload.size());
    out.append(block_header);
    PutFixed32(&out, Crc32(0, block_header));
    out.append(payload);
    PutFixed32(&out, Crc32(0, payload));
    values.clear();
  }
  pending_rows_ = 0;
  return writer_->Append(out);
}

Status ColFileWriter::Flush() { return FlushGroup(); }

Status ColFileWriter::Close() {
  DGF_RETURN_IF_ERROR(FlushGroup());
  return writer_->Close();
}

// ---------- ColSplitReader ----------

ColSplitReader::ColSplitReader(std::unique_ptr<fs::DfsReader> reader,
                               fs::FileSplit split, Schema schema,
                               std::optional<std::vector<int>> projection)
    : reader_(std::move(reader)),
      split_(std::move(split)),
      schema_(std::move(schema)),
      projection_(std::move(projection)),
      scan_pos_(split_.offset) {
  // A well-formed file has a group at byte 0; a split starting anywhere else
  // does not know its first boundary until a group header validates.
  if (split_.offset == 0) confirmed_group_at_ = 0;
}

Result<std::unique_ptr<ColSplitReader>> ColSplitReader::Open(
    std::shared_ptr<fs::MiniDfs> dfs, const fs::FileSplit& split,
    Schema schema, std::optional<std::vector<int>> projection) {
  DGF_ASSIGN_OR_RETURN(auto reader, dfs->OpenForRead(split.path));
  return std::unique_ptr<ColSplitReader>(new ColSplitReader(
      std::move(reader), split, std::move(schema), std::move(projection)));
}

void ColSplitReader::SetRowFilter(
    std::vector<std::pair<uint64_t, std::vector<uint64_t>>> groups_and_rows) {
  std::sort(groups_and_rows.begin(), groups_and_rows.end());
  row_filter_ = std::move(groups_and_rows);
  filter_pos_ = 0;
}

void ColSplitReader::SetZoneMapFilter(ZoneMapPredicate pred,
                                      obs::Counter* skipped) {
  zone_filter_ = std::move(pred);
  skip_counter_ = skipped;
}

Status ColSplitReader::EnsureBuffered(uint64_t file_offset, uint64_t length) {
  // Attacker-claimed sizes reach here; a wrapping end offset must never be
  // allowed to masquerade as a small in-bounds request.
  if (length > std::numeric_limits<uint64_t>::max() - file_offset) {
    return Status::Corruption("columnar read range wraps 64-bit offsets");
  }
  // Drop bytes before file_offset; extend until [file_offset, +length) is in.
  if (file_offset > buffer_start_) {
    const uint64_t drop =
        std::min<uint64_t>(file_offset - buffer_start_, buffer_.size());
    buffer_.erase(0, drop);
    buffer_start_ += drop;
    // Empty buffer: jump straight to the requested offset instead of reading
    // the gap — this is what makes a zone-map group skip cheap (the skipped
    // payload bytes between the old buffer end and the next header are never
    // fetched from the DFS).
    if (buffer_.empty()) buffer_start_ = file_offset;
  }
  while (buffer_start_ + buffer_.size() < file_offset + length) {
    const uint64_t read_at = buffer_start_ + buffer_.size();
    const uint64_t needed = file_offset + length - read_at;
    // Read ahead up to the chunk size, but never past the split end unless a
    // specific request (a straddling row group) demands it: DGFIndex Slices
    // are exact group runs and must not be billed for neighbouring bytes.
    uint64_t want = std::max<uint64_t>(needed, std::min<uint64_t>(
        kReadChunk, split_.end() > read_at ? split_.end() - read_at : 0));
    want = std::max<uint64_t>(want, needed);
    std::string chunk;
    DGF_RETURN_IF_ERROR(reader_->Pread(read_at, want, &chunk));
    if (chunk.empty()) break;  // end of file
    bytes_read_ += chunk.size();
    buffer_ += chunk;
  }
  return Status::OK();
}

Result<int64_t> ColSplitReader::FindSync(uint64_t from_offset) {
  uint64_t pos = from_offset;
  // A group belongs to this split only if its sync STARTS before split.end(),
  // so the search never needs bytes past end + marker length.
  const uint64_t limit = split_.end() + kSyncLen;
  for (;;) {
    if (pos >= split_.end()) return -1;
    DGF_RETURN_IF_ERROR(
        EnsureBuffered(pos, std::min<uint64_t>(kReadChunk, limit - pos)));
    const uint64_t available =
        std::min<uint64_t>(buffer_start_ + buffer_.size(), limit);
    if (pos + kSyncLen > available) return -1;  // EOF / split end, no sync
    const char* base = buffer_.data() + (pos - buffer_start_);
    const size_t searchable = static_cast<size_t>(available - pos);
    const void* hit = memmem(base, searchable, kColSyncMarker, kSyncLen);
    if (hit != nullptr) {
      const auto at = static_cast<uint64_t>(
          pos + (static_cast<const char*>(hit) - base));
      return at < split_.end() ? static_cast<int64_t>(at) : -1;
    }
    // No sync in the buffered window; keep the last kSyncLen-1 bytes in case
    // a marker straddles the chunk boundary.
    pos = available - (kSyncLen - 1);
    if (buffer_start_ + buffer_.size() >= reader_->Length() ||
        available >= limit) {
      return -1;
    }
  }
}

Result<bool> ColSplitReader::LoadNextGroup() {
  struct BlockHeader {
    uint64_t encoding = 0;
    std::string min_text;
    std::string max_text;
    uint64_t payload_size = 0;
    uint64_t payload_offset = 0;
  };

  for (;;) {
    if (done_) return false;
    DGF_ASSIGN_OR_RETURN(int64_t sync_at, FindSync(scan_pos_));
    // At a confirmed group boundary inside the split (where the scan starts)
    // the next marker must be right there and whole: a scan that stepped
    // over a damaged marker would silently drop its group.
    if (confirmed_group_at_.has_value() &&
        *confirmed_group_at_ < split_.end() &&
        *confirmed_group_at_ < reader_->Length() &&
        sync_at != static_cast<int64_t>(*confirmed_group_at_)) {
      return Status::Corruption("columnar sync marker damaged at offset " +
                                std::to_string(*confirmed_group_at_));
    }
    if (sync_at < 0 || static_cast<uint64_t>(sync_at) >= split_.end()) {
      done_ = true;
      return false;
    }
    const uint64_t group_start = static_cast<uint64_t>(sync_at);
    uint64_t cursor = group_start + kSyncLen;

    // A marker at a confirmed group boundary (byte 0, or the exact end of the
    // previous group) is structurally a group start. One found anywhere else
    // may be payload bytes that merely look like the marker — fixed64 blocks
    // store raw double bits, so two adjacent cells of user data can embed it.
    const bool speculative = !(confirmed_group_at_.has_value() &&
                               *confirmed_group_at_ == group_start);

    // Group header: two varints + fixed32 CRC over them. Validation failures
    // on a speculative sync resume the scan past the false marker instead of
    // failing the read (a split starting inside such a payload would
    // otherwise report Corruption for a perfectly valid file).
    auto view_at = [&](uint64_t off) {
      return std::string_view(buffer_.data() + (off - buffer_start_),
                              buffer_.size() - (off - buffer_start_));
    };
    uint64_t rows_in_group = 0;
    uint64_t cols_in_group = 0;
    uint64_t header_len = 0;
    const Status header_status = [&]() -> Status {
      DGF_RETURN_IF_ERROR(EnsureBuffered(cursor, 32));
      std::string_view header = view_at(cursor);
      const char* header_begin = header.data();
      DGF_ASSIGN_OR_RETURN(rows_in_group, GetVarint64(&header));
      DGF_ASSIGN_OR_RETURN(cols_in_group, GetVarint64(&header));
      header_len = static_cast<uint64_t>(header.data() - header_begin);
      DGF_RETURN_IF_ERROR(EnsureBuffered(cursor, header_len + 4));
      if (buffer_start_ + buffer_.size() < cursor + header_len + 4) {
        return Status::Corruption("truncated columnar group header");
      }
      const char* header_base = buffer_.data() + (cursor - buffer_start_);
      const uint32_t header_crc =
          Crc32(0, header_base, static_cast<size_t>(header_len));
      if (header_crc != DecodeFixed32(header_base + header_len)) {
        return Status::Corruption("columnar group header checksum mismatch");
      }
      return Status::OK();
    }();
    if (!header_status.ok()) {
      if (speculative && header_status.IsCorruption()) {
        // Resume just past the false marker. Marker occurrences cannot
        // overlap (all 16 bytes are distinct), and EnsureBuffered may have
        // dropped bytes before `cursor`, so group_start + kSyncLen is both
        // safe and the earliest offset still buffered.
        scan_pos_ = group_start + kSyncLen;
        continue;
      }
      return header_status;
    }
    cursor += header_len + 4;
    if (cols_in_group != static_cast<uint64_t>(schema_.num_fields())) {
      return Status::Corruption("columnar group column count mismatch");
    }
    if (rows_in_group == 0 || rows_in_group > kMaxRowsPerGroup) {
      return Status::Corruption("columnar group row count out of range");
    }
    const uint64_t num_rows = rows_in_group;

    const size_t num_fields = static_cast<size_t>(schema_.num_fields());
    std::vector<bool> wanted(num_fields, !projection_.has_value());
    if (projection_.has_value()) {
      for (int c : *projection_) wanted[static_cast<size_t>(c)] = true;
    }
    // Columns the zone-map filter constrains must be decoded for the
    // vectorized row filter even when the projection excludes them from the
    // output rows (those cells stay type-default, per the reader contract).
    std::vector<bool> filter_only(num_fields, false);
    const bool zone_active = zone_filter_.has_value() &&
                             !row_filter_.has_value();
    if (zone_active) {
      for (const ZoneMapRange& range : *zone_filter_) {
        const size_t c = static_cast<size_t>(range.column);
        if (c < num_fields && !wanted[c]) filter_only[c] = true;
      }
    }

    // Walk every block header in file order; payloads are copied out (not
    // decoded) as encountered, and the instant any filtered column's zone
    // map disproves the predicate the remaining payloads are jumped over
    // without touching the DFS.
    std::vector<BlockHeader> blocks(num_fields);
    std::vector<std::string> payload_copies(num_fields);
    bool skip_group = false;
    uint64_t payloads_copied = 0;
    for (size_t c = 0; c < num_fields; ++c) {
      BlockHeader& block = blocks[c];
      // Parse the block header from a small window first; widen once if a
      // long zone-map text straddles it.
      uint64_t block_header_len = 0;
      bool header_parsed = false;
      for (uint64_t window : {uint64_t{128}, kMaxBlockHeader}) {
        DGF_RETURN_IF_ERROR(EnsureBuffered(cursor, window));
        std::string_view bh = view_at(cursor);
        const char* bh_begin = bh.data();
        auto parse = [&]() -> Status {
          DGF_ASSIGN_OR_RETURN(uint64_t encoding, GetVarint64(&bh));
          DGF_ASSIGN_OR_RETURN(std::string_view min_text,
                               GetLengthPrefixed(&bh));
          DGF_ASSIGN_OR_RETURN(std::string_view max_text,
                               GetLengthPrefixed(&bh));
          DGF_ASSIGN_OR_RETURN(uint64_t payload_size, GetVarint64(&bh));
          block.encoding = encoding;
          block.min_text.assign(min_text.data(), min_text.size());
          block.max_text.assign(max_text.data(), max_text.size());
          block.payload_size = payload_size;
          return Status::OK();
        };
        if (parse().ok()) {
          block_header_len = static_cast<uint64_t>(bh.data() - bh_begin);
          header_parsed = true;
          break;
        }
      }
      if (!header_parsed) {
        return Status::Corruption("unparseable columnar block header");
      }
      DGF_RETURN_IF_ERROR(EnsureBuffered(cursor, block_header_len + 4));
      if (buffer_start_ + buffer_.size() < cursor + block_header_len + 4) {
        return Status::Corruption("truncated columnar block header");
      }
      const char* bh_base = buffer_.data() + (cursor - buffer_start_);
      const uint32_t bh_crc =
          Crc32(0, bh_base, static_cast<size_t>(block_header_len));
      if (bh_crc != DecodeFixed32(bh_base + block_header_len)) {
        return Status::Corruption("columnar block header checksum mismatch");
      }
      if (block.encoding > kEncodingFixed64) {
        return Status::Corruption("unknown columnar block encoding");
      }
      block.payload_offset = cursor + block_header_len + 4;
      // Validate by subtraction: payload_size is an attacker-claimed varint
      // that can reach 2^64-1, so any `offset + size` comparison would wrap
      // and wave the claim through (and later wrap `cursor` backwards into an
      // infinite re-scan of the same sync). The payload plus its trailing
      // 4-byte CRC must fit between payload_offset and end-of-file.
      const uint64_t file_len = reader_->Length();
      if (block.payload_offset > file_len ||
          file_len - block.payload_offset < 4 ||
          block.payload_size > file_len - block.payload_offset - 4) {
        return Status::Corruption("columnar block overruns file");
      }

      if (zone_active && !skip_group) {
        const DataType type = schema_.field(static_cast<int>(c)).type;
        for (const ZoneMapRange& range : *zone_filter_) {
          if (range.column != static_cast<int>(c)) continue;
          auto min_value = ParseValue(block.min_text, type);
          auto max_value = ParseValue(block.max_text, type);
          if (!min_value.ok()) return min_value.status();
          if (!max_value.ok()) return max_value.status();
          if (ZoneDisjoint(range, *min_value, *max_value)) {
            skip_group = true;
            break;
          }
        }
      }

      if (!skip_group && (wanted[c] || filter_only[c])) {
        // Buffer and copy the payload + its CRC; decoding happens only after
        // the whole header walk proves the group survives the zone maps.
        DGF_RETURN_IF_ERROR(
            EnsureBuffered(block.payload_offset, block.payload_size + 4));
        if (buffer_start_ + buffer_.size() <
            block.payload_offset + block.payload_size + 4) {
          return Status::Corruption("truncated columnar block payload");
        }
        payload_copies[c].assign(
            buffer_.data() + (block.payload_offset - buffer_start_),
            static_cast<size_t>(block.payload_size + 4));
        ++payloads_copied;
      }
      cursor = block.payload_offset + block.payload_size + 4;
    }
    scan_pos_ = cursor;
    confirmed_group_at_ = cursor;
    group_offset_ = group_start;

    if (skip_group) {
      // Credit only payloads that were never fetched: columns ahead of the
      // disproving one were already copied before the skip fired, and
      // counting them would over-report the bytes the zone maps avoided.
      const uint64_t avoided = num_fields - payloads_copied;
      blocks_skipped_ += avoided;
      if (skip_counter_ != nullptr && avoided > 0) {
        skip_counter_->Increment(avoided);
      }
      continue;
    }

    // Decode the surviving group column-at-a-time into value vectors.
    std::vector<std::vector<Value>> decoded(num_fields);
    for (size_t c = 0; c < num_fields; ++c) {
      if (!wanted[c] && !filter_only[c]) continue;
      const BlockHeader& block = blocks[c];
      const std::string& payload = payload_copies[c];
      const std::string_view body(payload.data(),
                                  static_cast<size_t>(block.payload_size));
      const uint32_t payload_crc = Crc32(0, body);
      if (payload_crc !=
          DecodeFixed32(payload.data() + block.payload_size)) {
        return Status::Corruption("columnar block payload checksum mismatch");
      }
      const DataType type = schema_.field(static_cast<int>(c)).type;
      Result<std::vector<Value>> values = [&]() -> Result<std::vector<Value>> {
        switch (block.encoding) {
          case kEncodingPlain:
            return DecodePlain(body, num_rows, type);
          case kEncodingDictRle:
            return DecodeDictRle(body, num_rows, type);
          case kEncodingFixed64:
            return DecodeFixed64Block(body, num_rows, type);
          default:
            return DecodeDelta(body, num_rows, type);
        }
      }();
      if (!values.ok()) return values.status();
      decoded[c] = std::move(*values);
      ++blocks_decoded_;
    }

    // Vectorized row filter: evaluate each range over its decoded column
    // vector; a row is materialized only if every range holds. Callers
    // re-apply the full predicate per row, so dropping here is sound (all
    // ranges are conjunctive) and keeping extra rows would also be safe.
    std::vector<bool> keep(static_cast<size_t>(num_rows), true);
    if (zone_active) {
      for (const ZoneMapRange& range : *zone_filter_) {
        const size_t c = static_cast<size_t>(range.column);
        if (c >= num_fields || decoded[c].empty()) continue;
        for (uint64_t r = 0; r < num_rows; ++r) {
          if (keep[r] && !RangeMatches(range, decoded[c][r])) keep[r] = false;
        }
      }
    }

    group_rows_.clear();
    group_ordinals_.clear();
    for (uint64_t r = 0; r < num_rows; ++r) {
      if (!keep[r]) continue;
      Row row;
      row.reserve(num_fields);
      for (size_t c = 0; c < num_fields; ++c) {
        if (wanted[c]) {
          row.push_back(decoded[c][r]);
        } else {
          row.push_back(DefaultValueFor(schema_.field(static_cast<int>(c))
                                            .type));
        }
      }
      group_rows_.push_back(std::move(row));
      group_ordinals_.push_back(r);
    }
    next_row_ = 0;

    if (row_filter_.has_value()) {
      // Skip groups the bitmap filter does not mention.
      while (filter_pos_ < row_filter_->size() &&
             (*row_filter_)[filter_pos_].first < group_start) {
        ++filter_pos_;
      }
      if (filter_pos_ >= row_filter_->size() ||
          (*row_filter_)[filter_pos_].first != group_start) {
        continue;  // group filtered out entirely
      }
      current_filter_rows_ = (*row_filter_)[filter_pos_].second;
      filter_row_pos_ = 0;
    }
    if (group_rows_.empty()) continue;  // every row filtered out
    return true;
  }
}

Result<bool> ColSplitReader::Next(Row* row) {
  for (;;) {
    if (group_rows_.empty() || next_row_ >= group_rows_.size()) {
      DGF_ASSIGN_OR_RETURN(bool more, LoadNextGroup());
      if (!more) return false;
    }
    if (!row_filter_.has_value()) {
      row_in_group_ = group_ordinals_[next_row_];
      *row = group_rows_[next_row_++];
      return true;
    }
    // Bitmap-filtered path: emit only listed row ordinals. The zone-map row
    // filter is disabled under a bitmap filter, so ordinals index directly.
    if (filter_row_pos_ >= current_filter_rows_.size()) {
      next_row_ = group_rows_.size();  // exhaust group, load next
      continue;
    }
    const uint64_t target = current_filter_rows_[filter_row_pos_++];
    if (target >= group_rows_.size()) {
      return Status::Corruption("bitmap row ordinal out of range");
    }
    row_in_group_ = target;
    next_row_ = static_cast<size_t>(target) + 1;
    *row = group_rows_[static_cast<size_t>(target)];
    return true;
  }
}

}  // namespace dgf::table
