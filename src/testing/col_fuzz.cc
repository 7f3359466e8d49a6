#include "testing/col_fuzz.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <utility>

#include "common/encoding.h"
#include "common/random.h"
#include "fs/mini_dfs.h"
#include "table/col_format.h"
#include "table/schema.h"
#include "table/value.h"

namespace dgf::testing {
namespace {

constexpr size_t kSyncLen = sizeof(table::kColSyncMarker);

table::Schema FuzzSchema() {
  return table::Schema({{"a", table::DataType::kInt64},
                        {"b", table::DataType::kString},
                        {"c", table::DataType::kDouble}});
}

/// Everything one reader pass produced before ending or erroring. The
/// fuzzer's whole invariant is expressed over this: `status` must be OK or
/// Corruption, and `rows` must be a prefix of the pristine rows.
struct ReadOutcome {
  Status status = Status::OK();
  std::vector<std::string> rows;
};

ReadOutcome ReadFile(const std::shared_ptr<fs::MiniDfs>& dfs,
                     const std::string& path, uint64_t length,
                     const table::Schema& schema) {
  ReadOutcome out;
  auto reader = table::ColSplitReader::Open(
      dfs, fs::FileSplit{path, 0, length}, schema);
  if (!reader.ok()) {
    out.status = reader.status();
    return out;
  }
  table::Row row;
  for (;;) {
    auto more = (*reader)->Next(&row);
    if (!more.ok()) {
      out.status = more.status();
      return out;
    }
    if (!*more) return out;
    out.rows.push_back(table::FormatRowText(row));
  }
}

Status WriteBytes(const std::shared_ptr<fs::MiniDfs>& dfs,
                  const std::string& path, std::string_view bytes) {
  DGF_ASSIGN_OR_RETURN(auto writer, dfs->Create(path));
  DGF_RETURN_IF_ERROR(writer->Append(bytes));
  return writer->Close();
}

Result<std::string> ReadBytes(const std::shared_ptr<fs::MiniDfs>& dfs,
                              const std::string& path, uint64_t length) {
  DGF_ASSIGN_OR_RETURN(auto reader, dfs->OpenForRead(path));
  std::string bytes;
  DGF_RETURN_IF_ERROR(reader->Pread(0, length, &bytes));
  return bytes;
}

bool IsPrefix(const std::vector<std::string>& rows,
              const std::vector<std::string>& pristine) {
  if (rows.size() > pristine.size()) return false;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] != pristine[i]) return false;
  }
  return true;
}

// ---------- crafted lying groups (valid CRCs, hostile content) ----------

/// One block with the layout the reader expects; the lie lives in the
/// arguments, the checksums are honest so validation (not CRC) must reject.
void AppendBlock(std::string* out, uint64_t encoding,
                 const std::string& min_text, const std::string& max_text,
                 const std::string& payload,
                 std::optional<uint64_t> lie_payload_size = std::nullopt) {
  std::string header;
  PutVarint64(&header, encoding);
  PutLengthPrefixed(&header, min_text);
  PutLengthPrefixed(&header, max_text);
  PutVarint64(&header, lie_payload_size.value_or(payload.size()));
  out->append(header);
  PutFixed32(out, Crc32(0, header));
  out->append(payload);
  PutFixed32(out, Crc32(0, payload));
}

void AppendGroupHeader(std::string* out, uint64_t num_rows,
                       uint64_t num_cols) {
  out->append(table::kColSyncMarker, kSyncLen);
  std::string header;
  PutVarint64(&header, num_rows);
  PutVarint64(&header, num_cols);
  out->append(header);
  PutFixed32(out, Crc32(0, header));
}

std::string PlainIntPayload(int count) {
  std::string payload;
  for (int i = 0; i < count; ++i) {
    PutLengthPrefixed(&payload, std::to_string(i));
  }
  return payload;
}

std::string PlainStringPayload(int count) {
  std::string payload;
  for (int i = 0; i < count; ++i) {
    PutLengthPrefixed(&payload, "s" + std::to_string(i));
  }
  return payload;
}

std::string Fixed64Payload(int count) {
  std::string payload;
  for (int i = 0; i < count; ++i) {
    const double d = static_cast<double>(i) + 0.5;
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    PutFixed64(&payload, bits);
  }
  return payload;
}

/// Builds a whole-file crafted group for knob `knob`; `what` names the lie
/// for failure messages.
std::string CraftGroup(int knob, Random& rng, std::string* what) {
  const int rows = 4;
  std::string out;
  // Valid trailing blocks so a lie in an earlier column is what the reader
  // trips on, not an arity error.
  auto good_string_block = [&] {
    AppendBlock(&out, 0, "s0", "s3", PlainStringPayload(rows));
  };
  auto good_double_block = [&] {
    AppendBlock(&out, 3, "0.5", "3.5", Fixed64Payload(rows));
  };
  switch (knob) {
    case 0: {  // payload length far past EOF
      *what = "payload overruns file";
      AppendGroupHeader(&out, rows, 3);
      AppendBlock(&out, 0, "0", "3", PlainIntPayload(rows),
                  /*lie_payload_size=*/uint64_t{1} << 40);
      break;
    }
    case 1: {  // row count above the reader's plausibility bound (1 << 22)
      *what = "huge row count";
      AppendGroupHeader(&out, (uint64_t{1} << 22) + 1 + rng.Uniform(1000), 3);
      AppendBlock(&out, 0, "0", "3", PlainIntPayload(rows));
      good_string_block();
      good_double_block();
      break;
    }
    case 2: {  // column count disagrees with the schema
      *what = "column count mismatch";
      const uint64_t cols = rng.Uniform(2) == 0 ? 1 : 4;
      AppendGroupHeader(&out, rows, cols);
      for (uint64_t c = 0; c < cols; ++c) {
        AppendBlock(&out, 0, "0", "3", PlainIntPayload(rows));
      }
      break;
    }
    case 3: {  // encoding id the reader has never heard of
      *what = "unknown encoding";
      AppendGroupHeader(&out, rows, 3);
      AppendBlock(&out, 4 + rng.Uniform(200), "0", "3",
                  PlainIntPayload(rows));
      good_string_block();
      good_double_block();
      break;
    }
    case 4: {  // dictionary size zero or far beyond the row count
      *what = "oversized dictionary claim";
      AppendGroupHeader(&out, rows, 3);
      AppendBlock(&out, 0, "0", "3", PlainIntPayload(rows));
      std::string payload;
      const uint64_t claimed =
          rng.Uniform(2) == 0 ? 0 : rows + 5 + rng.Uniform(uint64_t{1} << 30);
      PutVarint64(&payload, claimed);
      PutLengthPrefixed(&payload, "only-entry");
      AppendBlock(&out, 1, "only-entry", "only-entry", payload);
      good_double_block();
      break;
    }
    case 5: {  // dict code pointing past the dictionary
      *what = "dict code out of range";
      AppendGroupHeader(&out, rows, 3);
      AppendBlock(&out, 0, "0", "3", PlainIntPayload(rows));
      std::string payload;
      PutVarint64(&payload, 2);  // two entries
      PutLengthPrefixed(&payload, "x");
      PutLengthPrefixed(&payload, "y");
      PutVarint64(&payload, 7);  // code 7 of 2
      PutVarint64(&payload, rows);
      AppendBlock(&out, 1, "x", "y", payload);
      good_double_block();
      break;
    }
    case 6: {  // RLE runs summing past num_rows
      *what = "RLE run overflow";
      AppendGroupHeader(&out, rows, 3);
      AppendBlock(&out, 0, "0", "3", PlainIntPayload(rows));
      std::string payload;
      PutVarint64(&payload, 1);
      PutLengthPrefixed(&payload, "x");
      PutVarint64(&payload, 0);
      PutVarint64(&payload, rows + 1 + rng.Uniform(uint64_t{1} << 20));
      AppendBlock(&out, 1, "x", "x", payload);
      good_double_block();
      break;
    }
    case 7: {  // delta chain overflowing int64
      *what = "delta overflow";
      AppendGroupHeader(&out, rows, 3);
      std::string payload;
      // zigzag(INT64_MAX), then deltas that push past the representable
      // range; an unchecked decoder wraps and yields wrong values.
      PutVarint64(&payload,
                  (uint64_t{0x7FFFFFFFFFFFFFFF} << 1) ^ uint64_t{0});
      for (int i = 0; i < rows - 1; ++i) {
        PutVarint64(&payload, uint64_t{1} << 60);
      }
      AppendBlock(&out, 2, "0", "9223372036854775807", payload);
      good_string_block();
      good_double_block();
      break;
    }
    case 8: {  // payload length sized to wrap 64-bit offset arithmetic
      // Unlike knob 0's 1<<40 (huge but wrap-free), this claim is near
      // 2^64, so any `offset + size` bounds check overflows and passes;
      // only subtraction-style validation rejects it.
      *what = "payload size wraps uint64";
      AppendGroupHeader(&out, rows, 3);
      AppendBlock(&out, 0, "0", "3", PlainIntPayload(rows),
                  /*lie_payload_size=*/~uint64_t{0} - rng.Uniform(512));
      break;
    }
    default: {  // fixed64 structural lies
      AppendGroupHeader(&out, rows, 3);
      if (rng.Uniform(2) == 0) {
        // fixed64 on a column that is not a double.
        *what = "fixed64 on non-double column";
        AppendBlock(&out, 3, "0", "3", Fixed64Payload(rows));
        good_string_block();
        good_double_block();
      } else {
        // payload whose size is not 8 * num_rows (honest header + CRCs).
        *what = "fixed64 size mismatch";
        AppendBlock(&out, 0, "0", "3", PlainIntPayload(rows));
        good_string_block();
        std::string payload = Fixed64Payload(rows);
        if (rng.Uniform(2) == 0) {
          payload.resize(payload.size() - 1 - rng.Uniform(8));
        } else {
          payload.append(1 + rng.Uniform(8), '\x5a');
        }
        AppendBlock(&out, 3, "0.5", "3.5", payload);
      }
      break;
    }
  }
  return out;
}

struct FuzzWorld {
  std::filesystem::path dir;
  std::shared_ptr<fs::MiniDfs> dfs;
  ~FuzzWorld() {
    if (dir.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

Result<std::unique_ptr<FuzzWorld>> MakeWorld(uint64_t seed) {
  auto world = std::make_unique<FuzzWorld>();
  static std::atomic<int> counter{0};
  world->dir = std::filesystem::temp_directory_path() /
               ("dgf_colfuzz_" + std::to_string(::getpid()) + "_" +
                std::to_string(seed) + "_" + std::to_string(counter++));
  std::filesystem::remove_all(world->dir);
  fs::MiniDfs::Options options;
  options.root_dir = world->dir.string();
  DGF_ASSIGN_OR_RETURN(world->dfs, fs::MiniDfs::Open(options));
  return world;
}

/// Writes the pristine columnar file for (seed, case): shape and data are
/// chosen so delta, dict+RLE, fixed64, and plain blocks all appear across
/// cases.
Result<std::vector<std::string>> WritePristine(
    const std::shared_ptr<fs::MiniDfs>& dfs, const std::string& path,
    Random& rng) {
  const int num_rows = 20 + static_cast<int>(rng.Uniform(180));
  table::ColFileWriter::Options options;
  options.rows_per_group = 1 + static_cast<int>(rng.Uniform(40));
  const bool sorted_ints = rng.Uniform(2) == 0;     // delta vs plain
  const bool low_card_strings = rng.Uniform(2) == 0;  // dict vs plain
  const bool wide_doubles = rng.Uniform(2) == 0;    // fixed64 vs plain
  DGF_ASSIGN_OR_RETURN(
      auto writer, table::ColFileWriter::Create(dfs, path, FuzzSchema(),
                                                options));
  std::vector<std::string> rows;
  int64_t running = 0;
  for (int i = 0; i < num_rows; ++i) {
    running = sorted_ints ? running + static_cast<int64_t>(rng.Uniform(5))
                          : static_cast<int64_t>(rng.Uniform(100000));
    const std::string text =
        low_card_strings ? std::string("r") + std::to_string(rng.Uniform(3))
                         : "u" + std::to_string(rng.Uniform(1u << 30));
    // Full-precision doubles render as 17-18 text chars (fixed64 wins);
    // single digits stay plain — both decoders see fuzzed bytes.
    const double metric = wide_doubles
                              ? rng.UniformDouble(0.0, 500.0)
                              : static_cast<double>(rng.Uniform(10));
    table::Row row = {table::Value::Int64(running),
                      table::Value::String(text),
                      table::Value::Double(metric)};
    DGF_RETURN_IF_ERROR(writer->Append(row));
    rows.push_back(table::FormatRowText(row));
  }
  DGF_RETURN_IF_ERROR(writer->Close());
  return rows;
}

void RunCase(const std::shared_ptr<fs::MiniDfs>& dfs, uint64_t seed,
             int case_id, bool verbose, ColFuzzReport* report) {
  Random rng(seed + 0x9E3779B97F4A7C15ULL *
                        (static_cast<uint64_t>(case_id) + 1));
  const std::string tag = std::to_string(case_id);
  const std::string repro = "repro: dgf_difftest --col-fuzz --seed=" +
                            std::to_string(seed) + " --case=" +
                            std::to_string(case_id);
  auto fail = [&](const std::string& what) {
    report->failures.push_back("case " + tag + ": " + what + "; " + repro);
  };

  const std::string pristine_path = "/c" + tag + "/p.col";
  auto pristine = WritePristine(dfs, pristine_path, rng);
  if (!pristine.ok()) {
    fail("pristine write failed: " + pristine.status().ToString());
    return;
  }
  uint64_t pristine_len = 0;
  for (const auto& file : dfs->ListFiles(pristine_path)) {
    if (file.path == pristine_path) pristine_len = file.length;
  }
  auto pristine_bytes = ReadBytes(dfs, pristine_path, pristine_len);
  if (!pristine_bytes.ok() || pristine_len == 0) {
    fail("pristine read-back failed");
    return;
  }

  const int stage = static_cast<int>(rng.Uniform(3));
  const std::string mutated_path = "/c" + tag + "/m.col";
  std::string bytes = *pristine_bytes;
  std::string stage_name;
  bool require_error = false;

  if (stage == 0) {
    stage_name = "flip";
    // Every byte is either a sync marker at a confirmed group boundary
    // (checked whole) or CRC-covered.
    require_error = true;
    const int flips = 1 + static_cast<int>(rng.Uniform(4));
    for (int i = 0; i < flips; ++i) {
      const size_t at = static_cast<size_t>(rng.Uniform(bytes.size()));
      bytes[at] = static_cast<char>(
          bytes[at] ^ static_cast<char>(1 << rng.Uniform(8)));
    }
    // Two flips can cancel; a byte-identical file is legally clean.
    if (bytes == *pristine_bytes) require_error = false;
  } else if (stage == 1) {
    stage_name = "truncate";
    bytes.resize(static_cast<size_t>(rng.Uniform(bytes.size())));
  } else {
    stage_name = "craft";
    require_error = true;
    pristine->clear();  // crafted file shares no rows with the pristine one
    std::string what;
    bytes = CraftGroup(static_cast<int>(rng.Uniform(10)), rng, &what);
    stage_name += "/" + what;
  }

  if (Status write = WriteBytes(dfs, mutated_path, bytes); !write.ok()) {
    fail("mutated write failed: " + write.ToString());
    return;
  }
  const ReadOutcome outcome =
      ReadFile(dfs, mutated_path, bytes.size(), FuzzSchema());
  ++report->cases_run;

  if (!outcome.status.ok() && !outcome.status.IsCorruption()) {
    fail(stage_name + ": non-Corruption error " + outcome.status.ToString());
  } else if (!IsPrefix(outcome.rows, *pristine)) {
    fail(stage_name + ": yielded rows are not a prefix of the pristine file (" +
         std::to_string(outcome.rows.size()) + " rows)");
  } else if (require_error && outcome.status.ok()) {
    fail(stage_name + ": attack read back cleanly (" +
         std::to_string(outcome.rows.size()) + " rows, no error)");
  } else if (outcome.status.ok()) {
    ++report->clean_reads;
  } else {
    ++report->corruption_detected;
  }
  if (verbose) {
    std::fprintf(stderr, "[col-fuzz] case %d stage=%s status=%s rows=%zu\n",
                 case_id, stage_name.c_str(),
                 outcome.status.ToString().c_str(), outcome.rows.size());
  }
  // Bound DFS growth across a long soak.
  (void)dfs->Delete(pristine_path);
  (void)dfs->Delete(mutated_path);
}

}  // namespace

Result<ColFuzzReport> RunColFuzz(const ColFuzzOptions& options) {
  ColFuzzReport report;
  DGF_ASSIGN_OR_RETURN(auto world, MakeWorld(options.seed));
  if (options.only_case >= 0) {
    RunCase(world->dfs, options.seed, options.only_case, options.verbose,
            &report);
    return report;
  }
  for (int c = 0; c < options.num_cases; ++c) {
    RunCase(world->dfs, options.seed, c, options.verbose, &report);
    if (report.failures.size() >= 20) break;  // enough signal to debug
  }
  return report;
}

}  // namespace dgf::testing
