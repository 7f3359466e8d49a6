#ifndef DGF_TESTING_COL_FUZZ_H_
#define DGF_TESTING_COL_FUZZ_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace dgf::testing {

/// Seeded fuzzer for the columnar slice codec. Each case writes a pristine
/// columnar file (shape and data randomized so plain, dict+RLE, delta, and
/// fixed64 blocks are all hit) and then attacks it one of three ways:
///
///   - bit flips at any byte: each sync marker sits at a confirmed group
///     boundary, where the reader checks it whole, and every other byte is
///     CRC-covered, so the reader must fail with Corruption, and any rows
///     yielded before the error must be a prefix of the pristine rows;
///   - truncation at a random byte: the reader must yield a prefix of the
///     pristine rows, with either a clean end (cut on a group boundary) or a
///     Corruption error — never invented rows;
///   - crafted groups with *valid CRCs* but lying content (payload sizes
///     that overrun the file, huge row counts, oversized or empty dictionary
///     claims, out-of-range dict codes, RLE runs past the row count, delta
///     overflow, unknown encodings, wrong column counts, fixed64 blocks
///     with lying sizes or on non-double columns): the checksums pass
///     by construction, so the structural validation itself must reject the
///     group with Corruption before sizing any allocation from lying bytes.
///
/// The invariant across all stages: never a crash, never silently wrong
/// rows. Failures carry a `--col-fuzz --seed=S --case=K` repro line.
struct ColFuzzOptions {
  uint64_t seed = 1;
  int num_cases = 300;
  /// >= 0: run only this case (seed replay of one input).
  int only_case = -1;
  bool verbose = false;
};

struct ColFuzzReport {
  int cases_run = 0;
  /// Attacks the reader rejected with a structured Corruption error.
  int corruption_detected = 0;
  /// Attacks that legally yielded a clean prefix (e.g. truncation on a group
  /// boundary).
  int clean_reads = 0;
  std::vector<std::string> failures;

  bool ok() const { return failures.empty(); }
};

Result<ColFuzzReport> RunColFuzz(const ColFuzzOptions& options);

}  // namespace dgf::testing

#endif  // DGF_TESTING_COL_FUZZ_H_
