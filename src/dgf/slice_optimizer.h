#ifndef DGF_DGF_SLICE_OPTIMIZER_H_
#define DGF_DGF_SLICE_OPTIMIZER_H_

#include <cstdint>

#include "common/result.h"
#include "dgf/dgf_index.h"

namespace dgf::core {

/// Slice placement optimization — the paper's second future-work item ("the
/// optimal placement of Slices will also be our next step research problem").
///
/// Incremental appends fragment GFUs across batch files: a cube touched by
/// every batch accumulates one Slice per batch, and query-adjacent cubes end
/// up scattered over files, each costing a seek. `Optimize` rewrites the
/// reorganized data in GFU-key (row-major grid) order:
///   * every GFU's Slices merge into a single Slice;
///   * Slices of adjacent cubes become physically contiguous, so a query
///     box's reads coalesce into a few long sequential ranges (the sliced
///     input format merges adjacent Slices);
///   * stale batch files are retired — deleted once every query snapshot
///     pinned before the rewrite published has been released.
/// The KV entries flip to the new layout in one atomic batch; the index
/// remains queryable throughout (concurrent queries keep scanning the old
/// files their snapshot references until they finish).
class SliceOptimizer {
 public:
  struct Stats {
    uint64_t gfus = 0;
    uint64_t slices_before = 0;
    uint64_t slices_after = 0;
    uint64_t bytes_rewritten = 0;
    uint64_t files_before = 0;
    uint64_t files_after = 0;
  };

  /// Rewrites `index`'s data files; output files rotate at
  /// `target_file_bytes`. With `threads` > 1 up to that many threads (the
  /// caller included) rewrite the output files on the process pool, one
  /// task per file: the entry->file assignment is cut
  /// deterministically from the key-ordered entry list before any writing
  /// starts, so the rewritten layout is identical for every thread count.
  static Result<Stats> Optimize(DgfIndex* index,
                                uint64_t target_file_bytes = 256ULL << 20,
                                int threads = 1);
};

}  // namespace dgf::core

#endif  // DGF_DGF_SLICE_OPTIMIZER_H_
