// Host-side long-pair tiling planner.
//
// A pair whose wavefront arena (or MRAM record) exceeds one tasklet's
// share cannot run on a DPU as-is. The planner cuts such a pair into
// breakpoint-delimited segments using the BiWFA bidirectional pass
// (wfa::WfaAligner::find_breakpoint): every cut lies ON the optimal
// alignment path, so the segments' span alignments (seam-charged
// gap_open, see wfa::WfaAligner::Component) compose back to the pair's
// optimal score and CIGAR exactly. Segments become independent
// PairRecords distributed across tasklet rows and DPUs like any other
// pair; PimBatchAligner stitches the per-segment results host-side.
#pragma once

#include <string_view>
#include <vector>

#include "align/penalties.hpp"
#include "align/result.hpp"
#include "common/types.hpp"
#include "wfa/wfa_aligner.hpp"

namespace pimwfa::pim {

// One breakpoint-delimited piece of a pair. Ranges are absolute in the
// parent pair; begin/end are the seam components the DPU kernel must
// honor (seeding, termination, backtrace).
struct TileSegment {
  usize pair = 0;  // index of the parent pair in the batch
  usize v0 = 0, v1 = 0;  // pattern range [v0, v1)
  usize h0 = 0, h1 = 0;  // text range [h0, h1)
  wfa::WfaAligner::Component begin = wfa::WfaAligner::Component::kM;
  wfa::WfaAligner::Component end = wfa::WfaAligner::Component::kM;
  i64 span_score = 0;  // planner's span cost (stitch verification)

  usize pattern_length() const noexcept { return v1 - v0; }
  usize text_length() const noexcept { return h1 - h0; }
};

struct TilingConfig {
  align::Penalties penalties = align::Penalties::defaults();
  // Per-tasklet metadata heap available for one segment's retained
  // wavefronts (layout arena minus descriptor table and slack).
  u64 arena_budget_bytes = 0;
  // Record-size bound: a segment's pattern + text bases never exceed
  // this, keeping PairRecords (and WRAM sequence buffers) bounded.
  usize max_segment_bases = 0;
  // Per-pair score cap (0 = worst case per subproblem).
  u64 score_cap = 0;
};

class TilingPlanner {
 public:
  explicit TilingPlanner(TilingConfig config);

  // Appends the segments of pair `pair_index` to `out`: one segment when
  // the pair fits untiled under the config, several otherwise. Throws
  // Error when the pair cannot be segmented (a breakpoint lands on a
  // corner of an oversized subproblem).
  void plan_pair(usize pair_index, std::string_view pattern,
                 std::string_view text, std::vector<TileSegment>& out);

  // Peak metadata-arena bytes a DPU tasklet needs to retain the full
  // wavefront history of a (sub)problem of this score and size - the
  // MRAM mirror of the host's kHigh footprint. An ends-free pair's rows
  // are up to min(text_ends_free, tlen) diagonals wider: its score-0 row
  // seeds every free text start.
  static u64 retained_arena_estimate(i64 score, usize plen, usize tlen,
                                     usize text_ends_free = 0);

 private:
  void recurse(usize pair_index, std::string_view pattern,
               std::string_view text, usize v_base, usize h_base,
               wfa::WfaAligner::Component begin,
               wfa::WfaAligner::Component end, i64 score_cap,
               std::vector<TileSegment>& out);

  TilingConfig config_;
  wfa::WfaAligner planner_;  // find_breakpoint machinery only (O(s) memory)
};

// Combines per-segment DPU results (in segment order) into the parent
// pair's result: score is the sum of the span scores, CIGARs concatenate.
// Verifies the sum against the planner's expectation.
align::AlignmentResult stitch_segments(
    const std::vector<TileSegment>& segments, usize seg_begin, usize seg_end,
    const std::vector<align::AlignmentResult>& segment_results, bool full);

}  // namespace pimwfa::pim
