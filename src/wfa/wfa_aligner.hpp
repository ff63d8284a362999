// Gap-affine wavefront aligner (WFA), the algorithm of Marco-Sola et al.
// (Bioinformatics 2021) that the PIM paper ports to UPMEM.
//
// Exact global alignment in O(ns) time and O(s^2) memory, where s is the
// optimal gap-affine penalty: wavefronts are evaluated for increasing
// score, each first *extended* along matching diagonals (free matches),
// then the next score's wavefront is *computed* from the recurrences
//
//   I[s][k] = max(M[s-o-e][k-1], I[s-e][k-1]) + 1
//   D[s][k] = max(M[s-o-e][k+1], D[s-e][k+1])
//   M[s][k] = max(M[s-x][k] + 1, I[s][k], D[s][k])
//
// until M[s][tlen - plen] reaches offset tlen. A backtrace over the stored
// wavefronts reconstructs the CIGAR. The algorithm itself lives in
// wfa_core.hpp, shared with the DPU kernel; this class supplies host
// storage (retained rows or score-only rings), the pluggable kernels and
// the memory modes.
//
// All wavefront memory comes from a WavefrontAllocator (see allocator.hpp)
// - the seam the PIM port replaces with the WRAM/MRAM allocator.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "align/aligner.hpp"
#include "seq/cigar.hpp"
#include "wfa/allocator.hpp"
#include "wfa/kernels.hpp"
#include "wfa/wavefront.hpp"
#include "wfa/wfa_core.hpp"

namespace pimwfa::wfa {

class WfaAligner final : public align::PairAligner {
 public:
  // Adaptive wavefront reduction (the "WFA-Adapt" heuristic of the WFA
  // paper): after each extension, diagonals whose remaining distance to
  // the end exceeds the best diagonal's by more than `max_distance_diff`
  // are dropped. Trades exactness for speed on divergent pairs.
  struct Heuristic {
    bool enabled = false;
    i32 min_wavefront_length = 10;  // never reduce below this many diagonals
    i32 max_distance_diff = 50;
  };

  // Wavefront retention policy (WFA2-lib's "memory modes").
  enum class MemoryMode {
    // Keep every wavefront: O(s^2) memory, enables the CIGAR backtrace.
    kHigh,
    // Keep only the last max(x, o+e)+1 wavefronts in a ring: memory
    // bounded by O(max_penalty * (n+m)) independent of the score. Applies
    // to score-only alignment; full alignments always retain (a backtrace
    // needs the history).
    kLow,
    // BiWFA (Marco-Sola et al. 2023): meet-in-the-middle bidirectional
    // score-only rings find the optimal breakpoint, then recurse on the
    // two halves until each fits a small kHigh base case. O(s) peak
    // memory at ~2x compute; scores are bit-identical to kHigh and the
    // stitched CIGAR is verified (its gap-affine cost must equal the
    // bidirectional score). Works for both score-only and full scope.
    kUltralow,
  };

  // Boundary component of a partial alignment (see wavefront.hpp).
  using Component = wfa::Component;

  // Optimal meeting point reported by the bidirectional score pass.
  struct Breakpoint {
    i64 total = 0;          // optimal score of the whole (sub)problem
    i64 score_forward = 0;  // forward-half score at the detected meet
    i64 score_reverse = 0;  // reverse-half score at the detected meet
    i32 k = 0;              // forward diagonal of the meet
    Offset offset = 0;      // forward text offset of the meet
    Component comp = Component::kM;  // component the meet lies in
  };

  struct Options {
    align::Penalties penalties = align::Penalties::defaults();
    // Hard cap on the alignment score; 0 means "auto" (the worst-case
    // score of each pair, which always terminates). A positive cap turns
    // WFA into a thresholded aligner: exceeding pairs throw Error.
    i64 max_score = 0;
    MemoryMode memory_mode = MemoryMode::kHigh;
    // kUltralow recursion switches to a retained (kHigh) base case once a
    // subproblem's estimated wavefront arena fits this budget. Smaller
    // budgets recurse deeper (lower peak memory, more recompute).
    u64 ultralow_base_wavefront_bytes = 4u << 20;
    Heuristic heuristic{};
    // Inner-loop kernels (extend match scan + recurrence row). Null uses
    // the portable scalar defaults; the SIMD backend plugs in vectorized
    // implementations, which must stay bit-identical (see kernels.hpp).
    const WfaKernels* kernels = nullptr;
  };

  // If `allocator` is null the aligner owns a SlabAllocator.
  explicit WfaAligner(Options options,
                      WavefrontAllocator* allocator = nullptr);
  explicit WfaAligner(align::Penalties penalties)
      : WfaAligner(Options{penalties, 0}) {}

  align::AlignmentResult align(std::string_view pattern, std::string_view text,
                               align::AlignmentScope scope) override;

  // Align a partial pair whose path enters in component `begin` and leaves
  // in component `end` (see Component). Honors the configured memory mode;
  // kM/kM is exactly align(). Used by the kUltralow recursion and by the
  // PIM tiling planner/stitcher.
  align::AlignmentResult align_span(std::string_view pattern,
                                    std::string_view text,
                                    align::AlignmentScope scope,
                                    Component begin, Component end);

  // Bidirectional score-only pass (BiWFA): forward and reverse ring
  // wavefronts advance by anti-diagonal progress until they meet; returns
  // the optimal score of the (sub)problem plus the meeting point to cut
  // at. Requires non-empty pattern and text. Throws Error if the score
  // cap is exceeded before a provably optimal meet is found.
  Breakpoint find_breakpoint(std::string_view pattern, std::string_view text,
                             Component begin, Component end, i64 score_cap);

  std::string name() const override {
    return options_.heuristic.enabled ? "wfa-adapt" : "wfa";
  }

  const align::Penalties& penalties() const noexcept {
    return options_.penalties;
  }

  // Cumulative work counters (see WfaCounters); reset with reset_counters().
  const WfaCounters& counters() const noexcept { return counters_; }
  void reset_counters() noexcept { counters_.reset(); }

  WavefrontAllocator& allocator() noexcept { return *allocator_; }

  // Peak payload bytes a retained (kHigh) pass over a (sub)problem of this
  // score and size binds: 3 components x sizeof(Offset) per diagonal,
  // widths growing 2s+1 until capped by the full band. Drives the
  // kUltralow base-case cut and the PIM tiling planner's arena estimate.
  static u64 retained_bytes_estimate(i64 score, usize plen, usize tlen);

 private:
  // Storage policies of the WFA core over this aligner's rows.
  class HostRows;
  class RetainedRows;
  class RingRows;

  // Ring storage for the score-only passes (kLow and each direction of
  // kUltralow); slot vectors are retained across alignments.
  struct RingSlot {
    WavefrontSet set;
    std::vector<Offset> m, i, d;
    u64 bytes = 0;  // payload bytes currently bound into `set`
  };
  struct ScoreRing {
    std::vector<RingSlot> slots;
    usize ring_size = 0;
    i64 score = -1;         // last computed score row
    u64 live_bytes = 0;     // payload bound across all live rows
    i64 max_antidiag = -1;  // furthest v+h sampled so far (progress)
    std::string_view pattern, text;  // possibly reversed views
  };

  core::Problem problem(std::string_view pattern,
                        std::string_view text) const;
  Wavefront new_wavefront(i32 lo, i32 hi);
  // Seed/advance/query one score-only ring (the kLow machinery). Both
  // return true once the ring's row completes a span ending in `end`.
  bool ring_init(ScoreRing& ring, std::string_view pattern,
                 std::string_view text, Component begin, Component end);
  bool ring_step(ScoreRing& ring, Component end);
  const WavefrontSet* ring_row(const ScoreRing& ring, i64 score) const;
  Wavefront bind_ring_front(ScoreRing& ring, RingSlot& slot,
                            std::vector<Offset>& storage, i32 lo, i32 hi);
  void ring_release(ScoreRing& ring);
  void update_progress(ScoreRing& ring, const Wavefront& m);
  // Ring-buffered score-only pass (MemoryMode::kLow).
  i64 score_low_memory(std::string_view pattern, std::string_view text,
                       i64 score_cap, Component begin, Component end);
  // Recursive BiWFA alignment (MemoryMode::kUltralow, full scope); appends
  // this subproblem's CIGAR ops to `out` and returns its optimal score.
  i64 ultralow_recurse(std::string_view pattern, std::string_view text,
                       Component begin, Component end, i64 score_cap,
                       std::string& out);
  // kHigh pass over one (sub)problem with boundary components; used both
  // by align()/align_span() directly and as the recursion base case.
  align::AlignmentResult align_retained(std::string_view pattern,
                                        std::string_view text,
                                        align::AlignmentScope scope,
                                        Component begin, Component end,
                                        i64 score_cap);
  // Apply adaptive reduction to the freshly extended set (heuristic mode).
  void reduce(WavefrontSet& set, i32 plen, i32 tlen);
  void note_live_bytes();

  Options options_;
  WfaKernels kernels_;
  std::unique_ptr<SlabAllocator> owned_allocator_;
  WavefrontAllocator* allocator_;
  std::vector<WavefrontSet> sets_;  // indexed by score (bookkeeping only)
  ScoreRing ring_;       // kLow ring; also kUltralow's forward direction
  ScoreRing rev_ring_;   // kUltralow's reverse direction
  // Reversed copies of the strings for the reverse direction (reused
  // buffers; std::string_view cannot express a reversed traversal).
  std::string rev_pattern_, rev_text_;
  u64 retained_bytes_ = 0;  // payload allocated by the current kHigh pass
  seq::CigarBuilder cigar_builder_;  // backtrace op buffer, reused
  WfaCounters counters_;
};

}  // namespace pimwfa::wfa
