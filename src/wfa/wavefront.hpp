// Wavefront data structures (gap-affine WFA, Marco-Sola et al. 2021).
//
// For a score s, the wavefront component M/I/D stores, for each diagonal
// k = h - v, the furthest-reaching offset h (text position) of any
// alignment of score s ending on that diagonal in the respective state:
//   M - ending in a match/mismatch (or overall best),
//   I - ending in an insertion (gap in pattern, consumes text),
//   D - ending in a deletion  (gap in text, consumes pattern).
#pragma once

#include <limits>

#include "common/types.hpp"

namespace pimwfa::wfa {

using Offset = i32;

// Boundary component of a (partial) alignment. Long-read machinery
// (kUltralow recursion, PIM tiling) cuts a pair at a breakpoint that may
// sit inside a gap run; the two halves then begin/end mid-gap. A half
// that begins in kI/kD pays no gap_open for continuing the seam run (the
// opening half already paid it); a half that ends in kI/kD must end with
// that gap operation. kM at both ends is a plain alignment.
enum class Component : u8 { kM, kI, kD };

// "Minus infinity" sentinel for unreachable cells. Chosen so that adding
// small increments can never overflow or wrap into the valid range.
inline constexpr Offset kOffsetNone = std::numeric_limits<Offset>::min() / 2;

// True for offsets that denote a reachable cell (valid offsets are >= 0).
constexpr bool offset_reachable(Offset offset) noexcept { return offset >= 0; }

// One component (M, I or D) of the wavefront at one score.
struct Wavefront {
  bool exists = false;
  i32 lo = 0;          // lowest valid diagonal
  i32 hi = -1;         // highest valid diagonal (hi < lo means empty)
  Offset* offsets = nullptr;  // offsets[k - lo] for k in [lo, hi]

  // Furthest-reaching offset on diagonal k, or kOffsetNone if out of range.
  Offset at(i32 k) const noexcept {
    return (exists && k >= lo && k <= hi) ? offsets[k - lo] : kOffsetNone;
  }

  void set(i32 k, Offset value) noexcept { offsets[k - lo] = value; }

  usize width() const noexcept {
    return exists && hi >= lo ? static_cast<usize>(hi - lo + 1) : 0;
  }
};

// The three components at one score.
struct WavefrontSet {
  Wavefront m;
  Wavefront i;
  Wavefront d;

  bool any_exists() const noexcept { return m.exists || i.exists || d.exists; }

  const Wavefront& component(Component c) const noexcept {
    return c == Component::kM ? m : c == Component::kI ? i : d;
  }
};

// Work counters of the host aligners (WfaAligner, the SIMD paths), read
// by the CPU benchmarks and the SIMD work model. The DPU kernel does not
// use them: it charges its operations to the tasklet's cycle account
// through pim::KernelCosts.
struct WfaCounters {
  u64 alignments = 0;
  u64 computed_cells = 0;    // M+I+D cells computed across all scores
  u64 extend_matches = 0;    // bases matched during extension
  u64 extend_probes = 0;     // extension loop iterations (incl. final miss)
  u64 score_steps = 0;       // score increments walked (incl. null scores)
  u64 wavefront_sets = 0;    // non-null wavefront sets computed
  u64 backtrace_ops = 0;     // CIGAR operations emitted by backtrace
  u64 max_score = 0;         // largest final score observed
  u64 allocated_bytes = 0;   // wavefront memory allocated (sum over pairs)
  // Peak wavefront bytes live at once for any single alignment: the
  // memory-mode figure of merit (kHigh grows O(s^2), kLow/kUltralow stay
  // O(s)). Merged with max, not sum, across workers.
  u64 peak_wavefront_bytes = 0;

  void reset() { *this = WfaCounters{}; }

  void merge(const WfaCounters& other) {
    alignments += other.alignments;
    computed_cells += other.computed_cells;
    extend_matches += other.extend_matches;
    extend_probes += other.extend_probes;
    score_steps += other.score_steps;
    wavefront_sets += other.wavefront_sets;
    backtrace_ops += other.backtrace_ops;
    if (other.max_score > max_score) max_score = other.max_score;
    allocated_bytes += other.allocated_bytes;
    if (other.peak_wavefront_bytes > peak_wavefront_bytes) {
      peak_wavefront_bytes = other.peak_wavefront_bytes;
    }
  }
};

}  // namespace pimwfa::wfa
