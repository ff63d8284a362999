// Bit-parallel Levenshtein distance (Myers 1999, block-based extension per
// Hyyro 2003) and Ukkonen's doubling banded edit-distance algorithm.
//
// These are the fast *edit-distance* baselines: the PIM paper's future work
// names "PIM implementations of other alignment algorithms" as comparison
// targets, and Myers/Ukkonen are the standard unit-cost contenders. The
// read mapper's candidate filter is MyersMatcher::bounded_distance, which
// runs one of two recurrences:
//
// - The one-word band (Hyyro 2003's banded form), whenever the free-end
//   bound f and the threshold t satisfy f + 2t + 2 <= 64 (26 for the
//   mapper's 100 bp reads at 2% divergence). An alignment of cost <= t
//   stays in rows [j - f - t, j + t] of text column j, so a single 64-row
//   word that slides down one row per column holds it, whatever the
//   pattern's length. Cells the band cuts off are only over-estimated,
//   so every cell on such an alignment is exact. Every 8 columns between
//   the free ends, the band stops once every cell it holds in those rows
//   exceeds t: every alignment crosses that column there, and a cell
//   never falls below an earlier cell of its path, so no alignment can
//   come back to t. This is lossless; it ends most junk windows after
//   about half their columns.
// - Otherwise, and for the exact distance(), the blocked recurrence:
//   ceil(|pattern| / 64) words per column, chained by their horizontal
//   deltas, pruned only when the last row can no longer descend back to
//   the threshold.

#pragma once

#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace pimwfa::baselines {

// Myers' bit-parallel global Levenshtein distance against one pattern,
// preprocessed once: set_pattern() builds the per-block match masks
// (Peq), after which every distance call only walks the text. All
// buffers are members and only ever grow, so a matcher reused across
// patterns and texts stops allocating once it has seen the longest
// pattern. Not thread-safe: one matcher per thread.
class MyersMatcher {
 public:
  MyersMatcher() = default;
  explicit MyersMatcher(std::string_view pattern) { set_pattern(pattern); }

  // Replaces the pattern (any bytes; empty is allowed).
  void set_pattern(std::string_view pattern);

  // Exact global Levenshtein distance between the pattern and `text`.
  i64 distance(std::string_view text);

  // The distance if it is <= threshold, otherwise threshold+1 (meaning
  // "greater than threshold"). The length difference is checked first;
  // then the one-word band runs when text_ends_free (capped at |text|)
  // + 2 * threshold + 2 <= 64, the blocked recurrence otherwise (see the
  // file comment). Both return the same value. The blocked one prunes
  // columns once the last-row score can no longer descend back to the
  // threshold (the final distance is at least score[j] - remaining
  // columns, since adjacent last-row cells differ by at most 1).
  //
  // A non-zero `text_ends_free` gives the search form (Myers 1999): the
  // minimum distance between the pattern and text[b, e) over
  // b <= text_ends_free and e >= |text| - text_ends_free. A bound of at
  // least |text| is the semi-global distance. The free leading text is
  // the row-0 input of the same recurrence (its horizontal delta is 0
  // over the free columns, 1 after them), the free tail a minimum over
  // the last-row cells it may end on.
  i64 bounded_distance(std::string_view text, i64 threshold,
                       usize text_ends_free = 0);

 private:
  // The column recurrence; a non-negative `prune` returns prune+1 as
  // soon as the distance provably exceeds it. kEndsFree keeps the free
  // ends out of the global loop.
  template <bool kEndsFree>
  i64 run(std::string_view text, i64 prune, usize text_ends_free);

  // The one-word band recurrence with its cutoff, for
  // text_ends_free + 2 * threshold + 2 <= 64 and text_ends_free <= |text|:
  // the distance if it is <= threshold, otherwise more than threshold.
  i64 run_band(std::string_view text, i64 threshold,
               usize text_ends_free) const;

  usize m_ = 0;
  usize blocks_ = 0;
  // peq_[c * (blocks_ + 1) + b]: bit i set iff pattern[64 * b + i] == c.
  // Only the rows of bytes in used_ are non-zero; each row ends in a zero
  // word, so the band's 64-row window can start at any pattern row.
  std::vector<u64> peq_;
  std::vector<u8> used_;  // distinct bytes of the current pattern
  std::vector<u64> pv_;   // per-block vertical +1 / -1 delta vectors
  std::vector<u64> mv_;
};

// Exact global Levenshtein distance via Myers' bit-parallel algorithm.
// Works for any pattern length (multi-word blocks above 64).
i64 myers_edit_distance(std::string_view pattern, std::string_view text);

// Thresholded bit-parallel Myers: MyersMatcher::bounded_distance for a
// one-off pattern. The read mapper's PEX-style hierarchical verification
// uses the matcher directly, so each read is preprocessed once for all
// its candidate windows: windows whose edit distance provably exceeds
// the divergence-derived threshold never reach the affine WFA.
i64 myers_bounded_edit_distance(std::string_view pattern,
                                std::string_view text, i64 threshold);

// Ukkonen's banded edit distance with threshold doubling: runs the banded
// DP with t = 1, 2, 4, ... until distance <= t; O(d*n) total.
i64 ukkonen_edit_distance(std::string_view pattern, std::string_view text);

// Single banded pass: Levenshtein distance if it is <= threshold, otherwise
// returns threshold+1 (meaning "greater than threshold").
i64 banded_edit_distance(std::string_view pattern, std::string_view text,
                         i64 threshold);

}  // namespace pimwfa::baselines
