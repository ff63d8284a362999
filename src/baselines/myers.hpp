// Bit-parallel Levenshtein distance (Myers 1999, block-based extension per
// Hyyro 2003) and Ukkonen's doubling banded edit-distance algorithm.
//
// These are the fast *edit-distance* baselines: the PIM paper's future work
// names "PIM implementations of other alignment algorithms" as comparison
// targets, and Myers/Ukkonen are the standard unit-cost contenders.
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
// pattern. Patterns above 64 bases run as 64-row blocks chained by the
// horizontal deltas (Hyyro 2003). Not thread-safe: one matcher per
// thread.
class MyersMatcher {
 public:
  MyersMatcher() = default;
  explicit MyersMatcher(std::string_view pattern) { set_pattern(pattern); }

  // Replaces the pattern (any bytes; empty is allowed).
  void set_pattern(std::string_view pattern);

  // Exact global Levenshtein distance between the pattern and `text`.
  i64 distance(std::string_view text);

  // The distance if it is <= threshold, otherwise threshold+1 (meaning
  // "greater than threshold"). The length difference is checked first,
  // and columns are pruned the moment the last-row score can no longer
  // descend back to the threshold (the final distance is at least
  // score[j] - remaining columns, since adjacent last-row cells differ
  // by at most 1), so junk candidates exit in O(threshold) columns.
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

  usize m_ = 0;
  usize blocks_ = 0;
  // peq_[c * blocks_ + b]: bit i set iff pattern[64 * b + i] == c. Only
  // the rows of bytes in used_ are non-zero.
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
