// Alignment result types shared by all aligners.
#pragma once

#include "common/types.hpp"
#include "seq/cigar.hpp"

namespace pimwfa::align {

enum class AlignmentScope {
  kScoreOnly,  // compute the score, skip the backtrace
  kFull,       // score + CIGAR
};

struct AlignmentResult {
  i64 score = 0;         // gap-affine penalty (lower is better)
  seq::Cigar cigar;      // empty when scope == kScoreOnly
  bool has_cigar = false;
  // Ends-free alignment: the CIGAR covers
  // text[text_begin, text_begin + cigar.text_length()). 0 when global,
  // and in score-only results (no backtrace places the start).
  u32 text_begin = 0;

  bool operator==(const AlignmentResult&) const = default;
};

}  // namespace pimwfa::align
