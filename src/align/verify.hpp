// Verification helpers: check that an AlignmentResult is internally
// consistent (CIGAR valid for the pair, CIGAR score equals reported score)
// and that it is *optimal* by comparison against a trusted reference score.
#pragma once

#include <string_view>

#include "align/penalties.hpp"
#include "align/result.hpp"

namespace pimwfa::align {

// Throws Error with a diagnostic when the result is inconsistent:
//  - result.has_cigar but the CIGAR doesn't align the pattern against
//    text[text_begin, text_begin + cigar.text_length()), or
//  - it leaves more than `text_ends_free` text bases unaligned at either
//    end (0: global, the whole text), or
//  - CIGAR's affine score != result.score.
void verify_result(const AlignmentResult& result, std::string_view pattern,
                   std::string_view text, const Penalties& penalties,
                   usize text_ends_free = 0);

// Convenience: returns false instead of throwing.
bool result_is_consistent(const AlignmentResult& result,
                          std::string_view pattern, std::string_view text,
                          const Penalties& penalties,
                          usize text_ends_free = 0) noexcept;

}  // namespace pimwfa::align
