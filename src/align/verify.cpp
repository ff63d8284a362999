#include "align/verify.hpp"

#include "common/check.hpp"

namespace pimwfa::align {

void verify_result(const AlignmentResult& result, std::string_view pattern,
                   std::string_view text, const Penalties& penalties,
                   usize text_ends_free) {
  if (result.has_cigar) {
    const usize begin = result.text_begin;
    const usize span = result.cigar.text_length();
    PIMWFA_CHECK(begin <= text_ends_free && begin + span <= text.size() &&
                     text.size() - (begin + span) <= text_ends_free,
                 "CIGAR covers text [" << begin << ", " << begin + span
                                       << ") of " << text.size()
                                       << ", free ends allow "
                                       << text_ends_free);
    result.cigar.validate(pattern, text.substr(begin, span));
    const i64 cigar_score = result.cigar.affine_score(
        penalties.mismatch, penalties.gap_open, penalties.gap_extend);
    PIMWFA_CHECK(cigar_score == result.score,
                 "CIGAR score " << cigar_score << " != reported score "
                                << result.score << " (cigar="
                                << result.cigar.to_rle() << ")");
  }
  PIMWFA_CHECK(result.score >= 0, "negative gap-affine penalty "
                                      << result.score);
}

bool result_is_consistent(const AlignmentResult& result,
                          std::string_view pattern, std::string_view text,
                          const Penalties& penalties,
                          usize text_ends_free) noexcept {
  try {
    verify_result(result, pattern, text, penalties, text_ends_free);
    return true;
  } catch (...) {
    return false;
  }
}

}  // namespace pimwfa::align
