#include "baselines/sw.hpp"

#include <algorithm>
#include <vector>

#include "common/check.hpp"

namespace pimwfa::baselines {
namespace {

constexpr i64 kNegInf = -(i64{1} << 40);

}  // namespace

LocalAlignment sw_align(std::string_view pattern, std::string_view text,
                        const LocalScoring& scoring) {
  PIMWFA_ARG_CHECK(scoring.match > 0, "SW match bonus must be positive");
  PIMWFA_ARG_CHECK(scoring.mismatch < 0 && scoring.gap_extend < 0,
                   "SW mismatch/gap costs must be negative");
  const usize plen = pattern.size();
  const usize tlen = text.size();
  const usize cols = tlen + 1;
  const i64 oe = scoring.gap_open + scoring.gap_extend;
  const i64 e = scoring.gap_extend;

  std::vector<i64> H((plen + 1) * cols, 0);
  std::vector<i64> I((plen + 1) * cols, kNegInf);
  std::vector<i64> D((plen + 1) * cols, kNegInf);
  auto at = [cols](usize i, usize j) { return i * cols + j; };

  i64 best = 0;
  usize best_i = 0;
  usize best_j = 0;
  for (usize i = 1; i <= plen; ++i) {
    for (usize j = 1; j <= tlen; ++j) {
      I[at(i, j)] = std::max(H[at(i, j - 1)] + oe, I[at(i, j - 1)] + e);
      D[at(i, j)] = std::max(H[at(i - 1, j)] + oe, D[at(i - 1, j)] + e);
      const i64 sub = H[at(i - 1, j - 1)] +
                      (pattern[i - 1] == text[j - 1] ? scoring.match
                                                     : scoring.mismatch);
      const i64 h = std::max({i64{0}, sub, I[at(i, j)], D[at(i, j)]});
      H[at(i, j)] = h;
      if (h > best) {
        best = h;
        best_i = i;
        best_j = j;
      }
    }
  }

  LocalAlignment out;
  out.score = best;
  if (best == 0) return out;  // empty local alignment

  // Backtrace from the maximum until an H==0 cell.
  enum class State { kH, kI, kD };
  seq::CigarBuilder cigar;
  cigar.reserve(best_i + best_j);
  usize i = best_i;
  usize j = best_j;
  State state = State::kH;
  while (H[at(i, j)] != 0 || state != State::kH) {
    switch (state) {
      case State::kH: {
        const i64 here = H[at(i, j)];
        const i64 sub = H[at(i - 1, j - 1)] +
                        (pattern[i - 1] == text[j - 1] ? scoring.match
                                                       : scoring.mismatch);
        if (here == sub) {
          cigar.prepend(pattern[i - 1] == text[j - 1] ? 'M' : 'X');
          --i;
          --j;
        } else if (here == I[at(i, j)]) {
          state = State::kI;
        } else {
          PIMWFA_CHECK(here == D[at(i, j)], "SW backtrace stuck");
          state = State::kD;
        }
        break;
      }
      case State::kI:
        cigar.prepend('I');
        state = (I[at(i, j)] == H[at(i, j - 1)] + oe) ? State::kH : State::kI;
        --j;
        break;
      case State::kD:
        cigar.prepend('D');
        state = (D[at(i, j)] == H[at(i - 1, j)] + oe) ? State::kH : State::kD;
        --i;
        break;
    }
  }
  out.cigar = cigar.finish();
  out.pattern_begin = i;
  out.pattern_end = best_i;
  out.text_begin = j;
  out.text_end = best_j;
  return out;
}

}  // namespace pimwfa::baselines
