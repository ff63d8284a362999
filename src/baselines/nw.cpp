#include "baselines/nw.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace pimwfa::baselines {

align::AlignmentResult nw_align(std::string_view pattern, std::string_view text,
                                const LinearPenalties& penalties) {
  PIMWFA_ARG_CHECK(penalties.mismatch > 0 && penalties.gap > 0,
                   "NW penalties must be positive");
  const usize plen = pattern.size();
  const usize tlen = text.size();
  const usize cols = tlen + 1;
  const i64 x = penalties.mismatch;
  const i64 g = penalties.gap;

  std::vector<i64> dp((plen + 1) * cols);
  auto at = [cols](usize i, usize j) { return i * cols + j; };
  for (usize j = 0; j <= tlen; ++j) dp[at(0, j)] = static_cast<i64>(j) * g;
  for (usize i = 1; i <= plen; ++i) dp[at(i, 0)] = static_cast<i64>(i) * g;

  for (usize i = 1; i <= plen; ++i) {
    for (usize j = 1; j <= tlen; ++j) {
      const i64 sub =
          dp[at(i - 1, j - 1)] + (pattern[i - 1] == text[j - 1] ? 0 : x);
      const i64 ins = dp[at(i, j - 1)] + g;
      const i64 del = dp[at(i - 1, j)] + g;
      dp[at(i, j)] = std::min({sub, ins, del});
    }
  }

  align::AlignmentResult result;
  result.score = dp[at(plen, tlen)];
  result.has_cigar = true;

  seq::CigarBuilder cigar;
  cigar.reserve(plen + tlen);
  usize i = plen;
  usize j = tlen;
  while (i > 0 || j > 0) {
    const i64 here = dp[at(i, j)];
    if (i > 0 && j > 0 &&
        here == dp[at(i - 1, j - 1)] +
                    (pattern[i - 1] == text[j - 1] ? 0 : x)) {
      cigar.prepend(pattern[i - 1] == text[j - 1] ? 'M' : 'X');
      --i;
      --j;
    } else if (j > 0 && here == dp[at(i, j - 1)] + g) {
      cigar.prepend('I');
      --j;
    } else {
      PIMWFA_CHECK(i > 0 && here == dp[at(i - 1, j)] + g,
                   "NW backtrace stuck at (" << i << "," << j << ")");
      cigar.prepend('D');
      --i;
    }
  }
  result.cigar = cigar.finish();
  return result;
}

i64 nw_score(std::string_view pattern, std::string_view text,
             const LinearPenalties& penalties) {
  PIMWFA_ARG_CHECK(penalties.mismatch > 0 && penalties.gap > 0,
                   "NW penalties must be positive");
  const usize plen = pattern.size();
  const usize tlen = text.size();
  const i64 x = penalties.mismatch;
  const i64 g = penalties.gap;

  std::vector<i64> prev(tlen + 1);
  std::vector<i64> row(tlen + 1);
  for (usize j = 0; j <= tlen; ++j) prev[j] = static_cast<i64>(j) * g;
  for (usize i = 1; i <= plen; ++i) {
    row[0] = static_cast<i64>(i) * g;
    for (usize j = 1; j <= tlen; ++j) {
      const i64 sub = prev[j - 1] + (pattern[i - 1] == text[j - 1] ? 0 : x);
      row[j] = std::min({sub, row[j - 1] + g, prev[j] + g});
    }
    std::swap(row, prev);
  }
  return prev[tlen];
}

i64 levenshtein(std::string_view a, std::string_view b) {
  return nw_score(a, b, LinearPenalties{1, 1});
}

}  // namespace pimwfa::baselines
