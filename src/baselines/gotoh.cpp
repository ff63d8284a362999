#include "baselines/gotoh.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace pimwfa::baselines {
namespace {

// Large-but-safe infinity: adding o+e never overflows i64.
constexpr i64 kInf = i64{1} << 40;

}  // namespace

GotohAligner::GotohAligner(align::Penalties penalties)
    : penalties_(penalties) {
  penalties_.validate();
}

align::AlignmentResult GotohAligner::align(std::string_view pattern,
                                           std::string_view text,
                                           align::AlignmentScope scope) {
  if (scope == align::AlignmentScope::kScoreOnly) {
    align::AlignmentResult result;
    result.score = score_only(pattern, text);
    result.has_cigar = false;
    return result;
  }
  return align_full(pattern, text);
}

align::AlignmentResult GotohAligner::align_full(std::string_view pattern,
                                                std::string_view text) {
  const usize plen = pattern.size();
  const usize tlen = text.size();
  const usize cols = tlen + 1;
  const usize cells = (plen + 1) * cols;
  const i64 x = penalties_.mismatch;
  const i64 oe = penalties_.gap_open + penalties_.gap_extend;
  const i64 e = penalties_.gap_extend;

  m_.assign(cells, kInf);
  i_.assign(cells, kInf);
  d_.assign(cells, kInf);
  auto at = [cols](usize i, usize j) { return i * cols + j; };

  m_[at(0, 0)] = 0;
  for (usize j = 1; j <= tlen; ++j) {
    i_[at(0, j)] = std::min(m_[at(0, j - 1)] + oe, i_[at(0, j - 1)] + e);
    m_[at(0, j)] = i_[at(0, j)];
  }
  for (usize i = 1; i <= plen; ++i) {
    d_[at(i, 0)] = std::min(m_[at(i - 1, 0)] + oe, d_[at(i - 1, 0)] + e);
    m_[at(i, 0)] = d_[at(i, 0)];
  }

  for (usize i = 1; i <= plen; ++i) {
    for (usize j = 1; j <= tlen; ++j) {
      const i64 ins = std::min(m_[at(i, j - 1)] + oe, i_[at(i, j - 1)] + e);
      const i64 del = std::min(m_[at(i - 1, j)] + oe, d_[at(i - 1, j)] + e);
      const i64 sub =
          m_[at(i - 1, j - 1)] + (pattern[i - 1] == text[j - 1] ? 0 : x);
      i_[at(i, j)] = ins;
      d_[at(i, j)] = del;
      m_[at(i, j)] = std::min({sub, ins, del});
    }
  }

  align::AlignmentResult result;
  result.score = m_[at(plen, tlen)];
  result.has_cigar = true;

  // Backtrace. State machine over {M, I, D}; ops are prepended, last first.
  enum class State { kM, kI, kD };
  seq::CigarBuilder cigar;
  cigar.reserve(plen + tlen);
  usize i = plen;
  usize j = tlen;
  State state = State::kM;
  while (i > 0 || j > 0) {
    switch (state) {
      case State::kM: {
        const i64 here = m_[at(i, j)];
        if (i > 0 && j > 0 &&
            here == m_[at(i - 1, j - 1)] +
                        (pattern[i - 1] == text[j - 1] ? 0 : x)) {
          cigar.prepend(pattern[i - 1] == text[j - 1] ? 'M' : 'X');
          --i;
          --j;
        } else if (j > 0 && here == i_[at(i, j)]) {
          state = State::kI;
        } else {
          PIMWFA_CHECK(i > 0 && here == d_[at(i, j)],
                       "Gotoh backtrace stuck at (" << i << "," << j << ")");
          state = State::kD;
        }
        break;
      }
      case State::kI: {
        cigar.prepend('I');
        // Decide the predecessor before consuming the column.
        state = (i_[at(i, j)] == m_[at(i, j - 1)] + oe) ? State::kM : State::kI;
        --j;
        break;
      }
      case State::kD: {
        cigar.prepend('D');
        state = (d_[at(i, j)] == m_[at(i - 1, j)] + oe) ? State::kM : State::kD;
        --i;
        break;
      }
    }
  }
  result.cigar = cigar.finish();
  return result;
}

i64 GotohAligner::score_only(std::string_view pattern, std::string_view text) {
  const usize plen = pattern.size();
  const usize tlen = text.size();
  const i64 x = penalties_.mismatch;
  const i64 oe = penalties_.gap_open + penalties_.gap_extend;
  const i64 e = penalties_.gap_extend;

  // Rolling rows: *_prev hold row i-1; the I matrix is a per-row chain.
  std::vector<i64> m_row(tlen + 1);
  std::vector<i64> d_row(tlen + 1);
  std::vector<i64> m_prev(tlen + 1);
  std::vector<i64> d_prev(tlen + 1);

  m_prev[0] = 0;
  d_prev[0] = kInf;
  i64 ins = kInf;
  for (usize j = 1; j <= tlen; ++j) {
    ins = std::min(m_prev[j - 1] + oe, ins + e);
    m_prev[j] = ins;
    d_prev[j] = kInf;
  }

  for (usize i = 1; i <= plen; ++i) {
    d_row[0] = std::min(m_prev[0] + oe, d_prev[0] + e);
    m_row[0] = d_row[0];
    ins = kInf;
    for (usize j = 1; j <= tlen; ++j) {
      ins = std::min(m_row[j - 1] + oe, ins + e);
      const i64 del = std::min(m_prev[j] + oe, d_prev[j] + e);
      const i64 sub = m_prev[j - 1] + (pattern[i - 1] == text[j - 1] ? 0 : x);
      d_row[j] = del;
      m_row[j] = std::min({sub, ins, del});
    }
    std::swap(m_row, m_prev);
    std::swap(d_row, d_prev);
  }
  return m_prev[tlen];
}

BandedResult gotoh_banded_score(std::string_view pattern, std::string_view text,
                                const align::Penalties& penalties, usize band) {
  penalties.validate();
  PIMWFA_ARG_CHECK(band >= 1, "band must be >= 1");
  const i64 plen = static_cast<i64>(pattern.size());
  const i64 tlen = static_cast<i64>(text.size());
  const i64 x = penalties.mismatch;
  const i64 oe = penalties.gap_open + penalties.gap_extend;
  const i64 e = penalties.gap_extend;

  // Rows are indexed by diagonal k = j - i, restricted to [k_lo, k_hi]:
  // the band straddles both the main diagonal and the length-difference
  // diagonal, so equal-length pairs and moderate indels stay in band.
  const i64 k_lo = std::min<i64>(0, tlen - plen) - static_cast<i64>(band);
  const i64 k_hi = std::max<i64>(0, tlen - plen) + static_cast<i64>(band);
  const usize width = static_cast<usize>(k_hi - k_lo + 1);

  std::vector<i64> M0(width, kInf), I0(width, kInf), D0(width, kInf);
  std::vector<i64> M1(width, kInf), I1(width, kInf), D1(width, kInf);

  // Row 0: cell (0, j) lies on diagonal k = j.
  for (i64 k = std::max<i64>(0, k_lo); k <= std::min(tlen, k_hi); ++k) {
    const usize c = static_cast<usize>(k - k_lo);
    if (k == 0) {
      M0[c] = 0;
    } else {
      I0[c] = oe + (k - 1) * e;
      M0[c] = I0[c];
    }
  }

  for (i64 i = 1; i <= plen; ++i) {
    std::fill(M1.begin(), M1.end(), kInf);
    std::fill(I1.begin(), I1.end(), kInf);
    std::fill(D1.begin(), D1.end(), kInf);
    const i64 j_min = std::max<i64>(0, i + k_lo);
    const i64 j_max = std::min(tlen, i + k_hi);
    for (i64 j = j_min; j <= j_max; ++j) {
      const i64 k = j - i;
      const usize c = static_cast<usize>(k - k_lo);
      // I from (i, j-1): same row, diagonal k-1.
      if (j >= 1 && k - 1 >= k_lo) {
        const i64 im = (M1[c - 1] < kInf) ? M1[c - 1] + oe : kInf;
        const i64 ii = (I1[c - 1] < kInf) ? I1[c - 1] + e : kInf;
        I1[c] = std::min(im, ii);
      }
      // D from (i-1, j): previous row, diagonal k+1.
      if (k + 1 <= k_hi) {
        const i64 dm = (M0[c + 1] < kInf) ? M0[c + 1] + oe : kInf;
        const i64 dd = (D0[c + 1] < kInf) ? D0[c + 1] + e : kInf;
        D1[c] = std::min(dm, dd);
      }
      // Substitution from (i-1, j-1): previous row, same diagonal.
      i64 sub = kInf;
      if (j >= 1 && M0[c] < kInf) {
        sub = M0[c] + (pattern[static_cast<usize>(i - 1)] ==
                               text[static_cast<usize>(j - 1)]
                           ? 0
                           : x);
      }
      M1[c] = std::min({sub, I1[c], D1[c]});
    }
    std::swap(M0, M1);
    std::swap(I0, I1);
    std::swap(D0, D1);
  }

  BandedResult result;
  result.score = M0[static_cast<usize>((tlen - plen) - k_lo)];
  // Sufficient exactness condition: an alignment path leaving the band must
  // make at least band+1 extra insertions and band+1 extra deletions beyond
  // the length-difference gap, so it costs at least `escape_cost`. When the
  // banded score is strictly below that, no out-of-band path can win and
  // the result is exact.
  const i64 diff = std::max(plen, tlen) - std::min(plen, tlen);
  const i64 escape_cost = (diff > 0 ? penalties.gap_open + diff * e : 0) +
                          2 * e * static_cast<i64>(band + 1);
  result.band_exceeded = result.score >= escape_cost;
  return result;
}

}  // namespace pimwfa::baselines
