#include "baselines/myers.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <limits>
#include <vector>

#include "common/check.hpp"

namespace pimwfa::baselines {
namespace {

constexpr usize kWordBits = 64;
constexpr usize kAlphabet = 256;

}  // namespace

void MyersMatcher::set_pattern(std::string_view pattern) {
  // Zero only the rows the previous pattern set (in its block layout):
  // the whole table is then zero again, whatever its old shape.
  for (const u8 c : used_) {
    std::fill_n(peq_.begin() + static_cast<std::ptrdiff_t>(c * blocks_),
                blocks_, u64{0});
  }
  used_.clear();

  m_ = pattern.size();
  blocks_ = (m_ + kWordBits - 1) / kWordBits;
  if (peq_.size() < kAlphabet * blocks_) peq_.resize(kAlphabet * blocks_);
  if (pv_.size() < blocks_) {
    pv_.resize(blocks_);
    mv_.resize(blocks_);
  }
  std::array<bool, kAlphabet> seen{};
  for (usize i = 0; i < m_; ++i) {
    const u8 c = static_cast<u8>(pattern[i]);
    if (!seen[c]) {
      seen[c] = true;
      used_.push_back(c);
    }
    peq_[c * blocks_ + i / kWordBits] |= u64{1} << (i % kWordBits);
  }
}

template <bool kEndsFree>
i64 MyersMatcher::run(std::string_view text, i64 prune,
                      usize text_ends_free) {
  PIMWFA_DCHECK(m_ >= 1);
  const usize blocks = blocks_;
  const u64 top = u64{1} << ((m_ - 1) % kWordBits);
  u64* const pv = pv_.data();
  u64* const mv = mv_.data();
  std::fill_n(pv, blocks, ~u64{0});
  std::fill_n(mv, blocks, u64{0});
  const usize n = text.size();
  i64 score = static_cast<i64>(m_);
  i64 remaining = static_cast<i64>(n);
  // Ends-free: the lowest last-row cell over the columns an alignment may
  // end on, [n - text_ends_free, n]; column 0 is the pattern's length.
  const usize first_end = n > text_ends_free ? n - text_ends_free : 0;
  i64 best = first_end == 0 ? score : std::numeric_limits<i64>::max();
  for (usize j = 0; j < n; ++j) {
    const u64* const eq_row = peq_.data() + static_cast<u8>(text[j]) * blocks;
    // Row 0's horizontal delta: +1 per text base (global), 0 over the
    // free leading text.
    u64 ph_in = kEndsFree ? static_cast<u64>(j >= text_ends_free) : 1;
    u64 mh_in = 0;
    u64 ph = 0;
    u64 mh = 0;
    for (usize b = 0; b < blocks; ++b) {
      const u64 eq = eq_row[b];
      const u64 eq_in = eq | mh_in;
      const u64 xv = eq | mv[b];
      const u64 xh = (((eq_in & pv[b]) + pv[b]) ^ pv[b]) | eq_in;
      ph = mv[b] | ~(xh | pv[b]);
      mh = pv[b] & xh;
      const u64 ph_shifted = (ph << 1) | ph_in;
      const u64 mh_shifted = (mh << 1) | mh_in;
      pv[b] = mh_shifted | ~(xv | ph_shifted);
      mv[b] = ph_shifted & xv;
      ph_in = ph >> (kWordBits - 1);
      mh_in = mh >> (kWordBits - 1);
    }
    // The last block's unshifted deltas hold the last pattern row.
    if (ph & top) {
      ++score;
    } else if (mh & top) {
      --score;
    }
    --remaining;
    if constexpr (kEndsFree) {
      if (j + 1 >= first_end) best = std::min(best, score);
      // No later cell can come back below score - remaining.
      if (prune >= 0 && score - remaining > prune) {
        return std::min(best, prune + 1);
      }
    } else {
      if (prune >= 0 && score - remaining > prune) return prune + 1;
    }
  }
  return kEndsFree ? best : score;
}

i64 MyersMatcher::distance(std::string_view text) {
  if (m_ == 0) return static_cast<i64>(text.size());
  if (text.empty()) return static_cast<i64>(m_);
  return run<false>(text, -1, 0);
}

i64 MyersMatcher::bounded_distance(std::string_view text, i64 threshold,
                                   usize text_ends_free) {
  PIMWFA_ARG_CHECK(threshold >= 0, "threshold must be non-negative");
  const i64 plen = static_cast<i64>(m_);
  const i64 tlen = static_cast<i64>(text.size());
  // The length difference to the shortest text span an alignment may
  // cover is an unconditional lower bound on the distance; most junk
  // candidates never touch the DP at all.
  const usize each = std::min(text.size(), text_ends_free);
  const i64 free = static_cast<i64>(std::min(text.size(), 2 * each));
  const i64 floor = std::max(plen - tlen, tlen - free - plen);
  if (floor > threshold) return threshold + 1;
  if (m_ == 0 || text.empty()) return std::max<i64>(floor, 0);
  const i64 d = text_ends_free == 0
                    ? run<false>(text, threshold, 0)
                    : run<true>(text, threshold, text_ends_free);
  return std::min(d, threshold + 1);
}

i64 myers_edit_distance(std::string_view pattern, std::string_view text) {
  return MyersMatcher(pattern).distance(text);
}

i64 myers_bounded_edit_distance(std::string_view pattern,
                                std::string_view text, i64 threshold) {
  return MyersMatcher(pattern).bounded_distance(text, threshold);
}

i64 banded_edit_distance(std::string_view pattern, std::string_view text,
                         i64 threshold) {
  PIMWFA_ARG_CHECK(threshold >= 0, "threshold must be non-negative");
  const i64 plen = static_cast<i64>(pattern.size());
  const i64 tlen = static_cast<i64>(text.size());
  if (std::abs(plen - tlen) > threshold) return threshold + 1;

  // Band over diagonals k = j - i in [-threshold, threshold].
  const i64 width = 2 * threshold + 1;
  const i64 big = threshold + 1;
  std::vector<i64> prev(static_cast<usize>(width), big);
  std::vector<i64> row(static_cast<usize>(width), big);
  // Row 0: D[0][j] = j for j <= threshold.
  for (i64 k = 0; k <= threshold; ++k) prev[static_cast<usize>(k + threshold)] = k;

  for (i64 i = 1; i <= plen; ++i) {
    std::fill(row.begin(), row.end(), big);
    const i64 j_min = std::max<i64>(0, i - threshold);
    const i64 j_max = std::min(tlen, i + threshold);
    for (i64 j = j_min; j <= j_max; ++j) {
      const i64 k = j - i;
      const usize c = static_cast<usize>(k + threshold);
      i64 best = big;
      if (j > 0 && k - 1 >= -threshold) best = std::min(best, row[c - 1] + 1);
      if (k + 1 <= threshold) best = std::min(best, prev[c + 1] + 1);
      if (j > 0) {
        const i64 sub = prev[c] + (pattern[static_cast<usize>(i - 1)] ==
                                           text[static_cast<usize>(j - 1)]
                                       ? 0
                                       : 1);
        best = std::min(best, sub);
      } else {
        best = std::min(best, i);  // first column: D[i][0] = i
      }
      row[c] = std::min(best, big);
    }
    std::swap(row, prev);
  }
  const i64 result = prev[static_cast<usize>((tlen - plen) + threshold)];
  return std::min(result, big);
}

i64 ukkonen_edit_distance(std::string_view pattern, std::string_view text) {
  if (pattern.empty()) return static_cast<i64>(text.size());
  if (text.empty()) return static_cast<i64>(pattern.size());
  i64 threshold = 1;
  const i64 max_distance =
      static_cast<i64>(std::max(pattern.size(), text.size()));
  while (true) {
    const i64 distance = banded_edit_distance(pattern, text, threshold);
    if (distance <= threshold) return distance;
    if (threshold >= max_distance) return distance;
    threshold = std::min(threshold * 2, max_distance);
  }
}

}  // namespace pimwfa::baselines
