#include "baselines/myers.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>
#include <limits>
#include <vector>

#include "common/check.hpp"

namespace pimwfa::baselines {
namespace {

constexpr usize kWordBits = 64;
constexpr usize kAlphabet = 256;
// The band path tests its cutoff once per this many text columns.
constexpr usize kCutoffColumns = 8;

// Bits [0, k) set, for k <= 63.
constexpr u64 low_bits(usize k) { return (u64{1} << k) - 1; }

// The lowest prefix sum (<= 0) and the total of four vertical deltas,
// indexed by their +1 bits | their -1 bits << 4.
struct NibbleDeltas {
  i8 low;
  i8 sum;
};
constexpr std::array<NibbleDeltas, 256> kNibbles = [] {
  std::array<NibbleDeltas, 256> table{};
  for (usize index = 0; index < table.size(); ++index) {
    i8 sum = 0;
    i8 low = 0;
    for (usize bit = 0; bit < 4; ++bit) {
      sum = static_cast<i8>(sum + ((index >> bit) & 1) -
                            ((index >> (bit + 4)) & 1));
      low = std::min(low, sum);
    }
    table[index] = {low, sum};
  }
  return table;
}();

// True when every cell of a band column, from the edge row (or the row
// below it, with `skip_edge`) down to `rows` rows below the edge,
// exceeds `threshold`. `edge` is the edge row's value and `vp`/`vn` the
// vertical deltas of the rows under it.
bool band_exceeds(u64 vp, u64 vn, i64 edge, bool skip_edge, usize rows,
                  i64 threshold) {
  const usize first = skip_edge ? 1 : 0;
  PIMWFA_DCHECK(rows >= first && rows < kWordBits);
  i64 value = edge + static_cast<i64>(vp & first) -
              static_cast<i64>(vn & first);
  i64 low = value;
  // The deltas of rows (first, rows], four at a time.
  u64 up = (vp & low_bits(rows)) >> first;
  u64 down = (vn & low_bits(rows)) >> first;
  for (usize bit = first; bit < rows; bit += 4, up >>= 4, down >>= 4) {
    const NibbleDeltas& nibble = kNibbles[(up & 15) | ((down & 15) << 4)];
    low = std::min(low, value + nibble.low);
    value += nibble.sum;
  }
  return low > threshold;
}

}  // namespace

void MyersMatcher::set_pattern(std::string_view pattern) {
  // Zero only the rows the previous pattern set (in its block layout):
  // the whole table is then zero again, whatever its old shape.
  for (const u8 c : used_) {
    std::fill_n(peq_.begin() + static_cast<std::ptrdiff_t>(c * (blocks_ + 1)),
                blocks_, u64{0});
  }
  used_.clear();

  m_ = pattern.size();
  blocks_ = (m_ + kWordBits - 1) / kWordBits;
  const usize stride = blocks_ + 1;
  if (peq_.size() < kAlphabet * stride) peq_.resize(kAlphabet * stride);
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
    peq_[c * stride + i / kWordBits] |= u64{1} << (i % kWordBits);
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
    const u64* const eq_row =
        peq_.data() + static_cast<u8>(text[j]) * (blocks + 1);
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

i64 MyersMatcher::run_band(std::string_view text, i64 threshold,
                           usize text_ends_free) const {
  PIMWFA_DCHECK(m_ >= 1 && text_ends_free <= text.size());
  const usize n = text.size();
  const usize m = m_;
  const usize f = text_ends_free;
  const usize t = static_cast<usize>(threshold);
  const usize stride = blocks_ + 1;
  // Rows [lo + 1, lo + 64] at column j, lo = max(0, j - reach - 1): every
  // alignment of cost <= t stays in rows [j - f - t, j + t].
  const usize reach = f + t;
  const usize first_end = n - f;
  u64 vp = ~u64{0};
  u64 vn = 0;
  usize lo = 0;
  i64 edge = 0;  // D[lo][j]
  i64 best = first_end == 0 ? static_cast<i64>(m) : threshold + 1;
  for (usize j = 1; j <= n; ++j) {
    u64 ph_in = j > f;
    if (j > reach + 1) {
      // Row lo + 1 leaves the word and becomes the band's edge; the row
      // entering at bit 63 and the edge's horizontal delta are taken as
      // +1, which only ever over-estimates cells outside the band.
      edge += static_cast<i64>(vp & 1) - static_cast<i64>(vn & 1);
      vp = (vp >> 1) | (u64{1} << (kWordBits - 1));
      vn >>= 1;
      // Past the last pattern row no alignment of cost <= t can end.
      if (++lo >= m) break;
      ph_in = 1;
    }
    // Pattern rows [lo, lo + 64) of Peq, funnel-shifted from two words
    // (the row's zero pad word serves the last block).
    const u64* const eq_row =
        peq_.data() + static_cast<u8>(text[j - 1]) * stride + lo / kWordBits;
    const usize shift = lo % kWordBits;
    const u64 eq = (eq_row[0] >> shift) |
                   ((eq_row[1] << 1) << (kWordBits - 1 - shift));
    const u64 xv = eq | vn;
    const u64 xh = (((eq & vp) + vp) ^ vp) | eq;
    const u64 ph = vn | ~(xh | vp);
    const u64 mh = vp & xh;
    const u64 ph_shifted = (ph << 1) | ph_in;
    vp = (mh << 1) | ~(xv | ph_shifted);
    vn = ph_shifted & xv;
    edge += static_cast<i64>(ph_in);

    if (j >= first_end) {
      // Row m, when the word holds it; otherwise it is beyond t.
      if (m <= lo + kWordBits) {
        const u64 rows = ~u64{0} >> (kWordBits - (m - lo));
        best = std::min(best, edge + std::popcount(vp & rows) -
                                  std::popcount(vn & rows));
      }
    } else if (j > f && j % kCutoffColumns == 0 &&
               band_exceeds(vp, vn, edge, j > reach, std::min(m, j + t) - lo,
                            threshold)) {
      // Every alignment crosses column j inside the band (it starts at
      // or before f and ends at or after n - f), and D never decreases
      // along a path.
      return threshold + 1;
    }
  }
  return best;
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
  // One word holds the band when each + 2 * threshold + 2 <= 64.
  constexpr usize kBandSlack = kWordBits - 2;
  const bool banded =
      each <= kBandSlack &&
      threshold <= static_cast<i64>((kBandSlack - each) / 2);
  const i64 d = banded ? run_band(text, threshold, each)
                : text_ends_free == 0
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
