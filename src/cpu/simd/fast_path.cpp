// Lane-batched pair classifier and the exact fast paths of the SIMD cpu
// backend. Every shortcut taken here is *provably* the scalar WFA's
// answer (see the proofs in simd.hpp); anything unproven falls through
// to a WfaAligner running the vectorized kernels, so the backend is
// bit-identical to `cpu` by construction.
#include <algorithm>
#include <bit>
#include <string>
#include <string_view>

#include "baselines/myers.hpp"
#include "common/check.hpp"
#include "cpu/simd/kernel_table.hpp"
#include "cpu/simd/simd.hpp"
#include "seq/cigar.hpp"
#include "wfa/wfa_aligner.hpp"

namespace pimwfa::cpu::simd {

namespace {

// Widest lane count of any kernel table (AVX2).
constexpr usize kMaxLanes = 8;

// Largest mismatch count whose gapless diagonal alignment is the unique
// optimum for equal-length pairs: h * x < 2 * (gap_open + gap_extend),
// additionally capped by the fast-path edit threshold.
u64 hamming_fast_path_cap(const align::Penalties& penalties,
                          usize threshold) {
  const i64 gap_floor =
      2 * (static_cast<i64>(penalties.gap_open) + penalties.gap_extend);
  const i64 bound = (gap_floor - 1) / penalties.mismatch;
  return std::min<u64>(threshold, static_cast<u64>(std::max<i64>(bound, 0)));
}

u64 hamming_capped_impl(const KernelTable& table, std::string_view a,
                        std::string_view b, u64 cap) {
  u64 count = 0;
  usize pos = 0;
  while (pos < a.size()) {
    const usize chunk = std::min(table.block_bytes, a.size() - pos);
    count += std::popcount(
        table.mismatch_mask(a.data() + pos, b.data() + pos, chunk));
    if (count > cap) return count;
    pos += chunk;
  }
  return count;
}

// Classify pairs [g, g + n) for the equal-length Hamming fast path:
// fast[j] set (with exact mismatch count h[j]) iff the pair's count
// stayed within cap[j]. Full-width groups run all lanes in lockstep over
// classifier blocks, retiring a lane as soon as it finishes or exceeds
// its cap; remainder groups take the scalar tail loop.
void classify_group(const seq::ReadPairSpan& batch, usize g, usize n,
                    const KernelTable& table, const u64* cap, u64* h,
                    bool* fast, SimdStats& stats) {
  bool live[kMaxLanes];
  usize pos[kMaxLanes];
  usize n_live = 0;
  for (usize j = 0; j < n; ++j) {
    h[j] = 0;
    pos[j] = 0;
    const std::string_view p = batch.pattern(g + j);
    const bool applicable = p.size() == batch.text(g + j).size();
    fast[j] = applicable && p.empty();  // empty pair: h = 0, trivially fast
    live[j] = applicable && !p.empty();
    n_live += static_cast<usize>(live[j]);
  }

  if (n < table.lanes) {
    stats.tail_pairs += n;
    for (usize j = 0; j < n; ++j) {
      if (!live[j]) continue;
      h[j] = hamming_capped_impl(table, batch.pattern(g + j),
                                 batch.text(g + j), cap[j]);
      fast[j] = h[j] <= cap[j];
    }
    return;
  }

  ++stats.lane_batches;
  while (n_live > 0) {
    for (usize j = 0; j < n; ++j) {
      if (!live[j]) continue;
      const std::string_view p = batch.pattern(g + j);
      const std::string_view t = batch.text(g + j);
      const usize chunk = std::min(table.block_bytes, p.size() - pos[j]);
      h[j] += std::popcount(
          table.mismatch_mask(p.data() + pos[j], t.data() + pos[j], chunk));
      pos[j] += chunk;
      if (h[j] > cap[j]) {
        live[j] = false;
        --n_live;
        ++stats.early_exit_lanes;
      } else if (pos[j] == p.size()) {
        live[j] = false;
        --n_live;
        fast[j] = true;
      }
    }
  }
}

void mismatch_positions_impl(const KernelTable& table, std::string_view a,
                             std::string_view b, std::vector<u32>& out) {
  usize pos = 0;
  while (pos < a.size()) {
    const usize chunk = std::min(table.block_bytes, a.size() - pos);
    u32 mask = table.mismatch_mask(a.data() + pos, b.data() + pos, chunk);
    while (mask != 0) {
      out.push_back(static_cast<u32>(pos) +
                    static_cast<u32>(std::countr_zero(mask)));
      mask &= mask - 1;
    }
    pos += chunk;
  }
}

}  // namespace

usize match_run(SimdLevel level, const char* a, const char* b, usize max) {
  return kernel_table(level).match_run(a, b, max);
}

u64 hamming_capped(SimdLevel level, std::string_view a, std::string_view b,
                   u64 cap) {
  PIMWFA_ARG_CHECK(a.size() == b.size(),
                   "hamming distance needs equal lengths (" << a.size()
                                                            << " vs "
                                                            << b.size()
                                                            << ")");
  return hamming_capped_impl(kernel_table(level), a, b, cap);
}

void mismatch_positions(SimdLevel level, std::string_view a,
                        std::string_view b, std::vector<u32>& out) {
  PIMWFA_ARG_CHECK(a.size() == b.size(),
                   "mismatch positions need equal lengths (" << a.size()
                                                             << " vs "
                                                             << b.size()
                                                             << ")");
  mismatch_positions_impl(kernel_table(level), a, b, out);
}

void align_range(seq::ReadPairSpan batch, usize begin, usize end,
                 const align::Penalties& penalties,
                 align::AlignmentScope scope, SimdLevel level,
                 const FastPathConfig& config,
                 std::vector<align::AlignmentResult>& results,
                 SimdStats& stats, wfa::WfaCounters& counters,
                 u64& allocator_high_water,
                 wfa::WfaAligner::MemoryMode memory_mode,
                 u32 text_ends_free) {
  PIMWFA_ARG_CHECK(begin <= end && end <= batch.size() &&
                       end <= results.size(),
                   "align_range bounds [" << begin << ", " << end
                                          << ") out of range");
  const KernelTable& table = kernel_table(level);
  wfa::WfaAligner::Options wfa_options;
  wfa_options.penalties = penalties;
  wfa_options.memory_mode = memory_mode;
  const wfa::WfaKernels& kernels = wfa_kernels(level);
  wfa_options.kernels = &kernels;
  wfa_options.text_ends_free = text_ends_free;
  wfa::WfaAligner fallback{wfa_options};

  const bool edit_penalties = penalties == align::Penalties::edit();
  const bool full = scope == align::AlignmentScope::kFull;
  std::vector<u32> positions;
  u64 cap[kMaxLanes];
  u64 h[kMaxLanes];
  bool fast[kMaxLanes];

  // The fast paths are proofs about global alignment only.
  const usize fast_end = text_ends_free == 0 ? end : begin;
  for (usize i = fast_end; i < end; ++i) {
    results[i] = fallback.align(batch.pattern(i), batch.text(i), scope);
    ++stats.pairs;
    ++stats.wfa_pairs;
  }
  for (usize g = begin; g < fast_end; g += table.lanes) {
    const usize n = std::min(table.lanes, fast_end - g);
    for (usize j = 0; j < n; ++j) {
      cap[j] = hamming_fast_path_cap(
          penalties, config.resolve(batch.pattern(g + j).size(),
                                    batch.text(g + j).size()));
    }
    classify_group(batch, g, n, table, cap, h, fast, stats);

    for (usize j = 0; j < n; ++j) {
      const usize i = g + j;
      const std::string_view p = batch.pattern(i);
      const std::string_view t = batch.text(i);
      align::AlignmentResult& res = results[i];
      ++stats.pairs;

      // Equal-length diagonal fast path: h mismatches, unique optimum.
      if (fast[j]) {
        res.score = static_cast<i64>(h[j]) * penalties.mismatch;
        res.has_cigar = full;
        res.cigar = {};
        if (full && !p.empty()) {
          std::string ops(p.size(), 'M');
          if (h[j] > 0) {
            positions.clear();
            mismatch_positions_impl(table, p, t, positions);
            for (const u32 x : positions) ops[x] = 'X';
          }
          res.cigar = seq::Cigar::from_ops(std::move(ops));
        }
        ++stats.hamming_pairs;
        stats.fast_path_bases += p.size() + t.size();
        continue;
      }

      if (!full) {
        const usize threshold = config.resolve(p.size(), t.size());
        // Single-gap fast path: when one gap bridges the whole length
        // difference (common prefix + suffix cover the shorter read),
        // gap_open + g*gap_extend is every alignment's lower bound and
        // this one attains it. Score-only: the gap placement (hence the
        // CIGAR) is not unique.
        const usize shorter = std::min(p.size(), t.size());
        const usize gap = std::max(p.size(), t.size()) - shorter;
        if (gap > 0 && gap <= threshold) {
          const usize lcp = table.match_run(p.data(), t.data(), shorter);
          bool bridged = lcp == shorter;
          if (!bridged) {
            usize lcs = 0;
            while (lcs < shorter &&
                   p[p.size() - 1 - lcs] == t[t.size() - 1 - lcs]) {
              ++lcs;
            }
            bridged = lcp + lcs >= shorter;
          }
          if (bridged) {
            res.score = penalties.gap_open +
                        static_cast<i64>(gap) * penalties.gap_extend;
            res.has_cigar = false;
            res.cigar = {};
            ++stats.gap_pairs;
            stats.fast_path_bases += p.size() + t.size();
            continue;
          }
        }
        // Unit-penalty fast path: the bit-parallel Myers edit distance
        // is the exact gap-affine score when x=1, o=0, e=1. The length
        // difference lower-bounds the distance, so skip the scan when
        // it alone exceeds the threshold.
        if (edit_penalties && gap <= threshold) {
          const i64 d = baselines::myers_edit_distance(p, t);
          if (static_cast<u64>(d) <= threshold) {
            res.score = d;
            res.has_cigar = false;
            res.cigar = {};
            ++stats.myers_pairs;
            stats.fast_path_bases += p.size() + t.size();
            continue;
          }
        }
      }

      res = fallback.align(p, t, scope);
      ++stats.wfa_pairs;
    }
  }

  counters.merge(fallback.counters());
  allocator_high_water =
      std::max(allocator_high_water, fallback.allocator().high_water());
}

}  // namespace pimwfa::cpu::simd
