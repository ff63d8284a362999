#include "pim/tiling.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "pim/layout.hpp"

namespace pimwfa::pim {

using Component = wfa::WfaAligner::Component;

namespace {

wfa::WfaAligner::Options planner_options(const align::Penalties& penalties) {
  wfa::WfaAligner::Options options;
  options.penalties = penalties;
  options.memory_mode = wfa::WfaAligner::MemoryMode::kUltralow;
  return options;
}

}  // namespace

TilingPlanner::TilingPlanner(TilingConfig config)
    : config_(config), planner_(planner_options(config.penalties)) {
  PIMWFA_ARG_CHECK(config_.arena_budget_bytes > 0,
                   "tiling needs a positive arena budget");
  PIMWFA_ARG_CHECK(config_.max_segment_bases >= 16,
                   "tiling needs max_segment_bases >= 16");
}

u64 TilingPlanner::retained_arena_estimate(i64 score, usize plen,
                                           usize tlen, usize text_ends_free) {
  // The DPU kernel's MetaSpace holds the same rows as a retained host
  // pass, plus 8-byte allocation granularity per array.
  const u64 alloc_slack = static_cast<u64>(score + 1) * 3u * 8u;
  const u64 seed_widening = static_cast<u64>(score + 1) *
                            std::min(text_ends_free, tlen) * 3u *
                            sizeof(wfa::Offset);
  return wfa::WfaAligner::retained_bytes_estimate(score, plen, tlen) +
         alloc_slack + seed_widening;
}

void TilingPlanner::plan_pair(usize pair_index, std::string_view pattern,
                              std::string_view text,
                              std::vector<TileSegment>& out) {
  const i64 cap =
      config_.score_cap != 0
          ? static_cast<i64>(config_.score_cap)
          : align::worst_case_score(config_.penalties, pattern.size(),
                                    text.size());
  recurse(pair_index, pattern, text, 0, 0, Component::kM, Component::kM, cap,
          out);
}

void TilingPlanner::recurse(usize pair_index, std::string_view pattern,
                            std::string_view text, usize v_base, usize h_base,
                            Component begin, Component end, i64 score_cap,
                            std::vector<TileSegment>& out) {
  const usize plen = pattern.size();
  const usize tlen = text.size();
  const i32 o = config_.penalties.gap_open;
  const i32 e = config_.penalties.gap_extend;

  auto emit = [&](i64 span_score) {
    TileSegment seg;
    seg.pair = pair_index;
    seg.v0 = v_base;
    seg.v1 = v_base + plen;
    seg.h0 = h_base;
    seg.h1 = h_base + tlen;
    seg.begin = begin;
    seg.end = end;
    seg.span_score = span_score;
    out.push_back(seg);
  };

  // Degenerate subproblem: one gap run, scored by the same rule as the
  // DPU kernel's (core::gap_run_score).
  if (plen == 0 || tlen == 0) {
    emit(wfa::core::gap_run_score(o, e, begin, plen, tlen));
    return;
  }

  const wfa::WfaAligner::Breakpoint bp =
      planner_.find_breakpoint(pattern, text, begin, end, score_cap);
  const bool fits =
      plen + tlen <= config_.max_segment_bases &&
      retained_arena_estimate(bp.total, plen, tlen) <=
          config_.arena_budget_bytes;
  if (fits) {
    emit(bp.total);
    return;
  }

  usize v = static_cast<usize>(bp.offset - bp.k);
  usize h = static_cast<usize>(bp.offset);
  Component comp = bp.comp;
  i64 left_cap = bp.score_forward;
  i64 right_cap = bp.score_reverse + (end == Component::kM ? 0 : o);
  const bool corner = (v == 0 && h == 0) || (v == plen && h == tlen);
  if (corner && bp.total == 0) {
    // A perfect-match subproblem meets at a corner; cut the pure diagonal
    // at its midpoint instead (any cell of a score-0 path is on the path).
    PIMWFA_CHECK(plen == tlen,
                 "cannot tile pair " << pair_index << ": score-0 path of "
                     << plen << "x" << tlen << " bases is not a diagonal");
    v = plen / 2;
    h = v;
    comp = Component::kM;
    left_cap = 0;
    right_cap = 0;
  } else if (corner) {
    // The bidirectional pass met at a corner: the path is cheap enough
    // that one direction's ring window swallowed it whole, so no interior
    // meeting point was reported. Recover a midpoint cut from the span
    // alignment itself - still O(s) memory through the kUltralow mode.
    const align::AlignmentResult span = planner_.align_span(
        pattern, text, align::AlignmentScope::kFull, begin, end);
    const std::string& ops = span.cigar.ops();
    const i32 x = config_.penalties.mismatch;
    const usize half = (plen + tlen) / 2;
    usize cv = 0, ch = 0;
    i64 left = 0;
    char prev = 0;
    for (usize j = 0; j < ops.size() && cv + ch < half; ++j) {
      const char op = ops[j];
      const bool opens = prev != op;
      switch (op) {
        case 'M':
          ++cv, ++ch;
          break;
        case 'X':
          ++cv, ++ch;
          left += x;
          break;
        case 'I':
          ++ch;
          left += e;
          if (opens && !(j == 0 && begin == Component::kI)) left += o;
          break;
        case 'D':
          ++cv;
          left += e;
          if (opens && !(j == 0 && begin == Component::kD)) left += o;
          break;
      }
      prev = op;
    }
    // Cutting inside a gap run hands the run to both halves: the left
    // span ends in (and pays the open of) the run's component, the right
    // begins in it seam-exempt - costs stay additive.
    comp = prev == 'I'   ? Component::kI
           : prev == 'D' ? Component::kD
                         : Component::kM;
    v = cv;
    h = ch;
    left_cap = left;
    right_cap = bp.total - left;
  }
  recurse(pair_index, pattern.substr(0, v), text.substr(0, h), v_base, h_base,
          begin, comp, left_cap, out);
  recurse(pair_index, pattern.substr(v), text.substr(h), v_base + v,
          h_base + h, comp, end, right_cap, out);
}

align::AlignmentResult stitch_segments(
    const std::vector<TileSegment>& segments, usize seg_begin, usize seg_end,
    const std::vector<align::AlignmentResult>& segment_results, bool full) {
  align::AlignmentResult out;
  i64 expected = 0;
  usize ops = 0;
  for (usize s = seg_begin; s < seg_end; ++s) {
    expected += segments[s].span_score;
    ops += segments[s].pattern_length() + segments[s].text_length();
  }
  std::string stitched;
  if (full) stitched.reserve(ops);
  for (usize s = seg_begin; s < seg_end; ++s) {
    const align::AlignmentResult& r = segment_results[s];
    out.score += r.score;
    if (full) stitched += r.cigar.ops();
  }
  PIMWFA_CHECK(out.score == expected,
               "tiled pair stitches to score " << out.score
                   << ", planner expected " << expected);
  if (full) {
    // Copied out so the result holds exactly its ops, not the reserved
    // pattern + text capacity.
    out.cigar = seq::Cigar::from_ops(stitched);
    out.has_cigar = true;
  }
  return out;
}

}  // namespace pimwfa::pim
