// The gap-affine WFA algorithm, written once for the host and the DPU.
//
// WfaAligner and the UPMEM DPU kernel (pim/dpu_wfa_kernel.cpp) run the
// same algorithm - the paper ports WFA with "no optimizations compared to
// the original WFA implementation" - on different storage: host wavefront
// rows (a score-indexed history or a score-only ring) versus MetaSpace
// descriptors and staged offset windows whose every access is charged to
// the tasklet's cycle account. This header holds the algorithm: seeding,
// the row-bounds rule, the cell recurrence, extension, termination, the
// backtrace and the degenerate gap-run score. A storage policy supplies
// rows and accounting. It is a static template parameter, so no virtual
// call sits on a per-cell, per-probe or per-op path:
//
//   using Set;     // one score's stored rows, as looked up (by value)
//   using Source;  // one component of a Set, read-only (null if absent)
//   using Row;     // writable M row: lo, hi, get(k), set(k, v), flush()
//   using Fault;   // exception type of a broken backtrace
//   Set set(i64 score);                        // an earlier score's rows
//   static Source source(const Set&, Component);
//   static Extent extent(const Source&);
//   void begin_row(i64 score);                 // before score's lookups
//   void null_row(i64 score);                  // score is unreachable
//   Out open_row(i64 score, i32 lo, i32 hi, bool with_i, bool with_d);
//       // allocates M (and I, D) over [lo, hi]; Out has m, i, d with
//       // set(k, v)
//   void fill_row(Out&, const Sources<Source>&, i32 lo, i32 hi);
//   void close_row(i64 score, Out&);          // publish the row
//   bool extend_row(i64 score, Row& row);      // false: M[score] is null
//   usize match_run(const char* a, const char* b, usize max);
//   Offset offset(i64 score, Component c, i32 k);  // random read
//   void backtrace_step();
//   void emit(char op, usize n);               // prepend n copies of op
#pragma once

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/types.hpp"
#include "wfa/wavefront.hpp"

namespace pimwfa::wfa::core {

// One (sub)problem: the sequences and the penalties.
struct Problem {
  const char* pattern = nullptr;
  const char* text = nullptr;
  i32 pl = 0;  // pattern length
  i32 tl = 0;  // text length
  i32 x = 0;   // mismatch
  i32 oe = 0;  // gap_open + gap_extend
  i32 e = 0;   // gap_extend

  i32 k_final() const noexcept { return tl - pl; }
};

// Diagonal range [lo, hi] of a stored component. An absent component has
// kNoExtent, an empty range that no min or max below can pick.
struct Extent {
  i32 lo = 0;
  i32 hi = -1;

  bool empty() const noexcept { return lo > hi; }
};
inline constexpr Extent kNoExtent{std::numeric_limits<i32>::max() / 2,
                                  std::numeric_limits<i32>::min() / 2};

// The predecessors of score s in the recurrence.
template <class Source>
struct Sources {
  Source m_sub;  // M[s - x]
  Source m_gap;  // M[s - o - e]
  Source i_ext;  // I[s - e]
  Source d_ext;  // D[s - e]
};

// Mismatch-predecessor candidate for M[s][k]: advance one along the
// diagonal, trimmed against the sequence bounds (h <= tlen, v <= plen).
// Shared by the recurrence and the backtrace so both see identical values.
inline Offset mismatch_candidate(Offset prev, i32 k, i32 plen,
                                 i32 tlen) noexcept {
  if (!offset_reachable(prev)) return kOffsetNone;
  const Offset off = prev + 1;
  if (off > tlen || off - k > plen) return kOffsetNone;
  return off;
}

// Row-bounds rule: score s spans one diagonal beyond its predecessors on
// each side, clipped to the valid diagonals [-plen, tlen]. Empty (a null
// row) when no predecessor is present or the clip leaves nothing.
inline Extent next_extent(Extent m_sub, Extent m_gap, Extent i_ext,
                          Extent d_ext, i32 pl, i32 tl) noexcept {
  const i32 lo = std::min({m_sub.lo, m_gap.lo, i_ext.lo, d_ext.lo}) - 1;
  const i32 hi = std::max({m_sub.hi, m_gap.hi, i_ext.hi, d_ext.hi}) + 1;
  return {std::max(lo, -pl), std::min(hi, tl)};
}

// The cell recurrence over [lo, hi]:
//   I[s][k] = max(M[s-o-e][k-1], I[s-e][k-1]) + 1
//   D[s][k] = max(M[s-o-e][k+1], D[s-e][k+1])
//   M[s][k] = max(M[s-x][k] + 1, I[s][k], D[s][k])
// trimmed against the sequence bounds. Sources answer get(k) with
// kOffsetNone outside their range (or when absent); M[s-o-e] comes in as
// two sources, read at k-1 and k+1. Every output cell is written.
template <class Src, class Out>
void recurrence_row(Src& m_sub, Src& m_gap_ins, Src& m_gap_del, Src& i_ext,
                    Src& d_ext, Out& out_m, Out& out_i, Out& out_d, i32 lo,
                    i32 hi, i32 pl, i32 tl) {
  for (i32 k = lo; k <= hi; ++k) {
    // I consumes one text base, so trim h <= tlen.
    Offset ins = std::max(m_gap_ins.get(k - 1), i_ext.get(k - 1));
    if (offset_reachable(ins)) {
      ++ins;
      if (ins > tl) ins = kOffsetNone;
    } else {
      ins = kOffsetNone;
    }
    // D consumes one pattern base, so trim v = off - k <= plen.
    Offset del = std::max(m_gap_del.get(k + 1), d_ext.get(k + 1));
    if (!offset_reachable(del) || del - k > pl) del = kOffsetNone;
    const Offset sub = mismatch_candidate(m_sub.get(k), k, pl, tl);
    Offset best = std::max(sub, std::max(ins, del));
    if (!offset_reachable(best)) best = kOffsetNone;
    out_i.set(k, ins);
    out_d.set(k, del);
    out_m.set(k, best);
  }
}

// Score of a degenerate span (empty pattern or text): one gap run, or
// nothing. The run pays no gap_open when it continues the gap run the
// span begins in; the upstream half already paid it.
inline i64 gap_run_score(i32 gap_open, i32 gap_extend, Component begin,
                         usize plen, usize tlen) noexcept {
  if (tlen > 0) {
    return (begin == Component::kI ? 0 : gap_open) +
           static_cast<i64>(tlen) * gap_extend;
  }
  if (plen > 0) {
    return (begin == Component::kD ? 0 : gap_open) +
           static_cast<i64>(plen) * gap_extend;
  }
  return 0;
}

// Score-0 row: M[0][0] = 0. A span that begins inside a gap run also seeds
// that component (the free gap-to-M transition), so the seam run extends
// at gap_extend cost without re-paying gap_open.
template <class S>
void seed(S& s, Component begin) {
  auto&& out = s.open_row(0, 0, 0, begin == Component::kI,
                          begin == Component::kD);
  out.m.set(0, 0);
  if (begin == Component::kI) out.i.set(0, 0);
  if (begin == Component::kD) out.d.set(0, 0);
  s.close_row(0, out);
}

// Computes score's M/I/D rows from the stored predecessors.
template <class S>
void compute(S& s, const Problem& p, i64 score) {
  s.begin_row(score);
  using Set = typename S::Set;
  const Set sub = score >= p.x ? s.set(score - p.x) : Set{};
  const Set gap = score >= p.oe ? s.set(score - p.oe) : Set{};
  const Set ext = score >= p.e ? s.set(score - p.e) : Set{};
  const Sources<typename S::Source> src{
      S::source(sub, Component::kM), S::source(gap, Component::kM),
      S::source(ext, Component::kI), S::source(ext, Component::kD)};
  const Extent range =
      next_extent(S::extent(src.m_sub), S::extent(src.m_gap),
                  S::extent(src.i_ext), S::extent(src.d_ext), p.pl, p.tl);
  if (range.empty()) {
    s.null_row(score);
    return;
  }
  auto&& out = s.open_row(score, range.lo, range.hi, true, true);
  s.fill_row(out, src, range.lo, range.hi);
  s.close_row(score, out);
}

// Extends every reachable M[score] cell along its diagonal over matching
// bases. True when the final diagonal's cell reaches the end of the text.
template <class S>
bool extend(S& s, const Problem& p, i64 score) {
  typename S::Row m;
  if (!s.extend_row(score, m)) return false;
  const char* const pattern = p.pattern;
  const char* const text = p.text;
  const i32 pl = p.pl;
  const i32 tl = p.tl;
  const i32 k_final = tl - pl;
  bool done = false;
  for (i32 k = m.lo; k <= m.hi; ++k) {
    Offset off = m.get(k);
    if (!offset_reachable(off)) continue;
    const i32 v = off - k;
    off += static_cast<Offset>(
        s.match_run(pattern + v, text + off,
                    static_cast<usize>(std::min(pl - v, tl - off))));
    m.set(k, off);
    if (k == k_final && off >= tl) done = true;
  }
  m.flush();
  return done;
}

// True when score's rows complete a (sub)alignment that must end in
// `end`: that component's offset on the final diagonal reaches the end of
// the text. For kM that is the extension's own finding, `m_done`.
template <class S>
bool hits_end(S& s, const Problem& p, i64 score, Component end,
              bool m_done) {
  if (end == Component::kM) return m_done;
  return s.offset(score, end, p.k_final()) >= p.tl;
}

// Seeds and extends score 0; true if that already completes the span.
template <class S>
bool start(S& s, const Problem& p, Component begin, Component end) {
  seed(s, begin);
  return hits_end(s, p, 0, end, extend(s, p, 0));
}

// Computes and extends `score`; true if it completes the span.
template <class S>
bool step(S& s, const Problem& p, i64 score, Component end) {
  compute(s, p, score);
  return hits_end(s, p, score, end, extend(s, p, score));
}

template <class Fault>
[[noreturn]] void backtrace_fault(const char* what, i64 score, i32 k) {
  std::ostringstream message;
  message << "WFA backtrace " << what << " at s=" << score << " k=" << k;
  throw Fault(message.str());
}

// Walks the stored rows back from (final_score, end) to the seed, emitting
// the CIGAR back to front. Ties prefer the mismatch, then the insertion,
// then the deletion; a gap closes into M before extending its run.
template <class S>
void backtrace(S& s, const Problem& p, i64 final_score, Component begin,
               Component end) {
  using Fault = typename S::Fault;
  // Locals, not p's fields: emitting an op stores a char, which may alias
  // anything, so fields would be reloaded after every op.
  const i32 x = p.x, oe = p.oe, e = p.e, pl = p.pl, tl = p.tl;
  i64 score = final_score;
  i32 k = tl - pl;
  Offset off = tl;
  Component state = end;
  while (true) {
    s.backtrace_step();
    if (state == Component::kM) {
      const Offset sub =
          score >= x ? mismatch_candidate(
                           s.offset(score - x, Component::kM, k), k, pl, tl)
                     : kOffsetNone;
      const Offset ins = s.offset(score, Component::kI, k);
      const Offset del = s.offset(score, Component::kD, k);
      const Offset best = std::max(sub, std::max(ins, del));
      if (!offset_reachable(best)) {
        // Start of the alignment: the score-0 seed on diagonal 0 plus its
        // initial run of matches.
        if (score != 0 || k != 0) backtrace_fault<Fault>("stuck", score, k);
        s.emit('M', static_cast<usize>(off));
        break;
      }
      if (off < best) backtrace_fault<Fault>("offset regression", score, k);
      s.emit('M', static_cast<usize>(off - best));
      off = best;
      if (sub == best) {
        s.emit('X', 1);
        score -= x;
        --off;
      } else if (ins == best) {
        state = Component::kI;
      } else {
        state = Component::kD;
      }
    } else if (state == Component::kI) {
      // The span seed I[0][0] is the entry state, not an operation.
      if (begin == Component::kI && score == 0 && k == 0 && off == 0) break;
      s.emit('I', 1);
      const Offset open_src =
          score >= oe ? s.offset(score - oe, Component::kM, k - 1)
                      : kOffsetNone;
      if (open_src == off - 1) {
        state = Component::kM;
        score -= oe;
      } else {
        const Offset ext_src =
            score >= e ? s.offset(score - e, Component::kI, k - 1)
                       : kOffsetNone;
        if (ext_src != off - 1) {
          backtrace_fault<Fault>("broken I chain", score, k);
        }
        score -= e;
      }
      --off;
      --k;
    } else {
      if (begin == Component::kD && score == 0 && k == 0 && off == 0) break;
      s.emit('D', 1);
      const Offset open_src =
          score >= oe ? s.offset(score - oe, Component::kM, k + 1)
                      : kOffsetNone;
      if (open_src == off) {
        state = Component::kM;
        score -= oe;
      } else {
        const Offset ext_src =
            score >= e ? s.offset(score - e, Component::kD, k + 1)
                       : kOffsetNone;
        if (ext_src != off) backtrace_fault<Fault>("broken D chain", score, k);
        score -= e;
      }
      ++k;
    }
  }
}

}  // namespace pimwfa::wfa::core
