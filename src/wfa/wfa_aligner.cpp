#include "wfa/wfa_aligner.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace pimwfa::wfa {
namespace {

using Component = WfaAligner::Component;

// Gap-affine cost of `cigar` under span-boundary charging: a CIGAR that
// opens with the gap run it entered through (begin == kI/kD) pays no
// gap_open for that leading run - the upstream half already paid it.
i64 span_cost(const seq::Cigar& cigar, const align::Penalties& p,
              Component begin) {
  i64 cost = cigar.affine_score(p.mismatch, p.gap_open, p.gap_extend);
  if (!cigar.empty()) {
    const char first = cigar.ops().front();
    if ((begin == Component::kI && first == 'I') ||
        (begin == Component::kD && first == 'D')) {
      cost -= p.gap_open;
    }
  }
  return cost;
}

}  // namespace

u64 WfaAligner::retained_bytes_estimate(i64 score, usize plen, usize tlen) {
  const i64 band = static_cast<i64>(plen + tlen + 1);
  const i64 knee = std::min(score, (band - 1) / 2);
  const u64 growing = static_cast<u64>(knee + 1) * static_cast<u64>(knee + 1);
  const u64 flat = score > knee
                       ? static_cast<u64>(score - knee) * static_cast<u64>(band)
                       : 0;
  return (growing + flat) * 3u * sizeof(Offset);
}

WfaAligner::WfaAligner(Options options, WavefrontAllocator* allocator)
    : options_(options),
      kernels_(options.kernels != nullptr ? *options.kernels
                                          : scalar_kernels()) {
  options_.penalties.validate();
  PIMWFA_ARG_CHECK(options_.max_score >= 0, "max_score must be >= 0");
  PIMWFA_ARG_CHECK(
      kernels_.match_run != nullptr && kernels_.compute_row != nullptr,
      "WfaKernels must provide both match_run and compute_row");
  PIMWFA_ARG_CHECK(
      !(options_.memory_mode == MemoryMode::kUltralow &&
        options_.heuristic.enabled),
      "MemoryMode::kUltralow is exact and incompatible with the adaptive "
      "heuristic");
  if (allocator != nullptr) {
    allocator_ = allocator;
  } else {
    owned_allocator_ = std::make_unique<SlabAllocator>();
    allocator_ = owned_allocator_.get();
  }
}

void WfaAligner::note_live_bytes() {
  const u64 live = retained_bytes_ + ring_.live_bytes + rev_ring_.live_bytes;
  if (live > counters_.peak_wavefront_bytes) {
    counters_.peak_wavefront_bytes = live;
  }
}

Wavefront WfaAligner::new_wavefront(i32 lo, i32 hi) {
  PIMWFA_DCHECK(lo <= hi);
  Wavefront wf;
  wf.exists = true;
  wf.lo = lo;
  wf.hi = hi;
  const usize width = static_cast<usize>(hi - lo + 1);
  // kWavefrontPad sentinel slots on each side let a vectorized compute_row
  // read one slot past either end of a source row without masked loads
  // (see kernels.hpp). The pad is implementation slack, so only the
  // payload counts toward allocated_bytes.
  Offset* base =
      allocator_->allocate_array<Offset>(width + 2 * kWavefrontPad);
  for (usize i = 0; i < kWavefrontPad; ++i) {
    base[i] = kOffsetNone;
    base[kWavefrontPad + width + i] = kOffsetNone;
  }
  wf.offsets = base + kWavefrontPad;
  counters_.allocated_bytes += width * sizeof(Offset);
  retained_bytes_ += width * sizeof(Offset);
  note_live_bytes();
  return wf;
}

core::Problem WfaAligner::problem(std::string_view pattern,
                                 std::string_view text) const {
  const align::Penalties& p = options_.penalties;
  return {pattern.data(), text.data(), static_cast<i32>(pattern.size()),
          static_cast<i32>(text.size()), p.mismatch, p.gap_open + p.gap_extend,
          p.gap_extend};
}

// What both host storages share: Wavefront rows, the configured kernels,
// WfaCounters and the CIGAR builder.
class WfaAligner::HostRows {
 public:
  using Set = const WavefrontSet*;
  using Source = const Wavefront*;
  using Fault = Error;
  struct Row {
    Wavefront* w = nullptr;
    i32 lo = 0;
    i32 hi = -1;
    Offset get(i32 k) const { return w->offsets[k - lo]; }
    void set(i32 k, Offset value) { w->offsets[k - lo] = value; }
    void flush() {}
  };

  static Source source(Set set, Component c) {
    if (set == nullptr) return nullptr;
    const Wavefront& w = set->component(c);
    return w.exists ? &w : nullptr;
  }
  static core::Extent extent(Source w) {
    return w != nullptr ? core::Extent{w->lo, w->hi} : core::kNoExtent;
  }

  void null_row(i64) {}
  void fill_row(WavefrontSet& out, const core::Sources<Source>& src, i32 lo,
                i32 hi) {
    ComputeRowArgs args;
    args.m_sub = src.m_sub;
    args.m_gap = src.m_gap;
    args.i_ext = src.i_ext;
    args.d_ext = src.d_ext;
    args.out_m = &out.m;
    args.out_i = &out.i;
    args.out_d = &out.d;
    args.lo = lo;
    args.hi = hi;
    args.pl = pl_;
    args.tl = tl_;
    a_.kernels_.compute_row(args);
    a_.counters_.computed_cells += 3 * static_cast<u64>(hi - lo + 1);
    ++a_.counters_.wavefront_sets;
  }
  void close_row(i64, WavefrontSet&) {}

  usize match_run(const char* a, const char* b, usize max) {
    const usize run = a_.kernels_.match_run(a, b, max);
    a_.counters_.extend_matches += run;
    ++a_.counters_.extend_probes;
    return run;
  }

  void backtrace_step() {}
  void emit(char op, usize n) { a_.cigar_builder_.prepend_run(op, n); }

 protected:
  HostRows(WfaAligner& aligner, const core::Problem& p)
      : a_(aligner), pl_(p.pl), tl_(p.tl) {}

  static bool bind(Wavefront& m, Row& row) {
    if (!m.exists) return false;
    row = Row{&m, m.lo, m.hi};
    return true;
  }

  WfaAligner& a_;
  i32 pl_;
  i32 tl_;
};

// The retained (kHigh) history: every score's rows stay in sets_.
class WfaAligner::RetainedRows : public HostRows {
 public:
  RetainedRows(WfaAligner& aligner, const core::Problem& p)
      : HostRows(aligner, p) {}

  Set set(i64 score) const { return &row(score); }
  void begin_row(i64) { a_.sets_.emplace_back(); }
  WavefrontSet& open_row(i64 score, i32 lo, i32 hi, bool with_i,
                         bool with_d) {
    WavefrontSet& out = row(score);
    out.m = a_.new_wavefront(lo, hi);
    if (with_i) out.i = a_.new_wavefront(lo, hi);
    if (with_d) out.d = a_.new_wavefront(lo, hi);
    return out;
  }
  bool extend_row(i64 score, Row& m) { return bind(row(score).m, m); }
  Offset offset(i64 score, Component c, i32 k) const {
    return row(score).component(c).at(k);
  }

 private:
  WavefrontSet& row(i64 score) const {
    return a_.sets_[static_cast<usize>(score)];
  }
};

// A score-only ring: rows live in the ring's slots, `out` being the slot
// of the score under construction.
class WfaAligner::RingRows : public HostRows {
 public:
  RingRows(WfaAligner& aligner, const core::Problem& p, ScoreRing& ring,
           RingSlot& out)
      : HostRows(aligner, p), ring_(ring), out_(out) {}

  Set set(i64 score) const { return a_.ring_row(ring_, score); }
  void begin_row(i64) {
    // Clears the expired score-(ring_size) row. Sources never alias it:
    // ring_size exceeds the deepest lookback.
    ring_.live_bytes -= out_.bytes;
    out_.bytes = 0;
    out_.set = WavefrontSet{};
  }
  WavefrontSet& open_row(i64, i32 lo, i32 hi, bool with_i, bool with_d) {
    out_.set.m = a_.bind_ring_front(ring_, out_, out_.m, lo, hi);
    if (with_i) out_.set.i = a_.bind_ring_front(ring_, out_, out_.i, lo, hi);
    if (with_d) out_.set.d = a_.bind_ring_front(ring_, out_, out_.d, lo, hi);
    return out_.set;
  }
  bool extend_row(i64, Row& m) { return bind(out_.set.m, m); }
  Offset offset(i64 score, Component c, i32 k) const {
    const Set rows = set(score);
    return rows != nullptr ? rows->component(c).at(k) : kOffsetNone;
  }

 private:
  ScoreRing& ring_;
  RingSlot& out_;
};

namespace {

// Narrow a component to the intersection of its range with [lo, hi] by
// sliding the base pointer (allocation is untouched; the dropped cells are
// no longer addressable through at()). The dropped cells are overwritten
// with the kOffsetNone sentinel so the out-of-range overhang slots a
// vectorized compute_row may read stay semantically "unreachable" (the
// padding contract of kernels.hpp).
void shrink_wavefront(Wavefront& w, i32 lo, i32 hi) {
  if (!w.exists) return;
  const i32 new_lo = std::max(w.lo, lo);
  const i32 new_hi = std::min(w.hi, hi);
  if (new_lo > new_hi) {
    w = Wavefront{};
    return;
  }
  for (i32 k = w.lo; k < new_lo; ++k) w.set(k, kOffsetNone);
  for (i32 k = new_hi + 1; k <= w.hi; ++k) w.set(k, kOffsetNone);
  w.offsets += (new_lo - w.lo);
  w.lo = new_lo;
  w.hi = new_hi;
}

}  // namespace

void WfaAligner::reduce(WavefrontSet& set, i32 plen, i32 tlen) {
  Wavefront& m = set.m;
  if (!m.exists) return;
  const i32 length = m.hi - m.lo + 1;
  if (length <= options_.heuristic.min_wavefront_length) return;

  // Remaining anti-diagonal distance to the target corner per diagonal;
  // unreachable cells count as infinite so they fall off the edges.
  auto distance = [&](i32 k) -> i64 {
    const Offset off = m.at(k);
    if (!offset_reachable(off)) return std::numeric_limits<i64>::max();
    const i32 v = off - k;
    return static_cast<i64>(plen - v) + static_cast<i64>(tlen - off);
  };
  i64 best = std::numeric_limits<i64>::max();
  for (i32 k = m.lo; k <= m.hi; ++k) best = std::min(best, distance(k));
  if (best == std::numeric_limits<i64>::max()) return;

  const i64 cutoff = best + options_.heuristic.max_distance_diff;
  i32 new_lo = m.lo;
  i32 new_hi = m.hi;
  while (new_lo < new_hi && distance(new_lo) > cutoff) ++new_lo;
  while (new_hi > new_lo && distance(new_hi) > cutoff) --new_hi;
  if (new_lo == m.lo && new_hi == m.hi) return;

  shrink_wavefront(set.m, new_lo, new_hi);
  shrink_wavefront(set.i, new_lo, new_hi);
  shrink_wavefront(set.d, new_lo, new_hi);
}

Wavefront WfaAligner::bind_ring_front(ScoreRing& ring, RingSlot& slot,
                                      std::vector<Offset>& storage, i32 lo,
                                      i32 hi) {
  // Rebind a slot's component over its backing vector (padded like
  // new_wavefront so the kernel's overhang contract holds here too).
  const usize width = static_cast<usize>(hi - lo + 1);
  storage.resize(width + 2 * kWavefrontPad);
  for (usize i = 0; i < kWavefrontPad; ++i) {
    storage[i] = kOffsetNone;
    storage[kWavefrontPad + width + i] = kOffsetNone;
  }
  Wavefront wf;
  wf.exists = true;
  wf.lo = lo;
  wf.hi = hi;
  wf.offsets = storage.data() + kWavefrontPad;
  const u64 bytes = width * sizeof(Offset);
  slot.bytes += bytes;
  ring.live_bytes += bytes;
  counters_.allocated_bytes += bytes;
  note_live_bytes();
  return wf;
}

void WfaAligner::ring_release(ScoreRing& ring) {
  for (RingSlot& slot : ring.slots) {
    slot.set = WavefrontSet{};
    slot.bytes = 0;
  }
  ring.live_bytes = 0;
}

void WfaAligner::update_progress(ScoreRing& ring, const Wavefront& m) {
  if (!m.exists) return;
  for (i32 k = m.lo; k <= m.hi; ++k) {
    const Offset off = m.offsets[k - m.lo];
    if (!offset_reachable(off)) continue;
    const i64 anti = 2 * static_cast<i64>(off) - k;
    if (anti > ring.max_antidiag) ring.max_antidiag = anti;
  }
}

bool WfaAligner::ring_init(ScoreRing& ring, std::string_view pattern,
                           std::string_view text, Component begin,
                           Component end) {
  const i32 x = options_.penalties.mismatch;
  const i32 oe = options_.penalties.gap_open + options_.penalties.gap_extend;
  // Deepest lookback is max(x, o+e); one extra slot for the one being
  // written.
  ring.ring_size = static_cast<usize>(std::max(x, oe)) + 1;
  if (ring.slots.size() < ring.ring_size) ring.slots.resize(ring.ring_size);
  ring_release(ring);
  ring.score = 0;
  ring.max_antidiag = -1;
  ring.pattern = pattern;
  ring.text = text;

  const core::Problem p = problem(pattern, text);
  RingRows rows(*this, p, ring, ring.slots[0]);
  const bool done = core::start(rows, p, begin, end);
  update_progress(ring, ring.slots[0].set.m);
  return done;
}

const WavefrontSet* WfaAligner::ring_row(const ScoreRing& ring,
                                         i64 score) const {
  if (score < 0 || score > ring.score ||
      score <= ring.score - static_cast<i64>(ring.ring_size)) {
    return nullptr;
  }
  const WavefrontSet& set =
      ring.slots[static_cast<usize>(score) % ring.ring_size].set;
  return set.any_exists() ? &set : nullptr;
}

bool WfaAligner::ring_step(ScoreRing& ring, Component end) {
  ++ring.score;
  ++counters_.score_steps;
  RingSlot& slot = ring.slots[static_cast<usize>(ring.score) % ring.ring_size];
  const core::Problem p = problem(ring.pattern, ring.text);
  RingRows rows(*this, p, ring, slot);
  const bool done = core::step(rows, p, ring.score, end);
  update_progress(ring, slot.set.m);
  return done;
}

i64 WfaAligner::score_low_memory(std::string_view pattern,
                                 std::string_view text, i64 score_cap,
                                 Component begin, Component end) {
  bool done = ring_init(ring_, pattern, text, begin, end);
  while (!done) {
    PIMWFA_CHECK(ring_.score < score_cap,
                 "WFA exceeded score cap " << score_cap << " (max_score option)");
    done = ring_step(ring_, end);
  }
  const i64 score = ring_.score;
  ring_release(ring_);
  return score;
}

WfaAligner::Breakpoint WfaAligner::find_breakpoint(std::string_view pattern,
                                                   std::string_view text,
                                                   Component begin,
                                                   Component end,
                                                   i64 score_cap) {
  PIMWFA_ARG_CHECK(!pattern.empty() && !text.empty(),
                   "find_breakpoint requires non-empty pattern and text");
  const i32 pl = static_cast<i32>(pattern.size());
  const i32 tl = static_cast<i32>(text.size());
  const i32 o = options_.penalties.gap_open;
  const i32 k_final = tl - pl;
  const i64 total_antidiag = static_cast<i64>(pl) + tl;

  // The reverse direction aligns the reversed strings; its begin component
  // is this problem's end component. A kI/kD end seeds the reverse gap
  // state, which leaves the END run's gap_open uncharged by the reverse
  // direction - every candidate total below re-adds it (end_shift).
  rev_pattern_.assign(pattern.rbegin(), pattern.rend());
  rev_text_.assign(text.rbegin(), text.rend());
  // Termination is the meet, not a corner: the rings run as kM spans.
  ring_init(ring_, pattern, text, begin, Component::kM);
  ring_init(rev_ring_, rev_pattern_, rev_text_, end, Component::kM);

  const i64 end_shift = (end == Component::kM) ? 0 : o;
  Breakpoint best;
  best.total = std::numeric_limits<i64>::max();
  bool found = false;

  // Candidate totals for a meet of forward row sf against reverse row sr:
  // an M-meet costs sf+sr; an I/D-meet merges one gap run that both
  // directions opened, sf+sr-o. Meets live on complementary diagonals
  // (k + k_rev == k_final) where the offsets jointly span the text.
  auto scan_pair = [&](const WavefrontSet& fset, i64 sf,
                       const WavefrontSet& rset, i64 sr) {
    struct Cand {
      Component comp;
      const Wavefront* f;
      const Wavefront* r;
      i64 extra;
    };
    const Cand cands[3] = {
        {Component::kM, &fset.m, &rset.m, end_shift},
        {Component::kI, &fset.i, &rset.i, end_shift - o},
        {Component::kD, &fset.d, &rset.d, end_shift - o},
    };
    for (const Cand& c : cands) {
      const i64 total = sf + sr + c.extra;
      if (total >= best.total) continue;
      if (!c.f->exists || !c.r->exists) continue;
      const i32 k_lo = std::max(c.f->lo, k_final - c.r->hi);
      const i32 k_hi = std::min(c.f->hi, k_final - c.r->lo);
      for (i32 k = k_lo; k <= k_hi; ++k) {
        const Offset hf = c.f->at(k);
        if (!offset_reachable(hf)) continue;
        const Offset hr = c.r->at(k_final - k);
        if (!offset_reachable(hr)) continue;
        if (static_cast<i64>(hf) + hr < tl) continue;
        best.total = total;
        best.score_forward = sf;
        best.score_reverse = sr;
        best.k = k;
        best.offset = hf;
        best.comp = c.comp;
        found = true;
        break;
      }
    }
  };
  auto scan_new_row = [&](bool forward_new) {
    const ScoreRing& a = forward_new ? ring_ : rev_ring_;
    const ScoreRing& b = forward_new ? rev_ring_ : ring_;
    const WavefrontSet* row_a = ring_row(a, a.score);
    if (row_a == nullptr) return;
    const i64 sb_lo =
        std::max<i64>(0, b.score - static_cast<i64>(b.ring_size) + 1);
    for (i64 sb = sb_lo; sb <= b.score; ++sb) {
      const WavefrontSet* row_b = ring_row(b, sb);
      if (row_b == nullptr) continue;
      if (forward_new) {
        scan_pair(*row_a, a.score, *row_b, sb);
      } else {
        scan_pair(*row_b, sb, *row_a, a.score);
      }
    }
  };
  // Tiny problems: the two score-0 rows may already overlap.
  if (ring_.max_antidiag + rev_ring_.max_antidiag >= total_antidiag) {
    scan_new_row(true);
  }

  const i64 lookback = static_cast<i64>(ring_.ring_size) - 1;
  while (true) {
    // Cheapest total any not-yet-scanned (sf, sr) pair could still
    // produce: every future scan pairs a strictly newer row with a window
    // partner at most `lookback` behind the then-current opposite score.
    const i64 future_min = ring_.score + rev_ring_.score + 1 - lookback - o;
    if (found && future_min >= best.total) break;
    PIMWFA_CHECK(future_min <= score_cap,
                 "WFA exceeded score cap " << score_cap << " (max_score option)");
    // Advance the direction that has made less anti-diagonal progress, so
    // an unbalanced optimal split (errors clustered in one half) still
    // meets inside the retained window.
    const bool forward = ring_.max_antidiag <= rev_ring_.max_antidiag;
    ring_step(forward ? ring_ : rev_ring_, Component::kM);
    if (ring_.max_antidiag + rev_ring_.max_antidiag >= total_antidiag) {
      scan_new_row(forward);
    }
  }
  ring_release(ring_);
  ring_release(rev_ring_);
  PIMWFA_CHECK(best.total <= score_cap,
               "WFA exceeded score cap " << score_cap << " (max_score option)");
  return best;
}

i64 WfaAligner::ultralow_recurse(std::string_view pattern,
                                 std::string_view text, Component begin,
                                 Component end, i64 score_cap,
                                 std::string& out) {
  const usize plen = pattern.size();
  const usize tlen = text.size();
  const i32 o = options_.penalties.gap_open;
  const i32 e = options_.penalties.gap_extend;

  // Degenerate halves: a single gap run (see core::gap_run_score).
  if (plen == 0 || tlen == 0) {
    out.append(tlen, 'I');
    out.append(plen, 'D');
    return core::gap_run_score(o, e, begin, plen, tlen);
  }

  const Breakpoint bp = find_breakpoint(pattern, text, begin, end, score_cap);
  const i32 v = bp.offset - bp.k;
  const i32 h = bp.offset;
  const bool corner =
      (v == 0 && h == 0) ||
      (v == static_cast<i32>(plen) && h == static_cast<i32>(tlen));
  if (corner || retained_bytes_estimate(bp.total, plen, tlen) <=
                    options_.ultralow_base_wavefront_bytes) {
    align::AlignmentResult res = align_retained(
        pattern, text, align::AlignmentScope::kFull, begin, end, bp.total);
    PIMWFA_CHECK(res.score == bp.total,
                 "kUltralow base case score " << res.score
                                              << " != bidirectional score "
                                              << bp.total);
    out += res.cigar.ops();
    return bp.total;
  }

  // The right half's own cost can exceed bp.score_reverse by the end-run's
  // gap_open that the reverse seeding exempted (see find_breakpoint).
  const i64 end_shift = (end == Component::kM) ? 0 : o;
  const i64 left = ultralow_recurse(pattern.substr(0, static_cast<usize>(v)),
                                    text.substr(0, static_cast<usize>(h)),
                                    begin, bp.comp, bp.score_forward, out);
  const i64 right = ultralow_recurse(pattern.substr(static_cast<usize>(v)),
                                     text.substr(static_cast<usize>(h)),
                                     bp.comp, end,
                                     bp.score_reverse + end_shift, out);
  PIMWFA_CHECK(left + right == bp.total,
               "kUltralow halves cost " << left << "+" << right
                                        << " != bidirectional score "
                                        << bp.total);
  return bp.total;
}

align::AlignmentResult WfaAligner::align_retained(std::string_view pattern,
                                                  std::string_view text,
                                                  align::AlignmentScope scope,
                                                  Component begin,
                                                  Component end,
                                                  i64 score_cap) {
  allocator_->reset();
  sets_.clear();
  retained_bytes_ = 0;

  sets_.emplace_back();  // the score-0 row
  const core::Problem p = problem(pattern, text);
  RetainedRows rows(*this, p);
  i64 score = 0;
  bool done = core::start(rows, p, begin, end);
  while (!done) {
    if (options_.heuristic.enabled) {
      reduce(sets_[static_cast<usize>(score)], p.pl, p.tl);
    }
    ++score;
    ++counters_.score_steps;
    PIMWFA_CHECK(score <= score_cap,
                 "WFA exceeded score cap " << score_cap << " (max_score option)");
    done = core::step(rows, p, score, end);
  }

  align::AlignmentResult result;
  result.score = score;
  if (scope == align::AlignmentScope::kFull) {
    cigar_builder_.reserve(pattern.size() + text.size());
    core::backtrace(rows, p, score, begin, end);
    counters_.backtrace_ops += cigar_builder_.size();
    result.cigar = cigar_builder_.finish();
    result.has_cigar = true;
  }
  counters_.max_score = std::max(counters_.max_score, static_cast<u64>(score));
  return result;
}

align::AlignmentResult WfaAligner::align(std::string_view pattern,
                                         std::string_view text,
                                         align::AlignmentScope scope) {
  return align_span(pattern, text, scope, Component::kM, Component::kM);
}

align::AlignmentResult WfaAligner::align_span(std::string_view pattern,
                                              std::string_view text,
                                              align::AlignmentScope scope,
                                              Component begin, Component end) {
  const usize plen = pattern.size();
  const usize tlen = text.size();
  ++counters_.alignments;

  align::AlignmentResult result;

  // Degenerate inputs: a single gap run, or nothing.
  if (plen == 0 || tlen == 0) {
    result.score = core::gap_run_score(options_.penalties.gap_open,
                                       options_.penalties.gap_extend, begin,
                                       plen, tlen);
    if (scope == align::AlignmentScope::kFull) {
      cigar_builder_.reserve(plen + tlen);
      cigar_builder_.prepend_run('D', plen);
      cigar_builder_.prepend_run('I', tlen);
      result.cigar = cigar_builder_.finish();
      result.has_cigar = true;
    }
    counters_.max_score =
        std::max(counters_.max_score, static_cast<u64>(result.score));
    return result;
  }

  const i64 score_cap =
      options_.max_score > 0
          ? options_.max_score
          : align::worst_case_score(options_.penalties, plen, tlen);

  if (options_.memory_mode == MemoryMode::kUltralow) {
    if (scope == align::AlignmentScope::kScoreOnly) {
      result.score = find_breakpoint(pattern, text, begin, end, score_cap).total;
    } else {
      std::string ops;
      ops.reserve(plen + tlen);
      const i64 total =
          ultralow_recurse(pattern, text, begin, end, score_cap, ops);
      // Copied out so the result holds exactly its ops, not the stitching
      // buffer's plen + tlen capacity.
      seq::Cigar cigar = seq::Cigar::from_ops(ops);
      // The stitched CIGAR is verified before it leaves: it must consume
      // exactly the inputs and cost exactly the bidirectional score.
      PIMWFA_CHECK(
          cigar.pattern_length() == plen && cigar.text_length() == tlen,
          "kUltralow stitched CIGAR consumes " << cigar.pattern_length() << "/"
                                               << cigar.text_length()
                                               << " of " << plen << "/"
                                               << tlen);
      const i64 cost = span_cost(cigar, options_.penalties, begin);
      PIMWFA_CHECK(cost == total, "kUltralow stitched CIGAR costs "
                                      << cost << ", bidirectional score is "
                                      << total);
      result.score = total;
      result.cigar = std::move(cigar);
      result.has_cigar = true;
    }
    counters_.max_score =
        std::max(counters_.max_score, static_cast<u64>(result.score));
    return result;
  }

  if (options_.memory_mode == MemoryMode::kLow &&
      scope == align::AlignmentScope::kScoreOnly &&
      !options_.heuristic.enabled) {
    result.score = score_low_memory(pattern, text, score_cap, begin, end);
    counters_.max_score =
        std::max(counters_.max_score, static_cast<u64>(result.score));
    return result;
  }

  return align_retained(pattern, text, scope, begin, end, score_cap);
}

}  // namespace pimwfa::wfa
