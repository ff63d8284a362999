#include "wfa/wfa_edit.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace pimwfa::wfa {

EditWfaAligner::EditWfaAligner(WavefrontAllocator* allocator) {
  if (allocator != nullptr) {
    allocator_ = allocator;
  } else {
    owned_allocator_ = std::make_unique<SlabAllocator>();
    allocator_ = owned_allocator_.get();
  }
}

Wavefront EditWfaAligner::new_wavefront(i32 lo, i32 hi) {
  Wavefront wf;
  wf.exists = true;
  wf.lo = lo;
  wf.hi = hi;
  const usize width = static_cast<usize>(hi - lo + 1);
  wf.offsets = allocator_->allocate_array<Offset>(width);
  counters_.allocated_bytes += width * sizeof(Offset);
  return wf;
}

bool EditWfaAligner::extend_and_check(Wavefront& m, std::string_view pattern,
                                      std::string_view text) {
  const i32 plen = static_cast<i32>(pattern.size());
  const i32 tlen = static_cast<i32>(text.size());
  const i32 k_final = tlen - plen;
  bool done = false;
  for (i32 k = m.lo; k <= m.hi; ++k) {
    Offset off = m.offsets[k - m.lo];
    if (!offset_reachable(off)) continue;
    i32 v = off - k;
    while (v < plen && off < tlen &&
           pattern[static_cast<usize>(v)] == text[static_cast<usize>(off)]) {
      ++v;
      ++off;
      ++counters_.extend_matches;
    }
    ++counters_.extend_probes;
    m.offsets[k - m.lo] = off;
    if (k == k_final && off >= tlen) done = true;
  }
  return done;
}

seq::Cigar EditWfaAligner::backtrace(i64 distance, std::string_view pattern,
                                     std::string_view text) {
  const i32 pl = static_cast<i32>(pattern.size());
  const i32 tl = static_cast<i32>(text.size());
  seq::CigarBuilder& cigar = cigar_builder_;
  cigar.reserve(pattern.size() + text.size());
  i64 d = distance;
  i32 k = tl - pl;
  Offset off = tl;
  while (true) {
    Offset ins = kOffsetNone;
    Offset sub = kOffsetNone;
    Offset del = kOffsetNone;
    if (d > 0) {
      const Wavefront& prev = fronts_[static_cast<usize>(d - 1)];
      const Offset from_ins = prev.at(k - 1);
      if (offset_reachable(from_ins) && from_ins + 1 <= tl) ins = from_ins + 1;
      const Offset from_sub = prev.at(k);
      if (offset_reachable(from_sub) && from_sub + 1 <= tl &&
          from_sub + 1 - k <= pl) {
        sub = from_sub + 1;
      }
      const Offset from_del = prev.at(k + 1);
      if (offset_reachable(from_del) && from_del - k <= pl) del = from_del;
    }
    const Offset best = std::max({ins, sub, del});
    if (!offset_reachable(best)) {
      PIMWFA_CHECK(d == 0 && k == 0, "edit-WFA backtrace stuck");
      cigar.prepend_run('M', static_cast<usize>(off));
      break;
    }
    PIMWFA_CHECK(off >= best, "edit-WFA backtrace offset regression");
    cigar.prepend_run('M', static_cast<usize>(off - best));
    off = best;
    --d;
    if (best == sub) {
      cigar.prepend('X');
      --off;
    } else if (best == ins) {
      cigar.prepend('I');
      --off;
      --k;
    } else {
      cigar.prepend('D');
      ++k;
    }
  }
  counters_.backtrace_ops += cigar.size();
  return cigar.finish();
}

align::AlignmentResult EditWfaAligner::align(std::string_view pattern,
                                             std::string_view text,
                                             align::AlignmentScope scope) {
  const usize plen = pattern.size();
  const usize tlen = text.size();
  ++counters_.alignments;
  allocator_->reset();
  fronts_.clear();

  align::AlignmentResult result;
  if (plen == 0 || tlen == 0) {
    result.score = static_cast<i64>(plen + tlen);
    if (scope == align::AlignmentScope::kFull) {
      cigar_builder_.reserve(plen + tlen);
      cigar_builder_.prepend_run('D', plen);
      cigar_builder_.prepend_run('I', tlen);
      result.cigar = cigar_builder_.finish();
      result.has_cigar = true;
    }
    return result;
  }

  const i32 pl = static_cast<i32>(plen);
  const i32 tl = static_cast<i32>(tlen);
  fronts_.push_back(new_wavefront(0, 0));
  fronts_[0].set(0, 0);
  i64 d = 0;
  bool done = extend_and_check(fronts_[0], pattern, text);
  const i64 cap = static_cast<i64>(std::max(plen, tlen));
  while (!done) {
    ++d;
    ++counters_.score_steps;
    PIMWFA_CHECK(d <= cap, "edit-WFA exceeded distance cap");
    const Wavefront& prev = fronts_[static_cast<usize>(d - 1)];
    const i32 lo = std::max(prev.lo - 1, -pl);
    const i32 hi = std::min(prev.hi + 1, tl);
    Wavefront front = new_wavefront(lo, hi);
    for (i32 k = lo; k <= hi; ++k) {
      Offset ins = prev.at(k - 1);
      ins = offset_reachable(ins) && ins + 1 <= tl ? ins + 1 : kOffsetNone;
      Offset sub = prev.at(k);
      sub = offset_reachable(sub) && sub + 1 <= tl && sub + 1 - k <= pl
                ? sub + 1
                : kOffsetNone;
      Offset del = prev.at(k + 1);
      del = offset_reachable(del) && del - k <= pl ? del : kOffsetNone;
      Offset best = std::max({ins, sub, del});
      front.set(k, offset_reachable(best) ? best : kOffsetNone);
      ++counters_.computed_cells;
    }
    ++counters_.wavefront_sets;
    fronts_.push_back(front);
    done = extend_and_check(fronts_.back(), pattern, text);
  }

  result.score = d;
  if (scope == align::AlignmentScope::kFull) {
    result.cigar = backtrace(d, pattern, text);
    result.has_cigar = true;
  }
  counters_.max_score = std::max(counters_.max_score, static_cast<u64>(d));
  return result;
}

}  // namespace pimwfa::wfa
