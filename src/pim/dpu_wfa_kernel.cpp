#include "pim/dpu_wfa_kernel.hpp"

#include <algorithm>
#include <cstring>
#include <optional>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "seq/alphabet.hpp"
#include "wfa/kernels.hpp"
#include "wfa/wfa_core.hpp"

namespace pimwfa::pim {
namespace {

using wfa::Component;
using wfa::Offset;

// Per-tasklet kernel engine: owns the WRAM buffers and the staging
// windows, processes this tasklet's share of the batch. It is also the
// storage policy the WFA core (wfa/wfa_core.hpp) runs on: rows are
// MetaSpace descriptors and offset arrays reached through OffsetWindows,
// and every operation is charged to the tasklet through KernelCosts.
class Engine {
 public:
  Engine(upmem::TaskletCtx& ctx, const KernelCosts& costs)
      : ctx_(ctx), costs_(costs) {
    // Stage the batch header from MRAM address 0.
    const u64 hdr_off = ctx_.wram_alloc(sizeof(BatchHeader));
    ctx_.mram_read(0, hdr_off, sizeof(BatchHeader));
    std::memcpy(&hdr_, ctx_.wram_ptr(hdr_off, sizeof(BatchHeader)),
                sizeof(BatchHeader));
    PIMWFA_HW_CHECK(hdr_.magic == BatchHeader::kMagic,
                    "DPU launched without a batch in MRAM");

    const u64 free_before = ctx_.wram_free();
    pattern_pad_ = round_up_pow2(hdr_.max_pattern, 8);
    text_pad_ = round_up_pow2(hdr_.max_text, 8);
    if (hdr_.packed_sequences != 0) {
      field_pattern_pad_ = round_up_pow2((hdr_.max_pattern + 3) / 4, 8);
      field_text_pad_ = round_up_pow2((hdr_.max_text + 3) / 4, 8);
      packed_stage_off_ =
          ctx_.wram_alloc(std::max(field_pattern_pad_, field_text_pad_));
    } else {
      field_pattern_pad_ = pattern_pad_;
      field_text_pad_ = text_pad_;
    }
    pattern_off_ = ctx_.wram_alloc(pattern_pad_);
    text_off_ = ctx_.wram_alloc(text_pad_);
    stage_off_ = ctx_.wram_alloc(8);
    if (hdr_.full_alignment != 0) {
      cigar_cap_ = round_up_pow2(hdr_.max_pattern + hdr_.max_text, 8);
      cigar_off_ = ctx_.wram_alloc(cigar_cap_);
    }

    if (static_cast<MetadataPolicy>(hdr_.policy) == MetadataPolicy::kMram) {
      const u64 arena = hdr_.scratch_addr + ctx_.me() * hdr_.scratch_stride;
      space_.emplace(MetaSpace::make_mram(ctx_, arena, hdr_.scratch_stride,
                                          hdr_.max_score));
    } else {
      // Fair WRAM split: this tasklet's fixed buffers are representative
      // of what the tasklets after it will also need; leave room for them
      // and take an even share of the remainder as the metadata arena.
      const usize remaining_tasklets = ctx_.nr_tasklets() - ctx_.me();
      const u64 fixed_bytes = free_before - ctx_.wram_free();
      const u64 free_now = ctx_.wram_free();
      const u64 reserved_for_others = fixed_bytes * (remaining_tasklets - 1);
      PIMWFA_HW_CHECK(free_now > reserved_for_others,
                      "WRAM cannot hold fixed buffers for "
                          << ctx_.nr_tasklets() << " tasklets");
      const u64 arena_bytes = round_down_pow2(
          (free_now - reserved_for_others) / remaining_tasklets, 8);
      space_.emplace(MetaSpace::make_wram(ctx_, arena_bytes, hdr_.max_score));
    }

    // Staging windows (9 x 128 B in MRAM mode; no storage in WRAM mode).
    for (auto& window : windows_) window.emplace(*space_);
  }

  void run_pairs(u64 first, u64 count) {
    const u64 begin = std::min<u64>(first, hdr_.nr_pairs);
    const u64 end = begin + std::min<u64>(count, hdr_.nr_pairs - begin);
    for (u64 pair = begin + ctx_.me(); pair < end;
         pair += ctx_.nr_tasklets()) {
      align_pair(pair);
    }
  }

  // --- storage policy of wfa::core ---------------------------------------
  using Set = WfDesc;
  struct Source {
    u64 handle = 0;  // 0: absent
    i32 lo = 0;
    i32 hi = -1;
  };
  using Fault = HardwareFault;
  struct Row {
    OffsetWindow* w = nullptr;
    i32 lo = 0;
    i32 hi = -1;
    Offset get(i32 k) { return w->get(k); }
    void set(i32 k, Offset value) { w->set(k, value); }
    void flush() { w->flush(); }
  };
  struct Out {
    OffsetWindow& m;
    OffsetWindow& i;
    OffsetWindow& d;
    WfDesc desc;
  };

  Set set(i64 score) { return space_->read_desc(static_cast<u64>(score)); }
  static Source source(const WfDesc& desc, Component c) {
    const u64 handle = c == Component::kM   ? desc.m_addr
                       : c == Component::kI ? desc.i_addr
                                            : desc.d_addr;
    return {handle, desc.lo, desc.hi};
  }
  static wfa::core::Extent extent(const Source& src) {
    return src.handle != 0 ? wfa::core::Extent{src.lo, src.hi}
                           : wfa::core::kNoExtent;
  }

  void begin_row(i64) { ctx_.account(costs_.score_step); }
  void null_row(i64 score) {
    space_->write_desc(static_cast<u64>(score), WfDesc{});
  }
  Out open_row(i64, i32 lo, i32 hi, bool with_i, bool with_d) {
    const usize width = static_cast<usize>(hi - lo + 1);
    Out out{win(kWOutM), win(kWOutI), win(kWOutD), WfDesc{}};
    out.desc.lo = lo;
    out.desc.hi = hi;
    out.desc.m_addr = space_->alloc_offsets(width);
    if (with_i) out.desc.i_addr = space_->alloc_offsets(width);
    if (with_d) out.desc.d_addr = space_->alloc_offsets(width);
    out.m.bind(out.desc.m_addr, lo, hi, true);
    if (with_i) out.i.bind(out.desc.i_addr, lo, hi, true);
    if (with_d) out.d.bind(out.desc.d_addr, lo, hi, true);
    return out;
  }
  void fill_row(Out& out, const wfa::core::Sources<Source>& src, i32 lo,
                i32 hi) {
    bind_source(kWSub, src.m_sub);
    bind_source(kWGapLo, src.m_gap);
    bind_source(kWGapHi, src.m_gap);
    bind_source(kWIExt, src.i_ext);
    bind_source(kWDExt, src.d_ext);
    wfa::core::recurrence_row(win(kWSub), win(kWGapLo), win(kWGapHi),
                              win(kWIExt), win(kWDExt), out.m, out.i, out.d,
                              lo, hi, plen_, tlen_);
    const u64 cell_cost =
        costs_.cell + (space_->in_wram() ? 0 : costs_.cell_mram_extra);
    ctx_.account(static_cast<u64>(hi - lo + 1) * cell_cost);
  }
  void close_row(i64 score, Out& out) {
    out.m.flush();
    out.i.flush();
    out.d.flush();
    space_->write_desc(static_cast<u64>(score), out.desc);
  }

  bool extend_row(i64 score, Row& row) {
    const WfDesc desc = set(score);
    if (!desc.exists()) return false;
    win(kWExt).bind(desc.m_addr, desc.lo, desc.hi, /*writable=*/true);
    row = Row{&win(kWExt), desc.lo, desc.hi};
    return true;
  }
  usize match_run(const char* a, const char* b, usize max) {
    const usize run = wfa::match_run_scalar(a, b, max);
    ctx_.account(costs_.extend_probe + run * costs_.extend_match);
    return run;
  }

  Offset offset(i64 score, Component c, i32 k) {
    const Source src = source(set(score), c);
    return space_->read_offset(src.handle, src.lo, src.hi, k);
  }
  void backtrace_step() { ctx_.account(costs_.backtrace_step); }
  // Ops land back to front in the WRAM CIGAR buffer.
  void emit(char op, usize n) {
    PIMWFA_HW_CHECK(n <= cigar_pos_, "CIGAR buffer overflow in DPU backtrace");
    cigar_pos_ -= n;
    std::memset(ctx_.wram_ptr(cigar_off_ + cigar_pos_, n), op, n);
    ctx_.account(n * costs_.cigar_byte);
  }

 private:
  // Window roles.
  enum : usize {
    kWSub = 0,     // M[s-x]
    kWGapLo = 1,   // M[s-o-e] probed at k-1
    kWGapHi = 2,   // M[s-o-e] probed at k+1
    kWIExt = 3,    // I[s-e] at k-1
    kWDExt = 4,    // D[s-e] at k+1
    kWOutM = 5,
    kWOutI = 6,
    kWOutD = 7,
    kWExt = 8,     // extension read-modify-write over M[s]
    kNumWindows = 9,
  };

  OffsetWindow& win(usize role) { return *windows_[role]; }

  void fetch_pair(u64 pair) {
    const u64 addr = hdr_.pairs_addr + pair * hdr_.pair_stride;
    ctx_.mram_read(addr, stage_off_, 8);
    u32 lens[2];
    std::memcpy(lens, ctx_.wram_ptr(stage_off_, 8), 8);
    // Tiled segments carry their seam components in the top length bits
    // (see layout.hpp); plain pairs decode to M/M.
    begin_ = decode_pair_comp(lens[0]);
    end_ = decode_pair_comp(lens[1]);
    plen_ = static_cast<i32>(lens[0] & kPairLenMask);
    tlen_ = static_cast<i32>(lens[1] & kPairLenMask);
    PIMWFA_HW_CHECK(static_cast<u32>(plen_) <= hdr_.max_pattern &&
                        static_cast<u32>(tlen_) <= hdr_.max_text,
                    "pair " << pair << " exceeds declared max lengths");
    if (hdr_.packed_sequences != 0) {
      fetch_packed(addr + 8, plen_, pattern_off_);
      fetch_packed(addr + 8 + field_pattern_pad_, tlen_, text_off_);
    } else {
      if (plen_ > 0) {
        ctx_.mram_read_large(addr + 8, pattern_off_,
                             round_up_pow2(static_cast<u64>(plen_), 8));
      }
      if (tlen_ > 0) {
        ctx_.mram_read_large(addr + 8 + field_pattern_pad_, text_off_,
                             round_up_pow2(static_cast<u64>(tlen_), 8));
      }
    }
    pattern_ = reinterpret_cast<const char*>(
        ctx_.wram_ptr(pattern_off_, pattern_pad_));
    text_ = reinterpret_cast<const char*>(ctx_.wram_ptr(text_off_, text_pad_));
  }

  // Packed-transfer mode: DMA the 2-bit field and unpack into the char
  // buffer (shift+mask+store per base on the DPU, ~3 instructions each).
  void fetch_packed(u64 field_addr, i32 bases, u64 char_buf_off) {
    if (bases <= 0) return;
    const u64 packed_bytes =
        round_up_pow2((static_cast<u64>(bases) + 3) / 4, 8);
    ctx_.mram_read_large(field_addr, packed_stage_off_, packed_bytes);
    const u8* packed = ctx_.wram_ptr(packed_stage_off_, packed_bytes);
    char* out = reinterpret_cast<char*>(
        ctx_.wram_ptr(char_buf_off, static_cast<usize>(bases)));
    for (i32 i = 0; i < bases; ++i) {
      out[i] = seq::decode_base(
          static_cast<u8>((packed[i >> 2] >> ((i & 3) * 2)) & 3u));
    }
    ctx_.account(static_cast<u64>(bases) * 3);
  }

  wfa::core::Problem problem() const {
    return {pattern_, text_, plen_, tlen_, hdr_.mismatch,
            hdr_.gap_open + hdr_.gap_extend, hdr_.gap_extend};
  }

  void bind_source(usize role, const Source& src) {
    win(role).bind(src.handle, src.lo, src.hi, false);
  }

  void align_pair(u64 pair) {
    ctx_.account(costs_.per_pair);
    fetch_pair(pair);
    space_->reset();

    u64 score = 0;
    usize cigar_len = 0;

    if (plen_ == 0 || tlen_ == 0) {
      score = static_cast<u64>(wfa::core::gap_run_score(
          hdr_.gap_open, hdr_.gap_extend, begin_, static_cast<usize>(plen_),
          static_cast<usize>(tlen_)));
      if (hdr_.full_alignment != 0) {
        u8* cigar = ctx_.wram_ptr(cigar_off_, cigar_cap_);
        for (i32 i = 0; i < tlen_; ++i) cigar[cigar_len++] = 'I';
        for (i32 i = 0; i < plen_; ++i) cigar[cigar_len++] = 'D';
        ctx_.account(cigar_len * costs_.cigar_byte);
      }
    } else {
      const wfa::core::Problem p = problem();
      bool done = wfa::core::start(*this, p, begin_, end_);
      while (!done) {
        ++score;
        PIMWFA_HW_CHECK(score <= hdr_.max_score,
                        "WFA exceeded batch score cap " << hdr_.max_score);
        done = wfa::core::step(*this, p, static_cast<i64>(score), end_);
      }
      if (hdr_.full_alignment != 0) {
        cigar_pos_ = static_cast<usize>(cigar_cap_);
        wfa::core::backtrace(*this, p, static_cast<i64>(score), begin_, end_);
        // Compact the ops to the buffer start for an aligned DMA out.
        cigar_len = static_cast<usize>(cigar_cap_) - cigar_pos_;
        u8* cigar = ctx_.wram_ptr(cigar_off_, cigar_cap_);
        std::memmove(cigar, cigar + cigar_pos_, cigar_len);
        ctx_.account(cigar_len * 2);
      }
    }

    // Result record: [score, cigar_len] then the ops.
    const u64 result_addr = hdr_.results_addr + pair * hdr_.result_stride;
    u32 head[2] = {static_cast<u32>(score), static_cast<u32>(cigar_len)};
    std::memcpy(ctx_.wram_ptr(stage_off_, 8), head, 8);
    ctx_.mram_write(stage_off_, result_addr, 8);
    if (hdr_.full_alignment != 0 && cigar_len > 0) {
      ctx_.mram_write_large(cigar_off_, result_addr + 8,
                            round_up_pow2(cigar_len, 8));
    }
  }

  upmem::TaskletCtx& ctx_;
  KernelCosts costs_;
  BatchHeader hdr_{};
  u64 pattern_off_ = 0;
  u64 text_off_ = 0;
  u64 stage_off_ = 0;
  u64 cigar_off_ = 0;
  u64 pattern_pad_ = 0;
  u64 text_pad_ = 0;
  u64 field_pattern_pad_ = 0;
  u64 field_text_pad_ = 0;
  u64 packed_stage_off_ = 0;
  u64 cigar_cap_ = 0;
  i32 plen_ = 0;
  i32 tlen_ = 0;
  usize cigar_pos_ = 0;  // first op of the backtrace in the CIGAR buffer
  Component begin_ = Component::kM;  // seam components of the pair
  Component end_ = Component::kM;
  const char* pattern_ = nullptr;
  const char* text_ = nullptr;
  std::optional<MetaSpace> space_;
  std::optional<OffsetWindow> windows_[kNumWindows];
};

}  // namespace

void WfaDpuKernel::run(upmem::TaskletCtx& ctx) {
  Engine engine(ctx, costs_);
  engine.run_pairs(first_pair_, pair_count_);
}

}  // namespace pimwfa::pim
