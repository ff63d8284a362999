#include "pim/layout.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/check.hpp"

namespace pimwfa::pim {

BatchLayout BatchLayout::plan(const Params& params, u64 mram_bytes) {
  PIMWFA_ARG_CHECK(params.nr_tasklets >= 1, "need at least one tasklet");
  params.penalties.validate();

  BatchLayout layout;
  BatchHeader& h = layout.header_;
  h.nr_pairs = static_cast<u32>(params.nr_pairs);
  h.nr_tasklets = static_cast<u32>(params.nr_tasklets);
  h.max_pattern = static_cast<u32>(params.max_pattern);
  h.max_text = static_cast<u32>(params.max_text);
  h.mismatch = params.penalties.mismatch;
  h.gap_open = params.penalties.gap_open;
  h.gap_extend = params.penalties.gap_extend;
  h.full_alignment = params.full_alignment ? 1 : 0;
  h.policy = static_cast<u32>(params.policy);
  h.text_ends_free = params.text_ends_free;
  h.max_score =
      params.max_score != 0
          ? params.max_score
          : static_cast<u64>(align::worst_case_score(
                params.penalties, params.max_pattern, params.max_text));

  h.packed_sequences = params.packed_sequences ? 1 : 0;
  const usize pattern_raw = params.packed_sequences
                                ? (params.max_pattern + 3) / 4
                                : params.max_pattern;
  const usize text_raw =
      params.packed_sequences ? (params.max_text + 3) / 4 : params.max_text;
  layout.pattern_pad_ = static_cast<usize>(round_up_pow2(pattern_raw, 8));
  layout.text_pad_ = static_cast<usize>(round_up_pow2(text_raw, 8));
  layout.cigar_pad_ =
      params.full_alignment
          ? static_cast<usize>(
                round_up_pow2(params.max_pattern + params.max_text, 8))
          : 0;

  h.pairs_addr = sizeof(BatchHeader);
  h.pair_stride = 8 + layout.pattern_pad_ + layout.text_pad_;
  h.results_addr = h.pairs_addr + h.nr_pairs * h.pair_stride;
  h.result_stride =
      result_head_bytes(params.text_ends_free != 0) + layout.cigar_pad_;

  // A single pair's records must fit with room for the header and at
  // least a minimal arena - otherwise no distribution can place the pair,
  // and the caller needs tiling, not a smaller batch.
  const u64 per_pair_bytes = h.pair_stride + h.result_stride;
  PIMWFA_CHECK(
      sizeof(BatchHeader) + per_pair_bytes < mram_bytes,
      "one pair's MRAM records alone ("
          << per_pair_bytes << " bytes for max lengths " << params.max_pattern
          << "/" << params.max_text << ") exceed the " << mram_bytes
          << "-byte MRAM budget; pairs this long need cross-DPU tiling "
             "(pim/tiling.hpp)");
  const u64 scratch_begin =
      round_up_pow2(h.results_addr + h.nr_pairs * h.result_stride, 8);
  PIMWFA_CHECK(scratch_begin < mram_bytes,
               "batch data ("
                   << scratch_begin << " bytes for " << h.nr_pairs
                   << " pairs) exceeds the " << mram_bytes
                   << "-byte MRAM budget; shrink the per-DPU batch or tile "
                      "long pairs (pim/tiling.hpp)");

  if (params.policy == MetadataPolicy::kMram) {
    // Split the remaining MRAM evenly into per-tasklet metadata arenas.
    const u64 remaining = mram_bytes - scratch_begin;
    const u64 stride = round_down_pow2(remaining / params.nr_tasklets, 8);
    const u64 desc_bytes = (h.max_score + 1) * sizeof(WfDesc);
    PIMWFA_CHECK(stride > desc_bytes + 4096,
                 "per-tasklet MRAM arena too small: " << stride
                     << " bytes for a descriptor table of " << desc_bytes);
    h.scratch_addr = scratch_begin;
    h.scratch_stride = stride;
    layout.end_ = scratch_begin + stride * params.nr_tasklets;
  } else {
    // WRAM policy: metadata lives in WRAM; no MRAM arenas.
    h.scratch_addr = scratch_begin;
    h.scratch_stride = 0;
    layout.end_ = scratch_begin;
  }
  return layout;
}

}  // namespace pimwfa::pim
