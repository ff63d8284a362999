// The WFA DPU kernel - the PIM port of the wavefront algorithm described
// in the paper.
//
// Each tasklet independently processes pairs me(), me()+T, me()+2T, ... of
// its DPU's batch (no inter-tasklet synchronization, as in the paper):
//   1. DMA the read pair from MRAM into WRAM buffers,
//   2. run gap-affine WFA with all wavefront metadata managed by MetaSpace
//      (MRAM-resident + staged on demand, or WRAM-resident, per policy),
//   3. write score (and CIGAR, in full-alignment batches) back to MRAM.
//
// The algorithm (recurrences, trimming, termination, backtrace
// tie-breaking) is wfa::WfaAligner's own: both run the one gap-affine core
// in wfa/wfa_core.hpp - the paper applies "no optimizations compared to
// the original WFA implementation" - so host and DPU results are
// bit-identical. The kernel only supplies the storage (MetaSpace) and the
// per-operation instruction costs (KernelCosts).
#pragma once

#include "pim/cost_table.hpp"
#include "pim/layout.hpp"
#include "pim/meta_space.hpp"
#include "upmem/kernel.hpp"

namespace pimwfa::pim {

class WfaDpuKernel final : public upmem::DpuKernel {
 public:
  explicit WfaDpuKernel(const KernelCosts& costs = kDefaultKernelCosts)
      : costs_(costs) {}

  // Slice launch (pipelined mode): align only pairs
  // [first_pair, first_pair + pair_count) of the MRAM batch. On hardware
  // the bounds travel as kernel launch arguments (a small host->WRAM copy
  // the host accounts per launch); the batch in MRAM is untouched, so a
  // sliced sequence of launches is bit-identical to one full launch.
  WfaDpuKernel(const KernelCosts& costs, u64 first_pair, u64 pair_count)
      : costs_(costs), first_pair_(first_pair), pair_count_(pair_count) {}

  // Modeled bytes of the per-launch argument block (slice bounds).
  static constexpr u64 kLaunchArgBytes = 16;

  void run(upmem::TaskletCtx& ctx) override;

 private:
  KernelCosts costs_;
  u64 first_pair_ = 0;
  u64 pair_count_ = ~u64{0};  // default: the whole batch
};

}  // namespace pimwfa::pim
