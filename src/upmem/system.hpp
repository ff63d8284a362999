// PimSystem: a set of simulated DPUs plus the host-side transfer and
// launch machinery, with the timing breakdown of the paper's Fig. 1
// (scatter -> kernel -> gather; "Total" includes transfers, "Kernel" does
// not).
//
// The transfer and launch entry points are stage-granular and thread-safe
// so the pipelined host path can run scatter(i+1), kernel(i) and
// gather(i-1) concurrently: byte accounting is mutex-guarded, launches can
// target a DPU subrange, and concurrent stages are safe as long as they
// touch disjoint MRAM byte ranges.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/thread_safety.hpp"
#include "upmem/cost_model.hpp"
#include "upmem/dpu.hpp"

namespace pimwfa::upmem {

// Accumulated host<->DPU traffic of one experiment phase.
struct TransferStats {
  u64 bytes = 0;
  usize dpus_touched = 0;

  // Modeled wall time, given how many ranks participate.
  double seconds(const CostModel& model, usize ranks) const {
    return model.transfer_seconds(bytes, ranks);
  }
};

// Result of launching a kernel across a DPU group.
struct LaunchStats {
  u64 max_cycles = 0;     // slowest DPU (kernel wall time)
  u64 total_cycles = 0;   // sum over DPUs (energy-proportional work)
  usize dpus = 0;
  TaskletStats combined;  // summed over all DPUs/tasklets

  double kernel_seconds(const SystemConfig& config) const {
    return config.cycles_to_seconds(max_cycles) + config.host_launch_overhead_s;
  }
};

class PimSystem {
 public:
  // Instantiates `simulated_dpus` of the configured system (0 = all).
  // Simulating a subset is how full-scale (2560-DPU) experiments stay
  // tractable: with a uniformly distributed workload, per-DPU behaviour is
  // homogeneous and the slowest simulated DPU stands in for the slowest
  // overall (see EXPERIMENTS.md).
  explicit PimSystem(SystemConfig config, usize simulated_dpus = 0);

  const SystemConfig& config() const noexcept { return config_; }
  const CostModel& cost_model() const noexcept { return cost_model_; }

  usize nr_dpus() const noexcept { return dpus_.size(); }  // simulated
  usize logical_dpus() const noexcept { return config_.nr_dpus(); }
  usize ranks_in_use() const noexcept;

  // Ranks a contiguous range of `count` logical DPUs starting at
  // `first_dpu` spans; transfers to that range proceed at this many
  // ranks' parallelism. The pipelined path slices every DPU, so it passes
  // the full logical range; DPU-subset transfers would pass their group.
  usize ranks_spanned(usize first_dpu, usize count) const noexcept;

  Dpu& dpu(usize index) { return *dpus_.at(index); }
  const Dpu& dpu(usize index) const { return *dpus_.at(index); }

  // --- host<->MRAM transfers (byte-accounted, thread-safe) -------------
  void copy_to_mram(usize dpu, u64 addr, std::span<const u8> data)
      PIMWFA_EXCLUDES(stats_mutex_);
  void copy_from_mram(usize dpu, u64 addr, std::span<u8> out) const
      PIMWFA_EXCLUDES(stats_mutex_);

  // Traffic recorded since the last reset_transfer_stats(), split by
  // direction. Read these only while no transfer stage is in flight.
  TransferStats to_device() const PIMWFA_EXCLUDES(stats_mutex_);
  TransferStats from_device() const PIMWFA_EXCLUDES(stats_mutex_);
  void reset_transfer_stats() PIMWFA_EXCLUDES(stats_mutex_);

  // Record traffic without materializing it (used when only a subset of a
  // uniform workload is functionally simulated; the remaining bytes still
  // cross the bus in the timing model).
  void account_to_device(u64 bytes) PIMWFA_EXCLUDES(stats_mutex_);
  void account_from_device(u64 bytes) PIMWFA_EXCLUDES(stats_mutex_);

  // --- launch ----------------------------------------------------------
  // Launch one kernel instance per simulated DPU in [first, first+count).
  // `factory(dpu_index)` builds the per-DPU kernel object. Runs on `pool`
  // if given. Thread-safe against concurrent transfer stages targeting
  // other MRAM regions. When `per_dpu_cycles` is given it is resized to
  // `count` and filled with each DPU's kernel cycles (the async-launch
  // pipeline model consumes them).
  LaunchStats launch_group(
      usize first, usize count,
      const std::function<std::unique_ptr<DpuKernel>(usize)>& factory,
      usize nr_tasklets, ThreadPool* pool = nullptr,
      std::vector<u64>* per_dpu_cycles = nullptr);

  // Launch across every simulated DPU.
  LaunchStats launch_all(
      const std::function<std::unique_ptr<DpuKernel>(usize)>& factory,
      usize nr_tasklets, ThreadPool* pool = nullptr) {
    return launch_group(0, dpus_.size(), factory, nr_tasklets, pool);
  }

  // Convenience timing queries for the Fig. 1 breakdown.
  double scatter_seconds() const;
  double gather_seconds() const;

 private:
  SystemConfig config_;
  CostModel cost_model_;
  // The DPU objects themselves are not guarded: concurrent stages touch
  // disjoint MRAM byte ranges, and launches of one DPU never overlap its
  // transfers (the pipeline schedule sequences them).
  std::vector<std::unique_ptr<Dpu>> dpus_;
  mutable Mutex stats_mutex_;
  mutable TransferStats to_device_ PIMWFA_GUARDED_BY(stats_mutex_);
  mutable TransferStats from_device_ PIMWFA_GUARDED_BY(stats_mutex_);
  // Per-DPU traffic flags (dpus_touched accounting).
  mutable std::vector<u8> touched_ PIMWFA_GUARDED_BY(stats_mutex_);
};

}  // namespace pimwfa::upmem
