#include "upmem/system.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace pimwfa::upmem {

PimSystem::PimSystem(SystemConfig config, usize simulated_dpus)
    : config_(config), cost_model_(config_) {
  config_.validate();
  const usize logical = config_.nr_dpus();
  usize count = simulated_dpus == 0 ? logical : simulated_dpus;
  PIMWFA_ARG_CHECK(count <= logical,
                   "cannot simulate more DPUs than the system has");
  dpus_.reserve(count);
  for (usize i = 0; i < count; ++i) {
    dpus_.push_back(std::make_unique<Dpu>(config_, i));
  }
  touched_.assign(count, 0);
}

usize PimSystem::ranks_in_use() const noexcept {
  // Transfers to a uniformly loaded system involve every rank whose DPUs
  // hold data; with contiguous assignment that is ceil(logical / per-rank).
  return config_.nr_ranks();
}

usize PimSystem::ranks_spanned(usize first_dpu, usize count) const noexcept {
  if (count == 0) return 0;
  const usize per_rank = config_.dpus_per_rank;
  const usize first_rank = first_dpu / per_rank;
  const usize last_rank = (first_dpu + count - 1) / per_rank;
  return last_rank - first_rank + 1;
}

void PimSystem::copy_to_mram(usize dpu, u64 addr, std::span<const u8> data) {
  dpus_.at(dpu)->mram().write(addr, data.data(), data.size());
  MutexLock lock(stats_mutex_);
  to_device_.bytes += data.size();
  if (!touched_[dpu]) {
    touched_[dpu] = 1;
    ++to_device_.dpus_touched;
  }
}

void PimSystem::copy_from_mram(usize dpu, u64 addr, std::span<u8> out) const {
  dpus_.at(dpu)->mram().read(addr, out.data(), out.size());
  MutexLock lock(stats_mutex_);
  from_device_.bytes += out.size();
}

void PimSystem::reset_transfer_stats() {
  MutexLock lock(stats_mutex_);
  to_device_ = TransferStats{};
  from_device_ = TransferStats{};
  std::fill(touched_.begin(), touched_.end(), 0);
}

void PimSystem::account_to_device(u64 bytes) {
  MutexLock lock(stats_mutex_);
  to_device_.bytes += bytes;
}

void PimSystem::account_from_device(u64 bytes) {
  MutexLock lock(stats_mutex_);
  from_device_.bytes += bytes;
}

TransferStats PimSystem::to_device() const {
  MutexLock lock(stats_mutex_);
  return to_device_;
}

TransferStats PimSystem::from_device() const {
  MutexLock lock(stats_mutex_);
  return from_device_;
}

LaunchStats PimSystem::launch_group(
    usize first, usize count,
    const std::function<std::unique_ptr<DpuKernel>(usize)>& factory,
    usize nr_tasklets, ThreadPool* pool, std::vector<u64>* per_dpu_cycles) {
  PIMWFA_ARG_CHECK(first <= dpus_.size() && count <= dpus_.size() - first,
                   "launch group [" << first << ", " << first + count
                                    << ") exceeds the " << dpus_.size()
                                    << " simulated DPUs");
  LaunchStats stats;
  stats.dpus = count;
  if (per_dpu_cycles != nullptr) per_dpu_cycles->assign(count, 0);
  Mutex merge_mutex;
  auto run_range = [&](usize begin, usize end) {
    u64 local_max = 0;
    u64 local_total = 0;
    TaskletStats local_combined;
    for (usize d = first + begin; d < first + end; ++d) {
      std::unique_ptr<DpuKernel> kernel = factory(d);
      PIMWFA_CHECK(kernel != nullptr, "kernel factory returned null");
      const DpuRunStats run = dpus_[d]->launch(*kernel, nr_tasklets);
      if (per_dpu_cycles != nullptr) (*per_dpu_cycles)[d - first] = run.cycles;
      local_max = std::max(local_max, run.cycles);
      local_total += run.cycles;
      local_combined.merge(run.combined());
    }
    MutexLock lock(merge_mutex);
    stats.max_cycles = std::max(stats.max_cycles, local_max);
    stats.total_cycles += local_total;
    stats.combined.merge(local_combined);
  };
  if (pool != nullptr) {
    pool->parallel_for(count, run_range);
  } else {
    run_range(0, count);
  }
  return stats;
}

double PimSystem::scatter_seconds() const {
  return cost_model_.transfer_seconds(to_device().bytes, ranks_in_use());
}

double PimSystem::gather_seconds() const {
  return cost_model_.transfer_seconds(from_device().bytes, ranks_in_use());
}

}  // namespace pimwfa::upmem
