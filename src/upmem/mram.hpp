// Simulated MRAM: the 64 MB DRAM bank private to one DPU.
//
// Byte-addressable from the host side and via the DPU's DMA engine.
// Backed by one anonymous, lazily zero-filled mapping of the bank's full
// capacity: the host kernel materializes only the pages actually written,
// so host memory is proportional to the pages touched (not to the highest
// address), and untouched addresses read as zero. The store never moves,
// so concurrent accesses are safe as long as they touch disjoint byte
// ranges. Out-of-bounds accesses throw HardwareFault.
#pragma once

#include <atomic>

#include "common/types.hpp"

namespace pimwfa::upmem {

class Mram {
 public:
  explicit Mram(u64 capacity_bytes);
  ~Mram();
  // Owns its mapping: a copy would alias it and unmap it twice.
  Mram(const Mram&) = delete;
  Mram& operator=(const Mram&) = delete;

  u64 capacity() const noexcept { return capacity_; }
  // High-water mark of written bytes: the end of the highest write so far.
  u64 touched() const noexcept {
    return touched_.load(std::memory_order_relaxed);
  }

  void read(u64 addr, void* dst, usize bytes) const;
  void write(u64 addr, const void* src, usize bytes);

  template <typename T>
  T read_pod(u64 addr) const {
    T value{};
    read(addr, &value, sizeof(T));
    return value;
  }

  template <typename T>
  void write_pod(u64 addr, const T& value) {
    write(addr, &value, sizeof(T));
  }

 private:
  void check_range(u64 addr, usize bytes) const;

  u64 capacity_;
  u8* store_ = nullptr;  // capacity_ bytes, zero until written
  std::atomic<u64> touched_{0};
};

}  // namespace pimwfa::upmem
