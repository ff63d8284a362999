#include "upmem/mram.hpp"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>
#include <system_error>

#include "common/check.hpp"

namespace pimwfa::upmem {

Mram::Mram(u64 capacity_bytes) : capacity_(capacity_bytes) {
  PIMWFA_ARG_CHECK(capacity_bytes > 0, "MRAM capacity must be positive");
  // MAP_NORESERVE: the bank is mostly never written, so charge commit only
  // for the pages that are.
  void* base =
      ::mmap(nullptr, static_cast<usize>(capacity_), PROT_READ | PROT_WRITE,
             MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  const int err = errno;
  PIMWFA_CHECK(base != MAP_FAILED,
               "cannot map " << capacity_ << " bytes of simulated MRAM: "
                             << std::generic_category().message(err));
  store_ = static_cast<u8*>(base);
}

Mram::~Mram() { ::munmap(store_, static_cast<usize>(capacity_)); }

void Mram::check_range(u64 addr, usize bytes) const {
  PIMWFA_HW_CHECK(addr <= capacity_ && bytes <= capacity_ - addr,
                  "MRAM access [" << addr << ", " << addr + bytes
                                  << ") exceeds capacity " << capacity_);
}

void Mram::read(u64 addr, void* dst, usize bytes) const {
  check_range(addr, bytes);
  if (bytes == 0) return;
  std::memcpy(dst, store_ + addr, bytes);
}

void Mram::write(u64 addr, const void* src, usize bytes) {
  check_range(addr, bytes);
  if (bytes == 0) return;
  std::memcpy(store_ + addr, src, bytes);
  const u64 end = addr + bytes;
  u64 seen = touched_.load(std::memory_order_relaxed);
  while (seen < end) {
    if (touched_.compare_exchange_weak(seen, end, std::memory_order_relaxed)) {
      break;
    }
  }
}

}  // namespace pimwfa::upmem
