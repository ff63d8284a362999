#include "map/index.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"
#include "seq/alphabet.hpp"

namespace pimwfa::map {

KmerIndex::KmerIndex(std::string_view reference, usize k) : k_(k) {
  PIMWFA_ARG_CHECK(k >= kMinK && k <= kMaxK,
                   "seed length k=" << k << " outside [" << kMinK << ", "
                                    << kMaxK << "]");
  PIMWFA_ARG_CHECK(reference.size() <= u64{0xFFFFFFFF},
                   "reference of " << reference.size()
                                   << " bases exceeds 32-bit positions");
  struct Window {
    u64 code;
    u32 position;
  };
  std::vector<Window> windows;
  const usize n = reference.size();
  if (n >= k) windows.reserve(n - k + 1);
  // Rolling 2-bit code over the current run of valid bases; an invalid
  // base resets the run, so windows overlapping it are never indexed.
  const u64 mask = (u64{1} << (2 * k)) - 1;
  u64 code = 0;
  usize run = 0;
  for (usize i = 0; i < n; ++i) {
    const u8 base = seq::encode_base(reference[i]);
    if (base == seq::kInvalidCode) {
      run = 0;
      code = 0;
      continue;
    }
    code = ((code << 2) | base) & mask;
    if (++run >= k) windows.push_back({code, static_cast<u32>(i + 1 - k)});
  }
  skipped_ = n >= k ? (n - k + 1) - windows.size() : 0;

  // Buckets on the codes' top bits, about four windows each: a stable
  // counting sort into them keeps positions ascending within a code.
  const u32 code_bits = static_cast<u32>(2 * k);
  const u32 bucket_bits = std::min<u32>(
      code_bits, static_cast<u32>(std::max<int>(
                     0, std::bit_width(windows.size()) - 2)));
  bucket_shift_ = code_bits - bucket_bits;
  directory_.assign((usize{1} << bucket_bits) + 1, 0);
  for (const Window& w : windows) ++directory_[(w.code >> bucket_shift_) + 1];
  for (usize b = 1; b < directory_.size(); ++b) {
    directory_[b] += directory_[b - 1];
  }
  std::vector<Window> sorted(windows.size());
  {
    std::vector<u32> next(directory_.begin(), directory_.end() - 1);
    for (const Window& w : windows) sorted[next[w.code >> bucket_shift_]++] = w;
  }
  windows = {};
  auto by_code = [](const Window& a, const Window& b) {
    return a.code < b.code || (a.code == b.code && a.position < b.position);
  };
  for (usize b = 0; b + 1 < directory_.size(); ++b) {
    const auto first = sorted.begin() + directory_[b];
    const auto last = sorted.begin() + directory_[b + 1];
    if (last - first > 1) std::sort(first, last, by_code);
  }

  codes_.resize(sorted.size());
  positions_.resize(sorted.size());
  for (usize i = 0; i < sorted.size(); ++i) {
    codes_[i] = sorted[i].code;
    positions_[i] = sorted[i].position;
    distinct_ += static_cast<usize>(i == 0 || codes_[i] != codes_[i - 1]);
  }
}

bool KmerIndex::kmer_code(std::string_view kmer, u64& code) const {
  PIMWFA_ARG_CHECK(kmer.size() == k_, "kmer_code: length " << kmer.size()
                                                           << " != k " << k_);
  u64 rolling = 0;
  for (const char c : kmer) {
    const u8 base = seq::encode_base(c);
    if (base == seq::kInvalidCode) return false;
    rolling = (rolling << 2) | base;
  }
  code = rolling;
  return true;
}

std::span<const u32> KmerIndex::lookup(std::string_view kmer) const {
  u64 code = 0;
  if (!kmer_code(kmer, code)) return {};
  return lookup_code(code);
}

std::span<const u32> KmerIndex::lookup_code(u64 code) const {
  const u64 bucket = code >> bucket_shift_;
  if (bucket + 1 >= directory_.size()) return {};
  const auto first = codes_.begin() + directory_[bucket];
  const auto last = codes_.begin() + directory_[bucket + 1];
  const auto [lo, hi] = std::equal_range(first, last, code);
  return {positions_.data() + (lo - codes_.begin()),
          static_cast<usize>(hi - lo)};
}

}  // namespace pimwfa::map
