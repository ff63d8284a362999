// Exact k-mer index over a reference sequence: the seeding stage of the
// read mapper.
//
// Every length-k window of the reference is 2-bit encoded into a u64.
// Windows containing any non-ACGT base (N runs, IUPAC ambiguity codes)
// are *skipped*, never indexed: OR-ing seq::encode_base's 0xff invalid-
// code sentinel into a 2-bit rolling code floods the low byte and
// collides distinct k-mers - the historical read_mapper bug this index
// replaces. The build is a single rolling pass (each invalid base resets
// the valid-run length, so an N-dense reference indexes in O(length)
// regardless of how the runs are placed), then one stable counting sort
// on the codes' top bits and a sort inside each of those buckets.
//
// The index is flat: one position array sorted by k-mer code (positions
// ascending within a code) beside the sorted codes, plus a directory of
// bucket starts. A lookup binary-searches its code's bucket and returns
// a view of the matching positions. The same path serves every k.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace pimwfa::map {

class KmerIndex {
 public:
  // Smallest/largest supported seed length: 2 bits per base must fit a
  // u64 with room for every code to be distinct (k <= 31 keeps the top
  // bits clear so no masking subtleties arise at k == 32).
  static constexpr usize kMinK = 4;
  static constexpr usize kMaxK = 31;

  // Indexes every valid k-mer of `reference`. The reference is *not*
  // retained; positions refer into the caller's string. Throws
  // InvalidArgument for k outside [kMinK, kMaxK].
  KmerIndex(std::string_view reference, usize k);

  // 2-bit code of `kmer` (whose size must be k()). Returns false - and
  // leaves `code` untouched - when any base is invalid; an invalid base
  // must never reach the index.
  bool kmer_code(std::string_view kmer, u64& code) const;

  // Reference start positions, ascending, whose k-mer equals `kmer`
  // (empty for unseen k-mers and for k-mers containing invalid bases).
  // The view lives as long as the index.
  std::span<const u32> lookup(std::string_view kmer) const;
  std::span<const u32> lookup_code(u64 code) const;

  usize k() const noexcept { return k_; }
  usize distinct_kmers() const noexcept { return distinct_; }
  // Windows indexed / skipped because they contained an invalid base.
  usize indexed_positions() const noexcept { return positions_.size(); }
  usize skipped_positions() const noexcept { return skipped_; }

 private:
  usize k_;
  u32 bucket_shift_ = 0;     // code >> bucket_shift_ is its bucket
  std::vector<u64> codes_;   // code of every indexed window, ascending
  std::vector<u32> positions_;  // positions_[i] holds codes_[i]
  // Bucket b's windows are [directory_[b], directory_[b + 1]).
  std::vector<u32> directory_;
  usize distinct_ = 0;
  usize skipped_ = 0;
};

}  // namespace pimwfa::map
