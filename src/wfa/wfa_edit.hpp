// Edit-distance wavefront aligner: the unit-cost specialization of WFA
// (equivalently the Myers 1986 / Landau-Vishkin O(nd) diagonal algorithm).
// One M component per distance d:
//
//   M[d][k] = max(M[d-1][k-1] + 1,   // insertion (consumes text)
//                 M[d-1][k]   + 1,   // substitution
//                 M[d-1][k+1])       // deletion (consumes pattern)
//
// followed by free match extension. Serves as the "other alignment
// algorithm" comparison point the PIM paper's future work names, and as an
// independent cross-check of the Levenshtein baselines.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "align/aligner.hpp"
#include "seq/cigar.hpp"
#include "wfa/allocator.hpp"
#include "wfa/wavefront.hpp"

namespace pimwfa::wfa {

class EditWfaAligner final : public align::PairAligner {
 public:
  explicit EditWfaAligner(WavefrontAllocator* allocator = nullptr);

  // Penalties are fixed at unit costs; the score is the edit distance.
  align::AlignmentResult align(std::string_view pattern, std::string_view text,
                               align::AlignmentScope scope) override;

  std::string name() const override { return "wfa-edit"; }

  const WfaCounters& counters() const noexcept { return counters_; }
  void reset_counters() noexcept { counters_.reset(); }

 private:
  Wavefront new_wavefront(i32 lo, i32 hi);
  bool extend_and_check(Wavefront& m, std::string_view pattern,
                        std::string_view text);
  seq::Cigar backtrace(i64 distance, std::string_view pattern,
                       std::string_view text);

  std::unique_ptr<SlabAllocator> owned_allocator_;
  WavefrontAllocator* allocator_;
  std::vector<Wavefront> fronts_;  // indexed by distance
  seq::CigarBuilder cigar_builder_;  // backtrace op buffer, reused
  WfaCounters counters_;
};

}  // namespace pimwfa::wfa
