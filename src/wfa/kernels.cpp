#include "wfa/kernels.hpp"

#include "wfa/wfa_core.hpp"

namespace pimwfa::wfa {

void compute_row_scalar(const ComputeRowArgs& args) {
  struct Source {
    const Wavefront* w;
    Offset get(i32 k) const { return w != nullptr ? w->at(k) : kOffsetNone; }
  };
  Source m_sub{args.m_sub}, m_gap{args.m_gap}, i_ext{args.i_ext},
      d_ext{args.d_ext};
  core::recurrence_row(m_sub, m_gap, m_gap, i_ext, d_ext, *args.out_m,
                       *args.out_i, *args.out_d, args.lo, args.hi, args.pl,
                       args.tl);
}

const WfaKernels& scalar_kernels() {
  static constexpr WfaKernels kernels{&match_run_scalar, &compute_row_scalar};
  return kernels;
}

}  // namespace pimwfa::wfa
