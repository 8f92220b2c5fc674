#pragma once
// Generic stencil engine: execute any rt::core::StencilDesc.  This is the
// library's "apply what the planner planned" path for user-defined
// stencils (see examples/custom_stencil.cpp): one nest over a half-open
// box, which the block driver rt::simd::for_each_block runs on a plan's
// tiles like every other stencil.  The paper's stencils have their own
// nests (term tables in rt/core/stencil_terms.hpp) for the exact operation
// order and for performance.

#include <algorithm>

#include "rt/core/stencil_desc.hpp"

namespace rt::kernels {

/// out(i,j,k) = sum_q w_q * in(i+di_q, j+dj_q, k+dk_q), summed in point
/// order, over the half-open box [i0, i1) x [j0, j1) x [k0, k1) clipped to
/// the points the stencil's own reach r allows (r <= index < n - r per
/// dimension, r the largest |offset| there), K outermost.
template <class Dst, class Src>
void apply_stencil(Dst& out, Src& in, const rt::core::StencilDesc& d, long i0,
                   long i1, long j0, long j1, long k0, long k1) {
  long r1 = 0, r2 = 0, r3 = 0;
  for (const auto& p : d.points) {
    r1 = std::max({r1, long{p.di}, -long{p.di}});
    r2 = std::max({r2, long{p.dj}, -long{p.dj}});
    r3 = std::max({r3, long{p.dk}, -long{p.dk}});
  }
  i1 = std::min(i1, out.n1() - r1);
  j1 = std::min(j1, out.n2() - r2);
  k1 = std::min(k1, out.n3() - r3);
  for (long k = std::max(k0, r3); k < k1; ++k) {
    for (long j = std::max(j0, r2); j < j1; ++j) {
      for (long i = std::max(i0, r1); i < i1; ++i) {
        double acc = 0.0;
        for (const auto& p : d.points) {
          acc += p.w * in.load(i + p.di, j + p.dj, k + p.dk);
        }
        out.store(i, j, k, acc);
      }
    }
  }
}

/// The whole grid, clipped to the stencil's reach: the serial reference.
template <class Dst, class Src>
void apply_stencil(Dst& out, Src& in, const rt::core::StencilDesc& d) {
  apply_stencil(out, in, d, 0, out.n1(), 0, out.n2(), 0, out.n3());
}

}  // namespace rt::kernels
