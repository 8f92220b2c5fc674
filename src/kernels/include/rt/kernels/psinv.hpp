#pragma once
// PSINV: the NAS MG / SPEC mgrid smoother u += S r, a 27-point gather with
// coefficients grouped by neighbour class like RESID (rt/kernels/resid.hpp).
// One nest over a half-open box; schedules are that nest run on the work
// items of rt::simd::for_each_block.  The smoother itself is the 27-point
// term table's (rt/core/stencil_terms.hpp).

#include <array>

#include "rt/core/stencil_terms.hpp"

namespace rt::kernels {

namespace terms = rt::core::terms;

/// Smoother coefficients: c[0] centre, c[1] faces, c[2] edges, c[3] corners.
using SmootherCoeffs = std::array<double, 4>;

/// NAS MG class-A/B smoother: (-3/8, 1/32, -1/64, 0).
inline SmootherCoeffs nas_mg_c() {
  return SmootherCoeffs{-3.0 / 8.0, 1.0 / 32.0, -1.0 / 64.0, 0.0};
}

/// u += S r over the half-open box [i1lo, i1hi) x [i2lo, i2hi) x
/// [i3lo, i3hi), I3 outermost.  A pure gather from r, so the order of
/// boxes cannot change an update.  With c[3] == 0 the corner term is left
/// out of the combine (its sum is still read): the term tables'
/// zero-coefficient rule, chosen once per call.
template <class U, class R>
void psinv(U& u, R& r, const SmootherCoeffs& c, long i1lo, long i1hi,
           long i2lo, long i2hi, long i3lo, long i3hi) {
  terms::with_full(terms::psinv_full(c), [&](auto full) {
    for (long i3 = i3lo; i3 < i3hi; ++i3) {
      for (long i2 = i2lo; i2 < i2hi; ++i2) {
        for (long i1 = i1lo; i1 < i1hi; ++i1) {
          u.store(i1, i2, i3,
                  terms::psinv<full>(terms::point_reader(r, i1, i2, i3),
                                     terms::point_reader(u, i1, i2, i3), c));
        }
      }
    }
  });
}

/// psinv over the whole interior: the serial reference.
template <class U, class R>
void psinv(U& u, R& r, const SmootherCoeffs& c) {
  psinv(u, r, c, 1, u.n1() - 1, 1, u.n2() - 1, 1, u.n3() - 1);
}

}  // namespace rt::kernels
