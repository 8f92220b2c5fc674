#pragma once
// RESID (paper Fig. 13): the residual computation from the SPEC/NAS MGRID
// multigrid benchmark — a full 27-point stencil, r = v - A u, with
// coefficients grouped by neighbour class (centre / face / edge / corner).
// One nest over a half-open box; the tiled form of Fig. 13 (right) is that
// nest run on the JI tiles of rt::simd::for_each_block.  The residual
// itself is the 27-point term table's (rt/core/stencil_terms.hpp).

#include <array>

#include "rt/core/stencil_terms.hpp"

namespace rt::kernels {

namespace terms = rt::core::terms;

/// Stencil coefficients: a[0] centre, a[1] faces, a[2] edges, a[3] corners.
using ResidCoeffs = std::array<double, 4>;

/// NAS MG "a" coefficient vector (class A/B problems): (-8/3, 0, 1/6, 1/12).
inline ResidCoeffs nas_mg_a() {
  return ResidCoeffs{-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0};
}

/// r = v - A u over the half-open box [i1lo, i1hi) x [i2lo, i2hi) x
/// [i3lo, i3hi), I3 outermost.  With a[1] == 0 the face term is left out
/// of the combine (its sum is still read): the term tables'
/// zero-coefficient rule, chosen once per call.
template <class R, class V, class U>
void resid(R& r, V& v, U& u, const ResidCoeffs& a, long i1lo, long i1hi,
           long i2lo, long i2hi, long i3lo, long i3hi) {
  terms::with_full(terms::resid_full(a), [&](auto full) {
    for (long i3 = i3lo; i3 < i3hi; ++i3) {
      for (long i2 = i2lo; i2 < i2hi; ++i2) {
        for (long i1 = i1lo; i1 < i1hi; ++i1) {
          r.store(i1, i2, i3,
                  terms::resid<full>(terms::point_reader(u, i1, i2, i3),
                                     terms::point_reader(v, i1, i2, i3), a));
        }
      }
    }
  });
}

/// r = v - A u over the whole interior (paper Fig. 13, left): the serial
/// reference.
template <class R, class V, class U>
void resid(R& r, V& v, U& u, const ResidCoeffs& a) {
  resid(r, v, u, a, 1, r.n1() - 1, 1, r.n2() - 1, 1, r.n3() - 1);
}

}  // namespace rt::kernels
