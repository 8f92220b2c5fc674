#pragma once
// 3D Jacobi iteration (paper Fig. 3): 6-point stencil, plus the copy-back
// loop that makes it a "realistic" stencil code (Fig. 5, middle).
//
// Each nest covers one half-open (i, j, k) box; called on the whole
// interior it is the serial reference.  Schedules — the JI tiles of
// Fig. 6, the recursive leaves — are not separate nests: the block driver
// rt::simd::for_each_block hands the nest one box per work item.
//
// Kernels are templates over an accessor type providing
//   long n1()/n2()/n3();  T load(i,j,k);  void store(i,j,k,v);
// satisfied by rt::array::Array3D (native) and
// rt::cachesim::TracedArray3D (trace-driven simulation).
// All indices are 0-based; the interior is 1..n-2 in every dimension
// (Fortran's 2..N-1).  The stencil itself is the term table's
// (rt/core/stencil_terms.hpp).

#include "rt/core/stencil_terms.hpp"

namespace rt::kernels {

namespace terms = rt::core::terms;

/// A(i,j,k) = c * sum of B's six face neighbours over the half-open box
/// [i0, i1) x [j0, j1) x [k0, k1), K outermost.
template <class Dst, class Src>
void jacobi3d(Dst& a, Src& b, double c, long i0, long i1, long j0, long j1,
              long k0, long k1) {
  for (long k = k0; k < k1; ++k) {
    for (long j = j0; j < j1; ++j) {
      for (long i = i0; i < i1; ++i) {
        a.store(i, j, k, terms::jacobi(terms::point_reader(b, i, j, k), c));
      }
    }
  }
}

/// The whole interior (paper Fig. 3): the serial reference.
template <class Dst, class Src>
void jacobi3d(Dst& a, Src& b, double c) {
  jacobi3d(a, b, c, 1, a.n1() - 1, 1, a.n2() - 1, 1, a.n3() - 1);
}

/// Reference for the simplified stencil code of Fig. 5 (top): @p tsteps
/// alternating whole-interior sweeps between ping-pong arrays.  @p b holds
/// the start state; step t writes (t even ? a : b).  Every time-skewed or
/// diamond schedule must reproduce it bit for bit.
template <class Arr>
void jacobi3d_pingpong(Arr& a, Arr& b, double c, int tsteps) {
  for (int t = 0; t < tsteps; ++t) {
    if (t % 2 == 0) {
      jacobi3d(a, b, c);
    } else {
      jacobi3d(b, a, c);
    }
  }
}

/// Interior copy-back dst = src over the box (the second nest of the
/// realistic stencil pattern, Fig. 5 middle).
template <class Dst, class Src>
void copy_interior(Dst& dst, Src& src, long i0, long i1, long j0, long j1,
                   long k0, long k1) {
  for (long k = k0; k < k1; ++k) {
    for (long j = j0; j < j1; ++j) {
      for (long i = i0; i < i1; ++i) {
        dst.store(i, j, k, src.load(i, j, k));
      }
    }
  }
}

/// The whole interior.
template <class Dst, class Src>
void copy_interior(Dst& dst, Src& src) {
  copy_interior(dst, src, 1, dst.n1() - 1, 1, dst.n2() - 1, 1, dst.n3() - 1);
}

}  // namespace rt::kernels
