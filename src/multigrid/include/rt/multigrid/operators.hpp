#pragma once
// NAS-MG-style multigrid operators (the substrate for the paper's MGRID
// experiment, Section 4.6).  All are templates over the accessor concept so
// the whole application can run natively (timing) or trace-driven through
// the cache simulator.
//
// Grids are (2^k + 2)^3 with one ghost layer and periodic boundaries kept
// consistent by comm3(), exactly like NAS MG / SPEC mgrid.  RESID and the
// PSINV smoother live in rt/kernels/ (resid.hpp, psinv.hpp) next to the
// paper's other kernels, and so do the grid transfers rprj3 (restriction)
// and interp_add (prolongation, transfer.hpp); here are the remaining
// operators: comm3, zero3 and norms.

#include <algorithm>
#include <cmath>

#include "rt/array/array3d.hpp"
#include "rt/simd/exec.hpp"

namespace rt::multigrid {

/// Periodic boundary exchange: ghost layers copy the opposite interior face.
template <class A>
void comm3(A& u) {
  const long n1 = u.n1(), n2 = u.n2(), n3 = u.n3();
  for (long i3 = 1; i3 < n3 - 1; ++i3) {
    for (long i2 = 1; i2 < n2 - 1; ++i2) {
      u.store(0, i2, i3, u.load(n1 - 2, i2, i3));
      u.store(n1 - 1, i2, i3, u.load(1, i2, i3));
    }
    for (long i1 = 0; i1 < n1; ++i1) {
      u.store(i1, 0, i3, u.load(i1, n2 - 2, i3));
      u.store(i1, n2 - 1, i3, u.load(i1, 1, i3));
    }
  }
  for (long i2 = 0; i2 < n2; ++i2) {
    for (long i1 = 0; i1 < n1; ++i1) {
      u.store(i1, i2, 0, u.load(i1, i2, n3 - 2));
      u.store(i1, i2, n3 - 1, u.load(i1, i2, 1));
    }
  }
}

/// Clear the whole allocation (interior + ghosts).
template <class A>
void zero3(A& u) {
  const long n1 = u.n1(), n2 = u.n2(), n3 = u.n3();
  for (long i3 = 0; i3 < n3; ++i3) {
    for (long i2 = 0; i2 < n2; ++i2) {
      for (long i1 = 0; i1 < n1; ++i1) {
        u.store(i1, i2, i3, 0.0);
      }
    }
  }
}

struct Norms {
  double l2 = 0;
  double linf = 0;
};

/// L2 norm, rms over the interior: sqrt(rt::simd::sum_squares(ex, u) /
/// interior points), on ex's pool (null: inline).  Each interior K plane
/// sums v*v in 8 lanes, element i into lane (i - 1) mod 8, rows in j
/// order; the lanes fold as ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)) and the
/// planes add in plane order, so the value has the same bits for every
/// pool width and SimdLevel.  Reads the raw grid (padding skipped by
/// stride), so a traced solve's simulated counts never include it.
double rms_norm(const rt::array::Array3D<double>& u,
                const rt::simd::Exec& ex = {});

/// L2 (rms_norm) and Linf (interior max of |v|, exact in any order) norms
/// (NAS MG norm2u3), on ex's pool (null: inline).
Norms norm2u3(const rt::array::Array3D<double>& u,
              const rt::simd::Exec& ex = {});

}  // namespace rt::multigrid
