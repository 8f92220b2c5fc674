#pragma once
// NAS-MG-style multigrid operators (the substrate for the paper's MGRID
// experiment, Section 4.6).  All are templates over the accessor concept so
// the whole application can run natively (timing) or trace-driven through
// the cache simulator.
//
// Grids are (2^k + 2)^3 with one ghost layer and periodic boundaries kept
// consistent by comm3(), exactly like NAS MG / SPEC mgrid.  RESID and the
// PSINV smoother live in rt/kernels/ (resid.hpp, psinv.hpp) next to the
// paper's other kernels; here are the remaining operators: rprj3
// (restriction), interp (prolongation), comm3, zero3 and norms.

#include <algorithm>
#include <cmath>

#include "rt/array/array3d.hpp"
#include "rt/simd/exec.hpp"

namespace rt::multigrid {

/// Full-weighting restriction: fine residual r -> coarse residual s.
/// Coarse interior j (0-based) maps to fine centre i = 2j - 1.
template <class S, class R>
void rprj3(S& s, R& r) {
  const long m1 = s.n1(), m2 = s.n2(), m3 = s.n3();
  for (long j3 = 1; j3 < m3 - 1; ++j3) {
    const long i3 = 2 * j3 - 1;
    for (long j2 = 1; j2 < m2 - 1; ++j2) {
      const long i2 = 2 * j2 - 1;
      for (long j1 = 1; j1 < m1 - 1; ++j1) {
        const long i1 = 2 * j1 - 1;
        double faces = 0, edges = 0, corners = 0;
        for (int d3 = -1; d3 <= 1; ++d3) {
          for (int d2 = -1; d2 <= 1; ++d2) {
            for (int d1 = -1; d1 <= 1; ++d1) {
              const int m = std::abs(d1) + std::abs(d2) + std::abs(d3);
              if (m == 0) continue;
              const double v = r.load(i1 + d1, i2 + d2, i3 + d3);
              if (m == 1) faces += v;
              else if (m == 2) edges += v;
              else corners += v;
            }
          }
        }
        s.store(j1, j2, j3,
                0.5 * r.load(i1, i2, i3) + 0.25 * faces + 0.125 * edges +
                    0.0625 * corners);
      }
    }
  }
}

/// Trilinear prolongation: u_fine += P z_coarse.  Fine odd index i
/// coincides with coarse (i+1)/2; fine even index i averages coarse i/2 and
/// i/2 + 1 (ghosts supplied by comm3 on the coarse grid).
template <class U, class Z>
void interp_add(U& u, Z& z) {
  const long n1 = u.n1(), n2 = u.n2(), n3 = u.n3();
  const auto axis = [](long i, long (&idx)[2], double (&w)[2]) -> int {
    if (i & 1) {
      idx[0] = (i + 1) / 2;
      w[0] = 1.0;
      return 1;
    }
    idx[0] = i / 2;
    idx[1] = i / 2 + 1;
    w[0] = w[1] = 0.5;
    return 2;
  };
  for (long i3 = 1; i3 < n3 - 1; ++i3) {
    long k_idx[2];
    double k_w[2];
    const int kn = axis(i3, k_idx, k_w);
    for (long i2 = 1; i2 < n2 - 1; ++i2) {
      long j_idx[2];
      double j_w[2];
      const int jn = axis(i2, j_idx, j_w);
      for (long i1 = 1; i1 < n1 - 1; ++i1) {
        long i_idx[2];
        double i_w[2];
        const int in = axis(i1, i_idx, i_w);
        double acc = 0;
        for (int kk = 0; kk < kn; ++kk) {
          for (int jj = 0; jj < jn; ++jj) {
            for (int ii = 0; ii < in; ++ii) {
              acc += k_w[kk] * j_w[jj] * i_w[ii] *
                     z.load(i_idx[ii], j_idx[jj], k_idx[kk]);
            }
          }
        }
        u.store(i1, i2, i3, u.load(i1, i2, i3) + acc);
      }
    }
  }
}

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
