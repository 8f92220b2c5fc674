#pragma once
// The NAS MG grid transfers (the MGRID application of paper Section 4.6):
// full-weighting restriction rprj3 and trilinear prolongation interp_add.
// Each is one nest over a half-open box, like the stencils of this
// directory; rt::simd::rprj3 / interp_add run it on the untiled schedule,
// or the row sweeps instead.  Every output point is a pure gather, so the
// order of boxes cannot change a value.

#include <cstdlib>

namespace rt::kernels {

/// Full-weighting restriction, fine residual r -> coarse residual s, over
/// the *coarse* box [j1lo, j1hi) x [j2lo, j2hi) x [j3lo, j3hi), J3
/// outermost.  Coarse interior j (0-based) maps to fine centre i = 2j - 1.
template <class S, class R>
void rprj3(S& s, R& r, long j1lo, long j1hi, long j2lo, long j2hi,
           long j3lo, long j3hi) {
  for (long j3 = j3lo; j3 < j3hi; ++j3) {
    const long i3 = 2 * j3 - 1;
    for (long j2 = j2lo; j2 < j2hi; ++j2) {
      const long i2 = 2 * j2 - 1;
      for (long j1 = j1lo; j1 < j1hi; ++j1) {
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

/// The whole coarse interior: the serial reference.
template <class S, class R>
void rprj3(S& s, R& r) {
  rprj3(s, r, 1, s.n1() - 1, 1, s.n2() - 1, 1, s.n3() - 1);
}

/// Trilinear prolongation u_fine += P z_coarse over the *fine* box
/// [ilo, ihi) x [jlo, jhi) x [klo, khi), K outermost.  Fine odd index i
/// coincides with coarse (i+1)/2; fine even index i averages coarse i/2
/// and i/2 + 1 (ghosts supplied by comm3 on the coarse grid).
template <class U, class Z>
void interp_add(U& u, Z& z, long ilo, long ihi, long jlo, long jhi, long klo,
                long khi) {
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
  for (long i3 = klo; i3 < khi; ++i3) {
    long k_idx[2];
    double k_w[2];
    const int kn = axis(i3, k_idx, k_w);
    for (long i2 = jlo; i2 < jhi; ++i2) {
      long j_idx[2];
      double j_w[2];
      const int jn = axis(i2, j_idx, j_w);
      for (long i1 = ilo; i1 < ihi; ++i1) {
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

/// The whole fine interior: the serial reference.
template <class U, class Z>
void interp_add(U& u, Z& z) {
  interp_add(u, z, 1, u.n1() - 1, 1, u.n2() - 1, 1, u.n3() - 1);
}

}  // namespace rt::kernels
