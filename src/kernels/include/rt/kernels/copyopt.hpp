#pragma once
// Copy optimization (paper Section 3.1): tiled 3D Jacobi that copies each
// array tile into a small contiguous buffer before computing from it.
// For linear-algebra codes this amortises (O(N^2) copies vs O(N^3) work);
// for stencils the copies are a large constant fraction of all accesses —
// this implementation exists so the benchmarks can *measure* that claim
// rather than assert it.
//
// The buffer is a rolling 3-plane window of B's (TI+2) x (TJ+2) halo
// region; plane p of B lives in buffer slot p mod 3.  The point update is
// JACOBI's term table (rt/core/stencil_terms.hpp) read from the buffer.

#include <algorithm>

#include "rt/core/cost.hpp"
#include "rt/core/stencil_terms.hpp"

namespace rt::kernels {

namespace terms = rt::core::terms;

/// Tiled Jacobi with copy-in of each array tile.  @p buf must be an
/// accessor over a (t.ti + 2) x (t.tj + 2) x 3 array.
template <class Dst, class Src, class Buf>
void jacobi3d_tiled_copy(Dst& a, Src& b, Buf& buf, double c,
                         rt::core::IterTile t) {
  const long n1 = a.n1(), n2 = a.n2(), n3 = a.n3();
  for (long jj = 1; jj < n2 - 1; jj += t.tj) {
    const long jhi = std::min(jj + t.tj, n2 - 1);
    for (long ii = 1; ii < n1 - 1; ii += t.ti) {
      const long ihi = std::min(ii + t.ti, n1 - 1);
      // Copy one halo'd plane of B into its rolling buffer slot.
      const auto copy_plane = [&](long k) {
        const long slot = k % 3;
        for (long j = jj - 1; j <= std::min(jhi, n2 - 1); ++j) {
          for (long i = ii - 1; i <= std::min(ihi, n1 - 1); ++i) {
            buf.store(i - (ii - 1), j - (jj - 1), slot, b.load(i, j, k));
          }
        }
      };
      copy_plane(0);
      copy_plane(1);
      for (long k = 1; k < n3 - 1; ++k) {
        copy_plane(k + 1);
        for (long j = jj; j < jhi; ++j) {
          const long bj = j - (jj - 1);
          for (long i = ii; i < ihi; ++i) {
            const long bi = i - (ii - 1);
            const auto at = [&](rt::core::Offset o) {
              return buf.load(bi + o.di, bj + o.dj, (k + o.dk) % 3);
            };
            a.store(i, j, k, terms::jacobi(at, c));
          }
        }
      }
    }
  }
}

}  // namespace rt::kernels
