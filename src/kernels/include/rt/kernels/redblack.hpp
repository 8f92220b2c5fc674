#pragma once
// Red-black SOR in 3D (paper Fig. 12): one colour over a half-open box
// (two of them over the interior are the naive two-pass version; the
// block driver rt::simd::for_each_block runs it on tiles or recursive
// leaves), the fused version that updates black points in plane K as soon
// as red points in plane K+1 are done, and the tiled fused version with
// the skewed J/I windows from the paper.  Each walk takes the point
// update, so the plain update and the one with a right-hand side share
// them; the update itself is the term table's (rt/core/stencil_terms.hpp).
//
// Colors: "red" = (i+j+k) even, "black" = odd (0-based; label choice only
// affects naming, not behaviour).  All three variants compute bitwise
// identical results — the tests assert it.

#include <algorithm>

#include "rt/core/cost.hpp"
#include "rt/core/stencil_terms.hpp"

namespace rt::kernels {

using rt::core::IterTile;
namespace terms = rt::core::terms;

namespace detail {
/// First i >= lo with (i + j + k) % 2 == parity.
inline long first_with_parity(long lo, long j, long k, long parity) {
  return lo + (((lo + j + k) ^ parity) & 1);
}

/// update(i, j, k) for the points of colour @p parity in the half-open box
/// [i0, i1) x [j0, j1) x [k0, k1), K outermost.
template <class Update>
void colour_walk(long parity, long i0, long i1, long j0, long j1, long k0,
                 long k1, const Update& update) {
  for (long k = k0; k < k1; ++k) {
    for (long j = j0; j < j1; ++j) {
      for (long i = first_with_parity(i0, j, k, parity); i < i1; i += 2) {
        update(i, j, k);
      }
    }
  }
}

/// The tiled fused walk (paper Fig. 12 bottom) over the interior of an
/// n1 x n2 x n3 grid.  The J/I windows are skewed by (k - kk) so a tile's
/// red plane leads its black plane by one K step; the array tile then
/// spans four planes (ATD = 4).
template <class Update>
void fused_tiled_walk(long n1, long n2, long n3, IterTile t,
                      const Update& update) {
  for (long jj = 0; jj <= n2 - 2; jj += t.tj) {
    for (long ii = 0; ii <= n1 - 2; ii += t.ti) {
      for (long kk = 0; kk <= n3 - 2; ++kk) {
        for (long k = kk + 1; k >= kk; --k) {
          if (k < 1 || k > n3 - 2) continue;
          const long d = k - kk;  // skew: 0 or 1
          const long parity = (d == 1) ? 0 : 1;  // red first, then black
          const long jlo = std::max(jj + d, 1L);
          const long jhi = std::min(jj + d + t.tj - 1, n2 - 2);
          const long ihi = std::min(ii + d + t.ti - 1, n1 - 2);
          for (long j = jlo; j <= jhi; ++j) {
            long i = first_with_parity(ii + d, j, k, parity);
            if (i < 1) i += 2;  // paper's "if (IStart.eq.1) IStart=3"
            for (; i <= ihi; i += 2) update(i, j, k);
          }
        }
      }
    }
  }
}
}  // namespace detail

/// One red-black update of a single point.
template <class Acc>
inline void rb_update(Acc& a, long i, long j, long k, double c1, double c2) {
  a.store(i, j, k,
          terms::redblack(terms::point_reader(a, i, j, k), c1, c2));
}

/// One colour (@p parity) over the half-open box [i0, i1) x [j0, j1) x
/// [k0, k1), K outermost.  Same-colour points never neighbour each other,
/// so the order of boxes within one colour cannot change a single update.
template <class Acc>
void redblack_colour(Acc& a, double c1, double c2, long parity, long i0,
                     long i1, long j0, long j1, long k0, long k1) {
  detail::colour_walk(parity, i0, i1, j0, j1, k0, k1,
                      [&](long i, long j, long k) {
                        rb_update(a, i, j, k, c1, c2);
                      });
}

/// Naive version: full sweep over red points, then full sweep over black
/// (the serial reference).
template <class Acc>
void redblack_naive(Acc& a, double c1, double c2) {
  for (long parity = 0; parity < 2; ++parity) {
    redblack_colour(a, c1, c2, parity, 1, a.n1() - 1, 1, a.n2() - 1, 1,
                    a.n3() - 1);
  }
}

/// Tiled fused version (paper Fig. 12 bottom).
template <class Acc>
void redblack_tiled(Acc& a, double c1, double c2, IterTile t) {
  detail::fused_tiled_walk(a.n1(), a.n2(), a.n3(), t,
                           [&](long i, long j, long k) {
                             rb_update(a, i, j, k, c1, c2);
                           });
}

/// Fused version (paper Fig. 12 middle): per outer step kk, update red
/// points of plane kk+1 then black points of plane kk, so only three array
/// planes need stay in cache.  It is the tiled walk with one tile spanning
/// the grid, in the same point order.
template <class Acc>
void redblack_fused(Acc& a, double c1, double c2) {
  redblack_tiled(a, c1, c2, IterTile{a.n1(), a.n2()});
}

// --- Variants with a per-point constant term (SOR with a right-hand
// side: u <- c1 u + c2 sum(neighbours) + rhs), on the same walks. ---

template <class Acc, class Rhs>
inline void rb_update_rhs(Acc& a, Rhs& r, long i, long j, long k, double c1,
                          double c2) {
  a.store(i, j, k,
          terms::redblack_rhs(terms::point_reader(a, i, j, k),
                              terms::point_reader(r, i, j, k), c1, c2));
}

template <class Acc, class Rhs>
void redblack_colour_rhs(Acc& a, Rhs& r, double c1, double c2, long parity,
                         long i0, long i1, long j0, long j1, long k0,
                         long k1) {
  detail::colour_walk(parity, i0, i1, j0, j1, k0, k1,
                      [&](long i, long j, long k) {
                        rb_update_rhs(a, r, i, j, k, c1, c2);
                      });
}

template <class Acc, class Rhs>
void redblack_naive_rhs(Acc& a, Rhs& r, double c1, double c2) {
  for (long parity = 0; parity < 2; ++parity) {
    redblack_colour_rhs(a, r, c1, c2, parity, 1, a.n1() - 1, 1, a.n2() - 1,
                        1, a.n3() - 1);
  }
}

template <class Acc, class Rhs>
void redblack_tiled_rhs(Acc& a, Rhs& r, double c1, double c2, IterTile t) {
  detail::fused_tiled_walk(a.n1(), a.n2(), a.n3(), t,
                           [&](long i, long j, long k) {
                             rb_update_rhs(a, r, i, j, k, c1, c2);
                           });
}

}  // namespace rt::kernels
