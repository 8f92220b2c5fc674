#include "rt/simd/exec.hpp"

#include <algorithm>
#include <bit>
#include <vector>

namespace rt::simd {

namespace detail {

void run_items(const Exec& ex, long count,
               const std::function<void(long)>& item) {
  if (ex.pool != nullptr) {
    ex.pool->parallel_for(count, item);
    return;
  }
  for (long i = 0; i < count; ++i) item(i);
}

}  // namespace detail

namespace {

using detail::run_items;

constexpr std::uint64_t kHashMul = 0x9e3779b97f4a7c15ull;  // odd
constexpr int kHashRot = 29;
constexpr std::uint64_t kHashInit = 0x243f6a8885a308d3ull;

/// One hash step: a bijection of @p h for a fixed @p w, injective in @p w
/// for a fixed @p h (odd multiplier, then a rotate).
std::uint64_t hash_step(std::uint64_t h, std::uint64_t w) {
  return std::rotl((h ^ w) * kHashMul, kHashRot);
}

std::uint64_t word(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Partial of K plane @p k: four lanes over each row's words (element i
/// into lane i mod 4), folded lane 0 first.
std::uint64_t plane_hash(const Array3D<double>& a, long k) {
  std::uint64_t l0 = 0x13198a2e03707344ull, l1 = 0xa4093822299f31d0ull,
                l2 = 0x082efa98ec4e6c89ull, l3 = 0x452821e638d01377ull;
  const long n1 = a.n1();
  for (long j = 0; j < a.n2(); ++j) {
    const double* row = &a(0, j, k);
    long i = 0;
    for (; i + 4 <= n1; i += 4) {
      l0 = hash_step(l0, word(row[i]));
      l1 = hash_step(l1, word(row[i + 1]));
      l2 = hash_step(l2, word(row[i + 2]));
      l3 = hash_step(l3, word(row[i + 3]));
    }
    if (i < n1) l0 = hash_step(l0, word(row[i]));
    if (i + 1 < n1) l1 = hash_step(l1, word(row[i + 1]));
    if (i + 2 < n1) l2 = hash_step(l2, word(row[i + 2]));
  }
  return hash_step(hash_step(hash_step(l0, l1), l2), l3);
}

}  // namespace

void for_each_block(const Exec& ex, const TilingPlan& plan, long n1, long n2,
                    long n3, const BlockFn& body) {
  if (n1 < 3 || n2 < 3 || n3 < 3) return;  // no interior point
  const rt::core::IterTile t = plan.tile;
  if (plan.schedule == rt::core::LoopSchedule::kRecursive) {
    struct Leaf {
      long ilo, ihi, jlo, jhi;
    };
    std::vector<Leaf> leaves;
    co_over(1, n1 - 1, 1, n2 - 1, t.ti, t.tj,
            [&](long ilo, long ihi, long jlo, long jhi) {
              leaves.push_back({ilo, ihi, jlo, jhi});
            });
    run_items(ex, static_cast<long>(leaves.size()), [&](long idx) {
      const Leaf& l = leaves[static_cast<std::size_t>(idx)];
      body(l.ilo, l.ihi, l.jlo, l.jhi, 1, n3 - 1);
    });
  } else if (plan.tiled && t.ti > 0 && t.tj > 0) {
    const long nti = (n1 - 2 + t.ti - 1) / t.ti;
    const long ntj = (n2 - 2 + t.tj - 1) / t.tj;
    run_items(ex, nti * ntj, [&](long idx) {
      const long jj = 1 + (idx / nti) * t.tj;
      const long ii = 1 + (idx % nti) * t.ti;
      body(ii, std::min(ii + t.ti, n1 - 1), jj, std::min(jj + t.tj, n2 - 1),
           1, n3 - 1);
    });
  } else {
    run_items(ex, n3 - 2, [&](long kk) {
      body(1, n1 - 1, 1, n2 - 1, kk + 1, kk + 2);
    });
  }
}

std::uint64_t checksum(const Exec& ex, const Array3D<double>& a) {
  return reduce_planes(
      ex, a.n3(), kHashInit, [&](long k) { return plane_hash(a, k); },
      hash_step);
}

void jacobi(const Exec& ex, const TilingPlan& plan, Array3D<double>& a,
            const Array3D<double>& b, double c) {
  for_each_block(ex, plan, a.n1(), a.n2(), a.n3(),
                 [&](long i0, long i1, long j0, long j1, long k0, long k1) {
                   jacobi_sweep(a, b, c, i0, i1, j0, j1, k0, k1, ex.lvl);
                 });
}

void copy_interior(const Exec& ex, Array3D<double>& dst,
                   const Array3D<double>& src) {
  for_each_block(ex, TilingPlan{}, dst.n1(), dst.n2(), dst.n3(),
                 [&](long i0, long i1, long j0, long j1, long k0, long k1) {
                   copy_sweep(dst, src, i0, i1, j0, j1, k0, k1, ex.lvl);
                 });
}

void redblack(const Exec& ex, const TilingPlan& plan, Array3D<double>& a,
              double c1, double c2) {
  for (long parity = 0; parity < 2; ++parity) {
    for_each_block(
        ex, plan, a.n1(), a.n2(), a.n3(),
        [&](long i0, long i1, long j0, long j1, long k0, long k1) {
          redblack_sweep(a, c1, c2, parity, i0, i1, j0, j1, k0, k1, ex.lvl);
        });
  }
}

void redblack_rhs(const Exec& ex, const TilingPlan& plan, Array3D<double>& a,
                  const Array3D<double>& r, double c1, double c2) {
  for (long parity = 0; parity < 2; ++parity) {
    for_each_block(ex, plan, a.n1(), a.n2(), a.n3(),
                   [&](long i0, long i1, long j0, long j1, long k0, long k1) {
                     redblack_rhs_sweep(a, r, c1, c2, parity, i0, i1, j0, j1,
                                        k0, k1, ex.lvl);
                   });
  }
}

void resid(const Exec& ex, const TilingPlan& plan, Array3D<double>& r,
           const Array3D<double>& v, const Array3D<double>& u,
           const rt::kernels::ResidCoeffs& a) {
  for_each_block(ex, plan, r.n1(), r.n2(), r.n3(),
                 [&](long i0, long i1, long j0, long j1, long k0, long k1) {
                   resid_sweep(r, v, u, a, i0, i1, j0, j1, k0, k1, ex.lvl);
                 });
}

void psinv(const Exec& ex, const TilingPlan& plan, Array3D<double>& u,
           const Array3D<double>& r, const PsinvCoeffs& c) {
  for_each_block(ex, plan, u.n1(), u.n2(), u.n3(),
                 [&](long i0, long i1, long j0, long j1, long k0, long k1) {
                   psinv_sweep(u, r, c, i0, i1, j0, j1, k0, k1, ex.lvl);
                 });
}

void rprj3(const Exec& ex, Array3D<double>& s, const Array3D<double>& r) {
  for_each_block(ex, TilingPlan{}, s.n1(), s.n2(), s.n3(),
                 [&](long i0, long i1, long j0, long j1, long k0, long k1) {
                   rprj3_sweep(s, r, i0, i1, j0, j1, k0, k1, ex.lvl);
                 });
}

void interp_add(const Exec& ex, Array3D<double>& u, const Array3D<double>& z) {
  for_each_block(ex, TilingPlan{}, u.n1(), u.n2(), u.n3(),
                 [&](long i0, long i1, long j0, long j1, long k0, long k1) {
                   interp_sweep(u, z, i0, i1, j0, j1, k0, k1, ex.lvl);
                 });
}

}  // namespace rt::simd
