#include "rt/simd/exec.hpp"

#include <algorithm>
#include <vector>

#include "rt/kernels/oblivious.hpp"

namespace rt::simd {

namespace {

/// item(i) for every i in [0, count): on the pool, or inline in index order.
void run_items(const Exec& ex, long count,
               const std::function<void(long)>& item) {
  if (ex.pool != nullptr) {
    ex.pool->parallel_for(count, item);
    return;
  }
  for (long i = 0; i < count; ++i) item(i);
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
    rt::kernels::co_over(1, n1 - 1, 1, n2 - 1, t.ti, t.tj,
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
