#include "rt/simd/exec.hpp"

#include <algorithm>
#include <climits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "rt/core/cache_topology.hpp"
#include "rt/core/stencil_terms.hpp"
#include "rt/guard/fault_injector.hpp"
#include "rt/kernels/kernel_info.hpp"

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

/// Partial of interior K plane @p k of sum_squares: 8 lanes keyed by
/// (i - 1) mod 8, folded pairwise.
double plane_sum_squares(const Array3D<double>& a, long k) {
  const long ni = a.n1() - 2;
  double l[8] = {};
  if (ni <= 0) return 0.0;
  for (long j = 1; j < a.n2() - 1; ++j) {
    const double* row = &a(1, j, k);
    long i = 0;
    for (; i + 8 <= ni; i += 8) {
      for (int q = 0; q < 8; ++q) l[q] += row[i + q] * row[i + q];
    }
    for (int q = 0; i + q < ni; ++q) l[q] += row[i + q] * row[i + q];
  }
  return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
}

/// The checksum partial of @p a's points at least @p d from every face
/// (0: the whole grid, 1: the interior), one item per K plane.
std::uint64_t inset_checksum(const Exec& ex, const Array3D<double>& a,
                             long d) {
  return reduce_planes(
      ex, a.n3() - 2 * d, std::uint64_t{0},
      [&](long k) {
        return checksum_sweep(a, d, a.n1() - d, d, a.n2() - d, k + d,
                              k + d + 1, ex.lvl);
      },
      std::plus<>{});
}

}  // namespace

Stores choose_stores(SimdLevel lvl, long dest_bytes,
                     const rt::core::CacheTopology& topo, bool temporal) {
  if (temporal || lvl < SimdLevel::kAvx2 || !topo.probed) {
    return Stores::kNormal;
  }
  return dest_bytes > topo.outer_data_bytes() ? Stores::kStream
                                              : Stores::kNormal;
}

Stores stores_for(const Exec& ex, const Array3D<double>& dst) {
  const long bytes =
      dst.dims().alloc_elems() * static_cast<long>(sizeof(double));
  return choose_stores(
      ex.lvl, bytes,
      ex.caches != nullptr ? *ex.caches : rt::core::host_cache_topology(),
      /*temporal=*/false);
}

long slab_count(long n1, long nj, int width, long l2_bytes) {
  if (nj <= 0) return 0;
  constexpr long kFallbackL2Bytes = 1L << 20;
  // Five planes of (rows + 2) rows of n1 doubles: the stencil input's
  // three, one of a second input, one of the output.
  const long budget = (l2_bytes > 0 ? l2_bytes : kFallbackL2Bytes) / 2;
  const long rows = budget / (5 * 8 * std::max(n1, 1L)) - 2;
  if (rows < 1) return nj;
  const long w = std::max(width, 1);
  const long c = ((nj + rows - 1) / rows + w - 1) / w * w;
  return std::min(c, nj);
}

namespace {

/// for_each_block's work items, each with its index m: sized(count) runs
/// once, before any item, then body(m, ilo, ihi, jlo, jhi, klo, khi) for
/// every m in [0, count).
template <class Sized, class Body>
void for_each_item(const Exec& ex, const TilingPlan& plan, long n1, long n2,
                   long n3, const Sized& sized, const Body& body) {
  if (n1 < 3 || n2 < 3 || n3 < 3) {  // no interior point
    sized(0);
    return;
  }
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
    sized(static_cast<long>(leaves.size()));
    run_items(ex, static_cast<long>(leaves.size()), [&](long idx) {
      const Leaf& l = leaves[static_cast<std::size_t>(idx)];
      body(idx, l.ilo, l.ihi, l.jlo, l.jhi, 1, n3 - 1);
    });
  } else if (plan.tiled && t.ti > 0 && t.tj > 0) {
    const long nti = (n1 - 2 + t.ti - 1) / t.ti;
    const long ntj = (n2 - 2 + t.tj - 1) / t.tj;
    sized(nti * ntj);
    run_items(ex, nti * ntj, [&](long idx) {
      const long jj = 1 + (idx / nti) * t.tj;
      const long ii = 1 + (idx % nti) * t.ti;
      body(idx, ii, std::min(ii + t.ti, n1 - 1), jj,
           std::min(jj + t.tj, n2 - 1), 1, n3 - 1);
    });
  } else if (ex.pool == nullptr) {
    sized(1);
    body(0, 1, n1 - 1, 1, n2 - 1, 1, n3 - 1);
  } else {
    const long nj = n2 - 2;
    const long count =
        slab_count(n1, nj, ex.pool->num_threads(),
                   rt::core::host_cache_topology().data_bytes(2));
    sized(count);
    run_items(ex, count, [&](long m) {
      body(m, 1, n1 - 1, 1 + nj * m / count, 1 + nj * (m + 1) / count, 1,
           n3 - 1);
    });
  }
}

}  // namespace

void for_each_block(const Exec& ex, const TilingPlan& plan, long n1, long n2,
                    long n3, const BlockFn& body) {
  for_each_item(
      ex, plan, n1, n2, n3, [](long) {},
      [&](long, long i0, long i1, long j0, long j1, long k0, long k1) {
        body(i0, i1, j0, j1, k0, k1);
      });
}

void for_each_step_block(const Exec& ex, const rt::core::TemporalPlan& tp,
                         long n1, long n2, long n3, const StepBlockFn& body) {
  using rt::core::TemporalMode;
  if (tp.mode == TemporalMode::kOff) {
    throw std::invalid_argument("for_each_step_block: temporal mode off");
  }
  const int tsteps = tp.tsteps;
  if (tsteps <= 0 || n1 < 3 || n2 < 3 || n3 < 3) return;
  const long kmax = n3 - 2;  // interior planes 1 .. kmax
  if (tp.mode == TemporalMode::kSkew) {
    const long bk = std::max(tp.bk, 1L);
    for (long kb = 1; kb < kmax + tsteps; kb += bk) {
      for (int t = 0; t < tsteps; ++t) {
        const long lo = std::max(1L, kb - t);
        const long hi = std::min(kmax, kb + bk - 1 - t);
        if (hi < lo) continue;
        run_items(ex, hi - lo + 1, [&](long kk) {
          body(t, 1, n1 - 1, 1, n2 - 1, lo + kk, lo + kk + 1);
        });
      }
    }
    return;
  }
  const long w = std::max(tp.bk, 2L);
  const int tb = static_cast<int>(std::clamp<long>(tp.tb, 1, w / 2));
  const long nblocks = (kmax + w - 1) / w;
  const long team = std::max(tp.team, 1);
  const long jtot = n2 - 2;
  // One step of one phase: unit d covers planes range(d) = [lo, hi].
  const auto stage = [&](int t, long units, const auto& range) {
    run_items(ex, units * team, [&](long idx) {
      const auto [lo, hi] = range(idx / team);
      const long m = idx % team;
      const long jlo = 1 + jtot * m / team;
      const long jhi = 1 + jtot * (m + 1) / team;
      if (hi >= lo && jhi > jlo) body(t, 1, n1 - 1, jlo, jhi, lo, hi + 1);
    });
  };
  for (int t0 = 0; t0 < tsteps; t0 += tb) {
    const int tbc = std::min(tb, tsteps - t0);
    for (int t = 0; t < tbc; ++t) {  // phase 1: descending triangles
      stage(t0 + t, nblocks, [&](long d) {
        const long s = 1 + d * w;
        return std::pair{s + t, std::min(kmax, s + w - 1 - t)};
      });
    }
    for (int t = 1; t < tbc; ++t) {  // phase 2: inverted triangles
      stage(t0 + t, nblocks + 1, [&](long d) {
        const long b = 1 + d * w;
        return std::pair{std::max(1L, b - t), std::min(kmax, b + t - 1)};
      });
    }
  }
}

std::uint64_t checksum(const Exec& ex, const Array3D<double>& a) {
  return inset_checksum(ex, a, 0);
}

double sum_squares(const Exec& ex, const Array3D<double>& a) {
  return reduce_planes(
      ex, a.n3() - 2, 0.0,
      [&](long k) { return plane_sum_squares(a, k + 1); }, std::plus<>{});
}

namespace detail {

std::uint64_t interior_checksum(const Exec& ex, const Array3D<double>& a) {
  return inset_checksum(ex, a, 1);
}

std::uint64_t jacobi_fold(const Exec& ex, const TilingPlan& plan,
                          Array3D<double>& a, const Array3D<double>& b) {
  const Stores st = stores_for(ex, a);
  std::vector<std::uint64_t> parts;
  for_each_item(
      ex, plan, a.n1(), a.n2(), a.n3(),
      [&](long count) { parts.assign(static_cast<std::size_t>(count), 0); },
      [&](long m, long i0, long i1, long j0, long j1, long k0, long k1) {
        jacobi_box(ex, st, a, b, rt::core::terms::kJacobiC,
                   &parts[static_cast<std::size_t>(m)], i0, i1, j0, j1, k0,
                   k1);
      });
  return std::accumulate(parts.begin(), parts.end(), std::uint64_t{0});
}

void fault_point() {
  if (rt::guard::FaultInjector::armed(rt::guard::FaultKind::kHang)) {
    rt::guard::FaultInjector::instance().hang_point();
  }
}

}  // namespace detail

void init_grid(const Exec& ex, Array3D<double>& a, double scale) {
  const long n1 = a.n1(), n2 = a.n2(), n3 = a.n3();
  if (n1 > INT_MAX) {  // init_sweep converts i through int
    rt::kernels::init_grid(a, scale, ex.pool);
    return;
  }
  const Stores st = stores_for(ex, a);
  run_items(ex, n3, [&](long k) {
    init_sweep(a, scale, 0, n1, 0, n2, k, k + 1, ex.lvl, st);
  });
}

std::uint64_t init_shell(const Exec& ex, Array3D<double>& a, double scale) {
  const long n1 = a.n1(), n2 = a.n2(), n3 = a.n3();
  if (n1 > INT_MAX) {  // init_sweep converts i through int
    rt::kernels::init_grid_shell(a, scale, ex.pool);
    return checksum(ex, a) - inset_checksum(ex, a, 1);
  }
  return reduce_planes(
      ex, n3, std::uint64_t{0},
      [&](long k) {
        std::uint64_t sum = 0;
        const auto box = [&](long i0, long i1, long j0, long j1) {
          init_sweep(a, scale, i0, i1, j0, j1, k, k + 1, ex.lvl,
                     Stores::kNormal, &sum);
        };
        if (k == 0 || k == n3 - 1 || n1 <= 2 || n2 <= 2) {
          box(0, n1, 0, n2);  // every point of the plane is on the shell
        } else {
          box(0, n1, 0, 1);
          box(0, n1, n2 - 1, n2);
          box(0, 1, 1, n2 - 1);
          box(n1 - 1, n1, 1, n2 - 1);
        }
        return sum;
      },
      std::plus<>{});
}

void detail::check_transfer(const char* op, const std::array<long, 3>& n,
                            const std::array<long, 3>& m, bool reads_fine) {
  // rprj3 reads fine 2j - 2 .. 2j around coarse j, interp_add reads coarse
  // up to i / 2 + 1 for fine i: every axis's last read of the other grid
  // must lie inside its extent (so inside its allocation).  An empty swept
  // interior reads nothing.
  if (std::min({n[0], n[1], n[2]}) < 3) return;
  for (int d = 0; d < 3; ++d) {
    const long last = n[d] - 2;
    const long reads = reads_fine ? 2 * last : last / 2 + 1;
    if (reads >= m[d]) {
      throw std::invalid_argument(
          std::string(op) + ": grid too small on axis " +
          std::to_string(d + 1) + " (reads index " + std::to_string(reads) +
          " of extent " + std::to_string(m[d]) + ")");
    }
  }
}

}  // namespace rt::simd
