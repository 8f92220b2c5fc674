#include "rt/multigrid/sor_solver.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "rt/array/address_space.hpp"
#include "rt/cachesim/traced_array.hpp"
#include "rt/core/stencil_terms.hpp"
#include "rt/simd/exec.hpp"

namespace rt::multigrid {

namespace {
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 0x2545F4914F6CDD1DULL;
  }
  long uniform(long n) { return static_cast<long>(next() % n); }
};
}  // namespace

SorSolver::SorSolver(const SorOptions& opts,
                     rt::cachesim::CacheHierarchy* hier)
    : opts_(opts), hier_(hier) {
  if (opts.n < 4 || opts.omega <= 0.0 || opts.omega >= 2.0) {
    throw std::invalid_argument("SorSolver: need n >= 4, 0 < omega < 2");
  }
  if (hier_ == nullptr) {
    if (opts.threads != 1) {
      pool_ = std::make_unique<rt::par::ThreadPool>(opts.threads);
    }
    lvl_ = rt::simd::exec_level(opts.simd, threads());
  }
  const long n = opts.n;
  rt::array::Dims3 d = rt::array::Dims3::unpadded(n, n, n);
  if (opts.plan.dip != 0 || opts.plan.djp != 0) {
    if (opts.plan.dip >= n && opts.plan.djp >= n) {
      const rt::array::Dims3 padded =
          rt::array::Dims3::padded(n, n, n, opts.plan.dip, opts.plan.djp);
      // Route the allocation size through the overflow-checked product:
      // a plan with huge pads must degrade to a recorded fallback, not
      // wrap the p1*p2*n3 size computation.
      if (padded.checked_alloc_elems().has_value()) {
        d = padded;
      } else {
        status_ = rt::guard::Status::kOverflow;
        detail_ = "padded allocation size overflows long; running unpadded";
      }
    } else {
      // A pad below the logical extent cannot be applied.  The historical
      // behaviour silently clamped to unpadded dims, hiding plan bugs from
      // callers; record the degradation instead (tiling still runs).
      status_ = rt::guard::Status::kFellBackUntiled;
      detail_ = "plan pad (dip/djp) smaller than n; running unpadded";
    }
  }
  const bool first_touch = pool_ != nullptr;
  if (first_touch) {
    u_ = rt::array::Array3D<double>(d, rt::array::uninit);
    rhs_ = rt::array::Array3D<double>(d, rt::array::uninit);
    f_ = rt::array::Array3D<double>(d, rt::array::uninit);
    zero_on_pool(u_);
    zero_on_pool(rhs_);
    zero_on_pool(f_);
  } else {
    u_ = rt::array::Array3D<double>(d);
    rhs_ = rt::array::Array3D<double>(d);
    f_ = rt::array::Array3D<double>(d);
  }
  // Inter-variable padding (Section 3.5): keep u and rhs from aliasing.
  rt::array::AddressSpace space(0, 64);
  const auto elems = static_cast<std::uint64_t>(d.alloc_elems());
  u_base_ = space.place_mod("u", elems, 8, 16384, 0);
  rhs_base_ = space.place_mod("rhs", elems, 8, 16384, 8192);
}

void SorSolver::zero_on_pool(rt::array::Array3D<double>& g) {
  // Zero plane-parallel so each page's first write — and hence its NUMA
  // home — happens on a thread that will sweep that K range.
  double* base = g.data();
  const long plane = g.dims().plane_stride();
  pool_->parallel_for(g.n3(), [&](long k) {
    std::fill(base + k * plane, base + (k + 1) * plane, 0.0);
  });
}

void SorSolver::setup(std::uint64_t seed, int charges) {
  u_.fill(0.0);
  f_.fill(0.0);
  Rng rng{seed};
  const long n = opts_.n;
  for (int q = 0; q < charges; ++q) {
    const long i = 1 + rng.uniform(n - 2);
    const long j = 1 + rng.uniform(n - 2);
    const long k = 1 + rng.uniform(n - 2);
    f_(i, j, k) = (q % 2 == 0) ? 1.0 : -1.0;
  }
  // Pre-scale the constant term of the SOR update: -(w/6) h^2 f, h = 1.
  const double c = -(opts_.omega / 6.0);
  for (long k = 0; k < n; ++k) {
    for (long j = 0; j < n; ++j) {
      for (long i = 0; i < n; ++i) {
        rhs_(i, j, k) = c * f_(i, j, k);
      }
    }
  }
  flops_ = 0;
}

void SorSolver::sweep() {
  const double c1 = 1.0 - opts_.omega;
  const double c2 = opts_.omega / 6.0;
  {
    rt::obs::ScopedTimer timer(phases_.sweep);
    const rt::simd::Exec ex{pool_.get(), lvl_};
    if (hier_) {
      rt::cachesim::TracedArray3D<double> u(u_, u_base_, *hier_);
      rt::cachesim::TracedArray3D<double> r(rhs_, rhs_base_, *hier_);
      rt::simd::redblack_rhs(ex, opts_.plan, u, r, c1, c2);
    } else {
      rt::simd::redblack_rhs(ex, opts_.plan, u_, rhs_, c1, c2);
    }
  }
  // The combine c1 u + c2 (6 neighbours) + r: red-black's, plus the add of
  // the constant term.
  constexpr std::uint64_t kFlopsPerPoint = rt::core::terms::kRedBlackFlops + 1;
  const auto pts = static_cast<std::uint64_t>(opts_.n - 2);
  flops_ += kFlopsPerPoint * pts * pts * pts;
}

double SorSolver::residual_linf() {
  rt::obs::ScopedTimer timer(phases_.residual);
  const long n = opts_.n;
  // One partial per interior K plane on the pool; a max is exact in any
  // order, so the value is the same as one serial pass.
  return rt::simd::reduce_planes(
      {pool_.get(), lvl_}, n - 2, 0.0,
      [&](long p) {
        const long k = p + 1;
        double m = 0.0;
        for (long j = 1; j < n - 1; ++j) {
          for (long i = 1; i < n - 1; ++i) {
            const double lap = u_(i - 1, j, k) + u_(i + 1, j, k) +
                               u_(i, j - 1, k) + u_(i, j + 1, k) +
                               u_(i, j, k - 1) + u_(i, j, k + 1) -
                               6.0 * u_(i, j, k);
            m = std::max(m, std::abs(lap - f_(i, j, k)));
          }
        }
        return m;
      },
      [](double a, double b) { return std::max(a, b); });
}

int SorSolver::solve(double tol, int max_sweeps) {
  // residual_linf() is never negative, so tol <= 0 could never stop early:
  // skip the checks and just run the sweep budget.
  const bool check = tol > 0;
  for (int s = 1; s <= max_sweeps; ++s) {
    sweep();
    if (check && residual_linf() < tol) return s;
  }
  return max_sweeps;
}

}  // namespace rt::multigrid
