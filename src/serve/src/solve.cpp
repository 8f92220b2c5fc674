#include "rt/serve/solve.hpp"

#include <chrono>
#include <cmath>
#include <new>
#include <stdexcept>

#include "rt/core/cache_topology.hpp"
#include "rt/guard/fault_injector.hpp"
#include "rt/kernels/kernel_info.hpp"
#include "rt/multigrid/mg_solver.hpp"
#include "rt/multigrid/sor_solver.hpp"
#include "rt/simd/exec.hpp"

namespace rt::serve {

namespace {

using rt::array::Array3D;
using rt::array::Dims3;
using rt::core::TilingPlan;
using rt::guard::Status;
using Clock = std::chrono::steady_clock;

/// Milliseconds since @p t; restarts @p t at now.
double lap_ms(Clock::time_point& t) {
  const Clock::time_point now = Clock::now();
  const double ms = std::chrono::duration<double, std::milli>(now - t).count();
  t = now;
  return ms;
}

/// One relaxed load per app iteration, like run_steps' per-step fault
/// point on the kernel paths: lets RT_GUARD_FAULTS=hang wedge a served
/// solve so the deadline/abandonment machinery can be tested end to end.
void hang_check() {
  if (rt::guard::FaultInjector::armed(rt::guard::FaultKind::kHang)) {
    rt::guard::FaultInjector::instance().hang_point();
  }
}

rt::kernels::KernelId kernel_id_of(ServeKernel k) {
  switch (k) {
    case ServeKernel::kJacobi:
      return rt::kernels::KernelId::kJacobi;
    case ServeKernel::kRedBlack:
      return rt::kernels::KernelId::kRedBlack;
    case ServeKernel::kResid:
    case ServeKernel::kMgrid:  // MGRID plans its finest-level RESID
      return rt::kernels::KernelId::kResid;
    case ServeKernel::kSor:  // SOR plans its red-black sweep
      return rt::kernels::KernelId::kRedBlack;
  }
  return rt::kernels::KernelId::kJacobi;
}

/// Initialises every value a step reads before any step writes it, and
/// nothing else; the per-kernel rules are run_solve's contract in
/// solve.hpp.  JACOBI puts its start state in arrays[tsteps % 2], so that
/// the ping-pong's last step lands in arrays[0].
/// Full inits go through the executor (streaming past the last level);
/// shells are too thin to gain from it.
void init_for_steps(const SolveParams& p, std::vector<Array3D<double>>& arrays,
                    const rt::simd::Exec& ex) {
  using rt::kernels::init_grid_shell;
  using rt::simd::init_grid;
  if (p.tsteps <= 0 || p.kernel == ServeKernel::kRedBlack) {
    init_grid(ex, arrays[0], 1.0);
  } else if (p.kernel == ServeKernel::kJacobi) {
    const std::size_t start = static_cast<std::size_t>(p.tsteps % 2);
    init_grid(ex, arrays[start], 0.5);
    if (p.tsteps >= 2) init_grid_shell(arrays[1 - start], 0.5, ex.pool);
  } else {
    init_grid_shell(arrays[0], 1.0, ex.pool);
    for (std::size_t i = 1; i < 3; ++i) {
      init_grid(ex, arrays[i], 1.0 / (1.0 + static_cast<double>(i)));
    }
  }
}

SolveOutcome solve_kernels(const SolveParams& p, const TilingPlan& plan,
                           std::vector<Array3D<double>>& arrays,
                           rt::par::ThreadPool* pool) {
  SolveOutcome out;
  const int want = num_arrays_for(p.kernel);
  if (want == 0) {
    out.status = Status::kInvalidArgument;
    out.detail = "internal: app kernel routed to solve_kernels";
    return out;
  }
  if (static_cast<int>(arrays.size()) < want) {
    out.status = Status::kInvalidArgument;
    out.detail = "internal: batch allocated too few arrays";
    return out;
  }
  // The server always runs the best row kernels this host supports.
  const rt::simd::Exec ex{pool, rt::simd::resolve(rt::simd::SimdMode::kAuto)};
  // Every grid of a batch has the same dims, so one policy covers them all.
  out.stores = rt::simd::stores_for(ex, arrays[0]);
  Clock::time_point t = Clock::now();
  init_for_steps(p, arrays, ex);
  out.init_ms = lap_ms(t);
  // JACOBI's last step hashes the interior it writes (the checksum fold).
  const bool fold = p.kernel == ServeKernel::kJacobi && p.tsteps > 0;
  std::uint64_t sum = 0;
  rt::simd::run_steps(ex, kernel_id_of(p.kernel), plan, arrays, p.tsteps, {},
                      fold ? &sum : nullptr);
  out.iters = p.tsteps;
  out.sweep_ms = lap_ms(t);
  if (fold) {
    // The shell gets its own scale, hashed in the pass that writes it.
    out.checksum = sum + rt::simd::init_shell(ex, arrays[0], 1.0);
  } else {
    out.checksum = checksum_region(arrays[0], pool);
  }
  out.checksum_ms = lap_ms(t);
  return out;
}

SolveOutcome solve_mgrid(const SolveParams& p, const TilingPlan& plan,
                         rt::par::ThreadPool* pool, int app_threads) {
  SolveOutcome out;
  // n = 2^lt + 2 (the NAS-MG shape the V-cycle hierarchy needs).
  const long side = p.n - 2;
  int lt = 0;
  while ((1L << (lt + 1)) <= side) ++lt;
  if (side < 4 || (1L << lt) != side) {
    out.status = Status::kInvalidArgument;
    out.detail = "MGRID needs n = 2^lt + 2 with n >= 6";
    return out;
  }
  if (p.k != 0 && p.k != p.n) {
    out.status = Status::kInvalidArgument;
    out.detail = "MGRID grids are cubic: omit 'k' or set it to n";
    return out;
  }
  rt::multigrid::MgOptions mo;
  mo.lt = lt;
  mo.resid_plan = plan;
  mo.seed = p.seed;
  mo.threads = app_threads;
  mo.simd = rt::simd::SimdMode::kAuto;
  hang_check();
  Clock::time_point t = Clock::now();
  rt::multigrid::MgSolver solver(mo);
  solver.setup();
  out.init_ms = lap_ms(t);
  double rnorm = 0;
  int iters = 0;
  for (int step = 0; step < p.tsteps; ++step) {
    hang_check();
    solver.iterate();
    ++iters;
    if (p.tol > 0) {
      rnorm = solver.residual_norm();
      if (rnorm < p.tol) break;
    }
  }
  if (p.tol <= 0) rnorm = solver.residual_norm();
  out.iters = iters;
  out.residual = rnorm;
  out.sweep_ms = lap_ms(t);
  out.checksum = checksum_region(solver.u(), pool);
  out.checksum_ms = lap_ms(t);
  return out;
}

SolveOutcome solve_sor(const SolveParams& p, const TilingPlan& plan,
                       rt::par::ThreadPool* pool, int app_threads) {
  SolveOutcome out;
  if (p.k != 0 && p.k != p.n) {
    out.status = Status::kInvalidArgument;
    out.detail = "SOR grids are cubic: omit 'k' or set it to n";
    return out;
  }
  rt::multigrid::SorOptions so;
  so.n = p.n;
  so.plan = plan;
  so.threads = app_threads;
  so.simd = rt::simd::SimdMode::kAuto;
  hang_check();
  Clock::time_point t = Clock::now();
  rt::multigrid::SorSolver solver(so);
  solver.setup(p.seed);
  out.init_ms = lap_ms(t);
  // tol == 0 disables convergence exit: residual_linf() is never negative,
  // so solve(0, tsteps) runs the full sweep budget like the batch bench.
  out.iters = solver.solve(p.tol, p.tsteps);
  out.residual = solver.residual_linf();
  out.sweep_ms = lap_ms(t);
  out.checksum = checksum_region(solver.u(), pool);
  out.checksum_ms = lap_ms(t);
  return out;
}

}  // namespace

BatchKey batch_key_of(const SolveParams& p) {
  BatchKey key;
  key.kernel = p.kernel;
  key.n = p.n;
  key.k = p.k > 0 ? p.k : p.n;
  key.transform = p.transform;
  return key;
}

int num_arrays_for(ServeKernel k) {
  switch (k) {
    case ServeKernel::kJacobi:
    case ServeKernel::kRedBlack:
    case ServeKernel::kResid:
      return rt::kernels::kernel_info(kernel_id_of(k)).num_arrays;
    case ServeKernel::kMgrid:
    case ServeKernel::kSor:
      return 0;
  }
  return 0;
}

long serve_cs_elems() {
  const long l1 = rt::core::host_cache_topology().data_bytes(1);
  return (l1 > 0 ? l1 : 32768) / 8;
}

rt::core::PlanReport plan_for_batch(const BatchKey& key, long cs,
                                    rt::core::PlanCache* cache) {
  const rt::core::StencilSpec& spec =
      rt::kernels::kernel_info(kernel_id_of(key.kernel)).spec;
  // Apps plan their sweep at the full grid side; kernel paths at (n, n)
  // with k as the overflow-checked third extent — the same call the batch
  // binaries make, so a rt::tune-pinned winner hits here too.
  const long di = key.n, dj = key.n;
  const long n3 = key.kernel == ServeKernel::kMgrid ||
                          key.kernel == ServeKernel::kSor
                      ? key.n
                      : key.k;
  return cache != nullptr
             ? cache->plan(key.transform, cs, di, dj, spec, n3)
             : rt::core::plan_for_checked(key.transform, cs, di, dj, spec, n3);
}

rt::array::Dims3 batch_dims(const BatchKey& key, const TilingPlan& plan) {
  if (num_arrays_for(key.kernel) == 0) {
    return Dims3::unpadded(key.n, key.n, key.n);
  }
  return Dims3::padded(key.n, key.n, key.k, plan.dip, plan.djp);
}

SolveOutcome run_solve(const SolveParams& p, const TilingPlan& plan,
                       std::vector<Array3D<double>>* arrays,
                       rt::par::ThreadPool* pool, int app_threads) {
  try {
    switch (p.kernel) {
      case ServeKernel::kMgrid:
        return solve_mgrid(p, plan, pool, app_threads);
      case ServeKernel::kSor:
        return solve_sor(p, plan, pool, app_threads);
      default: {
        SolveOutcome out;
        if (arrays == nullptr) {
          out.status = Status::kInvalidArgument;
          out.detail = "internal: kernel path needs batch arrays";
          return out;
        }
        return solve_kernels(p, plan, *arrays, pool);
      }
    }
  } catch (const std::bad_alloc&) {
    SolveOutcome out;
    out.status = Status::kAllocFailed;
    out.detail = "allocation failed during solve";
    return out;
  } catch (const std::exception& e) {
    SolveOutcome out;
    out.status = Status::kInvalidArgument;
    out.detail = std::string("solve failed: ") + e.what();
    return out;
  }
}

}  // namespace rt::serve
