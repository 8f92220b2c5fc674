// The host kernel driver: wall-clock MFlops of the executor
// (rt/simd/exec.hpp) over (kernel, N, transform, backend, SIMD level,
// threads, schedule) — the paper's measured-MFlops signal beside the
// simulated misses.  The point of the thread axis: the JI tile grid is an
// embarrassingly parallel work unit (K stays untiled), so Euc3D/GcdPad/
// Pad-chosen tiles keep their per-core cache benefit while the grid is
// spread over cores.
//
// Every row is a cell in the inncabs::run_all(run, verify, name, init)
// shape: init() fills fresh inputs, run() is one timed iteration, and
// verify() checks what one run() made of them, bit for bit, before the
// runner's timing loop (rt::bench::time_host) times the cell:
//  - spatial rows, one run_steps step of JACOBI / REDBLACK / RESID / PSINV
//    under every paper transform, against the serial accessor reference
//    of its (kernel, N, plan): run_steps at kScalar on no pool, untiled
//    (tiling must never move a bit), on the plan's padded layout;
//  - temporal rows, tsteps JACOBI ping-pong steps with temporal blocking
//    off and under the skew and diamond wavefronts, against
//    jacobi3d_pingpong, whose own timed row leads the group.
// A cell whose bits differ is named on stderr and fails the run (exit 1).
// A cell that cannot run as asked (a pool that spawned fewer threads, a
// planner fallback, a degraded temporal plan, a watchdog timeout) is
// printed and recorded as a "skipped" row.
//
// Flags: --threads=T sets the top of the thread sweep ({1, 2, 4, ..., T});
// default sweep is {1, 2, 4}.  --nmax=N sets the problem size (default
// 400, K = 30); with --nmin=N (and --nstep=S) the driver sweeps sizes
// nmin, nmin + S, ... and nmax.  --simd=MODE restricts the SIMD axis
// (default: off AND auto, so the table shows the scalar-vs-row-kernel gap
// at every thread count).  --backend= picks the planner and --tune=load
// serves stored winners to both the spatial and the temporal plans.
// --temporal=off drops the temporal rows and --temporal=skew|diamond keeps
// only that wavefront; --tsteps=N (default: --steps when above 2, else 4)
// and --bk=N shape them.  --verify= and --timeout= act per cell as in
// every bench.  --json=FILE writes one record per row.

#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rt/array/array3d.hpp"
#include "rt/bench/options.hpp"
#include "rt/bench/runner.hpp"
#include "rt/bench/table.hpp"
#include "rt/core/plan.hpp"
#include "rt/core/plan_cache.hpp"
#include "rt/core/stencil_terms.hpp"
#include "rt/core/temporal.hpp"
#include "rt/kernels/jacobi3d.hpp"
#include "rt/kernels/kernel_info.hpp"
#include "rt/obs/metrics_writer.hpp"
#include "rt/par/thread_pool.hpp"
#include "rt/simd/exec.hpp"

namespace {

using rt::array::Array3D;
using rt::array::Dims3;
using rt::bench::RunOptions;
using rt::bench::RunResult;
using rt::core::TemporalMode;
using rt::core::Transform;
using rt::kernels::KernelId;
using rt::simd::SimdMode;
using Grids = std::vector<Array3D<double>>;

std::vector<int> thread_sweep(int requested) {
  if (requested <= 1 && requested != 0) return {1};
  if (requested <= 1) return {1, 2, 4};
  std::vector<int> ts{1};
  for (int t = 2; t < requested; t *= 2) ts.push_back(t);
  ts.push_back(requested);
  return ts;
}

Grids make_grids(int count, const Dims3& d) {
  Grids g;
  g.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) g.emplace_back(d);
  return g;
}

/// The runner's inputs: array i gets init_grid scale 1 / (1 + i).
void init_inputs(Grids& g) {
  for (std::size_t i = 0; i < g.size(); ++i) {
    rt::kernels::init_grid(g[i], 1.0 / (1.0 + static_cast<double>(i)));
  }
}

/// Bit-for-bit equality of every array's logical region.
bool same_bits(const Grids& a, const Grids& b) {
  for (std::size_t x = 0; x < a.size(); ++x) {
    for (long k = 0; k < a[x].n3(); ++k) {
      for (long j = 0; j < a[x].n2(); ++j) {
        if (std::memcmp(&a[x](0, j, k), &b[x](0, j, k),
                        sizeof(double) * static_cast<std::size_t>(
                                             a[x].n1())) != 0) {
          return false;
        }
      }
    }
  }
  return true;
}

/// Flops of one sweep of @p id over an n x n x kd interior.
std::uint64_t sweep_flops(KernelId id, long n, long kd) {
  return rt::kernels::kernel_info(id).flops_per_point *
         static_cast<std::uint64_t>((n - 2) * (n - 2) * (kd - 2));
}

/// One row's cell.  The closures share the arrays and the pool through
/// shared_ptrs, so the cell can run on a watchdog worker
/// (rt::bench::run_supervised) that outlives the caller's frame.
struct Cell {
  std::string name;  ///< kernel/N/transform/schedule/simd/threads
  std::uint64_t flops = 0;       ///< per run()
  rt::simd::Stores stores = rt::simd::Stores::kNormal;  ///< run()'s policy
  std::shared_ptr<Grids> g;      ///< the arrays run() works on
  std::function<void()> init;    ///< fresh inputs into *g
  std::function<void()> run;     ///< one timed iteration
  std::function<bool()> verify;  ///< one run() from init() hit the reference
};

/// init(), one run(), verify(); only a verified cell is then timed by the
/// runner's loop (warm-up plus min_host_seconds) and, under --verify,
/// swept for non-finite values.  Returns false when the bits differ.
bool measure(const Cell& c, const RunOptions& ro, RunResult& r) {
  auto matched = std::make_shared<bool>(false);
  r = rt::bench::run_supervised(ro, r, [c, ro, matched](RunResult& res) {
    c.init();
    c.run();
    *matched = c.verify();
    if (!*matched) return;
    rt::bench::time_host(c.run, c.flops, ro, res);
    rt::bench::sweep_nonfinite(*c.g, ro, res);
  });
  return r.status == rt::guard::Status::kTimeout || *matched;
}

/// The one table every row lands in, each row also a JSON record.
struct Table {
  rt::obs::MetricsWriter& writer;
  std::vector<std::vector<std::string>> rows;
  bool diverged = false;

  /// Measure @p build's cell as row @p r (its axes filled in) unless the
  /// row is already degraded, then print and record it.  @p base is the
  /// MFlops of the 1-thread row of the row's group, for the speedup.
  void add(const std::string& kernel, long n, const std::string& schedule,
           RunResult r, const RunOptions& ro,
           const std::function<Cell()>& build, double& base,
           const std::optional<rt::obs::JsonValue>& temporal = {}) {
    const std::string tile = r.plan.tiled
                                 ? std::to_string(r.plan.tile.ti) + "x" +
                                       std::to_string(r.plan.tile.tj)
                                 : "-";
    std::vector<std::string> row{
        kernel,
        std::string(rt::core::transform_name(r.plan.transform)),
        tile,
        schedule,
        rt::simd::simd_level_name(r.simd),
        std::to_string(r.threads_requested)};
    if (!r.degraded()) {
      const Cell c = build();
      r.stores = c.stores;
      if (!measure(c, ro, r)) {
        std::cerr << "VERIFY FAILED: " << c.name
                  << " differs bit for bit from its serial reference\n";
        diverged = true;
        row.insert(row.end(), {"DIVERGED", "-"});
        rows.push_back(std::move(row));
        return;
      }
    }
    if (r.degraded()) {
      row.insert(row.end(),
                 {std::string("skipped: ") +
                      rt::guard::status_name(
                          r.status != rt::guard::Status::kOk ? r.status
                                                             : r.plan_status),
                  "-"});
    } else {
      if (r.threads_requested == 1) base = r.host_mflops;
      row.insert(row.end(),
                 {rt::bench::fmt(r.host_mflops, 1),
                  base > 0 ? rt::bench::fmt(r.host_mflops / base, 2) : "-"});
    }
    auto& rec = rt::bench::append_json_record(writer, kernel, n, r);
    if (temporal) rec.set("temporal", *temporal);
    rows.push_back(std::move(row));
  }
};

/// A row's axes before it runs: the pool it would run on (none at one
/// thread) and the level exec_level resolves for it.  A pool that spawned
/// fewer threads than asked marks the row degraded.
RunResult row_axes(const rt::core::TilingPlan& plan, SimdMode sm, int t,
                   std::shared_ptr<rt::par::ThreadPool>& pool) {
  RunResult r;
  r.plan = plan;
  r.threads_requested = t;
  r.simd_requested = sm;
  r.simd = rt::simd::exec_level(sm, t);
  pool = t > 1 ? std::make_shared<rt::par::ThreadPool>(t) : nullptr;
  if (pool) r.threads = pool->num_threads();
  if (r.threads < t) {
    r.status = rt::guard::Status::kFellBackUntiled;
    r.status_detail = "thread pool degraded to " + std::to_string(r.threads) +
                      " of " + std::to_string(t);
  }
  return r;
}

std::string cell_name(const std::string& kernel, long n, const RunResult& r,
                      const std::string& schedule) {
  return kernel + "/" + std::to_string(n) + "/" +
         std::string(rt::core::transform_name(r.plan.transform)) + "/" +
         schedule + "/" +
         rt::simd::simd_level_name(r.simd) + "/" +
         std::to_string(r.threads_requested);
}

/// The serial accessor reference of one spatial step of @p id on layout
/// @p d: run_steps at kScalar on no pool, untiled, from the cells' inputs,
/// under the --timeout watchdog like the cells.  One that misses the
/// deadline is null and makes @p r a timeout row.
std::shared_ptr<const Grids> spatial_reference(KernelId id, const Dims3& d,
                                               const RunOptions& ro,
                                               RunResult& r) {
  auto g = std::make_shared<Grids>(
      make_grids(rt::kernels::kernel_info(id).num_arrays, d));
  const RunResult done = rt::bench::run_supervised(ro, r, [g, id](RunResult&) {
    init_inputs(*g);
    rt::simd::run_steps({nullptr, rt::simd::SimdLevel::kScalar}, id,
                        rt::core::TilingPlan{}, *g, 1);
  });
  if (done.status != rt::guard::Status::kTimeout) return g;
  r = done;
  return nullptr;
}

/// Every kernel x transform x SIMD mode x thread count at size @p n: one
/// run_steps step per timed iteration, on the plan the backend (or a
/// --tune winner) gives.
void spatial_rows(Table& table, long n, const std::vector<int>& threads,
                  const std::vector<SimdMode>& simd_modes, RunOptions ro) {
  const Transform transforms[] = {Transform::kOrig, Transform::kTile,
                                  Transform::kEuc3d, Transform::kGcdPad,
                                  Transform::kPad};
  const long kd = ro.k_dim;
  for (const KernelId id : {KernelId::kJacobi, KernelId::kRedBlack,
                            KernelId::kResid, KernelId::kPsinv}) {
    const rt::kernels::KernelInfo& info = rt::kernels::kernel_info(id);
    const std::string kernel(info.name);
    for (const Transform tr : transforms) {
      const rt::core::PlanReport prep = ro.plan_cache->plan_backend(
          ro.backend, tr, ro.geom(), n, n, info.spec, kd);
      const rt::core::TilingPlan plan = prep.plan;
      const Dims3 d = Dims3::padded(n, n, kd, plan.dip, plan.djp);
      // Per (kernel, N, plan), built for the first cell that runs: every
      // SIMD level and thread count of the plan is checked against it.
      std::shared_ptr<const Grids> ref;
      for (const SimdMode sm : simd_modes) {
        double base = 0;
        for (const int t : threads) {
          std::shared_ptr<rt::par::ThreadPool> pool;
          RunResult r = row_axes(plan, sm, t, pool);
          r.plan_status = prep.status;
          r.plan_detail = prep.detail;
          if (!r.degraded() && !ref) ref = spatial_reference(id, d, ro, r);
          const rt::simd::Exec ex{pool.get(), r.simd};
          const auto build = [&] {
            Cell c;
            c.name = cell_name(kernel, n, r, "sweep");
            c.flops = sweep_flops(id, n, kd);
            c.g = std::make_shared<Grids>(make_grids(info.num_arrays, d));
            c.init = [g = c.g] { init_inputs(*g); };
            c.run = [g = c.g, pool, ex, id, plan] {
              rt::simd::run_steps(ex, id, plan, *g, 1);
            };
            c.verify = [g = c.g, ref] { return same_bits(*g, *ref); };
            if (id == KernelId::kJacobi) {
              c.stores = rt::simd::stores_for(ex, (*c.g)[0]);
            }
            return c;
          };
          ro.threads = t;
          table.add(kernel, n, "sweep", r, ro, build, base);
        }
      }
    }
  }
}

/// Ping-pong steps per temporal row: --tsteps, else --steps above 2, else 4.
int temporal_steps(const rt::bench::BenchOptions& bo) {
  return bo.tsteps > 0 ? bo.tsteps : (bo.steps > 2 ? bo.steps : 4);
}

/// JACOBI's temporal rows at size @p n: the serial jacobi3d_pingpong
/// reference, then tsteps ping-pong steps per timed iteration with
/// temporal blocking off and under each requested wavefront, every one
/// checked against the reference's bits.
void temporal_rows(Table& table, const rt::bench::BenchOptions& bo, long n,
                   const std::vector<int>& threads,
                   const std::vector<SimdMode>& simd_modes, RunOptions ro) {
  const long kd = ro.k_dim;
  const int tsteps = temporal_steps(bo);
  const Dims3 d = Dims3::unpadded(n, n, kd);
  // run_steps starts from g[start] and leaves it holding the last step, as
  // jacobi3d_pingpong does with its b; the other array is its a.
  const std::size_t start = static_cast<std::size_t>(tsteps % 2);
  const auto init = [start](Grids& g) {
    g[1 - start].fill(0.0);
    rt::kernels::init_grid(g[start], 1.0);
  };
  const auto pingpong = [start, tsteps](Grids& g) {
    rt::kernels::jacobi3d_pingpong(g[1 - start], g[start],
                                   rt::core::terms::kJacobiC, tsteps);
  };
  auto ref = std::make_shared<Grids>(make_grids(2, d));
  init(*ref);
  pingpong(*ref);

  rt::core::TilingPlan orig;
  orig.dip = n;
  orig.djp = n;
  auto& cache = *ro.plan_cache;
  // The one variant routine: @p tp null is the serial reference itself,
  // anything else a run_steps schedule (mode off: plain sweeps).
  const auto variant = [&](const std::string& schedule, SimdMode sm, int t,
                           const rt::core::TemporalReport* tp, double& base) {
    std::shared_ptr<rt::par::ThreadPool> pool;
    RunResult r = row_axes(orig, sm, t, pool);
    if (tp != nullptr) {
      r.plan_status = tp->status;
      r.plan_detail = tp->detail;
    }
    const rt::simd::Exec ex{pool.get(), r.simd};
    const auto build = [&] {
      Cell c;
      c.name = cell_name("JACOBI", n, r, schedule);
      c.flops = sweep_flops(KernelId::kJacobi, n, kd) *
                static_cast<std::uint64_t>(tsteps);
      c.g = std::make_shared<Grids>(make_grids(2, d));
      c.init = [g = c.g, init] { init(*g); };
      if (tp == nullptr) {
        c.run = [g = c.g, pingpong] { pingpong(*g); };
      } else {
        c.run = [g = c.g, pool, ex, tsteps, plan = tp->plan] {
          rt::simd::run_steps(ex, KernelId::kJacobi, rt::core::TilingPlan{},
                              *g, tsteps, plan);
        };
        if (tp->plan.mode == TemporalMode::kOff) {
          c.stores = rt::simd::stores_for(ex, (*c.g)[0]);
        }
      }
      c.verify = [g = c.g, ref] { return same_bits(*g, *ref); };
      return c;
    };
    ro.threads = t;
    table.add("JACOBI", n, schedule, r, ro, build, base,
              tp != nullptr ? rt::bench::temporal_json(tp->plan)
                            : rt::obs::JsonValue());
  };

  double ref_base = 0;
  variant("pingpong", SimdMode::kOff, 1, nullptr, ref_base);
  for (const TemporalMode mode :
       {TemporalMode::kOff, TemporalMode::kSkew, TemporalMode::kDiamond}) {
    if (bo.temporal_given && mode != TemporalMode::kOff &&
        bo.temporal != mode) {
      continue;
    }
    for (const SimdMode sm : simd_modes) {
      double base = 0;
      for (const int t : threads) {
        rt::core::TemporalReport rep;
        rep.plan = {.mode = mode, .tsteps = tsteps, .threads = t};
        if (mode != TemporalMode::kOff) {
          rep = cache.temporal(mode, rt::bench::outer_cache_elems(), n, n, kd,
                               tsteps, bo.bk, t);
        }
        const std::string bk = std::to_string(rep.plan.bk);
        variant(mode == TemporalMode::kOff    ? std::string("off")
                : mode == TemporalMode::kSkew ? "skew bk=" + bk
                                              : "diamond W=" + bk + ",tb=" +
                                                    std::to_string(rep.plan.tb),
                sm, t, &rep, base);
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const rt::bench::BenchOptions bo = rt::bench::parse_options(argc, argv);
  const long nmax = bo.nmax > 0 ? bo.nmax : 400;
  const std::vector<int> threads = thread_sweep(bo.threads);
  const std::vector<SimdMode> simd_modes =
      bo.simd_given ? std::vector<SimdMode>{bo.simd}
                    : std::vector<SimdMode>{SimdMode::kOff, SimdMode::kAuto};

  RunOptions ro;
  ro.verify = bo.verify;
  ro.timeout_seconds = bo.timeout_seconds;
  ro.backend = bo.resolved_backend(ro.geom());
  // --tune: pin stored winners so both the spatial plans and the temporal
  // block depths are served from measurements ahead of the model.
  ro.plan_cache = &rt::core::PlanCache::instance();
  std::cout << rt::bench::apply_tune_options(bo, *ro.plan_cache) << "\n\n";

  // One size unless --nmin is given: nmin, nmin + nstep, ..., nmax.
  const std::vector<long> sizes = bo.sweep(nmax, nmax, nmax, nmax);
  rt::obs::MetricsWriter writer;
  bool diverged = false;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const long n = sizes[i];
    Table table{writer, {}, false};
    spatial_rows(table, n, threads, simd_modes, ro);
    if (!bo.temporal_given || bo.temporal != TemporalMode::kOff) {
      temporal_rows(table, bo, n, threads, simd_modes, ro);
    }
    if (i > 0) std::cout << "\n";
    std::cout << "Host wall-clock, N=" << n << " (K=" << ro.k_dim
              << "): a sweep row times one step per iteration, every other "
                 "schedule "
              << temporal_steps(bo) << " JACOBI ping-pong steps:\n";
    rt::bench::print_table({"kernel", "transform", "tile", "schedule", "simd",
                            "threads", "MFlops", "speedup"},
                           table.rows);
    diverged |= table.diverged;
  }
  std::cout << "\nspeedup is vs. the 1-thread row of the same (kernel, "
               "transform, schedule, simd mode); hardware_concurrency on "
               "this host = "
            << rt::par::ThreadPool::default_threads() << "\n";
  std::cout << (diverged ? "VERIFY FAILED: see the DIVERGED rows\n"
                         : "verified: every timed row matched its serial "
                           "reference bit for bit before it was timed\n");
  if (!bo.json.empty() && !writer.write_file(bo.json)) {
    std::cerr << "cannot write " << bo.json << "\n";
    return 1;
  }
  return diverged ? 1 : 0;
}
