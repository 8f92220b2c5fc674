// Threads x tile-shape scaling of the executor (rt/simd/exec.hpp):
// host wall-clock MFlops for JACOBI / REDBLACK / RESID under every paper
// transform, at 1..T threads.  The point being tested: the JI tile grid is
// an embarrassingly parallel work unit (K stays untiled), so Euc3D/GcdPad/
// Pad-chosen tiles keep their per-core cache benefit while the grid is
// spread over cores — tiled configurations should scale at least as well
// as Orig and stay ahead of it at every thread count.
//
// Before timing, each kernel's executor run is checked bit-for-bit against
// its serial accessor kernel at the benched size, on the thread pool and
// at the row levels the sweep runs (red-black's two-pass colour schedule
// against the serial fused tiled one — see tests/exec_test.cpp).
//
// Flags: --threads=T sets the top of the thread sweep ({1, 2, 4, ..., T});
// default sweep is {1, 2, 4}.  --nmax=N overrides the problem size
// (default 400, the acceptance size); with --nmin=N (and --nstep=S) the
// bench sweeps sizes nmin, nmin + S, ... and nmax; --host is implied.
// --simd=MODE restricts the SIMD axis (default sweeps off AND auto, so the
// table shows the scalar-vs-row-kernel gap at every thread count).
// --json=FILE writes one record per timed row (spatial and temporal).

#include <chrono>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "rt/array/array3d.hpp"
#include "rt/bench/options.hpp"
#include "rt/bench/runner.hpp"
#include "rt/bench/table.hpp"
#include "rt/core/plan.hpp"
#include "rt/core/plan_cache.hpp"
#include "rt/core/temporal.hpp"
#include "rt/kernels/jacobi3d.hpp"
#include "rt/kernels/kernel_info.hpp"
#include "rt/obs/metrics_writer.hpp"
#include "rt/simd/exec.hpp"

namespace {

using rt::array::Array3D;
using rt::array::Dims3;
using rt::core::Transform;
using rt::kernels::KernelId;

std::vector<int> thread_sweep(int requested) {
  if (requested <= 1 && requested != 0) return {1};
  if (requested <= 1) return {1, 2, 4};
  std::vector<int> ts{1};
  for (int t = 2; t < requested; t *= 2) ts.push_back(t);
  ts.push_back(requested);
  return ts;
}

Array3D<double> make_grid(const Dims3& d, double seed) {
  Array3D<double> a(d);
  for (long k = 0; k < a.n3(); ++k) {
    for (long j = 0; j < a.n2(); ++j) {
      for (long i = 0; i < a.n1(); ++i) {
        a(i, j, k) = seed + 0.001 * static_cast<double>(i) +
                     0.002 * static_cast<double>(j) +
                     0.003 * static_cast<double>(k);
      }
    }
  }
  return a;
}

bool interiors_equal(const Array3D<double>& a, const Array3D<double>& b) {
  for (long k = 0; k < a.n3(); ++k) {
    for (long j = 0; j < a.n2(); ++j) {
      for (long i = 0; i < a.n1(); ++i) {
        if (a(i, j, k) != b(i, j, k)) return false;  // bitwise
      }
    }
  }
  return true;
}

/// Two run_steps steps of each kernel at the benched size at kScalar on no
/// pool (the serial accessor nests) and on a @p threads pool at every row
/// level the host executes (so a --simd= row of any mode times a verified
/// level); returns false (and reports) on any bitwise difference.
bool verify_bit_identical(long n, long kd, int threads) {
  const auto plan = rt::core::plan_for(Transform::kGcdPad, 2048, n, n,
                                       rt::core::StencilSpec::jacobi3d());
  const Dims3 d = Dims3::padded(n, n, kd, plan.dip, plan.djp);
  const auto grids = [&d](KernelId id) {
    std::vector<Array3D<double>> g;
    for (int i = 0; i < rt::kernels::kernel_info(id).num_arrays; ++i) {
      g.push_back(make_grid(d, 0.1 + 0.3 * i));
    }
    return g;
  };
  rt::par::ThreadPool pool(threads);
  bool ok = true;
  for (const KernelId id : {KernelId::kJacobi, KernelId::kRedBlack,
                            KernelId::kResid, KernelId::kPsinv}) {
    std::vector<Array3D<double>> want = grids(id);
    rt::simd::run_steps({nullptr, rt::simd::SimdLevel::kScalar}, id, plan,
                        want, 2);
    for (const auto lvl :
         {rt::simd::SimdLevel::kRows, rt::simd::SimdLevel::kAvx2,
          rt::simd::SimdLevel::kAvx512}) {
      if (lvl > rt::simd::resolve(rt::simd::SimdMode::kAuto)) continue;
      std::vector<Array3D<double>> got = grids(id);
      rt::simd::run_steps({&pool, lvl}, id, plan, got, 2);
      for (std::size_t i = 0; i < want.size(); ++i) {
        if (!interiors_equal(want[i], got[i])) {
          std::cerr << "VERIFY FAILED: executor "
                    << rt::kernels::kernel_info(id).name << " at "
                    << rt::simd::simd_level_name(lvl)
                    << " differs from the serial accessor kernel\n";
          ok = false;
        }
      }
    }
  }
  return ok;
}

/// Every table of the bench at problem size @p n, each timed row also a
/// record in @p writer; returns the process exit status (1 on a
/// verification failure).
int run_size(const rt::bench::BenchOptions& bo, long n,
             const std::vector<int>& threads, rt::bench::RunOptions ro,
             rt::obs::MetricsWriter& writer) {
  const int vthreads = std::max(threads.back(), 4);
  if (!verify_bit_identical(n, ro.k_dim, vthreads)) return 1;
  std::cout << "verified: executor bit-identical to the serial kernels at N="
            << n << " with " << vthreads << " threads\n\n";

  const std::vector<rt::simd::SimdMode> simd_modes =
      bo.simd_given ? std::vector<rt::simd::SimdMode>{bo.simd}
                    : std::vector<rt::simd::SimdMode>{
                          rt::simd::SimdMode::kOff, rt::simd::SimdMode::kAuto};

  const std::vector<Transform> transforms = {
      Transform::kOrig, Transform::kTile, Transform::kEuc3d,
      Transform::kGcdPad, Transform::kPad};
  const struct {
    KernelId kid;
    const char* name;
  } kernels[] = {{KernelId::kJacobi, "JACOBI"},
                 {KernelId::kRedBlack, "REDBLACK"},
                 {KernelId::kResid, "RESID"},
                 {KernelId::kPsinv, "PSINV"}};

  std::vector<std::vector<std::string>> rows;
  long skipped_fallback = 0;
  for (const auto& kn : kernels) {
    for (Transform tr : transforms) {
      for (rt::simd::SimdMode sm : simd_modes) {
        ro.simd = sm;
        double base_mflops = 0;
        for (int t : threads) {
          ro.threads = t;
          const auto r = rt::bench::run_kernel(kn.kid, tr, n, ro);
          // A run that could not honour the request (a pool that spawned
          // fewer threads, a planner fallback) would print a row
          // masquerading as a real data point — skip it and say so below.
          if (r.degraded()) {
            ++skipped_fallback;
            continue;
          }
          if (t == 1) base_mflops = r.host_mflops;
          rt::bench::append_json_record(writer, kn.name, n, r);
          const std::string tile =
              r.plan.tiled ? std::to_string(r.plan.tile.ti) + "x" +
                                 std::to_string(r.plan.tile.tj)
                           : "-";
          rows.push_back({kn.name, std::string(rt::core::transform_name(tr)),
                          tile, rt::simd::simd_level_name(r.simd),
                          std::to_string(t),
                          rt::bench::fmt(r.host_mflops, 1),
                          rt::bench::fmt(base_mflops > 0
                                             ? r.host_mflops / base_mflops
                                             : 0.0,
                                         2)});
        }
      }
    }
  }
  std::cout << "Thread scaling, N=" << n << " (K=" << ro.k_dim
            << "), host wall-clock:\n";
  rt::bench::print_table(
      {"kernel", "transform", "tile", "simd", "threads", "MFlops", "speedup"},
      rows);
  std::cout << "\nspeedup is vs. the 1-thread run of the same (kernel, "
               "transform); hardware_concurrency on this host = "
            << rt::par::ThreadPool::default_threads() << "\n";
  if (skipped_fallback > 0) {
    std::cout << "skipped " << skipped_fallback
              << " degraded configuration(s) (fewer threads than requested "
                 "or a planner fallback)\n";
  }

  // --- Temporal-blocking thread scaling (skew and diamond wavefronts) ---
  // Same thread sweep over the skew and diamond schedules through
  // run_steps, each verified bitwise against the serial ping-pong
  // reference at every width.  Degraded configurations (infeasible plan,
  // a pool that spawned fewer threads) are routed into the skipped count
  // like the serial-fallback rows above.
  if (!bo.temporal_given || bo.temporal != rt::core::TemporalMode::kOff) {
    const long kd = ro.k_dim;
    const int tsteps = bo.steps > 2 ? bo.steps : 4;
    const rt::simd::SimdMode simd_mode =
        bo.simd_given ? bo.simd : rt::simd::SimdMode::kAuto;
    const long cs = rt::bench::outer_cache_elems();
    const Dims3 d = Dims3::unpadded(n, n, kd);
    auto& cache = rt::core::PlanCache::instance();
    const auto secs = [] {
      return std::chrono::duration<double>(
                 std::chrono::steady_clock::now().time_since_epoch())
          .count();
    };
    const double flops =
        6.0 * static_cast<double>(n - 2) * (n - 2) * (kd - 2) * tsteps;

    Array3D<double> ra(d), rb = make_grid(d, 0.5);
    const double t0 = secs();
    rt::kernels::jacobi3d_pingpong(ra, rb, 1.0 / 6.0, tsteps);
    const double ref_mflops = flops / (secs() - t0) / 1e6;
    // run_steps starts from g[start]: it ends as rb, the other as ra.
    const std::size_t start = static_cast<std::size_t>(tsteps % 2);

    std::vector<std::vector<std::string>> trows;
    trows.push_back({"pingpong", "serial", "1", "1",
                     rt::bench::fmt(ref_mflops, 1), "reference"});
    long tskipped = 0;
    bool tdiverged = false;
    for (const auto mode :
         {rt::core::TemporalMode::kSkew, rt::core::TemporalMode::kDiamond}) {
      if (bo.temporal_given && bo.temporal != mode) continue;
      for (int t : threads) {
        const auto rep =
            cache.temporal(mode, cs, n, n, kd, tsteps, bo.bk, t);
        rt::par::ThreadPool pool(t);
        rt::bench::RunResult r;
        r.threads = pool.num_threads();
        r.threads_requested = t;
        r.simd_requested = simd_mode;
        r.simd = rt::simd::exec_level(simd_mode, t);
        r.plan_status = rep.status;
        if (r.degraded()) {
          ++tskipped;
          continue;
        }
        std::vector<Array3D<double>> g;
        g.reserve(2);
        g.emplace_back(d);
        g.emplace_back(d);
        g[start] = make_grid(d, 0.5);
        const double t1 = secs();
        rt::simd::run_steps({t > 1 ? &pool : nullptr, r.simd},
                            KernelId::kJacobi, rt::core::TilingPlan{}, g,
                            tsteps, rep.plan);
        const double dt = secs() - t1;
        r.host_mflops = flops / dt / 1e6;
        if (!interiors_equal(g[1 - start], ra) ||
            !interiors_equal(g[start], rb)) {
          std::cerr << "VERIFY FAILED: temporal "
                    << rt::core::temporal_mode_name(mode)
                    << " differs from serial ping-pong at " << t
                    << " threads\n";
          tdiverged = true;
          continue;
        }
        rt::bench::append_json_record(writer, "JACOBI", n, r)
            .set("temporal", rt::bench::temporal_json(rep.plan));
        trows.push_back({rt::core::temporal_mode_name(mode),
                         std::to_string(rep.plan.bk) + "/" +
                             std::to_string(rep.plan.tb),
                         std::to_string(r.threads),
                         std::to_string(rep.plan.team),
                         rt::bench::fmt(r.host_mflops, 1),
                         "bitwise identical"});
      }
    }
    std::cout << "\nTemporal blocking (tsteps=" << tsteps << ", N=" << n
              << ", K=" << kd << "), host wall-clock:\n";
    rt::bench::print_table(
        {"schedule", "bk/tb", "threads", "team", "MFlops", "verify"}, trows);
    if (tskipped > 0) {
      std::cout << "skipped " << tskipped
                << " degraded temporal configuration(s) (infeasible plan "
                   "or thread-spawn fallback)\n";
    }
    if (tdiverged) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const rt::bench::BenchOptions bo = rt::bench::parse_options(argc, argv);
  const long n = bo.nmax > 0 ? bo.nmax : 400;
  const std::vector<int> threads = thread_sweep(bo.threads);

  rt::bench::RunOptions ro;
  ro.simulate = false;
  ro.time_host = true;
  ro.verify = bo.verify;
  ro.timeout_seconds = bo.timeout_seconds;
  ro.backend = bo.resolved_backend(ro.geom());

  // One size unless --nmin is given: nmin, nmin + nstep, ..., nmax.
  const std::vector<long> sizes = bo.sweep(n, n, n, n);
  rt::obs::MetricsWriter writer;
  int status = 0;
  for (std::size_t i = 0; i < sizes.size() && status == 0; ++i) {
    if (i > 0) std::cout << "\n";
    status = run_size(bo, sizes[i], threads, ro, writer);
  }
  if (!bo.json.empty() && !writer.write_file(bo.json)) {
    std::cerr << "cannot write " << bo.json << "\n";
    return 1;
  }
  return status;
}
