// Reproduces paper Section 4.6: the MGRID application experiment — tile
// RESID (with GcdPad padding) at the finest grid only, and measure the
// whole-application effect.  The paper reports 6% total execution time
// improvement at the SPEC reference size 130x130x130, noting that this
// size "initially encounters a modest L1 miss rate of only 6.8%", and
// expects "additional improvements ... from tiling the remaining
// subroutines" — so we also report the RESID+PSINV-tiled variant.
//
// Inter-variable padding (Section 3.5) staggers the solver's array bases:
// without it a back-to-back layout of the padded 160x144x130 arrays puts
// V(i,j,k) exactly on top of U(i,j,k) in the 16K L1 and *destroys* the
// benefit (see docs/THEORY.md Section 5 and EXPERIMENTS.md).
//
// Host fast path: the same application re-runs natively with the V-cycle
// operators on rt::par threads and/or the rt::simd row kernels
// (--threads=N --simd=auto), bit-identical to the serial accessor path —
// the residual-norm cross-check enforces it.  Per-operator phase timings
// and plan-cache hit/miss counters land in the --json=FILE records.
//
// Plan searches go through rt::core::PlanCache: the GcdPad search runs
// once and every repeat query (per variant, per level, per rerun) is a
// recorded cache hit; the bench asserts the cached plan is identical to a
// direct plan_for_checked search.
//
// Setup/initialisation is excluded from the measured statistics, and the
// solver runs 4 V-cycles (the MGRID reference iteration count).
// Correctness: all variants must produce bitwise-identical residual norms.

#include <chrono>
#include <climits>
#include <iostream>
#include <string>
#include <vector>

#include "rt/bench/options.hpp"
#include "rt/bench/runner.hpp"
#include "rt/bench/table.hpp"
#include "rt/cachesim/perf_model.hpp"
#include "rt/core/plan.hpp"
#include "rt/core/plan_cache.hpp"
#include "rt/multigrid/mg_solver.hpp"
#include "rt/obs/metrics_writer.hpp"

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool same_plan(const rt::core::TilingPlan& a, const rt::core::TilingPlan& b) {
  return a.transform == b.transform && a.tiled == b.tiled &&
         a.tile.ti == b.tile.ti && a.tile.tj == b.tile.tj && a.dip == b.dip &&
         a.djp == b.djp;
}

/// One native full-application run: setup + `iters` V-cycles, timed.
struct HostRun {
  double rn = 0;       ///< final residual norm (bit-identity check)
  double seconds = 0;  ///< wall-clock of the measured V-cycles
  double mflops = 0;   ///< analytic flops of the V-cycles / seconds
  int threads = 1;
  rt::simd::SimdLevel lvl = rt::simd::SimdLevel::kScalar;
  rt::multigrid::MgSolver::Phases phases;
};

HostRun run_host(const rt::multigrid::MgOptions& o, int iters) {
  rt::multigrid::MgSolver s(o);
  s.setup();
  const std::uint64_t f0 = s.flops();
  const double t0 = now_seconds();
  HostRun h;
  for (int i = 0; i < iters; ++i) h.rn = s.iterate();
  h.seconds = now_seconds() - t0;
  h.mflops = static_cast<double>(s.flops() - f0) / h.seconds / 1e6;
  h.threads = s.threads();
  h.lvl = s.simd_level();
  h.phases = s.phases();
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  const rt::bench::BenchOptions bo = rt::bench::parse_options(argc, argv);
  // --nmax is the level count lt: the finest grid is (2^lt + 2)^3.
  const long lt_arg = bo.nmax > 0 ? bo.nmax : 7;
  if (lt_arg < 2 || lt_arg > INT_MAX ||
      !rt::multigrid::finest_grid_fits(static_cast<int>(lt_arg))) {
    std::cerr << "bench_mgrid: --nmax=" << lt_arg
              << ": need lt >= 2 and a (2^lt + 2)^3 finest grid that can "
                 "be sized\n";
    return 2;
  }
  const int lt = static_cast<int>(lt_arg);
  const int iters = bo.steps > 2 ? bo.steps : 4;
  const long n = (1L << lt) + 2;

  const auto resid_spec = rt::core::StencilSpec::resid27();
  rt::core::PlanCache& cache = rt::core::PlanCache::instance();
  // The GcdPad search runs once; the second query — and every per-variant
  // re-query below — is a cache hit returning the memoized report.
  const rt::core::PlanReport direct = rt::core::plan_for_checked(
      rt::core::Transform::kGcdPad, 2048, n, n, resid_spec);
  const rt::core::PlanReport rep =
      cache.plan(rt::core::Transform::kGcdPad, 2048, n, n, resid_spec);
  const rt::core::PlanReport rep2 =
      cache.plan(rt::core::Transform::kGcdPad, 2048, n, n, resid_spec);
  if (!same_plan(rep.plan, direct.plan) || !same_plan(rep2.plan, rep.plan)) {
    std::cerr << "ERROR: PlanCache returned a plan differing from the "
                 "direct search\n";
    return 1;
  }
  // Tuned winners pin *after* the model-consistency check above (a pinned
  // plan intentionally differs from the direct search); the re-query below
  // serves the pinned plan when the store has one for this key.
  std::cout << rt::bench::apply_tune_options(bo, cache) << "\n";
  const rt::core::TilingPlan gcd_plan =
      cache.plan(rt::core::Transform::kGcdPad, 2048, n, n, resid_spec).plan;

  std::cout << "MGRID experiment (paper Section 4.6): " << n << "^3 finest "
            << "grid, " << iters << " V-cycle iterations\n"
            << "  GcdPad plan: tile (" << gcd_plan.tile.ti << ","
            << gcd_plan.tile.tj << "), finest arrays padded to "
            << gcd_plan.dip << "x" << gcd_plan.djp
            << ", bases staggered (Section 3.5)\n\n";

  struct Cfg {
    const char* name;
    bool tiled;
    bool psinv;
  } cfgs[] = {{"Orig", false, false},
              {"GcdPad RESID", true, false},
              {"GcdPad RESID+PSINV", true, true}};

  double base_rn = -1;
  if (bo.simulate) {
    std::vector<std::vector<std::string>> rows;
    double base_cycles = 0, base_cycles_rd = 0, base_host = 0;
    for (const Cfg& c : cfgs) {
      rt::multigrid::MgOptions o;
      o.lt = lt;
      if (c.tiled) {
        o.resid_plan = cache
                           .plan(rt::core::Transform::kGcdPad, 2048, n, n,
                                 resid_spec)
                           .plan;
      }
      o.tile_psinv = c.psinv;

      rt::cachesim::CacheHierarchy hier =
          rt::cachesim::CacheHierarchy::ultrasparc2();
      rt::multigrid::MgSolver sim(o, &hier);
      sim.setup();
      hier.reset_stats();
      double rn = 0;
      for (int i = 0; i < iters; ++i) rn = sim.iterate();
      auto st = hier.stats();
      st.flops = sim.flops();
      rt::cachesim::PerfModelParams rd;
      rd.read_stalls_only = true;
      const double cyc = rt::cachesim::PerfModel().cycles(st);
      const double cyc_rd = rt::cachesim::PerfModel(rd).cycles(st);

      rt::multigrid::MgSolver nat(o);
      nat.setup();
      const double t0 = now_seconds();
      double rn_host = 0;
      for (int i = 0; i < iters; ++i) rn_host = nat.iterate();
      const double host = now_seconds() - t0;
      if (rn_host != rn) {
        std::cerr << "ERROR: traced and native runs disagree\n";
        return 1;
      }
      if (base_rn < 0) {
        base_rn = rn;
        base_cycles = cyc;
        base_cycles_rd = cyc_rd;
        base_host = host;
      } else if (rn != base_rn) {
        std::cerr << "ERROR: tiled solver changed the numerics\n";
        return 1;
      }

      const auto impr = [](double base, double v) {
        return rt::bench::fmt(100.0 * (base - v) / base, 1) + "%";
      };
      rows.push_back(
          {c.name,
           rt::bench::fmt(100.0 * st.l1.miss_rate(), 2),
           rt::bench::fmt(100.0 * st.l1.read_misses /
                              static_cast<double>(st.l1.read_accesses),
                          2),
           rt::bench::fmt(100.0 * st.l2_global_miss_rate(), 2),
           rt::bench::fmt(cyc / 1e6, 0), impr(base_cycles, cyc),
           rt::bench::fmt(cyc_rd / 1e6, 0), impr(base_cycles_rd, cyc_rd),
           rt::bench::fmt(host, 2), impr(base_host, host)});
    }

    rt::bench::print_table({"version", "L1 miss %", "L1 read miss %",
                            "L2 miss % (global)", "Mcycles", "impr",
                            "Mcycles (read-stall)", "impr", "host sec",
                            "impr"},
                           rows);
  }

  // --- Host fast path: the full application on threads + SIMD rows ---
  const int want_threads = bo.threads;  // 0 = all hardware threads
  const rt::simd::SimdMode want_simd =
      bo.simd_given ? bo.simd : rt::simd::SimdMode::kAuto;
  struct HostCfg {
    const char* name;
    int threads;
    rt::simd::SimdMode simd;
  } hostcfgs[] = {
      {"serial tiled (accessor)", 1, rt::simd::SimdMode::kOff},
      {"simd rows", 1, want_simd},
      {"par (accessor)", want_threads, rt::simd::SimdMode::kOff},
      {"par + simd", want_threads, want_simd},
  };

  std::vector<std::vector<std::string>> hrows;
  std::vector<HostRun> hruns;
  double serial_mflops = 0;
  for (const HostCfg& hc : hostcfgs) {
    rt::multigrid::MgOptions o;
    o.lt = lt;
    o.resid_plan =
        cache.plan(rt::core::Transform::kGcdPad, 2048, n, n, resid_spec).plan;
    o.tile_psinv = true;
    o.threads = hc.threads;
    o.simd = hc.simd;
    o.counters = bo.counters;
    const HostRun h = run_host(o, iters);
    if (base_rn < 0) base_rn = h.rn;
    if (h.rn != base_rn) {
      std::cerr << "ERROR: host fast path (" << hc.name
                << ") changed the numerics\n";
      return 1;
    }
    if (serial_mflops == 0) serial_mflops = h.mflops;
    hruns.push_back(h);
    hrows.push_back({hc.name, std::to_string(h.threads),
                     rt::simd::simd_level_name(h.lvl),
                     rt::bench::fmt(h.seconds, 2),
                     rt::bench::fmt(h.mflops, 1),
                     rt::bench::fmt(h.mflops / serial_mflops, 2) + "x"});
  }
  std::cout << "\nHost fast path (full application, " << iters
            << " V-cycles, GcdPad RESID+PSINV):\n\n";
  rt::bench::print_table(
      {"version", "threads", "simd", "host sec", "MFlops", "speedup"}, hrows);
  const auto cs = cache.stats();
  std::cout << "\nplan cache: " << cs.hits << " hits / " << cs.misses
            << " misses (hit rate "
            << rt::bench::fmt(100.0 * cs.hit_rate(), 1)
            << "%); cached plan identical to direct search: yes\n";

  // Per-operator phase breakdown of the fastest variant.
  const rt::multigrid::MgSolver::Phases& ph = hruns.back().phases;
  std::vector<std::vector<std::string>> prow;
  const auto add_phase = [&](const char* name,
                             const rt::obs::PhaseStats& p) {
    prow.push_back({name, std::to_string(p.count),
                    rt::bench::fmt(p.total_s, 3),
                    rt::bench::fmt(p.mean_s() * 1e3, 3)});
  };
  add_phase("resid", ph.resid);
  add_phase("psinv", ph.psinv);
  add_phase("rprj3", ph.rprj3);
  add_phase("interp", ph.interp);
  add_phase("comm3", ph.comm3);
  add_phase("zero3", ph.zero3);
  add_phase("norm2u3", ph.norm);
  std::cout << "\nPer-operator phases (par + simd variant):\n\n";
  rt::bench::print_table({"operator", "calls", "total s", "mean ms"}, prow);

  if (!bo.json.empty()) {
    rt::obs::MetricsWriter w;
    for (std::size_t i = 0; i < hruns.size(); ++i) {
      const HostRun& h = hruns[i];
      rt::obs::JsonValue& rec = w.add_record();
      rec.set("kernel", "MGRID")
          .set("n", n)
          .set("transform", "GcdPad")
          .set("tile", std::to_string(gcd_plan.tile.ti) + "x" +
                           std::to_string(gcd_plan.tile.tj))
          .set("simd", rt::simd::simd_mode_name(hostcfgs[i].simd))
          .set("simd_level", rt::simd::simd_level_name(h.lvl))
          .set("threads", h.threads)
          .set("iters", iters)
          .set("host_seconds", h.seconds)
          .set("mflops", h.mflops)
          .set("speedup_vs_serial", h.mflops / serial_mflops)
          .set("plan_cache", rt::bench::plan_cache_json(cache.stats()))
          .set("phases",
               rt::bench::phases_json({{"resid", h.phases.resid},
                                       {"psinv", h.phases.psinv},
                                       {"rprj3", h.phases.rprj3},
                                       {"interp", h.phases.interp},
                                       {"comm3", h.phases.comm3},
                                       {"zero3", h.phases.zero3},
                                       {"norm2u3", h.phases.norm}}));
    }
    if (!w.write_file(bo.json)) {
      std::cerr << "ERROR: cannot write " << bo.json << "\n";
      return 1;
    }
    std::cout << "\nwrote " << w.num_records() << " records to " << bo.json
              << "\n";
  }

  if (bo.simulate) {
    // Kernel-level context: RESID alone at the reference size, so the
    // app-level number can be related to the paper's Table 3 row.
    rt::bench::RunOptions ro;
    ro.k_dim = n;
    ro.time_steps = 1;
    ro.backend = bo.resolved_backend(ro.geom());
    const auto r_orig = rt::bench::run_kernel(
        rt::kernels::KernelId::kResid, rt::core::Transform::kOrig, n, ro);
    const auto r_gcd = rt::bench::run_kernel(
        rt::kernels::KernelId::kResid, rt::core::Transform::kGcdPad, n, ro);
    std::cout << "\nRESID kernel alone at " << n << "^3: L1 "
              << rt::bench::fmt(r_orig.l1_miss_pct, 2) << "% -> "
              << rt::bench::fmt(r_gcd.l1_miss_pct, 2) << "%, sim MFlops "
              << rt::bench::fmt(r_orig.sim_mflops, 1) << " -> "
              << rt::bench::fmt(r_gcd.sim_mflops, 1) << "\n";

    std::cout << "\nPaper: 6% total-time improvement at 130^3 (hardware).  "
                 "Simulated cycles land\nwithin a few percent of neutral at "
                 "this size — the L1 gain is real (see the\nread-miss "
                 "column) but partially offset in-model by tiled RESID's "
                 "deeper K-sweeps\ncosting some L2 plane reuse at K=130; "
                 "EXPERIMENTS.md discusses the deviation.\n";
  }
  std::cout << "Residual norms bitwise identical across variants: yes\n";
  return 0;
}
