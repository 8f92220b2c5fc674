// Future-work bench (paper Section 2.1): time skewing vs JI-tiling on the
// *simplified* stencil code of Fig. 5 (top) — a time loop around a single
// Jacobi sweep with ping-pong arrays.
//
// JI-tiling preserves group reuse *within* one sweep; time skewing keeps a
// K-block of planes live across all T sweeps, cutting memory traffic by up
// to T.  The paper's point stands the other way around too: time skewing
// does not apply to the realistic/multigrid codes of Fig. 5 (middle and
// bottom), which is why the paper develops JI-tiling.

#include <chrono>
#include <iostream>
#include <vector>

#include "rt/array/address_space.hpp"
#include "rt/array/array3d.hpp"
#include "rt/bench/options.hpp"
#include "rt/bench/runner.hpp"
#include "rt/bench/table.hpp"
#include "rt/cachesim/perf_model.hpp"
#include "rt/cachesim/traced_array.hpp"
#include "rt/core/plan.hpp"
#include "rt/core/plan_cache.hpp"
#include "rt/core/temporal.hpp"
#include "rt/kernels/jacobi3d.hpp"
#include "rt/kernels/kernel_info.hpp"
#include "rt/par/thread_pool.hpp"
#include "rt/simd/exec.hpp"

using rt::array::Array3D;
using rt::array::Dims3;

namespace {

struct Out {
  double l1 = 0, l2 = 0, mflops = 0;
};

template <class Fn>
Out traced_run(long n, long kd, long p1, long p2, int tsteps, Fn&& fn) {
  const Dims3 dims = Dims3::padded(n, n, kd, p1, p2);
  Array3D<double> a(dims), b(dims);
  for (long k = 0; k < kd; ++k)
    for (long j = 0; j < n; ++j)
      for (long i = 0; i < n; ++i) b(i, j, k) = 0.001 * (i + j + k);
  rt::array::AddressSpace space(0, 64);
  const auto ba = space.place("a", static_cast<std::uint64_t>(dims.alloc_elems()));
  const auto bb = space.place("b", static_cast<std::uint64_t>(dims.alloc_elems()));
  rt::cachesim::CacheHierarchy h = rt::cachesim::CacheHierarchy::ultrasparc2();
  rt::cachesim::TracedArray3D<double> ta(a, ba, h), tb(b, bb, h);
  fn(ta, tb);
  auto st = h.stats();
  st.flops = 6ULL * static_cast<std::uint64_t>(n - 2) * (n - 2) * (kd - 2) *
             static_cast<std::uint64_t>(tsteps);
  return Out{100.0 * st.l1.miss_rate(), 100.0 * st.l2_global_miss_rate(),
             rt::cachesim::PerfModel().mflops(st)};
}

}  // namespace

int main(int argc, char** argv) {
  const rt::bench::BenchOptions bo = rt::bench::parse_options(argc, argv);
  // Sizes straddle the L2 feasibility boundary of time skewing: the skew
  // window keeps ~(BK + T) planes of BOTH arrays live, so it only pays off
  // while that window fits the 2MB L2 — N up to ~180 for T=4.  Beyond
  // that, only the paper's JI-tiling keeps helping (and that is the point:
  // time skewing needs "necessarily large tiles", Section 5).
  const std::vector<long> sizes = bo.sweep(96, 320, 64, 32);
  const long kd = 60;
  // --tsteps sets the fused time-step count directly; otherwise it derives
  // from --steps as before (parse_options rejects --tsteps=0 + --temporal).
  const int tsteps = bo.tsteps > 0 ? bo.tsteps : (bo.steps > 2 ? bo.steps : 4);
  const auto spec = rt::core::StencilSpec::jacobi3d();

  std::vector<std::string> header{"N", "version", "L1 miss %", "L2 miss %",
                                  "sim MFlops"};
  std::vector<std::vector<std::string>> rows;
  for (long n : bo.simulate ? sizes : std::vector<long>{}) {
    const auto gcd = rt::core::plan_for(rt::core::Transform::kGcdPad, 2048,
                                        n, n, spec);
    // K-block sized so the whole skew window — (BK + T + 2) planes of two
    // arrays — fits the 2MB L2 (time skewing targets the level that can
    // hold whole planes).
    const long l2_elems = 2 * 1024 * 1024 / 8;
    const long bk = std::max(1L, l2_elems / (2 * n * n) - tsteps - 2);

    const Out orig = traced_run(n, kd, n, n, tsteps, [&](auto& a, auto& b) {
      rt::kernels::jacobi3d_pingpong(a, b, 1.0 / 6.0, tsteps);
    });
    const Out ji = traced_run(
        n, kd, gcd.dip, gcd.djp, tsteps, [&](auto& a, auto& b) {
          for (int t = 0; t < tsteps; ++t) {
            auto& dst = t % 2 == 0 ? a : b;
            auto& src = t % 2 == 0 ? b : a;
            rt::simd::for_each_block({}, gcd, n, n, kd, [&](auto... box) {
              rt::kernels::jacobi3d(dst, src, 1.0 / 6.0, box...);
            });
          }
        });
    // The skew schedule's (step, plane) items, inline in schedule order.
    const rt::core::TemporalPlan skew{
        .mode = rt::core::TemporalMode::kSkew, .tsteps = tsteps, .bk = bk};
    const auto skewed = [&](auto& a, auto& b) {
      rt::simd::for_each_step_block(
          {}, skew, n, n, kd, [&](int t, auto... box) {
            if (t % 2 == 0) {
              rt::kernels::jacobi3d(a, b, 1.0 / 6.0, box...);
            } else {
              rt::kernels::jacobi3d(b, a, 1.0 / 6.0, box...);
            }
          });
    };
    const Out ts = traced_run(n, kd, n, n, tsteps, skewed);
    const Out both = traced_run(n, kd, gcd.dip, gcd.djp, tsteps, skewed);

    const auto add = [&](const char* name, const Out& o) {
      rows.push_back({std::to_string(n), name, rt::bench::fmt(o.l1, 1),
                      rt::bench::fmt(o.l2, 2), rt::bench::fmt(o.mflops, 1)});
    };
    add("Orig (T sweeps)", orig);
    add("JI-tiled GcdPad", ji);
    add("Time-skewed (K blocks)", ts);
    add("Time-skewed + GcdPad padding", both);
  }
  if (bo.simulate) {
    std::cout << "Future work (Section 2.1): simplified stencil code, "
              << tsteps << " time steps\n\n";
    rt::bench::print_table(header, rows);
    std::cout << "\nTime skewing reuses planes across sweeps (big L2 win on "
                 "the simplified kernel);\nJI-tiling wins within a sweep on "
                 "the L1 — combining both is the paper's stated\nfuture "
                 "work, previewed in the last row.\n";
  }

  // --- Host axis: temporal blocking as a first-class path ---
  // At the largest size the ping-pong pair no longer fits any cache level,
  // so the spatial paths stream both arrays from memory once per sweep.
  // The temporal schedules keep a plane window resident across all tsteps
  // sweeps instead; every variant runs through rt::simd::run_steps, is
  // planned through PlanCache (degraded plans recorded, never silently
  // clamped), verified bitwise against the serial ping-pong reference, and
  // emitted as a standard JSON record plus a "temporal" block.
  {
    const long n = sizes.back();
    const int threads = bo.threads > 0 ? bo.threads : 1;
    const auto lvl = rt::simd::exec_level(
        bo.simd_given ? bo.simd : rt::simd::SimdMode::kAuto, threads);
    const long cs = rt::bench::outer_cache_elems();
    const Dims3 dims = Dims3::unpadded(n, n, kd);
    rt::par::ThreadPool pool(threads);
    const rt::simd::Exec ex{threads > 1 ? &pool : nullptr, lvl};
    rt::obs::MetricsWriter writer;
    auto& cache = rt::core::PlanCache::instance();
    // --tune: pin stored temporal winners so the cache.temporal() queries
    // below serve measured block depths ahead of the analytic window.
    std::cout << rt::bench::apply_tune_options(bo, cache) << "\n";

    const auto init = [&](Array3D<double>& b) {
      for (long k = 0; k < kd; ++k)
        for (long j = 0; j < n; ++j)
          for (long i = 0; i < n; ++i) b(i, j, k) = 0.001 * (i + j + k);
    };
    const auto secs = [] {
      return std::chrono::duration<double>(
                 std::chrono::steady_clock::now().time_since_epoch())
          .count();
    };
    const double flops =
        6.0 * static_cast<double>(n - 2) * (n - 2) * (kd - 2) * tsteps;

    // Serial ping-pong reference: the values every schedule must hit.
    Array3D<double> ra(dims), rb(dims);
    init(rb);
    const double t0 = secs();
    rt::kernels::jacobi3d_pingpong(ra, rb, 1.0 / 6.0, tsteps);
    const double ref_s = secs() - t0;

    std::vector<std::vector<std::string>> hrows;
    int skipped = 0;
    // One variant: tsteps steps of run_steps under @p trep's schedule
    // (spatial when null), timed, verified bitwise against the reference,
    // and emitted as a table row + JSON record.  A degraded plan, or a pool
    // that spawned fewer threads than asked, becomes a recorded skipped row
    // (RunResult::degraded(): metrics zero, status carrying the reason)
    // instead of a misleading number.
    const auto run_variant = [&](const std::string& name,
                                 const rt::core::TemporalReport* trep) {
      rt::bench::RunResult r;
      r.plan.transform = rt::core::Transform::kOrig;
      r.plan.dip = n;
      r.plan.djp = n;
      r.threads = pool.num_threads();
      r.threads_requested = threads;
      r.simd_requested = bo.simd_given ? bo.simd : rt::simd::SimdMode::kAuto;
      r.simd = lvl;
      if (trep != nullptr) {
        r.plan_status = trep->status;
        r.plan_detail = trep->detail;
      }
      if (r.threads < threads) {
        r.status = rt::guard::Status::kFellBackUntiled;
        r.status_detail = "thread pool degraded to " +
                          std::to_string(r.threads) + " of " +
                          std::to_string(threads);
      }
      bool identical = true;
      if (trep == nullptr || trep->ok()) {
        // run_steps starts from g[tsteps % 2], which therefore ends as the
        // reference's b, and the other array as its a.
        std::vector<Array3D<double>> g;
        g.reserve(2);
        g.emplace_back(dims);
        g.emplace_back(dims);
        const std::size_t start = static_cast<std::size_t>(tsteps % 2);
        init(g[start]);
        const double t1 = secs();
        rt::simd::run_steps(ex, rt::kernels::KernelId::kJacobi,
                            rt::core::TilingPlan{}, g, tsteps,
                            trep != nullptr ? trep->plan
                                            : rt::core::TemporalPlan{});
        const double dt = secs() - t1;
        if (!r.degraded()) r.host_mflops = flops / dt / 1e6;
        for (long k = 0; k < kd && identical; ++k)
          for (long j = 0; j < n && identical; ++j)
            for (long i = 0; i < n; ++i)
              if (g[1 - start](i, j, k) != ra(i, j, k) ||
                  g[start](i, j, k) != rb(i, j, k)) {
                identical = false;
                std::cerr << "ERROR: " << name << " diverged at (" << i
                          << "," << j << "," << k << ")\n";
                break;
              }
      }
      auto& rec = rt::bench::append_json_record(writer, "JACOBI", n, r);
      rec.set("temporal", trep != nullptr
                              ? rt::bench::temporal_json(trep->plan)
                              : rt::obs::JsonValue());
      if (r.degraded()) {
        ++skipped;
        hrows.push_back({name, "-", "skipped: " +
                                        std::string(rt::guard::status_name(
                                            r.plan_status !=
                                                    rt::guard::Status::kOk
                                                ? r.plan_status
                                                : r.status))});
        return true;  // recorded, not a correctness failure
      }
      hrows.push_back({name, rt::bench::fmt(r.host_mflops, 1),
                       identical ? "bitwise identical" : "DIVERGED"});
      return identical;
    };

    bool all_ok = true;
    // Spatial baselines (temporal off): accessor reference and the best
    // spatial par+simd path (rows + thread pool), one full sweep per step.
    {
      rt::bench::RunResult r;
      r.plan.transform = rt::core::Transform::kOrig;
      r.plan.dip = n;
      r.plan.djp = n;
      r.threads = 1;
      r.threads_requested = 1;
      r.host_mflops = flops / ref_s / 1e6;
      auto& rec = rt::bench::append_json_record(writer, "JACOBI", n, r);
      rec.set("temporal", rt::obs::JsonValue());
      hrows.push_back({"pingpong serial (reference)",
                       rt::bench::fmt(r.host_mflops, 1), "reference"});
    }
    all_ok &= run_variant("pingpong rows+par (best spatial)", nullptr);

    const bool want_skew =
        !bo.temporal_given || bo.temporal == rt::core::TemporalMode::kSkew;
    const bool want_diamond =
        !bo.temporal_given || bo.temporal == rt::core::TemporalMode::kDiamond;
    if (want_skew) {
      const auto rep = cache.temporal(rt::core::TemporalMode::kSkew, cs, n,
                                      n, kd, tsteps, bo.bk, threads);
      all_ok &= run_variant(
          "temporal skew (bk=" + std::to_string(rep.plan.bk) + ")", &rep);
    }
    if (want_diamond) {
      const auto rep = cache.temporal(rt::core::TemporalMode::kDiamond, cs,
                                      n, n, kd, tsteps, bo.bk, threads);
      all_ok &= run_variant("temporal diamond (W=" +
                                std::to_string(rep.plan.bk) +
                                ",tb=" + std::to_string(rep.plan.tb) + ")",
                            &rep);
    }

    std::cout << "\nHost temporal blocking at N=" << n << ", " << tsteps
              << " steps, " << threads << " threads, simd "
              << rt::simd::simd_level_name(lvl) << ", cache target "
              << cs / (1024 * 128) << " MB:\n\n";
    rt::bench::print_table({"version", "MFlops", "verify"}, hrows);
    if (skipped > 0) {
      std::cout << "\n" << skipped
                << " degraded configuration(s) recorded as skipped rows "
                   "(see status/plan_status in the JSON).\n";
    }
    if (!bo.json.empty() && !writer.write_file(bo.json)) {
      std::cerr << "cannot write " << bo.json << "\n";
      return 1;
    }
    if (!all_ok) return 1;
  }
  return 0;
}
