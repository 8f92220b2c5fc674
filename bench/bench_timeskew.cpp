// Future-work bench (paper Section 2.1): time skewing vs JI-tiling on the
// *simplified* stencil code of Fig. 5 (top) — a time loop around a single
// Jacobi sweep with ping-pong arrays.
//
// JI-tiling preserves group reuse *within* one sweep; time skewing keeps a
// K-block of planes live across all T sweeps, cutting memory traffic by up
// to T.  The paper's point stands the other way around too: time skewing
// does not apply to the realistic/multigrid codes of Fig. 5 (middle and
// bottom), which is why the paper develops JI-tiling.
//
// Simulated only: the host rows of the same schedules (serial ping-pong
// reference, temporal off, skew and diamond, each checked bit for bit and
// timed) are the temporal rows of bench_threads_scaling.

#include <iostream>
#include <vector>

#include "rt/array/address_space.hpp"
#include "rt/array/array3d.hpp"
#include "rt/bench/options.hpp"
#include "rt/bench/table.hpp"
#include "rt/cachesim/perf_model.hpp"
#include "rt/cachesim/traced_array.hpp"
#include "rt/core/plan.hpp"
#include "rt/core/temporal.hpp"
#include "rt/kernels/jacobi3d.hpp"
#include "rt/kernels/kernel_info.hpp"
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
  st.flops = rt::kernels::kernel_info(rt::kernels::KernelId::kJacobi)
                 .flops_per_point *
             static_cast<std::uint64_t>(n - 2) * (n - 2) * (kd - 2) *
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
    // tsteps run_steps steps on the traced pair (inline, in schedule
    // order), the start state b where run_steps reads it,
    // arrays[tsteps % 2], so step t writes a from b when t is even, as
    // jacobi3d_pingpong does.
    const auto steps = [&](const rt::core::TilingPlan& plan,
                           const rt::core::TemporalPlan& tp) {
      return [&, plan, tp](auto& a, auto& b) {
        std::vector x = tsteps % 2 == 1 ? std::vector{a, b}
                                        : std::vector{b, a};
        rt::simd::run_steps({}, rt::kernels::KernelId::kJacobi, plan, x,
                            tsteps, tp);
      };
    };
    const Out ji = traced_run(n, kd, gcd.dip, gcd.djp, tsteps, steps(gcd, {}));
    // The skew schedule's (step, plane) items.
    const auto skewed =
        steps({}, {.mode = rt::core::TemporalMode::kSkew, .bk = bk});
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
  return 0;
}
