// Quickstart: plan a conflict-free tiling for your 3D stencil and run it.
//
// This walks the full public API in ~60 lines:
//   1. describe the stencil (halo extents + array tile depth),
//   2. ask the planner for a tile + padding targeting your L1,
//   3. allocate padded arrays and run the kernel on the plan's tiles,
//   4. verify against the untiled kernel and compare simulated miss rates.

#include <iostream>

#include "rt/array/array3d.hpp"
#include "rt/bench/runner.hpp"
#include "rt/core/plan.hpp"
#include "rt/kernels/jacobi3d.hpp"
#include "rt/simd/exec.hpp"

int main() {
  using namespace rt;

  // 1. A 6-point (+/-1) stencil needs 3 planes in cache and trims the
  //    iteration tile by 2 in I and J.
  const core::StencilSpec spec = core::StencilSpec::jacobi3d();

  // 2. Plan for a 400x400x30 problem on a 16K direct-mapped L1
  //    (2048 doubles) with the paper's "Pad" transformation.
  const long n = 400, kd = 30, cs = 2048;
  const core::TilingPlan plan =
      core::plan_for(core::Transform::kPad, cs, n, n, spec);
  std::cout << "Plan: tile (TI,TJ) = (" << plan.tile.ti << "," << plan.tile.tj
            << "), padded dims " << plan.dip << "x" << plan.djp << "x" << kd
            << " (logical " << n << "x" << n << "x" << kd << ")\n";

  // 3. Allocate padded arrays and run the kernel on the plan's tiles.
  const array::Dims3 dims = array::Dims3::padded(n, n, kd, plan.dip, plan.djp);
  array::Array3D<double> a(dims), b(dims), a_ref(dims);
  for (long k = 0; k < kd; ++k)
    for (long j = 0; j < n; ++j)
      for (long i = 0; i < n; ++i) b(i, j, k) = 0.001 * (i + j + k);

  //    (Exec{} runs the row sweeps inline; {pool, level} picks threads and
  //    the SIMD level.)
  simd::jacobi(simd::Exec{}, plan, a, b, 1.0 / 6.0);

  // 4. Verify against the untiled kernel...
  kernels::jacobi3d(a_ref, b, 1.0 / 6.0);
  for (long k = 1; k < kd - 1; ++k)
    for (long j = 1; j < n - 1; ++j)
      for (long i = 1; i < n - 1; ++i)
        if (a(i, j, k) != a_ref(i, j, k)) {
          std::cerr << "MISMATCH at " << i << "," << j << "," << k << "\n";
          return 1;
        }
  std::cout << "Tiled result matches the untiled kernel bitwise.\n";

  // ...and compare simulated UltraSparc2 miss rates, original vs Pad.
  bench::RunOptions opts;
  opts.time_steps = 1;
  const auto orig =
      bench::run_kernel(kernels::KernelId::kJacobi, core::Transform::kOrig, n,
                        opts);
  const auto pad = bench::run_kernel(kernels::KernelId::kJacobi,
                                     core::Transform::kPad, n, opts);
  std::cout << "Simulated L1 miss rate: orig " << orig.l1_miss_pct
            << "%  ->  Pad " << pad.l1_miss_pct << "%\n"
            << "Simulated MFlops:       orig " << orig.sim_mflops << "  ->  "
            << "Pad " << pad.sim_mflops << "\n";
  return 0;
}
