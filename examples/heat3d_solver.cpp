// heat3d_solver: a realistic time-stepped 3D heat-equation solver — the
// paper's "realistic stencil code" pattern (Fig. 5, middle): a time-step
// loop enclosing a stencil nest plus a copy-back nest.
//
// Demonstrates using the library end to end in an application:
//   * plan tiling + padding once for the problem size (Pad transform),
//   * allocate padded arrays,
//   * run the tiled Jacobi sweep every time step,
//   * track convergence to steady state.
//
// Usage: heat3d_solver [N] [steps]   (default 200 40)

#include <cmath>
#include <cstdlib>
#include <iostream>

#include "rt/array/array3d.hpp"
#include "rt/core/plan.hpp"
#include "rt/kernels/jacobi3d.hpp"
#include "rt/simd/exec.hpp"

int main(int argc, char** argv) {
  const long n = argc > 1 ? std::atol(argv[1]) : 200;
  const int steps = argc > 2 ? std::atoi(argv[2]) : 40;
  const long kd = 30;

  // One planning call; the tile works for every sweep.
  const auto spec = rt::core::StencilSpec::jacobi3d();
  const auto plan =
      rt::core::plan_for(rt::core::Transform::kPad, 2048, n, n, spec);
  std::cout << "heat3d: " << n << "x" << n << "x" << kd << ", "
            << steps << " steps, tile (" << plan.tile.ti << ","
            << plan.tile.tj << "), arrays " << plan.dip << "x" << plan.djp
            << "\n";

  const auto dims = rt::array::Dims3::padded(n, n, kd, plan.dip, plan.djp);
  rt::array::Array3D<double> t_new(dims), t_old(dims);

  // Dirichlet-style boundary: hot plate at i = 0, everything else cold.
  for (long k = 0; k < kd; ++k)
    for (long j = 0; j < n; ++j) {
      t_old(0, j, k) = 100.0;
      t_new(0, j, k) = 100.0;
    }

  double prev_probe = 0.0;
  for (int s = 0; s < steps; ++s) {
    // Jacobi relaxation toward the steady-state temperature field.
    rt::simd::jacobi({}, plan, t_new, t_old, 1.0 / 6.0);
    rt::kernels::copy_interior(t_old, t_new);
    if ((s + 1) % 10 == 0) {
      // Probe a point near the hot face — heat reaches it quickly, so the
      // march toward steady state is visible even in short runs.
      const double p = t_old(3, n / 2, kd / 2);
      std::cout << "  step " << (s + 1) << ": T(3, mid, mid) = " << p
                << " (delta " << std::abs(p - prev_probe) << ")\n";
      prev_probe = p;
    }
  }

  // Sanity: heat must diffuse inward from the hot face monotonically in i.
  double prev = 1e9;
  bool monotone = true;
  for (long i = 0; i < n; i += n / 8) {
    const double t = t_old(i, n / 2, kd / 2);
    if (t > prev + 1e-9) monotone = false;
    prev = t;
  }
  std::cout << (monotone ? "Temperature profile decays away from the hot "
                           "face, as physics demands.\n"
                         : "ERROR: non-monotone temperature profile!\n");
  return monotone ? 0 : 1;
}
