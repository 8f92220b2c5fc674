// custom_stencil: bring your own stencil.  Define the reference window as
// a descriptor, let the library derive the tiling parameters ("compilers
// can derive such a cost function directly from the loop nest", §2.3),
// plan a conflict-free tile + pad, and run it through the generic engine
// on the plan's tiles.
//
// The stencil here is a 19-point anisotropic diffusion operator (faces +
// edges, no corners) — not one of the paper's kernels, to show the flow
// generalises.

#include <iostream>

#include "rt/array/array3d.hpp"
#include "rt/bench/table.hpp"
#include "rt/core/euc3d.hpp"
#include "rt/core/plan.hpp"
#include "rt/core/stencil_desc.hpp"
#include "rt/kernels/generic.hpp"
#include "rt/simd/exec.hpp"

int main() {
  using namespace rt;

  // 1. Describe the stencil: 19 points (centre + 6 faces + 12 edges).
  core::StencilDesc d;
  d.name = "diffuse19";
  for (int dk = -1; dk <= 1; ++dk)
    for (int dj = -1; dj <= 1; ++dj)
      for (int di = -1; di <= 1; ++di) {
        const int m = std::abs(di) + std::abs(dj) + std::abs(dk);
        if (m == 0) d.points.push_back({di, dj, dk, 0.4});
        if (m == 1) d.points.push_back({di, dj, dk, 0.06});
        if (m == 2) d.points.push_back({di, dj, dk, 0.02});
      }
  std::cout << "Stencil '" << d.name << "': " << d.arity() << " points\n";

  // 2. Derive the tiling parameters from the reference window.
  const core::StencilSpec spec = d.derive_spec();
  std::cout << "Derived spec: trim (" << spec.trim_i << "," << spec.trim_j
            << "), array tile depth " << spec.atd << "\n";

  // 3. Plan for a 341 x 341 x 40 problem (the paper's pathological DI).
  const long n = 341, kd = 40;
  const auto plan = core::plan_for(core::Transform::kPad, 2048, n, n, spec);
  std::cout << "Plan: tile (" << plan.tile.ti << "," << plan.tile.tj
            << "), padded " << plan.dip << "x" << plan.djp
            << " (cost " << rt::bench::fmt(core::cost(plan.tile, spec), 3)
            << " vs unpadded best "
            << rt::bench::fmt(
                   core::cost(core::euc3d(2048, n, n, spec).tile, spec), 3)
            << ")\n";

  // 4. Run the generic engine, tiled vs untiled, and verify equality.
  const array::Dims3 dims = array::Dims3::padded(n, n, kd, plan.dip, plan.djp);
  array::Array3D<double> in(dims), out1(dims), out2(dims);
  for (long k = 0; k < kd; ++k)
    for (long j = 0; j < n; ++j)
      for (long i = 0; i < n; ++i) in(i, j, k) = 0.01 * ((i * 7 + j * 3 + k) % 17);

  // The tiled run is the block driver's: one box per JI tile, full K (an
  // untiled plan runs as one box).
  kernels::apply_stencil(out1, in, d);
  simd::for_each_block({}, plan, n, n, kd, [&](auto... box) {
    kernels::apply_stencil(out2, in, d, box...);
  });
  for (long k = 1; k < kd - 1; ++k)
    for (long j = 1; j < n - 1; ++j)
      for (long i = 1; i < n - 1; ++i)
        if (out1(i, j, k) != out2(i, j, k)) {
          std::cerr << "MISMATCH\n";
          return 1;
        }
  std::cout << "Generic tiled execution matches untiled bitwise.  Your "
               "stencil is planned\nand running with conflict-free tiles.\n";
  return 0;
}
