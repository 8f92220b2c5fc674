// Ablation: does the paper's cost function (Section 2.3) predict measured
// behaviour?  For a fixed padded problem (so every candidate tile is
// conflict-free), sweep tile shapes of roughly equal volume and compare
// Cost(TI,TJ) against simulated L1 miss rates: the model says square-ish
// tiles minimise misses, elongated tiles waste the halo.

#include <iostream>
#include <algorithm>
#include <vector>

#include "rt/bench/options.hpp"
#include "rt/bench/table.hpp"
#include "rt/cachesim/hierarchy.hpp"
#include "rt/cachesim/traced_array.hpp"
#include "rt/core/conflict.hpp"
#include "rt/core/cost.hpp"
#include "rt/core/euc3d.hpp"
#include "rt/kernels/jacobi3d.hpp"
#include "rt/simd/exec.hpp"

int main(int argc, char** argv) {
  // The problem is fixed; parsing still rejects unknown flags (exit 2)
  // and honours --help and --csv.
  rt::bench::parse_options(argc, argv);
  using rt::array::Array3D;
  using rt::array::Dims3;
  const auto spec = rt::core::StencilSpec::jacobi3d();

  // GcdPad-padded 300x300x30 problem: dip=352, djp=304.  Candidate shapes
  // are sub-shapes of the Euc3D Pareto records at depth ATD, so every one
  // is conflict-free: differences in miss rate are then *pure* cost-model
  // effects (halo overhead per tile), not conflicts.
  const long n = 300, kd = 30, dip = 352, djp = 304;
  std::vector<rt::core::IterTile> shapes;
  for (const auto& rec : rt::core::euc3d_enumerate(2048, dip, djp, spec.atd)) {
    const rt::core::IterTile full{rec.ti - spec.trim_i, rec.tj - spec.trim_j};
    if (full.ti <= 0 || full.tj <= 0) continue;
    shapes.push_back(full);
    if (full.ti > 3) shapes.push_back({full.ti / 2, full.tj});
    if (full.tj > 3) shapes.push_back({full.ti, full.tj / 2});
    if (full.ti > 3 && full.tj > 3) {
      shapes.push_back({full.ti / 4 + 1, full.tj});
    }
  }
  std::sort(shapes.begin(), shapes.end(),
            [&](const rt::core::IterTile& a, const rt::core::IterTile& b) {
              return rt::core::cost(a, spec) < rt::core::cost(b, spec);
            });

  std::vector<std::string> header{"tile (TI,TJ)", "cost", "conflict-free",
                                  "L1 miss %", "L2 miss %"};
  std::vector<std::vector<std::string>> rows;
  for (const auto& t : shapes) {
    const Dims3 dims = Dims3::padded(n, n, kd, dip, djp);
    Array3D<double> a(dims), b(dims);
    for (long k = 0; k < kd; ++k)
      for (long j = 0; j < n; ++j)
        for (long i = 0; i < n; ++i) b(i, j, k) = 0.001 * (i + j + k);
    rt::cachesim::CacheHierarchy h = rt::cachesim::CacheHierarchy::ultrasparc2();
    rt::cachesim::TracedArray3D<double> ta(a, 0, h),
        tb(b, static_cast<std::uint64_t>(dims.alloc_elems()) * 8, h);
    rt::simd::jacobi({}, {.tiled = true, .tile = t}, ta, tb, 1.0 / 6.0);
    const auto st = h.stats();
    const bool cf = rt::core::is_conflict_free(
        2048, dip, djp, t.ti + spec.trim_i, t.tj + spec.trim_j, spec.atd);
    rows.push_back({"(" + std::to_string(t.ti) + "," + std::to_string(t.tj) +
                        ")",
                    rt::bench::fmt(rt::core::cost(t, spec), 3),
                    cf ? "yes" : "no",
                    rt::bench::fmt(100.0 * st.l1.miss_rate(), 2),
                    rt::bench::fmt(100.0 * st.l2_global_miss_rate(), 2)});
  }
  std::cout << "Ablation: cost model vs measured miss rate "
               "(JACOBI, padded 300x300x30 -> 352x304x30)\n\n";
  rt::bench::print_table(header, rows);
  std::cout << "\nExpectation: miss rate tracks the cost column — squarer "
               "tiles of the same volume\nfetch fewer halo elements per "
               "block (Section 2.3).\n";
  return 0;
}
