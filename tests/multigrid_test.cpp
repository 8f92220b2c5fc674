// Multigrid substrate tests: operator correctness, periodic consistency,
// V-cycle convergence, and exact equivalence of the tiled-RESID solver.

#include <gtest/gtest.h>

#include <cmath>

#include "rt/core/plan.hpp"
#include "rt/multigrid/mg_solver.hpp"
#include "rt/kernels/psinv.hpp"
#include "rt/kernels/transfer.hpp"
#include "rt/multigrid/operators.hpp"
#include "rt/simd/exec.hpp"

namespace rt::multigrid {
namespace {

using rt::array::Array3D;
using rt::kernels::interp_add;
using rt::kernels::nas_mg_c;
using rt::kernels::psinv;
using rt::kernels::rprj3;

Array3D<double> rand_grid(long n, std::uint64_t seed) {
  Array3D<double> a(n, n, n);
  std::uint64_t s = seed * 2654435761u + 1;
  for (long k = 0; k < n; ++k)
    for (long j = 0; j < n; ++j)
      for (long i = 0; i < n; ++i) {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        a(i, j, k) = static_cast<double>(s % 1000) / 1000.0 - 0.5;
      }
  return a;
}

TEST(Comm3, PeriodicGhostsMatchOppositeFaces) {
  Array3D<double> a = rand_grid(10, 1);
  comm3(a);
  for (long k = 1; k < 9; ++k) {
    for (long j = 1; j < 9; ++j) {
      EXPECT_EQ(a(0, j, k), a(8, j, k));
      EXPECT_EQ(a(9, j, k), a(1, j, k));
      EXPECT_EQ(a(j, 0, k), a(j, 8, k));
      EXPECT_EQ(a(j, 9, k), a(j, 1, k));
      EXPECT_EQ(a(j, k, 0), a(j, k, 8));
      EXPECT_EQ(a(j, k, 9), a(j, k, 1));
    }
  }
}

TEST(Comm3, CornersConsistent) {
  Array3D<double> a = rand_grid(6, 2);
  comm3(a);
  EXPECT_EQ(a(0, 0, 0), a(4, 4, 4));
  EXPECT_EQ(a(5, 5, 5), a(1, 1, 1));
  EXPECT_EQ(a(0, 5, 0), a(4, 1, 4));
}

TEST(Zero3, ClearsEverything) {
  Array3D<double> a = rand_grid(8, 3);
  zero3(a);
  for (long k = 0; k < 8; ++k)
    for (long j = 0; j < 8; ++j)
      for (long i = 0; i < 8; ++i) EXPECT_EQ(a(i, j, k), 0.0);
}

TEST(Norm2u3, KnownValues) {
  Array3D<double> a(6, 6, 6);
  a(1, 1, 1) = 4.0;
  a(2, 3, 4) = -3.0;
  const Norms n = norm2u3(a);
  EXPECT_DOUBLE_EQ(n.linf, 4.0);
  EXPECT_DOUBLE_EQ(n.l2, std::sqrt(25.0 / 64.0));
}

TEST(Psinv, ConstantResidualBalancedCoeffs) {
  // Smoother coefficient sum: -3/8 + 6/32 - 12/64 + 0 = -3/8 + 3/16 - 3/16
  // = -3/8, so constant r adds c_sum * r to u.
  Array3D<double> u(8, 8, 8, 1.0), r(8, 8, 8, 2.0);
  psinv(u, r, nas_mg_c());
  EXPECT_NEAR(u(3, 3, 3), 1.0 + 2.0 * (-3.0 / 8.0), 1e-12);
}

TEST(Psinv, TiledMatchesOrig) {
  Array3D<double> r = rand_grid(12, 4);
  Array3D<double> u1 = rand_grid(12, 5);
  psinv(u1, r, nas_mg_c());
  for (const auto s :
       {rt::core::LoopSchedule::kTiled, rt::core::LoopSchedule::kRecursive}) {
    rt::core::TilingPlan plan;
    plan.tiled = true;
    plan.tile = rt::core::IterTile{4, 3};
    plan.schedule = s;
    Array3D<double> u2 = rand_grid(12, 5);
    rt::simd::for_each_block({}, plan, 12, 12, 12, [&](auto... box) {
      psinv(u2, r, nas_mg_c(), box...);
    });
    for (long k = 1; k < 11; ++k)
      for (long j = 1; j < 11; ++j)
        for (long i = 1; i < 11; ++i) EXPECT_EQ(u1(i, j, k), u2(i, j, k));
  }
}

TEST(Rprj3, ConstantFieldRestrictsToSameConstant) {
  // Weights sum to 1/2 + 6/4 + 12/8 + 8/16 = 4; full weighting of a
  // constant c gives 4c (NAS convention; the factor folds into the
  // inter-grid scaling of the operator).
  Array3D<double> fine(10, 10, 10, 1.0);
  Array3D<double> coarse(6, 6, 6);
  rprj3(coarse, fine);
  for (long k = 1; k < 5; ++k)
    for (long j = 1; j < 5; ++j)
      for (long i = 1; i < 5; ++i) EXPECT_NEAR(coarse(i, j, k), 4.0, 1e-12);
}

TEST(Rprj3, CentreMapsToFineCentre) {
  Array3D<double> fine(10, 10, 10);
  fine(5, 5, 5) = 16.0;  // fine centre of coarse (3,3,3): i = 2*3 - 1 = 5
  Array3D<double> coarse(6, 6, 6);
  rprj3(coarse, fine);
  // A coarse-coincident fine point lies only in its own coarse stencil
  // (neighbouring coarse centres are 2 fine cells away).
  EXPECT_DOUBLE_EQ(coarse(3, 3, 3), 8.0);  // 0.5 * 16
  EXPECT_DOUBLE_EQ(coarse(2, 3, 3), 0.0);
  EXPECT_DOUBLE_EQ(coarse(4, 3, 3), 0.0);
}

TEST(Rprj3, MidpointSplitsAcrossCoarseNeighbours) {
  // Face midpoint: seen by the two coarse centres one fine cell away.
  Array3D<double> fine(10, 10, 10);
  fine(4, 5, 5) = 16.0;  // between coarse (2,3,3) and (3,3,3)
  Array3D<double> coarse(6, 6, 6);
  rprj3(coarse, fine);
  EXPECT_DOUBLE_EQ(coarse(2, 3, 3), 4.0);  // face weight 0.25
  EXPECT_DOUBLE_EQ(coarse(3, 3, 3), 4.0);
  EXPECT_DOUBLE_EQ(coarse(2, 2, 3), 0.0);  // two fine cells away in J
}

TEST(Rprj3, EdgeAndCornerMidpointWeights) {
  Array3D<double> fine(10, 10, 10);
  fine(4, 4, 5) = 16.0;  // edge midpoint: 4 coarse neighbours at 0.125
  Array3D<double> coarse(6, 6, 6);
  rprj3(coarse, fine);
  for (long a : {2L, 3L})
    for (long b : {2L, 3L}) EXPECT_DOUBLE_EQ(coarse(a, b, 3), 2.0);

  Array3D<double> fine2(10, 10, 10);
  fine2(4, 4, 4) = 16.0;  // corner midpoint: 8 coarse neighbours at 0.0625
  Array3D<double> coarse2(6, 6, 6);
  rprj3(coarse2, fine2);
  for (long a : {2L, 3L})
    for (long b : {2L, 3L})
      for (long c : {2L, 3L}) EXPECT_DOUBLE_EQ(coarse2(a, b, c), 1.0);
}

TEST(Interp, ConstantCoarseGivesConstantFine) {
  Array3D<double> coarse(6, 6, 6, 2.0);
  Array3D<double> fine(10, 10, 10);
  interp_add(fine, coarse);
  for (long k = 1; k < 9; ++k)
    for (long j = 1; j < 9; ++j)
      for (long i = 1; i < 9; ++i)
        EXPECT_NEAR(fine(i, j, k), 2.0, 1e-12) << i << "," << j << "," << k;
}

TEST(Interp, CoincidentPointCopies) {
  Array3D<double> coarse(6, 6, 6);
  coarse(2, 2, 2) = 8.0;
  Array3D<double> fine(10, 10, 10);
  interp_add(fine, coarse);
  EXPECT_DOUBLE_EQ(fine(3, 3, 3), 8.0);  // fine 2*2-1 = 3, odd: weight 1
  EXPECT_DOUBLE_EQ(fine(4, 3, 3), 4.0);  // midpoint: weight 1/2
  EXPECT_DOUBLE_EQ(fine(4, 4, 3), 2.0);
  EXPECT_DOUBLE_EQ(fine(4, 4, 4), 1.0);
}

TEST(MgSolver, ResidualDecreasesOverIterations) {
  MgOptions o;
  o.lt = 5;  // 34^3 finest grid
  MgSolver s(o);
  s.setup();
  const double initial = s.iterate();
  EXPECT_GT(initial, 0.0);
  double prev = initial;
  for (int it = 0; it < 5; ++it) {
    const double cur = s.iterate();
    EXPECT_LT(cur, prev * 0.9) << "V-cycle must keep reducing the residual";
    prev = cur;
  }
  EXPECT_LT(prev, initial / 50.0) << "cumulative reduction too weak";
}

TEST(MgSolver, TiledSolverBitwiseEqualsOriginal) {
  MgOptions o1, o2;
  o1.lt = o2.lt = 4;
  const long n = (1 << 4) + 2;
  o2.resid_plan =
      rt::core::plan_for(rt::core::Transform::kEuc3d, 2048, n, n,
                         rt::core::StencilSpec::resid27());
  ASSERT_TRUE(o2.resid_plan.tiled);
  MgSolver s1(o1), s2(o2);
  s1.setup();
  s2.setup();
  for (int it = 0; it < 3; ++it) {
    const double r1 = s1.iterate();
    const double r2 = s2.iterate();
    EXPECT_EQ(r1, r2) << "iteration " << it;
  }
  for (long k = 0; k < n; ++k)
    for (long j = 0; j < n; ++j)
      for (long i = 0; i < n; ++i)
        ASSERT_EQ(s1.u()(i, j, k), s2.u()(i, j, k));
}

TEST(MgSolver, PaddedTiledSolverMatchesUnpadded) {
  MgOptions o1, o2;
  o1.lt = o2.lt = 4;
  const long n = (1 << 4) + 2;
  o2.resid_plan =
      rt::core::plan_for(rt::core::Transform::kGcdPad, 2048, n, n,
                         rt::core::StencilSpec::resid27());
  ASSERT_GT(o2.resid_plan.dip, n);
  o2.tile_psinv = true;
  MgSolver s1(o1), s2(o2);
  s1.setup();
  s2.setup();
  for (int it = 0; it < 2; ++it) {
    EXPECT_EQ(s1.iterate(), s2.iterate());
  }
}

TEST(MgSolver, TracedRunMatchesNativeAndCountsAccesses) {
  rt::cachesim::CacheHierarchy h = rt::cachesim::CacheHierarchy::ultrasparc2();
  MgOptions o;
  o.lt = 3;
  MgSolver nat(o), sim(o, &h);
  nat.setup();
  sim.setup();
  EXPECT_EQ(nat.iterate(), sim.iterate());
  EXPECT_GT(h.stats().l1.accesses, 0u);
  EXPECT_GT(sim.flops(), 0u);
}

TEST(MgSolver, RejectsBadLevels) {
  MgOptions o;
  o.lt = 1;
  EXPECT_THROW(MgSolver s(o), std::invalid_argument);
  o.lt = 4;
  o.lb = 4;
  EXPECT_THROW(MgSolver s(o), std::invalid_argument);
}

TEST(MgSolver, RejectsLevelCountsWhoseFinestGridCannotBeSized) {
  // (2^19 + 2)^3 doubles is under 2^63 bytes; (2^20 + 2)^3 is over, and
  // lt >= 63 would shift past a long's width.  None of these allocates.
  EXPECT_TRUE(finest_grid_fits(2));
  EXPECT_TRUE(finest_grid_fits(19));
  EXPECT_FALSE(finest_grid_fits(20));
  EXPECT_FALSE(finest_grid_fits(62));
  EXPECT_FALSE(finest_grid_fits(63));
  EXPECT_FALSE(finest_grid_fits(64));
  EXPECT_FALSE(finest_grid_fits(-1));
  MgOptions o;
  for (const int lt : {20, 63, 64, 1000}) {
    o.lt = lt;
    EXPECT_THROW(MgSolver s(o), std::invalid_argument) << "lt " << lt;
  }
}

}  // namespace
}  // namespace rt::multigrid
