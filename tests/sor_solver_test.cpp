// Red-black SOR Poisson solver: convergence, tiled/untiled bitwise
// equivalence, pool-width bitwise equivalence, rhs-kernel consistency, and
// traced execution (a recursive plan's colour passes over its leaves).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "rt/array/address_space.hpp"
#include "rt/cachesim/traced_array.hpp"
#include "rt/core/plan.hpp"
#include "rt/kernels/redblack.hpp"
#include "rt/multigrid/sor_solver.hpp"
#include "rt/simd/exec.hpp"

namespace rt::multigrid {
namespace {

using rt::array::Array3D;

TEST(RedBlackRhs, ZeroRhsMatchesPlainKernels) {
  Array3D<double> a1(12, 12, 10), a2(12, 12, 10), zero(12, 12, 10);
  for (long k = 0; k < 10; ++k)
    for (long j = 0; j < 12; ++j)
      for (long i = 0; i < 12; ++i)
        a1(i, j, k) = a2(i, j, k) = std::sin(0.3 * i + 0.5 * j + 0.7 * k);
  rt::kernels::redblack_naive(a1, 0.4, 0.1);
  rt::kernels::redblack_naive_rhs(a2, zero, 0.4, 0.1);
  for (long k = 0; k < 10; ++k)
    for (long j = 0; j < 12; ++j)
      for (long i = 0; i < 12; ++i) ASSERT_EQ(a1(i, j, k), a2(i, j, k));
}

TEST(RedBlackRhs, TiledMatchesNaive) {
  Array3D<double> a1(14, 13, 9), a2(14, 13, 9), r(14, 13, 9);
  for (long k = 0; k < 9; ++k)
    for (long j = 0; j < 13; ++j)
      for (long i = 0; i < 14; ++i) {
        a1(i, j, k) = a2(i, j, k) = std::cos(0.2 * i + 0.4 * j + 0.6 * k);
        r(i, j, k) = 0.01 * (i - j + k);
      }
  Array3D<double> a3 = a2;
  rt::kernels::redblack_naive_rhs(a1, r, 0.3, 0.11);
  rt::kernels::redblack_tiled_rhs(a2, r, 0.3, 0.11, rt::core::IterTile{4, 3});
  // One colour at a time on the recursive leaves of the same base tile.
  rt::core::TilingPlan rec;
  rec.tiled = true;
  rec.tile = rt::core::IterTile{4, 3};
  rec.schedule = rt::core::LoopSchedule::kRecursive;
  for (long parity = 0; parity < 2; ++parity) {
    rt::simd::for_each_block({}, rec, 14, 13, 9, [&](auto... box) {
      rt::kernels::redblack_colour_rhs(a3, r, 0.3, 0.11, parity, box...);
    });
  }
  for (long k = 0; k < 9; ++k)
    for (long j = 0; j < 13; ++j)
      for (long i = 0; i < 14; ++i) {
        ASSERT_EQ(a1(i, j, k), a2(i, j, k));
        ASSERT_EQ(a1(i, j, k), a3(i, j, k));
      }
}

TEST(SorSolver, ConvergesOnPoisson) {
  SorOptions o;
  o.n = 34;
  SorSolver s(o);
  s.setup();
  const double r0 = (s.sweep(), s.residual_linf());
  const int sweeps = s.solve(r0 / 100.0, 400);
  EXPECT_LT(sweeps, 400) << "SOR failed to reduce the residual 100x";
  EXPECT_LT(s.residual_linf(), r0 / 100.0);
}

TEST(SorSolver, ResidualDecreasesMonotonically) {
  SorOptions o;
  o.n = 26;
  o.omega = 1.2;
  SorSolver s(o);
  s.setup();
  s.sweep();
  double prev = s.residual_linf();
  for (int i = 0; i < 10; ++i) {
    s.sweep();
    const double cur = s.residual_linf();
    EXPECT_LE(cur, prev * 1.001) << "sweep " << i;
    prev = cur;
  }
}

TEST(SorSolver, TiledSolverBitwiseEqualsNaive) {
  SorOptions o1, o2;
  o1.n = o2.n = 34;
  o2.plan = rt::core::plan_for(rt::core::Transform::kGcdPad, 2048, 34, 34,
                               rt::core::StencilSpec::redblack3d());
  ASSERT_TRUE(o2.plan.tiled);
  SorSolver s1(o1), s2(o2);
  s1.setup();
  s2.setup();
  for (int i = 0; i < 5; ++i) {
    s1.sweep();
    s2.sweep();
  }
  EXPECT_EQ(s1.residual_linf(), s2.residual_linf());
  for (long k = 0; k < 34; ++k)
    for (long j = 0; j < 34; ++j)
      for (long i = 0; i < 34; ++i)
        ASSERT_EQ(s1.u()(i, j, k), s2.u()(i, j, k));
}

TEST(SorSolver, PoolSweepsBitwiseEqualSerial) {
  // On a pool the untiled colour sweeps run in place as J slabs (33 rows,
  // which no width from 2 to 4 divides evenly); only the colour barrier
  // orders neighbouring slabs, so every width must compute the serial bits.
  SorOptions ref_o;
  ref_o.n = 35;
  SorSolver ref(ref_o);
  ref.setup();
  for (int i = 0; i < 4; ++i) ref.sweep();
  for (const int threads : {2, 3, 4}) {
    for (const auto simd :
         {rt::simd::SimdMode::kOff, rt::simd::SimdMode::kAuto}) {
      SorOptions o = ref_o;
      o.threads = threads;
      o.simd = simd;
      SorSolver s(o);
      s.setup();
      for (int i = 0; i < 4; ++i) s.sweep();
      for (long k = 0; k < 35; ++k)
        for (long j = 0; j < 35; ++j)
          for (long i = 0; i < 35; ++i)
            ASSERT_EQ(ref.u()(i, j, k), s.u()(i, j, k))
                << threads << " threads at (" << i << "," << j << "," << k
                << ")";
    }
  }
}

/// residual_linf() as one serial pass: the triple loop the solver ran
/// before its planes went to the pool.
double serial_residual_linf(const Array3D<double>& u,
                            const Array3D<double>& f) {
  const long n = u.n1();
  double m = 0.0;
  for (long k = 1; k < n - 1; ++k) {
    for (long j = 1; j < n - 1; ++j) {
      for (long i = 1; i < n - 1; ++i) {
        const double lap = u(i - 1, j, k) + u(i + 1, j, k) + u(i, j - 1, k) +
                           u(i, j + 1, k) + u(i, j, k - 1) + u(i, j, k + 1) -
                           6.0 * u(i, j, k);
        m = std::max(m, std::abs(lap - f(i, j, k)));
      }
    }
  }
  return m;
}

TEST(SorSolver, PooledResidualEqualsSerialPass) {
  // The max over planes is exact in any order: every width computes the
  // serial pass's bits, sweep after sweep.
  std::vector<double> want;
  for (const int threads : {1, 2, 3}) {
    SorOptions o;
    o.n = 29;
    o.threads = threads;
    SorSolver s(o);
    s.setup(7, 12);
    for (int i = 0; i < 5; ++i) {
      s.sweep();
      const double got = s.residual_linf();
      EXPECT_EQ(got, serial_residual_linf(s.u(), s.f()))
          << threads << " threads, sweep " << i;
      if (threads == 1) {
        want.push_back(got);
      } else {
        EXPECT_EQ(got, want[static_cast<std::size_t>(i)])
            << threads << " threads, sweep " << i;
      }
    }
  }
}

TEST(SorSolver, TracedRunMatchesNative) {
  rt::cachesim::CacheHierarchy h = rt::cachesim::CacheHierarchy::ultrasparc2();
  SorOptions o;
  o.n = 20;
  SorSolver nat(o), sim(o, &h);
  nat.setup();
  sim.setup();
  nat.sweep();
  sim.sweep();
  EXPECT_EQ(nat.residual_linf(), sim.residual_linf());
  // 9 accesses per interior point per sweep (8 stencil + 1 rhs).
  EXPECT_EQ(h.stats().l1.accesses, 9u * 18 * 18 * 18);
}

TEST(SorSolver, RecursivePlanRunsColourPassesOverItsLeaves) {
  // The fused Fig. 12 walk is for flat tiled plans only: a recursive plan
  // runs red, then black, over its co_over leaves — traced, with the
  // counts of that walk at the solver's layout, and at kScalar, with
  // redblack_naive_rhs's bits.
  SorOptions o;
  o.n = 26;
  o.plan = {.tiled = true,
            .tile = rt::core::IterTile{5, 4},
            .schedule = rt::core::LoopSchedule::kRecursive};
  const double c1 = 1.0 - o.omega, c2 = o.omega / 6.0;
  SorSolver nat(o);
  ASSERT_EQ(nat.simd_level(), rt::simd::SimdLevel::kScalar);
  nat.setup();
  nat.sweep();
  // The start state: u = 0 and the solver's pre-scaled constant term.
  const Array3D<double>& f = nat.f();
  Array3D<double> u(f.dims()), rhs(f.dims());
  const double c = -(o.omega / 6.0);
  for (long k = 0; k < o.n; ++k)
    for (long j = 0; j < o.n; ++j)
      for (long i = 0; i < o.n; ++i) rhs(i, j, k) = c * f(i, j, k);
  Array3D<double> want = u;
  rt::kernels::redblack_naive_rhs(want, rhs, c1, c2);

  rt::cachesim::CacheHierarchy h = rt::cachesim::CacheHierarchy::ultrasparc2();
  SorSolver sim(o, &h);
  sim.setup();
  sim.sweep();
  rt::cachesim::CacheHierarchy ho = rt::cachesim::CacheHierarchy::ultrasparc2();
  rt::array::AddressSpace space(0, 64);
  const auto elems = static_cast<std::uint64_t>(u.dims().alloc_elems());
  rt::cachesim::TracedArray3D<double> tu(
      u, space.place_mod("u", elems, 8, 16384, 0), ho);
  rt::cachesim::TracedArray3D<double> tr(
      rhs, space.place_mod("rhs", elems, 8, 16384, 8192), ho);
  for (long parity = 0; parity < 2; ++parity) {
    rt::simd::for_each_block({}, o.plan, o.n, o.n, o.n, [&](auto... box) {
      rt::kernels::redblack_colour_rhs(tu, tr, c1, c2, parity, box...);
    });
  }
  EXPECT_EQ(h.stats().l1.accesses, ho.stats().l1.accesses);
  EXPECT_EQ(h.stats().l1.misses, ho.stats().l1.misses);
  EXPECT_EQ(h.stats().l2.accesses, ho.stats().l2.accesses);
  EXPECT_EQ(h.stats().l2.misses, ho.stats().l2.misses);
  for (long k = 0; k < o.n; ++k)
    for (long j = 0; j < o.n; ++j)
      for (long i = 0; i < o.n; ++i) {
        ASSERT_EQ(nat.u()(i, j, k), want(i, j, k));
        ASSERT_EQ(sim.u()(i, j, k), want(i, j, k));
        ASSERT_EQ(u(i, j, k), want(i, j, k));
      }
}

TEST(SorSolver, SolveWithoutToleranceRunsTheBudgetUnchecked) {
  // residual_linf() is never negative, so tol <= 0 can never stop a solve:
  // solve() runs the whole budget with no residual pass at all, and leaves
  // the same bits as the same number of bare sweeps.
  SorOptions o;
  o.n = 22;
  SorSolver ref(o);
  ref.setup();
  for (int i = 0; i < 6; ++i) ref.sweep();
  for (const double tol : {0.0, -1.0}) {
    SorSolver s(o);
    s.setup();
    EXPECT_EQ(s.solve(tol, 6), 6);
    EXPECT_EQ(s.phases().sweep.count, 6);
    EXPECT_EQ(s.phases().residual.count, 0) << "tol " << tol;
    for (long k = 0; k < 22; ++k)
      for (long j = 0; j < 22; ++j)
        for (long i = 0; i < 22; ++i)
          ASSERT_EQ(ref.u()(i, j, k), s.u()(i, j, k));
  }
}

TEST(SorSolver, SolveWithToleranceChecksEverySweep) {
  // tol > 0: one residual_linf() per sweep run, stopping at the first
  // sweep whose residual is below tol, as a hand-written loop does.
  SorOptions o;
  o.n = 22;
  SorSolver probe(o);
  probe.setup();
  probe.sweep();
  const double r1 = probe.residual_linf();
  // One tolerance met part way, one never met within the budget.
  const struct {
    double tol;
    bool early;
  } cases[] = {{r1 / 20.0, true}, {r1 * 1e-12, false}};
  for (const auto& c : cases) {
    const double tol = c.tol;
    SorSolver ref(o);
    ref.setup();
    int expect = 40;
    for (int sweeps = 1; sweeps <= 40; ++sweeps) {
      ref.sweep();
      if (ref.residual_linf() < tol) {
        expect = sweeps;
        break;
      }
    }
    SorSolver s(o);
    s.setup();
    const int got = s.solve(tol, 40);
    EXPECT_EQ(expect < 40, c.early) << "tol " << tol;
    EXPECT_EQ(got, expect) << "tol " << tol;
    EXPECT_EQ(s.phases().sweep.count, got);
    EXPECT_EQ(s.phases().residual.count, got);
    EXPECT_EQ(s.residual_linf(), ref.residual_linf());
  }
}

TEST(SorSolver, RejectsBadParameters) {
  SorOptions o;
  o.n = 2;
  EXPECT_THROW(SorSolver s(o), std::invalid_argument);
  o.n = 20;
  o.omega = 2.5;
  EXPECT_THROW(SorSolver s(o), std::invalid_argument);
}

TEST(SorSolver, OverRelaxationBeatsGaussSeidel) {
  // omega ~ 1.5 should need fewer sweeps than omega = 1.0 for the same
  // tolerance (that is the point of SOR).
  SorOptions gs, sor;
  gs.n = sor.n = 34;
  gs.omega = 1.0;
  sor.omega = 1.6;
  SorSolver a(gs), b(sor);
  a.setup();
  b.setup();
  a.sweep();
  const double tol = a.residual_linf() / 30.0;
  SorSolver a2(gs), b2(sor);
  a2.setup();
  b2.setup();
  const int na = a2.solve(tol, 500);
  const int nb = b2.solve(tol, 500);
  EXPECT_LT(nb, na);
}

}  // namespace
}  // namespace rt::multigrid
