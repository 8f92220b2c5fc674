// Host fast paths of the two whole applications (MgSolver V-cycle,
// SorSolver red-black SOR): any combination of thread pool and SIMD row
// kernels must be *bit-identical* to the serial accessor path — same
// residual norms, same solution arrays — because every parallel
// decomposition preserves the per-element operation order and the colour
// barrier.  Also covers the first-touch initialization contract, the
// traced-run opt-out, and the SorSolver plan-validation statuses
// (kFellBackUntiled / kOverflow) that replace the historical silent clamp.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "rt/cachesim/hierarchy.hpp"
#include "rt/core/plan.hpp"
#include "rt/guard/status.hpp"
#include "rt/multigrid/mg_solver.hpp"
#include "rt/multigrid/sor_solver.hpp"
#include "rt/simd/simd.hpp"

namespace rt::multigrid {
namespace {

using rt::guard::Status;
using rt::simd::SimdLevel;
using rt::simd::SimdMode;

MgOptions mg_base_opts() {
  MgOptions o;
  o.lt = 4;  // n = 18: several levels, fast
  const long n = (1L << o.lt) + 2;
  o.resid_plan = rt::core::plan_for(rt::core::Transform::kGcdPad, 2048, n, n,
                                    rt::core::StencilSpec::resid27());
  o.tile_psinv = true;
  return o;
}

struct MgOutcome {
  std::vector<double> norms;
  std::uint64_t flops = 0;
};

MgOutcome run_mg(const MgOptions& o, int iters = 3) {
  MgSolver s(o);
  s.setup();
  MgOutcome out;
  for (int i = 0; i < iters; ++i) out.norms.push_back(s.iterate());
  out.norms.push_back(s.residual_norm());
  out.flops = s.flops();
  return out;
}

TEST(MgFastPath, ThreadsAndSimdAreBitIdenticalToSerial) {
  const MgOutcome serial = run_mg(mg_base_opts());
  struct Variant {
    int threads;
    SimdMode simd;
  };
  // auto runs kAvx512 on an AVX-512F host, so with avx2 both x86 stamps run.
  const std::vector<Variant> variants = {{3, SimdMode::kOff},
                                         {1, SimdMode::kAuto},
                                         {3, SimdMode::kAuto},
                                         {2, SimdMode::kAvx2}};
  for (const Variant& v : variants) {
    MgOptions o = mg_base_opts();
    o.threads = v.threads;
    o.simd = v.simd;
    const MgOutcome fast = run_mg(o);
    EXPECT_EQ(fast.norms, serial.norms)
        << "threads=" << v.threads << " simd=" << int(v.simd);
    EXPECT_EQ(fast.flops, serial.flops);
  }
}

TEST(MgFastPath, UntiledOperatorsAreBitIdenticalToo) {
  MgOptions o;
  o.lt = 4;  // no resid plan: every level runs the untiled operators
  const MgOutcome serial = run_mg(o);
  o.threads = 3;
  o.simd = SimdMode::kAuto;
  const MgOutcome fast = run_mg(o);
  EXPECT_EQ(fast.norms, serial.norms);
}

TEST(MgFastPath, PooledNormsAreBitIdenticalEveryCycle) {
  // The residual norm is one plane-ordered reduction, inline on the serial
  // solver and on the pool otherwise: every norm of every cycle has the
  // same bits.  lt = 5 (n = 34) with a GcdPad plan that pads the finest
  // grid, so the norm also walks padded rows.
  MgOptions o = mg_base_opts();
  o.lt = 5;
  const long n = (1L << o.lt) + 2;
  o.resid_plan = rt::core::plan_for(rt::core::Transform::kGcdPad, 2048, n, n,
                                    rt::core::StencilSpec::resid27());
  ASSERT_GE(o.resid_plan.dip, n);
  ASSERT_GE(o.resid_plan.djp, n);
  struct Variant {
    int threads;
    SimdMode simd;
  };
  std::vector<double> want;
  for (const Variant& v : {Variant{1, SimdMode::kOff},
                           Variant{3, SimdMode::kOff},
                           Variant{2, SimdMode::kAuto}}) {
    o.threads = v.threads;
    o.simd = v.simd;
    const MgOutcome got = run_mg(o, 4);
    ASSERT_EQ(got.norms.size(), 5u);
    if (want.empty()) want = got.norms;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got.norms[i], want[i])
          << "threads=" << v.threads << " simd=" << int(v.simd) << " norm "
          << i;
    }
  }
}

TEST(MgFastPath, ReportsWidthLevelAndPhases) {
  MgOptions o = mg_base_opts();
  o.threads = 3;
  o.simd = SimdMode::kAuto;
  MgSolver s(o);
  EXPECT_EQ(s.threads(), 3);
  EXPECT_EQ(s.simd_level(), rt::simd::resolve(SimdMode::kAuto));
  // --simd=off runs the accessor operators only single-threaded; a pool
  // runs the kRows row kernels, and the solver reports what ran.
  o.simd = SimdMode::kOff;
  EXPECT_EQ(MgSolver(o).simd_level(), SimdLevel::kRows);
  o.threads = 1;
  EXPECT_EQ(MgSolver(o).simd_level(), SimdLevel::kScalar);
  s.setup();
  (void)s.iterate();
  const MgSolver::Phases& p = s.phases();
  EXPECT_GT(p.resid.count, 0);
  EXPECT_GT(p.psinv.count, 0);
  EXPECT_GT(p.rprj3.count, 0);
  EXPECT_GT(p.interp.count, 0);
  EXPECT_GT(p.comm3.count, 0);
  EXPECT_GT(p.norm.count, 0);
  EXPECT_GT(p.resid.total_s, 0.0);
}

TEST(MgFastPath, FirstTouchGridsStartZeroed) {
  // With a pool the per-level arrays are allocated uninitialized and
  // zeroed plane-parallel (first-touch NUMA placement): the observable
  // contract is that construction still yields all-zero grids, exactly
  // like the serial default construction.
  MgOptions o = mg_base_opts();
  o.threads = 3;
  MgSolver s(o);
  const auto& u = s.u();
  for (long k = 0; k < u.n3(); ++k)
    for (long j = 0; j < u.n2(); ++j)
      for (long i = 0; i < u.n1(); ++i) ASSERT_EQ(u(i, j, k), 0.0);
  const auto& v = s.v();
  for (long k = 0; k < v.n3(); ++k)
    for (long j = 0; j < v.n2(); ++j)
      for (long i = 0; i < v.n1(); ++i) ASSERT_EQ(v(i, j, k), 0.0);
}

TEST(MgFastPath, TracedRunsIgnoreThreadsAndSimd) {
  // TracedArray3D mutates the shared hierarchy on every access, so the
  // traced operators must stay serial scalar whatever the options say.
  MgOptions o = mg_base_opts();
  o.threads = 4;
  o.simd = SimdMode::kAuto;
  rt::cachesim::CacheHierarchy h = rt::cachesim::CacheHierarchy::ultrasparc2();
  MgSolver s(o, &h);
  EXPECT_EQ(s.threads(), 1);
  EXPECT_EQ(s.simd_level(), SimdLevel::kScalar);
  // And the traced numerics match the native serial ones exactly.
  s.setup();
  const double traced = s.iterate();
  MgOptions os = mg_base_opts();
  MgSolver ss(os);
  ss.setup();
  EXPECT_EQ(ss.iterate(), traced);
}

bool same_grid(const rt::array::Array3D<double>& a,
               const rt::array::Array3D<double>& b) {
  for (long k = 0; k < a.n3(); ++k)
    for (long j = 0; j < a.n2(); ++j)
      for (long i = 0; i < a.n1(); ++i)
        if (a(i, j, k) != b(i, j, k)) return false;
  return true;
}

// A convergence loop asks residual_norm() and then iterate() for the same
// (u, v).  Solver A does that; solver B only iterates.  A's iterate() must
// reuse the residual its residual_norm() left behind: same u bits as B
// after every cycle, the same norm back, and one finest RESID + norm2u3
// per cycle instead of two.
void check_held_residual_reuse(const MgOptions& o, bool traced) {
  rt::cachesim::CacheHierarchy ha = rt::cachesim::CacheHierarchy::ultrasparc2();
  rt::cachesim::CacheHierarchy hb = rt::cachesim::CacheHierarchy::ultrasparc2();
  MgSolver a(o, traced ? &ha : nullptr);
  MgSolver b(o, traced ? &hb : nullptr);
  a.setup();
  b.setup();
  // RESID passes per cycle: one per level from lb + 1 to lt inside the
  // V-cycle, plus the finest r = v - Au the cycle starts from.
  const long per_cycle = o.lt - o.lb + 1;
  for (long cycle = 1; cycle <= 4; ++cycle) {
    const double held = a.residual_norm();
    // Nothing ran in between: the held norm again, and no pass.
    EXPECT_EQ(a.residual_norm(), held);
    EXPECT_EQ(a.phases().norm.count, cycle);
    EXPECT_EQ(a.iterate(), held) << "cycle " << cycle;
    EXPECT_EQ(b.iterate(), held) << "cycle " << cycle;
    ASSERT_TRUE(same_grid(a.u(), b.u())) << "cycle " << cycle;
    // Without reuse A would count per_cycle + 1 RESIDs and two norms per
    // cycle: exactly one fewer of each, with flops to match.
    EXPECT_EQ(a.phases().resid.count, cycle * per_cycle);
    EXPECT_EQ(a.phases().norm.count, cycle);
    EXPECT_EQ(a.phases().resid.count, b.phases().resid.count);
    EXPECT_EQ(a.phases().norm.count, b.phases().norm.count);
    EXPECT_EQ(a.flops(), b.flops());
  }
  if (traced) {
    EXPECT_EQ(ha.stats().l1.accesses, hb.stats().l1.accesses);
    EXPECT_EQ(ha.stats().l1.misses, hb.stats().l1.misses);
  }
}

TEST(MgHeldResidual, IterateReusesTheResidualNormBeforeIt) {
  struct Variant {
    int threads;
    SimdMode simd;
  };
  for (const Variant& v : {Variant{1, SimdMode::kOff},
                           Variant{3, SimdMode::kOff},
                           Variant{2, SimdMode::kAuto}}) {
    SCOPED_TRACE(testing::Message()
                 << "threads=" << v.threads << " simd=" << int(v.simd));
    MgOptions o = mg_base_opts();
    o.threads = v.threads;
    o.simd = v.simd;
    check_held_residual_reuse(o, /*traced=*/false);
  }
}

TEST(MgHeldResidual, TracedIterateReusesItToo) {
  check_held_residual_reuse(mg_base_opts(), /*traced=*/true);
}

TEST(MgHeldResidual, SetupDropsTheHeldResidual) {
  const MgOptions o = mg_base_opts();
  MgSolver fresh(o);
  fresh.setup();
  const double first = fresh.iterate();

  MgSolver s(o);
  s.setup();
  (void)s.iterate();
  (void)s.iterate();
  const double held = s.residual_norm();
  EXPECT_NE(held, first);
  const long resid = s.phases().resid.count;
  const long norm = s.phases().norm.count;
  s.setup();
  // The held residual belongs to the old u: iterate() must recompute.
  EXPECT_EQ(s.iterate(), first);
  EXPECT_EQ(s.phases().norm.count, norm + 1);
  EXPECT_EQ(s.phases().resid.count, resid + (o.lt - o.lb + 1));
  EXPECT_TRUE(same_grid(s.u(), fresh.u()));
}

/// FNV-1a over the bit patterns of @p a's logical region.
std::uint64_t bits_hash(const rt::array::Array3D<double>& a) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (long k = 0; k < a.n3(); ++k)
    for (long j = 0; j < a.n2(); ++j)
      for (long i = 0; i < a.n1(); ++i)
        h = (h ^ std::bit_cast<std::uint64_t>(a(i, j, k))) * 0x100000001b3ull;
  return h;
}

struct MgGolden {
  std::uint64_t seed;
  std::uint64_t u_hash;
  std::vector<std::uint64_t> norm_bits;  ///< r0, then one per V-cycle
};

// The bits MG data gives, pinned: a 66^3 solve to ||r|| <= 1e-2 ||r0||
// (the e2e mgrid-solve loop) for two charge seeds of its pool.  RESID
// leaves out its zero face term and PSINV its zero corner term (the
// zero-coefficient rule of rt/core/stencil_terms.hpp); that can move a
// bit only at a -0.0 running value or a non-finite class sum, which MG
// data never produces.  The values were taken before the rule, with every
// term evaluated, so no bit of u or of any cycle's norm moved.  Serial
// accessors and the pooled row stamps must both give them.
TEST(MgGoldenBits, SolveToToleranceKeepsEveryBit) {
  const std::vector<MgGolden> golden = {
      {3,
       0xd8d028b6ef321c94ull,
       {0x3f81e3779b97f4a8ull, 0x3f536c10e57c01fbull, 0x3f416e8a5348f718ull,
        0x3f38a97917cabb54ull, 0x3f31a15264c2554full, 0x3f28b817662b00c7ull,
        0x3f214196281fe97full, 0x3f1844e64dc37ca6ull, 0x3f11449f9baca62aull}},
      {7,
       0x39cc466f8d02adebull,
       {0x3f81e3779b97f4a8ull, 0x3f513f5853c85fc0ull, 0x3f38a411e18b52b4ull,
        0x3f3119dd4de3eb0aull, 0x3f28b936c6add3eaull, 0x3f2166e7d811d307ull,
        0x3f183db16c294a0aull, 0x3f10eee9722ac011ull}},
  };
  struct Variant {
    int threads;
    SimdMode simd;
  };
  for (const MgGolden& g : golden) {
    for (const Variant& v :
         {Variant{1, SimdMode::kOff}, Variant{2, SimdMode::kAuto}}) {
      SCOPED_TRACE(testing::Message() << "seed " << g.seed << " threads="
                                      << v.threads << " simd=" << int(v.simd));
      MgOptions o;
      o.lt = 6;
      o.seed = g.seed;
      o.threads = v.threads;
      o.simd = v.simd;
      MgSolver s(o);
      s.setup();
      const double r0 = s.residual_norm();
      std::vector<std::uint64_t> norms = {std::bit_cast<std::uint64_t>(r0)};
      for (double r = r0; r > 1e-2 * r0 && norms.size() < 20;) {
        s.iterate();
        r = s.residual_norm();
        norms.push_back(std::bit_cast<std::uint64_t>(r));
      }
      EXPECT_EQ(norms, g.norm_bits);
      EXPECT_EQ(bits_hash(s.u()), g.u_hash);
    }
  }
}

SorOptions sor_base_opts(long n = 34) {
  SorOptions o;
  o.n = n;
  o.plan = rt::core::plan_for(rt::core::Transform::kGcdPad, 2048, n, n,
                              rt::core::StencilSpec::redblack3d());
  return o;
}

double run_sor(const SorOptions& o, int sweeps = 4) {
  SorSolver s(o);
  EXPECT_EQ(s.status(), Status::kOk);
  s.setup();
  for (int i = 0; i < sweeps; ++i) s.sweep();
  return s.residual_linf();
}

TEST(SorFastPath, ThreadsAndSimdAreBitIdenticalToSerial) {
  const double serial = run_sor(sor_base_opts());
  for (const int threads : {1, 3}) {
    for (const SimdMode simd : {SimdMode::kOff, SimdMode::kAuto}) {
      SorOptions o = sor_base_opts();
      o.threads = threads;
      o.simd = simd;
      EXPECT_EQ(run_sor(o), serial)
          << "threads=" << threads << " simd=" << int(simd);
    }
  }
}

TEST(SorFastPath, UntiledPlanFastPathIsBitIdenticalToo) {
  SorOptions o;  // no plan: naive two-pass schedule
  o.n = 30;
  const double serial = run_sor(o);
  o.threads = 3;
  o.simd = SimdMode::kAuto;
  EXPECT_EQ(run_sor(o), serial);
}

TEST(SorFastPath, ReportsTheLevelThatRuns) {
  SorOptions o = sor_base_opts();
  EXPECT_EQ(SorSolver(o).simd_level(), SimdLevel::kScalar);
  o.threads = 3;
  EXPECT_EQ(SorSolver(o).simd_level(), SimdLevel::kRows);
  o.simd = SimdMode::kAuto;
  EXPECT_EQ(SorSolver(o).simd_level(), rt::simd::resolve(SimdMode::kAuto));
}

TEST(SorFastPath, FirstTouchArraysStartZeroed) {
  SorOptions o = sor_base_opts();
  o.threads = 3;
  SorSolver s(o);
  const auto& u = s.u();
  for (long k = 0; k < u.n3(); ++k)
    for (long j = 0; j < u.n2(); ++j)
      for (long i = 0; i < u.n1(); ++i) ASSERT_EQ(u(i, j, k), 0.0);
}

TEST(SorFastPath, PhasesAccumulatePerCall) {
  SorOptions o = sor_base_opts();
  SorSolver s(o);
  s.setup();
  s.sweep();
  s.sweep();
  (void)s.residual_linf();
  EXPECT_EQ(s.phases().sweep.count, 2);
  EXPECT_EQ(s.phases().residual.count, 1);
}

TEST(SorStatus, PadSmallerThanNIsRecordedNotSilentlyClamped) {
  // Historical behaviour silently ran unpadded when the plan's pad did not
  // cover n; now the degradation is a typed status with the run proceeding
  // on unpadded dims — and the numerics equal the explicitly-unpadded run.
  SorOptions good;
  good.n = 34;
  const double ref = run_sor(good);

  SorOptions bad = good;
  bad.plan.tiled = true;
  bad.plan.tile = {8, 8};
  bad.plan.dip = 20;  // < n: cannot hold the logical extent
  bad.plan.djp = 40;
  SorSolver s(bad);
  EXPECT_EQ(s.status(), Status::kFellBackUntiled);
  EXPECT_FALSE(s.status_detail().empty());
  EXPECT_EQ(s.u().dims().p1, 34);  // ran unpadded
  s.setup();
  for (int i = 0; i < 4; ++i) s.sweep();
  // Tiling does not change numerics, so the fallback matches the plain
  // unpadded run bit-for-bit.
  EXPECT_EQ(s.residual_linf(), ref);
}

TEST(SorStatus, PaddedAllocationOverflowIsRecorded) {
  SorOptions o;
  o.n = 34;
  o.plan.tiled = true;
  o.plan.tile = {8, 8};
  o.plan.dip = 3L << 30;  // dip * djp * n overflows long
  o.plan.djp = 3L << 30;
  SorSolver s(o);
  EXPECT_EQ(s.status(), Status::kOverflow);
  EXPECT_FALSE(s.status_detail().empty());
  EXPECT_EQ(s.u().dims().p1, 34);  // fell back to unpadded dims
}

TEST(SorStatus, ValidPlanIsOkWithEmptyDetail) {
  SorSolver s(sor_base_opts());
  EXPECT_EQ(s.status(), Status::kOk);
  EXPECT_TRUE(s.status_detail().empty());
  EXPECT_GT(s.u().dims().p1, 34);  // pad applied
}

TEST(SorFastPath, TracedRunsIgnoreThreadsAndSimd) {
  SorOptions o = sor_base_opts();
  o.threads = 4;
  o.simd = SimdMode::kAuto;
  rt::cachesim::CacheHierarchy h = rt::cachesim::CacheHierarchy::ultrasparc2();
  SorSolver s(o, &h);
  EXPECT_EQ(s.threads(), 1);
  EXPECT_EQ(s.simd_level(), SimdLevel::kScalar);
}

}  // namespace
}  // namespace rt::multigrid
