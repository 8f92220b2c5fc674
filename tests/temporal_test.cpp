// Temporal blocking: validated planner semantics, PlanCache temporal
// keying, and the execution contract — rt::simd::run_steps under a skew or
// diamond TemporalPlan is bitwise identical to the serial ping-pong
// reference for every pool width x SimdLevel x tsteps combination,
// including a pool degraded by injected thread-spawn failures
// (RT_GUARD_FAULTS=thread).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "rt/array/array3d.hpp"
#include "rt/core/plan_cache.hpp"
#include "rt/core/temporal.hpp"
#include "rt/guard/fault_injector.hpp"
#include "rt/guard/status.hpp"
#include "rt/kernels/jacobi3d.hpp"
#include "rt/par/thread_pool.hpp"
#include "rt/simd/exec.hpp"

namespace rt::simd {
namespace {

using rt::array::Array3D;
using rt::core::TemporalMode;
using rt::core::TemporalPlan;
using rt::core::TemporalReport;
using rt::core::temporal_plan_checked;
using rt::guard::Status;
using rt::kernels::KernelId;

Array3D<double> make_grid(long n1, long n2, long n3, double seed) {
  Array3D<double> a(n1, n2, n3);
  for (long k = 0; k < n3; ++k)
    for (long j = 0; j < n2; ++j)
      for (long i = 0; i < n1; ++i)
        a(i, j, k) = std::cos(seed + 0.05 * i + 0.11 * j + 0.23 * k);
  return a;
}

void expect_bitwise(const Array3D<double>& x, const Array3D<double>& y,
                    const char* what) {
  ASSERT_EQ(x.n1(), y.n1());
  ASSERT_EQ(x.n2(), y.n2());
  ASSERT_EQ(x.n3(), y.n3());
  for (long k = 0; k < x.n3(); ++k)
    for (long j = 0; j < x.n2(); ++j)
      for (long i = 0; i < x.n1(); ++i)
        ASSERT_EQ(x(i, j, k), y(i, j, k))
            << what << " @ " << i << "," << j << "," << k;
}

/// run_steps of JACOBI under @p tp on a fresh pair whose start state is
/// make_grid(.., 0.7) in arrays[tsteps % 2], checked against
/// jacobi3d_pingpong from the same start: arrays[tsteps % 2] must end as
/// the reference's b and the other array as its a.
void expect_pingpong(const Exec& ex, const TemporalPlan& tp, long n1, long n2,
                     long n3, int tsteps, const char* what) {
  Array3D<double> rb = make_grid(n1, n2, n3, 0.7), ra(n1, n2, n3);
  rt::kernels::jacobi3d_pingpong(ra, rb, 1.0 / 6.0, tsteps);
  const std::size_t start = static_cast<std::size_t>(tsteps > 0 ? tsteps % 2 : 0);
  std::vector<Array3D<double>> g;
  g.emplace_back(n1, n2, n3);
  g.emplace_back(n1, n2, n3);
  g[start] = make_grid(n1, n2, n3, 0.7);
  run_steps(ex, KernelId::kJacobi, rt::core::TilingPlan{}, g, tsteps, tp);
  expect_bitwise(ra, g[1 - start], what);
  expect_bitwise(rb, g[start], what);
}

// ---------------------------------------------------------------------------
// Planner validation matrix
// ---------------------------------------------------------------------------

TEST(TemporalPlanner, ModeNamesRoundTrip) {
  for (TemporalMode m :
       {TemporalMode::kOff, TemporalMode::kSkew, TemporalMode::kDiamond}) {
    TemporalMode back;
    ASSERT_TRUE(rt::core::parse_temporal_mode(
        rt::core::temporal_mode_name(m), &back));
    EXPECT_EQ(back, m);
  }
  TemporalMode m;
  EXPECT_FALSE(rt::core::parse_temporal_mode("wavefront", &m));
  EXPECT_FALSE(rt::core::parse_temporal_mode("", &m));
}

TEST(TemporalPlanner, OffModeIsInvalidArgument) {
  const auto r =
      temporal_plan_checked(TemporalMode::kOff, 1 << 20, 32, 32, 32, 4, 0, 1);
  EXPECT_EQ(r.status, Status::kInvalidArgument);
  EXPECT_EQ(r.plan.mode, TemporalMode::kOff);
}

TEST(TemporalPlanner, RejectsDegenerateInputs) {
  using M = TemporalMode;
  // No interior.
  EXPECT_EQ(temporal_plan_checked(M::kSkew, 1 << 20, 2, 32, 32, 4, 0, 1)
                .status,
            Status::kInvalidArgument);
  EXPECT_EQ(temporal_plan_checked(M::kSkew, 1 << 20, 32, 32, 2, 4, 0, 1)
                .status,
            Status::kInvalidArgument);
  // Non-positive cache target.
  EXPECT_EQ(temporal_plan_checked(M::kSkew, 0, 32, 32, 32, 4, 0, 1).status,
            Status::kInvalidArgument);
  // Negative knobs.
  EXPECT_EQ(temporal_plan_checked(M::kSkew, 1 << 20, 32, 32, 32, -1, 0, 1)
                .status,
            Status::kInvalidArgument);
  EXPECT_EQ(temporal_plan_checked(M::kSkew, 1 << 20, 32, 32, 32, 4, -2, 1)
                .status,
            Status::kInvalidArgument);
  EXPECT_EQ(temporal_plan_checked(M::kSkew, 1 << 20, 32, 32, 32, 4, 0, 0)
                .status,
            Status::kInvalidArgument);
  // Negative halo.
  EXPECT_EQ(temporal_plan_checked(M::kSkew, 1 << 20, 32, 32, 32, 4, 0, 1, -1)
                .status,
            Status::kInvalidArgument);
}

TEST(TemporalPlanner, SkewWindowTooLargeIsInfeasibleNotClamped) {
  // cs of 100 elements cannot hold a (bk + tsteps + 2)-plane ping-pong
  // window of 32x32 planes; the request is kept, not clamped.
  const auto r =
      temporal_plan_checked(TemporalMode::kSkew, 100, 32, 32, 32, 4, 8, 1);
  EXPECT_EQ(r.status, Status::kInfeasible);
  EXPECT_EQ(r.plan.bk, 8) << "explicit bk must never be silently clamped";
  EXPECT_FALSE(r.detail.empty());
}

TEST(TemporalPlanner, DiamondWidthBelowMinimum) {
  const auto r =
      temporal_plan_checked(TemporalMode::kDiamond, 1 << 20, 32, 32, 32, 4, 1,
                            2);
  EXPECT_EQ(r.status, Status::kInvalidArgument);
  EXPECT_GE(r.plan.bk, 2) << "the fallback plan must still be runnable";
}

TEST(TemporalPlanner, AutoPlansAreWellFormed) {
  for (TemporalMode m : {TemporalMode::kSkew, TemporalMode::kDiamond}) {
    const auto r = temporal_plan_checked(m, 1 << 22, 64, 64, 64, 4, 0, 4);
    ASSERT_TRUE(r.ok()) << r.detail;
    EXPECT_EQ(r.plan.mode, m);
    EXPECT_EQ(r.plan.tsteps, 4);
    EXPECT_GE(r.plan.bk, m == TemporalMode::kDiamond ? 2 : 1);
    EXPECT_GE(r.plan.threads, 1);
    EXPECT_GT(r.plan.stages, 0);
    EXPECT_GT(r.plan.occupancy, 0.0);
    EXPECT_LE(r.plan.occupancy, 1.0);
    if (m == TemporalMode::kDiamond) {
      EXPECT_GE(r.plan.tb, 1);
      EXPECT_LE(r.plan.tb, r.plan.bk / 2);
      EXPECT_GE(r.plan.team, 1);
      EXPECT_LE(r.plan.team, r.plan.threads);
    }
  }
}

// ---------------------------------------------------------------------------
// PlanCache temporal keying
// ---------------------------------------------------------------------------

TEST(TemporalPlanCache, EveryTemporalKeyFieldSeparatesEntries) {
  rt::core::PlanCache c;
  const auto base = [&] {
    return c.temporal(TemporalMode::kSkew, 1 << 20, 64, 64, 64, 4, 8, 2, 1);
  };
  base();
  EXPECT_EQ(c.size(), 1u);
  base();
  EXPECT_EQ(c.size(), 1u) << "identical request must hit";
  EXPECT_EQ(c.stats().hits, 1u);

  c.temporal(TemporalMode::kDiamond, 1 << 20, 64, 64, 64, 4, 8, 2, 1);
  EXPECT_EQ(c.size(), 2u) << "mode must be part of the key";
  c.temporal(TemporalMode::kSkew, 1 << 21, 64, 64, 64, 4, 8, 2, 1);
  EXPECT_EQ(c.size(), 3u) << "cs must be part of the key";
  c.temporal(TemporalMode::kSkew, 1 << 20, 65, 64, 64, 4, 8, 2, 1);
  EXPECT_EQ(c.size(), 4u) << "n1 must be part of the key";
  c.temporal(TemporalMode::kSkew, 1 << 20, 64, 65, 64, 4, 8, 2, 1);
  EXPECT_EQ(c.size(), 5u) << "n2 must be part of the key";
  c.temporal(TemporalMode::kSkew, 1 << 20, 64, 64, 65, 4, 8, 2, 1);
  EXPECT_EQ(c.size(), 6u) << "n3 must be part of the key";
  c.temporal(TemporalMode::kSkew, 1 << 20, 64, 64, 64, 5, 8, 2, 1);
  EXPECT_EQ(c.size(), 7u) << "tsteps must be part of the key";
  c.temporal(TemporalMode::kSkew, 1 << 20, 64, 64, 64, 4, 9, 2, 1);
  EXPECT_EQ(c.size(), 8u) << "bk must be part of the key";
  c.temporal(TemporalMode::kSkew, 1 << 20, 64, 64, 64, 4, 8, 3, 1);
  EXPECT_EQ(c.size(), 9u) << "threads must be part of the key";
  c.temporal(TemporalMode::kSkew, 1 << 20, 64, 64, 64, 4, 8, 2, 2);
  EXPECT_EQ(c.size(), 10u) << "halo must be part of the key";

  c.clear();
  EXPECT_EQ(c.size(), 0u);
}

TEST(TemporalPlanCache, CachedReportMatchesDirectPlanning) {
  rt::core::PlanCache c;
  const auto direct =
      temporal_plan_checked(TemporalMode::kDiamond, 1 << 22, 48, 48, 48, 4, 0,
                            3);
  const auto cached =
      c.temporal(TemporalMode::kDiamond, 1 << 22, 48, 48, 48, 4, 0, 3);
  EXPECT_EQ(cached.status, direct.status);
  EXPECT_EQ(cached.plan.bk, direct.plan.bk);
  EXPECT_EQ(cached.plan.tb, direct.plan.tb);
  EXPECT_EQ(cached.plan.team, direct.plan.team);
  EXPECT_EQ(cached.plan.stages, direct.plan.stages);
}

// ---------------------------------------------------------------------------
// Bitwise identity: run_steps schedules vs. serial ping-pong reference
// ---------------------------------------------------------------------------

struct RunCfg {
  long n1, n2, n3;
  int tsteps;
  long bk;  // 0 = auto
};

class TemporalIdentity : public ::testing::TestWithParam<RunCfg> {};

std::vector<SimdLevel> levels_under_test() {
  std::vector<SimdLevel> lv = {SimdLevel::kScalar};
  if (resolve(SimdMode::kAuto) != SimdLevel::kScalar) {
    lv.push_back(resolve(SimdMode::kAuto));
  }
  return lv;
}

/// Every level inline and on 1- to 4-thread pools, each pool width with the
/// plan made for it.
void expect_mode_matches(TemporalMode mode, const RunCfg& c) {
  for (SimdLevel lvl : levels_under_test()) {
    for (int threads : {0, 1, 2, 3, 4}) {
      const auto rep = temporal_plan_checked(mode, 1 << 22, c.n1, c.n2, c.n3,
                                             c.tsteps, c.bk,
                                             std::max(threads, 1));
      rt::par::ThreadPool pool(std::max(threads, 1));
      const Exec ex{threads > 0 ? &pool : nullptr, lvl};
      SCOPED_TRACE(std::string(rt::core::temporal_mode_name(mode)) + " " +
                   simd_level_name(lvl) + " threads " +
                   std::to_string(threads));
      expect_pingpong(ex, rep.plan, c.n1, c.n2, c.n3, c.tsteps, "run");
    }
  }
}

TEST_P(TemporalIdentity, SkewMatchesPingPong) {
  expect_mode_matches(TemporalMode::kSkew, GetParam());
}

TEST_P(TemporalIdentity, DiamondMatchesPingPong) {
  expect_mode_matches(TemporalMode::kDiamond, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TemporalIdentity,
    ::testing::Values(RunCfg{3, 3, 3, 1, 0},    // single interior point
                      RunCfg{3, 3, 3, 5, 2},    // multi-step minimum grid
                      RunCfg{8, 8, 8, 4, 0},    // auto block
                      RunCfg{8, 8, 8, 7, 3},    // tsteps > bk
                      RunCfg{10, 10, 10, 2, 100},  // bk exceeds interior
                      RunCfg{6, 9, 17, 4, 4},   // non-cubic, K largest
                      RunCfg{17, 9, 6, 4, 2},   // non-cubic, one skew block
                      RunCfg{12, 5, 23, 6, 5},
                      RunCfg{9, 9, 9, 0, 2}));  // tsteps = 0: no-op

TEST(TemporalIdentity, ZeroStepsLeavesArraysUntouched) {
  std::vector<Array3D<double>> g;
  g.push_back(make_grid(8, 8, 8, 0.3));
  g.emplace_back(8, 8, 8);
  const std::vector<Array3D<double>> g0 = g;
  TemporalPlan plan;
  plan.mode = TemporalMode::kSkew;
  plan.tsteps = 4;  // run_steps' tsteps = 0 wins over the plan's
  plan.bk = 4;
  run_steps(Exec{nullptr, SimdLevel::kScalar}, KernelId::kJacobi, {}, g, 0,
            plan);
  expect_bitwise(g0[0], g[0], "skew zero-step arrays[0]");
  expect_bitwise(g0[1], g[1], "skew zero-step arrays[1]");
  plan.mode = TemporalMode::kDiamond;
  plan.tb = 1;
  run_steps(Exec{nullptr, SimdLevel::kScalar}, KernelId::kJacobi, {}, g, 0,
            plan);
  expect_bitwise(g0[0], g[0], "diamond zero-step arrays[0]");
  expect_bitwise(g0[1], g[1], "diamond zero-step arrays[1]");
}

// ---------------------------------------------------------------------------
// Degraded thread spawn (fault injection)
// ---------------------------------------------------------------------------

TEST(TemporalDegraded, InjectedSpawnFailureShrinksTheRunNotTheResult) {
  auto& inj = rt::guard::FaultInjector::instance();
  inj.disarm_all();
  // RT_GUARD_FAULTS=thread: every spawn fails, so the pool is built with
  // the calling thread only.
  ASSERT_TRUE(inj.parse_spec("thread"));
  rt::par::ThreadPool pool(4);
  inj.disarm_all();
  EXPECT_LT(pool.num_threads(), 4)
      << "injected spawn failure must be visible in the pool width";
  const auto rep = temporal_plan_checked(TemporalMode::kDiamond, 1 << 22, 10,
                                         10, 10, 3, 4, 4);
  EXPECT_EQ(rep.plan.threads, 4);
  for (SimdLevel lvl : levels_under_test()) {
    expect_pingpong(Exec{&pool, lvl}, rep.plan, 10, 10, 10, 3,
                    "degraded diamond");
  }
}

}  // namespace
}  // namespace rt::simd
