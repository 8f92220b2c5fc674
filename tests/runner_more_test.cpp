// Additional runner integration tests: the PSINV kernel, explicit plans,
// perf-model parameter propagation, k_dim handling, and qualitative
// paper-shape checks for REDBLACK and RESID.

#include <gtest/gtest.h>

#include "rt/bench/runner.hpp"
#include "rt/core/tiling2d.hpp"

namespace rt::bench {
namespace {

using rt::core::Transform;
using rt::kernels::KernelId;

RunOptions fast_opts() {
  RunOptions o;
  o.time_steps = 1;
  o.k_dim = 12;
  return o;
}

TEST(RunnerMore, PsinvRunsAndCountsAccesses) {
  const RunResult r =
      run_kernel(KernelId::kPsinv, Transform::kOrig, 64, fast_opts());
  EXPECT_EQ(r.sim_accesses, 29u * 62 * 62 * 10);
  EXPECT_GT(r.sim_mflops, 0.0);
}

TEST(RunnerMore, PsinvTiledReducesMissesAtLargeN) {
  RunOptions o = fast_opts();
  o.k_dim = 30;
  const auto orig = run_kernel(KernelId::kPsinv, Transform::kOrig, 300, o);
  const auto pad = run_kernel(KernelId::kPsinv, Transform::kPad, 300, o);
  EXPECT_LT(pad.l1_miss_pct, orig.l1_miss_pct);
}

TEST(RunnerMore, RedBlackTiledHelpsAtLargeN) {
  RunOptions o = fast_opts();
  o.k_dim = 30;
  const auto orig = run_kernel(KernelId::kRedBlack, Transform::kOrig, 300, o);
  const auto gcd = run_kernel(KernelId::kRedBlack, Transform::kGcdPad, 300, o);
  EXPECT_LT(gcd.l1_miss_pct, orig.l1_miss_pct);
  EXPECT_GT(gcd.sim_mflops, orig.sim_mflops * 1.2)
      << "REDBLACK should show the largest tiling gains (paper Table 3)";
}

TEST(RunnerMore, ResidTiledHelpsAtLargeN) {
  RunOptions o = fast_opts();
  o.k_dim = 30;
  const auto orig = run_kernel(KernelId::kResid, Transform::kOrig, 362, o);
  const auto gcd = run_kernel(KernelId::kResid, Transform::kGcdPad, 362, o);
  EXPECT_LT(gcd.l1_miss_pct, orig.l1_miss_pct);
}

TEST(RunnerMore, ExplicitPlanIsHonoured) {
  rt::core::TilingPlan plan;
  plan.tiled = true;
  plan.tile = {10, 10};
  plan.dip = 70;
  plan.djp = 68;
  const RunResult r =
      run_kernel_with_plan(KernelId::kJacobi, plan, 64, fast_opts());
  EXPECT_EQ(r.plan.tile, (rt::core::IterTile{10, 10}));
  EXPECT_DOUBLE_EQ(r.mem_elems, 2.0 * 70 * 68 * 12);
}

TEST(RunnerMore, ClockScalesSimMflops) {
  RunOptions o360 = fast_opts();
  RunOptions o450 = fast_opts();
  o450.perf = rt::cachesim::PerfModelParams::ultrasparc2_450();
  const auto a = run_kernel(KernelId::kJacobi, Transform::kOrig, 64, o360);
  const auto b = run_kernel(KernelId::kJacobi, Transform::kOrig, 64, o450);
  EXPECT_NEAR(b.sim_mflops / a.sim_mflops, 450.0 / 360.0, 1e-9);
}

TEST(RunnerMore, KDimChangesWork) {
  RunOptions o = fast_opts();
  o.k_dim = 8;
  const auto r = run_kernel(KernelId::kJacobi, Transform::kOrig, 32, o);
  EXPECT_EQ(r.sim_accesses, 9u * 30 * 30 * 6);
}

TEST(RunnerMore, MoreTimeStepsMoreAccesses) {
  RunOptions o1 = fast_opts(), o3 = fast_opts();
  o3.time_steps = 3;
  const auto a = run_kernel(KernelId::kResid, Transform::kOrig, 48, o1);
  const auto b = run_kernel(KernelId::kResid, Transform::kOrig, 48, o3);
  EXPECT_EQ(b.sim_accesses, 3 * a.sim_accesses);
}

TEST(RunnerMore, EcsPlanViaExplicitPath) {
  rt::core::TilingPlan ecs;
  ecs.tiled = true;
  ecs.tile = rt::core::ecs_tile(2048, 0.10, rt::core::StencilSpec::jacobi3d());
  ecs.dip = ecs.djp = 200;
  const auto r = run_kernel_with_plan(KernelId::kJacobi, ecs, 200, fast_opts());
  EXPECT_GT(r.sim_accesses, 0u);
}

TEST(RunnerMore, PsinvRunsThreadedAndSimdLikeOtherKernels) {
  RunOptions o = fast_opts();
  o.simulate = false;
  o.time_host = true;
  o.min_host_seconds = 0.001;
  o.threads = 4;
  o.simd = rt::simd::SimdMode::kAuto;
  // PSINV gained row and parallel variants: it honours the thread and SIMD
  // request exactly like the other kernels instead of degrading to serial
  // scalar.
  const auto r = run_kernel(KernelId::kPsinv, Transform::kOrig, 32, o);
  EXPECT_EQ(r.threads, 4);
  EXPECT_EQ(r.simd, rt::simd::resolve(rt::simd::SimdMode::kAuto));
  EXPECT_EQ(r.threads_requested, 4);
  EXPECT_EQ(r.simd_requested, rt::simd::SimdMode::kAuto);
  EXPECT_FALSE(r.degraded());

  const auto j = run_kernel(KernelId::kJacobi, Transform::kOrig, 32, o);
  EXPECT_EQ(j.threads, 4);
  EXPECT_FALSE(j.degraded());
}

TEST(RunnerMore, ThreadedSimdOffRunsRowKernelsAndIsNotDegraded) {
  // --simd=off means the accessor kernels only when single-threaded; a
  // threaded run executes the kRows row kernels and must report that,
  // not flag itself degraded (benches skip degraded rows as duplicates).
  RunOptions o = fast_opts();
  o.simulate = false;
  o.time_host = true;
  o.min_host_seconds = 0.001;
  o.threads = 2;
  const auto r = run_kernel(KernelId::kRedBlack, Transform::kGcdPad, 32, o);
  EXPECT_EQ(r.threads, 2);
  EXPECT_EQ(r.simd_requested, rt::simd::SimdMode::kOff);
  EXPECT_EQ(r.simd, rt::simd::SimdLevel::kRows);
  EXPECT_FALSE(r.degraded());
  rt::obs::MetricsWriter w;
  append_json_record(w, "REDBLACK", 32, r);
  EXPECT_NE(w.dump().find("\"simd_level\": \"rows\""), std::string::npos)
      << w.dump();

  o.threads = 1;
  const auto s = run_kernel(KernelId::kRedBlack, Transform::kGcdPad, 32, o);
  EXPECT_EQ(s.simd, rt::simd::SimdLevel::kScalar);
  EXPECT_FALSE(s.degraded());
}

TEST(RunnerMore, HostRunReportsPhasesAndUnavailableCounters) {
  rt::obs::PerfCounters::force_unavailable(true);
  RunOptions o = fast_opts();
  o.simulate = false;
  o.time_host = true;
  o.min_host_seconds = 0.001;
  o.counters = rt::obs::CounterMode::kOn;
  const auto r = run_kernel(KernelId::kJacobi, Transform::kOrig, 32, o);
  rt::obs::PerfCounters::force_unavailable(false);
  EXPECT_GT(r.host_mflops, 0.0);
  EXPECT_EQ(r.warmup.count, 1);
  EXPECT_GE(r.measure.count, 1);
  EXPECT_EQ(r.measure.count, r.hw.iters);
  // Counters were requested but the host (forced) denied them: the run
  // still succeeds and reports the block as unavailable.
  EXPECT_TRUE(r.hw.requested);
  EXPECT_FALSE(r.hw.available);
  EXPECT_FALSE(r.hw.readings.any_valid());

  rt::obs::MetricsWriter w;
  append_json_record(w, "JACOBI", 32, r);
  const std::string doc = w.dump();
  EXPECT_NE(doc.find("\"available\": false"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"cycles\": null"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"sim\": null"), std::string::npos) << doc;
}

TEST(RunnerMore, CountersOffOmitsHwBlock) {
  RunOptions o = fast_opts();
  o.simulate = false;
  o.time_host = true;
  o.min_host_seconds = 0.001;
  ASSERT_EQ(o.counters, rt::obs::CounterMode::kOff);  // RunOptions default
  const auto r = run_kernel(KernelId::kResid, Transform::kOrig, 32, o);
  EXPECT_FALSE(r.hw.requested);
  rt::obs::MetricsWriter w;
  append_json_record(w, "RESID", 32, r);
  EXPECT_NE(w.dump().find("\"hw\": null"), std::string::npos);
}

}  // namespace
}  // namespace rt::bench
