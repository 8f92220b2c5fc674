// Tests for bench_util: CLI option parsing, sweep construction, and table
// formatting helpers.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "rt/bench/options.hpp"
#include "rt/bench/table.hpp"
#include "rt/tune/plan_store.hpp"
#include "tmpdir.hpp"

namespace rt::bench {
namespace {

BenchOptions parse(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return parse_options(static_cast<int>(args.size()),
                       const_cast<char**>(args.data()));
}

TEST(Options, Defaults) {
  const BenchOptions o = parse({});
  EXPECT_FALSE(o.full);
  EXPECT_FALSE(o.host);
  EXPECT_TRUE(o.simulate);
  EXPECT_EQ(o.steps, 2);
}

TEST(Options, Flags) {
  const BenchOptions o =
      parse({"--full", "--host", "--no-sim", "--steps=5", "--nmin=100",
             "--nmax=300", "--nstep=10"});
  EXPECT_TRUE(o.full);
  EXPECT_TRUE(o.host);
  EXPECT_FALSE(o.simulate);
  EXPECT_EQ(o.steps, 5);
  EXPECT_EQ(o.nmin, 100);
  EXPECT_EQ(o.nmax, 300);
  EXPECT_EQ(o.nstep, 10);
}

TEST(Options, SweepDefaults) {
  const BenchOptions o = parse({});
  const auto xs = o.sweep(200, 400, 25, 4);
  EXPECT_EQ(xs.front(), 200);
  EXPECT_EQ(xs.back(), 400);
  EXPECT_EQ(xs[1] - xs[0], 25);
}

TEST(Options, SweepFullUsesFineStep) {
  const BenchOptions o = parse({"--full"});
  const auto xs = o.sweep(200, 400, 25, 4);
  EXPECT_EQ(xs[1] - xs[0], 4);
}

TEST(Options, SweepOverrides) {
  const BenchOptions o = parse({"--nmin=100", "--nmax=120", "--nstep=7"});
  const auto xs = o.sweep(200, 400, 25, 4);
  EXPECT_EQ(xs.front(), 100);
  EXPECT_EQ(xs.back(), 120);  // endpoint always included
  EXPECT_EQ(xs[1], 107);
}

TEST(Options, SweepAlwaysIncludesEndpoint) {
  const BenchOptions o = parse({"--nstep=300"});
  const auto xs = o.sweep(200, 400, 25, 4);
  ASSERT_EQ(xs.size(), 2u);
  EXPECT_EQ(xs[0], 200);
  EXPECT_EQ(xs[1], 400);
}

TEST(Options, CountersAndJsonFlags) {
  const BenchOptions d = parse({});
  EXPECT_EQ(d.counters, rt::obs::CounterMode::kAuto);
  EXPECT_TRUE(d.json.empty());
  const BenchOptions o = parse({"--counters=on", "--json=/tmp/out.json"});
  EXPECT_EQ(o.counters, rt::obs::CounterMode::kOn);
  EXPECT_EQ(o.json, "/tmp/out.json");
  const BenchOptions off = parse({"--counters=off"});
  EXPECT_EQ(off.counters, rt::obs::CounterMode::kOff);
}

// Numeric flags are validated in full: garbage must exit(2) with a
// message instead of silently parsing as 0 and selecting a default.
TEST(OptionsDeathTest, RejectsGarbageNumbers) {
  EXPECT_EXIT(parse({"--nmin=abc"}), testing::ExitedWithCode(2),
              "bad numeric value");
  EXPECT_EXIT(parse({"--threads="}), testing::ExitedWithCode(2),
              "bad numeric value");
  EXPECT_EXIT(parse({"--nmax=12x"}), testing::ExitedWithCode(2),
              "bad numeric value");
  EXPECT_EXIT(parse({"--steps=999999999999999999999"}),
              testing::ExitedWithCode(2), "bad numeric value");
}

TEST(OptionsDeathTest, RejectsBadEnumValues) {
  EXPECT_EXIT(parse({"--counters=maybe"}), testing::ExitedWithCode(2),
              "bad --counters value");
  EXPECT_EXIT(parse({"--json="}), testing::ExitedWithCode(2),
              "empty --json");
}

TEST(Options, NegativeThreadsClampsToOne) {
  const BenchOptions o = parse({"--threads=-3"});
  EXPECT_EQ(o.threads, 1);
}

TEST(Options, TuneFlagsParseAndDefaultOff) {
  const BenchOptions d = parse({});
  EXPECT_EQ(d.tune, rt::tune::TuneMode::kOff);
  EXPECT_TRUE(d.plan_store.empty());
  EXPECT_EQ(d.tsteps, 0);
  EXPECT_FALSE(d.tsteps_given);

  const BenchOptions o =
      parse({"--tune=on", "--plan-store=/tmp/p.json", "--tsteps=6"});
  EXPECT_EQ(o.tune, rt::tune::TuneMode::kOn);
  EXPECT_EQ(o.plan_store, "/tmp/p.json");
  EXPECT_EQ(o.tsteps, 6);
  EXPECT_TRUE(o.tsteps_given);
  // Explicit --plan-store wins over every environment default.
  EXPECT_EQ(o.resolved_plan_store(), "/tmp/p.json");
}

TEST(Options, ResolvedPlanStoreFallsBackToTheDurableDefault) {
  const char* old = std::getenv("RT_TUNE_STORE");
  const std::string saved = old != nullptr ? old : "";
  ::setenv("RT_TUNE_STORE", "/tmp/env-plans.json", 1);
  EXPECT_EQ(parse({}).resolved_plan_store(), "/tmp/env-plans.json");
  if (old != nullptr) {
    ::setenv("RT_TUNE_STORE", saved.c_str(), 1);
  } else {
    ::unsetenv("RT_TUNE_STORE");
  }
}

// Contradictory flag combinations must die with exit(2) at the parse
// boundary — a bench that silently reconciled them would print a table for
// a configuration nobody asked for.
TEST(OptionsDeathTest, RejectsBadTuneValuesAndContradictions) {
  EXPECT_EXIT(parse({"--tune=maybe"}), testing::ExitedWithCode(2),
              "bad --tune value");
  EXPECT_EXIT(parse({"--plan-store="}), testing::ExitedWithCode(2),
              "empty --plan-store");
  EXPECT_EXIT(parse({"--tsteps=-1"}), testing::ExitedWithCode(2),
              "--tsteps");
  // Temporal blocking with zero steps to fuse: nothing to skew.
  EXPECT_EXIT(parse({"--temporal=skew", "--tsteps=0"}),
              testing::ExitedWithCode(2), "contradictory");
  // load-only mode against a store that does not exist.
  EXPECT_EXIT(
      parse({"--tune=load", "--plan-store=/nonexistent/rt-tune/p.json"}),
      testing::ExitedWithCode(2), "--tune=load");
}

TEST(Options, RetryFlagsParseAndDefaultToRetryingOn) {
  const BenchOptions d = parse({});
  EXPECT_EQ(d.retries, 3);
  EXPECT_FALSE(d.retries_given);
  EXPECT_EQ(d.retry_budget_ms, 2000);
  EXPECT_EQ(d.backoff_ms, 5);

  const BenchOptions o =
      parse({"--retries=7", "--retry-budget-ms=500", "--backoff-ms=2"});
  EXPECT_EQ(o.retries, 7);
  EXPECT_TRUE(o.retries_given);
  EXPECT_EQ(o.retry_budget_ms, 500);
  EXPECT_TRUE(o.retry_budget_given);
  EXPECT_EQ(o.backoff_ms, 2);
  EXPECT_TRUE(o.backoff_given);

  // An explicit --retries=0 (retrying off) is fine on its own, and a zero
  // budget is fine when retrying is off with it.
  const BenchOptions off = parse({"--retries=0", "--retry-budget-ms=0"});
  EXPECT_EQ(off.retries, 0);
  EXPECT_EQ(off.retry_budget_ms, 0);
}

TEST(OptionsDeathTest, RejectsBadAndContradictoryRetryFlags) {
  EXPECT_EXIT(parse({"--retries=-1"}), testing::ExitedWithCode(2),
              "bad --retries value");
  EXPECT_EXIT(parse({"--retry-budget-ms=-5"}), testing::ExitedWithCode(2),
              "bad --retry-budget-ms value");
  EXPECT_EXIT(parse({"--backoff-ms=abc"}), testing::ExitedWithCode(2),
              "bad numeric value");
  // Retrying enabled (default --retries=3) with zero time to retry in.
  EXPECT_EXIT(parse({"--retry-budget-ms=0"}), testing::ExitedWithCode(2),
              "contradictory");
  EXPECT_EXIT(parse({"--retries=2", "--retry-budget-ms=0"}),
              testing::ExitedWithCode(2), "contradictory");
  // A backoff curve no retry will ever walk.
  EXPECT_EXIT(parse({"--backoff-ms=9", "--retries=0"}),
              testing::ExitedWithCode(2), "contradictory");
}

TEST(Options, TuneLoadAcceptsAnExistingStoreFile) {
  const rt::test::TmpDir tmp("rt_bench_tune_load_test");
  const std::string path = tmp.file("plans.json");
  std::ofstream(path) << "{}\n";  // existence is all parse checks here
  const std::string flag = "--plan-store=" + path;
  const BenchOptions o = parse({"--tune=load", flag.c_str()});
  EXPECT_EQ(o.tune, rt::tune::TuneMode::kLoad);
}

TEST(Options, BackendFlagParsesAndDefaultsToModel) {
  const BenchOptions d = parse({});
  EXPECT_EQ(d.backend, rt::core::Backend::kModel);
  EXPECT_FALSE(d.backend_given);
  EXPECT_FALSE(d.backend_auto);

  EXPECT_EQ(parse({"--backend=model"}).backend, rt::core::Backend::kModel);
  const BenchOptions lat = parse({"--backend=lattice"});
  EXPECT_EQ(lat.backend, rt::core::Backend::kLattice);
  EXPECT_TRUE(lat.backend_given);
  EXPECT_FALSE(lat.backend_auto);
  EXPECT_EQ(parse({"--backend=oblivious"}).backend,
            rt::core::Backend::kOblivious);

  // --backend=auto defers: resolution happens against the geometry the
  // bench actually plans with (probed -> lattice, unprobed -> oblivious).
  const BenchOptions au = parse({"--backend=auto"});
  EXPECT_TRUE(au.backend_auto);
  EXPECT_TRUE(au.backend_given);
  rt::core::CacheGeom g;
  g.probed = true;
  EXPECT_EQ(au.resolved_backend(g), rt::core::Backend::kLattice);
  g.probed = false;
  EXPECT_EQ(au.resolved_backend(g), rt::core::Backend::kOblivious);
  // A named backend resolves to itself regardless of the geometry.
  EXPECT_EQ(lat.resolved_backend(g), rt::core::Backend::kLattice);
}

TEST(OptionsDeathTest, RejectsBadBackendAndPreBackendStore) {
  EXPECT_EXIT(parse({"--backend=euclid"}), testing::ExitedWithCode(2),
              "bad --backend value");

  // A pre-backend (v1) plan store carries winners with no backend id:
  // serving them under an explicit --backend= is a contradiction.
  const rt::test::TmpDir tmp("rt_bench_backend_store_test");
  const std::string path = tmp.file("v1.json");
  std::ofstream(path) << "{\n  \"version\": 1,\n  \"fingerprint\": \"x\",\n"
                         "  \"entries\": []\n}\n";
  const std::string flag = "--plan-store=" + path;
  EXPECT_EXIT(parse({"--backend=lattice", "--tune=load", flag.c_str()}),
              testing::ExitedWithCode(2), "pre-backend plan store");
  EXPECT_EXIT(parse({"--backend=auto", "--tune=load", flag.c_str()}),
              testing::ExitedWithCode(2), "pre-backend plan store");

  // Without an explicit backend the same store parses: rt::tune rejects it
  // as kStale at load time and the bench keeps running on model plans.
  EXPECT_EQ(parse({"--tune=load", flag.c_str()}).tune,
            rt::tune::TuneMode::kLoad);

  // A current-version store satisfies the explicit-backend combination.
  const std::string path2 = tmp.file("v2.json");
  std::ofstream(path2) << "{\n  \"version\": "
                       << rt::tune::kPlanStoreVersion
                       << ",\n  \"fingerprint\": \"x\",\n  \"entries\": []\n"
                          "}\n";
  const std::string flag2 = "--plan-store=" + path2;
  const BenchOptions ok = parse({"--backend=lattice", "--tune=load",
                                 flag2.c_str()});
  EXPECT_EQ(ok.backend, rt::core::Backend::kLattice);
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(3.14159, 0), "3");
  EXPECT_EQ(fmt(-1.5, 1), "-1.5");
}

TEST(Table, PrintTableDoesNotThrow) {
  testing::internal::CaptureStdout();
  print_table({"a", "bb"}, {{"1", "2"}, {"333", "4"}});
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("333"), std::string::npos);
  EXPECT_NE(out.find("bb"), std::string::npos);
}

TEST(Table, PrintSeriesAlignsColumns) {
  testing::internal::CaptureStdout();
  print_series("t", "N", {100, 200}, {"s1", "s2"},
               {{1.5, 2.5}, {3.25, 4.126}}, 2);
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("== t =="), std::string::npos);
  EXPECT_NE(out.find("3.25"), std::string::npos);
  EXPECT_NE(out.find("4.13"), std::string::npos);  // rounded to 2 digits
}

}  // namespace
}  // namespace rt::bench

// --- CSV sink ---
#include <cstdio>
#include <fstream>
#include <sstream>

namespace rt::bench {
namespace {

TEST(Csv, TablesAndSeriesAppendToSink) {
  const rt::test::TmpDir tmp("rt_bench_csv_test");
  const std::string path = tmp.file("tables.csv");
  set_csv_sink(path);
  testing::internal::CaptureStdout();
  print_table({"a", "b"}, {{"1", "x,y"}, {"2", "z\"q"}});
  print_series("series one", "N", {10, 20}, {"s"}, {{1.25, 2.5}}, 2);
  testing::internal::GetCapturedStdout();
  close_csv_sink();

  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string got = ss.str();
  EXPECT_NE(got.find("a,b"), std::string::npos);
  EXPECT_NE(got.find("\"x,y\""), std::string::npos) << got;
  EXPECT_NE(got.find("\"z\"\"q\""), std::string::npos) << got;
  EXPECT_NE(got.find("# series one"), std::string::npos);
  EXPECT_NE(got.find("10,1.25"), std::string::npos);
}

TEST(Csv, NoSinkNoOutput) {
  close_csv_sink();  // ensure off
  testing::internal::CaptureStdout();
  print_table({"h"}, {{"v"}});
  testing::internal::GetCapturedStdout();  // must not crash
  SUCCEED();
}

}  // namespace
}  // namespace rt::bench

// ---- CellTable: the figure driver's simulated-cell table ----

#include <bit>

#include "rt/bench/cells.hpp"
#include "rt/core/gcdpad.hpp"

namespace rt::bench {
namespace {

using rt::core::TilingPlan;
using rt::core::Transform;
using rt::kernels::KernelId;

constexpr long kCellN = 24;

RunOptions tiny_cell() {
  RunOptions ro;
  ro.k_dim = 8;
  ro.time_steps = 1;
  return ro;
}

void expect_same_level(const rt::cachesim::LevelStats& a,
                       const rt::cachesim::LevelStats& b) {
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.read_accesses, b.read_accesses);
  EXPECT_EQ(a.read_misses, b.read_misses);
  EXPECT_EQ(a.write_accesses, b.write_accesses);
  EXPECT_EQ(a.write_misses, b.write_misses);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.writebacks, b.writebacks);
}

void expect_same_sim(const RunResult& a, const RunResult& b) {
  expect_same_level(a.sim.l1, b.sim.l1);
  expect_same_level(a.sim.l2, b.sim.l2);
  EXPECT_EQ(a.sim.flops, b.sim.flops);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.l1_miss_pct),
            std::bit_cast<std::uint64_t>(b.l1_miss_pct));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.l2_miss_pct),
            std::bit_cast<std::uint64_t>(b.l2_miss_pct));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.sim_mflops),
            std::bit_cast<std::uint64_t>(b.sim_mflops));
}

TEST(CellTable, HitReturnsTheCountsOfAFreshRun) {
  CellTable table;
  const RunOptions ro = tiny_cell();
  const RunResult first = table.run(KernelId::kResid, Transform::kGcdPad,
                                    kCellN, ro);
  const RunResult hit = table.run(KernelId::kResid, Transform::kGcdPad,
                                  kCellN, ro);
  const RunResult fresh =
      run_kernel(KernelId::kResid, Transform::kGcdPad, kCellN, ro);
  EXPECT_EQ(table.requested(), 2u);
  EXPECT_EQ(table.simulated(), 1u);
  EXPECT_GT(fresh.sim.l1.accesses, 0u);
  EXPECT_EQ(fresh.sim_accesses, fresh.sim.l1.accesses);
  expect_same_sim(first, fresh);
  expect_same_sim(hit, fresh);
  EXPECT_EQ(hit.plan.dip, fresh.plan.dip);
  EXPECT_EQ(hit.plan.tile, fresh.plan.tile);
}

TEST(CellTable, RepricingEqualsARunAtThatClockBitForBit) {
  CellTable table;
  RunOptions ro = tiny_cell();
  const RunResult at360 =
      table.run(KernelId::kJacobi, Transform::kTile, kCellN, ro);
  ro.perf = rt::cachesim::PerfModelParams::ultrasparc2_450();
  const RunResult at450 =
      table.run(KernelId::kJacobi, Transform::kTile, kCellN, ro);
  EXPECT_EQ(table.simulated(), 1u);
  expect_same_sim(at450,
                  run_kernel(KernelId::kJacobi, Transform::kTile, kCellN, ro));
  EXPECT_GT(at450.sim_mflops, at360.sim_mflops);
}

TEST(CellTable, KeySeparatesWaysPolicyStepsKDimAndPadding) {
  const RunOptions base = tiny_cell();
  const TilingPlan plan =
      plan_kernel(KernelId::kJacobi, Transform::kOrig, kCellN, base).plan;
  std::vector<std::pair<TilingPlan, RunOptions>> cells{{plan, base}};
  const auto with = [&](auto change) {
    RunOptions o = base;
    change(o);
    cells.emplace_back(plan, o);
  };
  with([](RunOptions& o) { o.l1.assoc = 2; });
  with([](RunOptions& o) { o.l1.write_allocate = true; });
  with([](RunOptions& o) { o.l1.write_back = true; });
  with([](RunOptions& o) { o.time_steps = 2; });
  with([](RunOptions& o) { o.k_dim = 9; });
  TilingPlan padded = plan;
  padded.dip += 1;
  cells.emplace_back(padded, base);
  padded = plan;
  padded.djp += 1;
  cells.emplace_back(padded, base);

  CellTable table;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& [p, o] = cells[i];
    const CellKey k = cell_key(KernelId::kJacobi, p, kCellN, o);
    for (std::size_t j = 0; j < i; ++j) {
      const auto& [pj, oj] = cells[j];
      const CellKey kj = cell_key(KernelId::kJacobi, pj, kCellN, oj);
      EXPECT_TRUE(k < kj || kj < k) << "cells " << i << " and " << j;
    }
    table.run_with_plan(KernelId::kJacobi, p, kCellN, o);
  }
  EXPECT_EQ(table.simulated(), cells.size());

  // The perf model prices a cell; it does not key one.
  RunOptions other_clock = base;
  other_clock.perf = rt::cachesim::PerfModelParams::ultrasparc2_450();
  table.run_with_plan(KernelId::kJacobi, plan, kCellN, other_clock);
  EXPECT_EQ(table.simulated(), cells.size());
}

TEST(CellTable, TwoRoutesToOnePlanShareACell) {
  // The planner's GcdPad plan and the same plan built by hand from
  // gcd_pad (as the figure driver's L2-target spec builds it) are one cell.
  CellTable table;
  const RunOptions ro = tiny_cell();
  const RunResult planned =
      table.run(KernelId::kJacobi, Transform::kGcdPad, kCellN, ro);
  const auto g = rt::core::gcd_pad(ro.cs_elems(), kCellN, kCellN,
                                   rt::core::StencilSpec::jacobi3d());
  TilingPlan built;
  built.transform = Transform::kGcdPad;
  built.tiled = g.tile.ti > 0 && g.tile.tj > 0;
  built.tile = g.tile;
  built.schedule = rt::core::LoopSchedule::kTiled;
  built.dip = g.dip;
  built.djp = g.djp;
  const RunResult hit =
      table.run_with_plan(KernelId::kJacobi, built, kCellN, ro);
  EXPECT_EQ(table.requested(), 2u);
  EXPECT_EQ(table.simulated(), 1u);
  expect_same_sim(hit, planned);
}

TEST(CellTable, RunPlannedSkipsAnOverflowAndStampsEveryOtherOutcome) {
  rt::core::PlanReport rep;
  rep.plan.dip = 7;
  rep.status = rt::guard::Status::kOverflow;
  rep.detail = "too big";
  int runs = 0;
  const auto run = [&runs](const TilingPlan& p) {
    ++runs;
    RunResult r;
    r.plan = p;
    return r;
  };
  const RunResult skip = run_planned(rep, run);
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(skip.status, rt::guard::Status::kOverflow);
  EXPECT_EQ(skip.status_detail, "too big");
  EXPECT_EQ(skip.plan_status, rt::guard::Status::kOverflow);
  EXPECT_EQ(skip.plan.dip, 7);

  rep.status = rt::guard::Status::kFellBackUntiled;
  rep.detail = "no tile";
  const RunResult ran = run_planned(rep, run);
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(ran.status, rt::guard::Status::kOk);
  EXPECT_EQ(ran.plan_status, rt::guard::Status::kFellBackUntiled);
  EXPECT_EQ(ran.plan_detail, "no tile");
  EXPECT_EQ(ran.plan.dip, 7);
}

TEST(CellTable, JsonHoldsOneRecordPerSimulatedCellWithItsCounts) {
  CellTable table;
  const RunOptions ro = tiny_cell();
  table.run(KernelId::kJacobi, Transform::kOrig, kCellN, ro);
  table.run(KernelId::kJacobi, Transform::kOrig, kCellN, ro);
  const RunResult r = table.run(KernelId::kResid, Transform::kPad, kCellN, ro);
  rt::obs::MetricsWriter w;
  table.append_json(w);
  ASSERT_EQ(w.num_records(), 2u);
  const std::string doc = w.dump();
  EXPECT_NE(doc.find("\"kernel\": \"RESID\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"misses\": " + std::to_string(r.sim.l1.misses)),
            std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"flops\": " + std::to_string(r.sim.flops)),
            std::string::npos)
      << doc;
}

}  // namespace
}  // namespace rt::bench
