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
