// rt_e2e_compare: judge result set B against result set A, per
// (workload, end-to-end metric), with the bounds in BENCHMARK.json.
//
//   rt_e2e_compare A.json B.json    (from the repository root)
//
// A and B are results files written by bench/e2e/run.sh --out: one run per
// line, normally several seeds per workload.  For each pair the tool
// prints both medians, the change, each side's spread (interquartile range
// over median, the quartiles as Python's statistics.quantiles gives them),
// and a verdict:
//   pass        B is no worse than A by more than the bound
//   regressed   B is worse than A by more than the bound, or B has no
//               value for a pair A has (a run crashed or lost a metric)
//   unresolved  a side's spread is wider than the bound, so the medians
//               cannot resolve a change that size (unless every B run is
//               better than every A run, which passes)
// Each workload also gets a `failed` row: the share of attempted
// operations that failed, summed over its runs.  Any increase over A is a
// regression, since a change can shed load to look faster.
// Exit status: 0 when nothing regressed, 1 on a regression or an incorrect
// run, 2 on unreadable input or sets measured with different run lengths.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "rt/obs/metrics_writer.hpp"

namespace {

using rt::obs::JsonValue;

bool load(const std::string& path, JsonValue* out) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  std::string err;
  if (!f || !rt::obs::json_parse(ss.str(), out, &err)) {
    std::cerr << "rt_e2e_compare: cannot read " << path << " " << err << "\n";
    return false;
  }
  return true;
}

/// One side's untraced runs of one workload.
struct Side {
  std::map<std::string, std::vector<double>> values;  ///< metric -> per run
  double attempted = 0;
  double failed = 0;
};

/// One results file, by workload.
struct ResultSet {
  std::map<std::string, Side> workloads;
  std::set<double> seconds;  ///< run lengths seen
  bool correct = true;       ///< every run passed its checks
};

/// Read a results file: one JSON run per line.  A run whose result is
/// missing (it crashed) or incorrect makes the set incorrect.
bool read_set(const std::string& path, ResultSet* out) {
  std::ifstream f(path);
  if (!f) {
    std::cerr << "rt_e2e_compare: cannot read " << path << "\n";
    return false;
  }
  std::string line;
  for (int n = 1; std::getline(f, line); ++n) {
    if (line.empty()) continue;
    JsonValue run;
    std::string err;
    if (!rt::obs::json_parse(line, &run, &err)) {
      std::cerr << "rt_e2e_compare: " << path << ":" << n << ": " << err << "\n";
      return false;
    }
    const JsonValue* w = run.find("workload");
    const JsonValue* traced = run.find("trace");
    const JsonValue* secs = run.find("seconds");
    if (w == nullptr || secs == nullptr) {
      std::cerr << "rt_e2e_compare: " << path << ":" << n << ": not a run\n";
      return false;
    }
    if (traced != nullptr && traced->as_bool()) continue;
    out->seconds.insert(secs->as_double());
    Side& side = out->workloads[w->as_string()];
    const JsonValue* r = run.find("result");
    const JsonValue* ok = r != nullptr ? r->find("correct") : nullptr;
    if (ok == nullptr || !ok->as_bool()) out->correct = false;
    if (ok == nullptr) continue;
    if (const JsonValue* a = r->find("attempted")) side.attempted += a->as_double();
    if (const JsonValue* fl = r->find("failed")) side.failed += fl->as_double();
    const JsonValue* metrics = r->find("metrics");
    for (std::size_t m = 0; metrics != nullptr && m < metrics->size(); ++m) {
      const JsonValue* v = metrics->at(m)->find("value");
      if (v != nullptr) side.values[metrics->key_at(m)].push_back(v->as_double());
    }
  }
  return true;
}

/// Python statistics.quantiles(data, n=4) (method "exclusive"): Q1, Q3.
std::pair<double, double> quartiles(std::vector<double> d) {
  std::sort(d.begin(), d.end());
  const long ld = static_cast<long>(d.size());
  if (ld == 1) return {d[0], d[0]};
  const long m = ld + 1;
  const auto q = [&](long i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    return (d[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            d[static_cast<std::size_t>(j)] * static_cast<double>(delta)) / 4.0;
  };
  return {q(1), q(3)};
}

double median(std::vector<double> d) {
  std::sort(d.begin(), d.end());
  const std::size_t n = d.size();
  return n % 2 == 1 ? d[n / 2] : (d[n / 2 - 1] + d[n / 2]) / 2.0;
}

double spread(const std::vector<double>& d) {
  const auto [q1, q3] = quartiles(d);
  const double med = median(d);
  return med != 0 ? (q3 - q1) / std::abs(med) : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string bench_path = "BENCHMARK.json";
  if (argc != 3) {
    std::cerr << "usage: rt_e2e_compare A.json B.json\n";
    return 2;
  }
  JsonValue bench;
  ResultSet a, b;
  if (!load(bench_path, &bench) || !read_set(argv[1], &a) || !read_set(argv[2], &b)) {
    return 2;
  }
  const JsonValue* e2e = bench.find("end_to_end");
  if (e2e == nullptr || !e2e->is_array()) {
    std::cerr << "rt_e2e_compare: " << bench_path << " has no end_to_end list\n";
    return 2;
  }
  std::set<double> lengths = a.seconds;
  lengths.insert(b.seconds.begin(), b.seconds.end());
  if (lengths.size() > 1) {
    std::cerr << "rt_e2e_compare: the runs differ in length (";
    for (const double s : lengths) std::cerr << " " << s;
    std::cerr << " s); compare runs of one length\n";
    return 2;
  }

  std::printf("%-13s %-12s %-6s %12s %12s %8s %8s %8s %6s  %s\n", "workload",
              "metric", "unit", "median A", "median B", "change", "spreadA",
              "spreadB", "bound", "verdict");
  int regressions = 0, compared = 0;
  for (const auto& [workload, side_a] : a.workloads) {
    const auto wb = b.workloads.find(workload);
    const Side empty;
    const Side& side_b = wb != b.workloads.end() ? wb->second : empty;
    for (std::size_t i = 0; i < e2e->size(); ++i) {
      const JsonValue& m = *e2e->at(i);
      const std::string name = m.find("name")->as_string();
      const auto va = side_a.values.find(name);
      if (va == side_a.values.end()) continue;
      const auto vb = side_b.values.find(name);
      ++compared;
      if (vb == side_b.values.end()) {
        ++regressions;
        std::printf("%-13s %-12s %-6s %12.6g %12s %8s %8s %8s %6s  regressed\n",
                    workload.c_str(), name.c_str(), m.find("unit")->as_string().c_str(),
                    median(va->second), "missing", "", "", "", "");
        continue;
      }
      const bool lower = m.find("better")->as_string() == "lower";
      const double bound = m.find("bound")->as_double();
      const double ma = median(va->second), mb = median(vb->second);
      const double sa = spread(va->second), sb = spread(vb->second);
      // Change in the "worse" direction, as a share of A's median.
      const double worse = ma != 0 ? (lower ? mb - ma : ma - mb) / std::abs(ma) : 0;
      const auto better = [lower](double x, double y) { return lower ? x < y : x > y; };
      bool all_better = true;
      for (const double x : vb->second) {
        for (const double y : va->second) all_better = all_better && better(x, y);
      }
      const char* verdict = "pass";
      if (std::max(sa, sb) > bound && !all_better) {
        verdict = "unresolved";
      } else if (worse > bound) {
        verdict = "regressed";
        ++regressions;
      }
      std::printf("%-13s %-12s %-6s %12.6g %12.6g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
                  workload.c_str(), name.c_str(), m.find("unit")->as_string().c_str(),
                  ma, mb, (mb - ma) / std::abs(ma) * 100, sa * 100, sb * 100,
                  bound * 100, verdict);
    }
    const double fa = side_a.attempted > 0 ? side_a.failed / side_a.attempted : 0;
    const double fb = side_b.attempted > 0 ? side_b.failed / side_b.attempted : 1;
    const bool more_failed = fb > fa;
    regressions += more_failed ? 1 : 0;
    ++compared;
    std::printf("%-13s %-12s %-6s %12.6g %12.6g %8s %8s %8s %6s  %s\n", workload.c_str(),
                "failed", "ratio", fa, fb, "", "", "", "0%",
                more_failed ? "regressed" : "pass");
  }
  if (!a.correct || !b.correct) {
    std::printf("INCORRECT: a run in the input crashed or failed its correctness checks\n");
  }
  std::printf("%d pairs compared, %d regressed\n", compared, regressions);
  return regressions > 0 || !a.correct || !b.correct || compared == 0 ? 1 : 0;
}
