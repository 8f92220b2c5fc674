// rt_e2e: one seeded run of one end-to-end benchmark workload.
//
//   rt_e2e --workload=NAME [--seed=N] [--seconds=S] [--trace=FILE]
//          [--self-test]
//
// Run from the repository root.  An untraced run prints every end-to-end
// metric listed in BENCHMARK.json; a traced run (--trace=FILE) prints
// every per-layer metric instead and writes its spans to FILE.  Each
// metric is printed as a `workload metric value unit` line, and the last
// line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
//
// Exit status: 0 for a correct run, 1 when any output differs from its
// serial reference (or --self-test corrupted one, as it must), 2 for a
// usage or configuration error.

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "rt/obs/metrics_writer.hpp"
#include "trace.hpp"

namespace {

using rt::obs::JsonValue;

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The end_to_end or per_layer list of BENCHMARK.json.
bool read_metric_list(const JsonValue& bench, const char* key,
                      std::vector<MetricSpec>* out) {
  const JsonValue* list = bench.find(key);
  if (list == nullptr || !list->is_array()) return false;
  for (std::size_t i = 0; i < list->size(); ++i) {
    const JsonValue* m = list->at(i);
    const JsonValue* name = m->find("name");
    const JsonValue* unit = m->find("unit");
    if (name == nullptr || unit == nullptr) return false;
    out->push_back({name->as_string(), unit->as_string()});
  }
  return true;
}

int usage(const std::string& why) {
  std::cerr << "rt_e2e: " << why << "\n"
            << "usage: rt_e2e --workload=serve-small|serve-large|mgrid-solve|"
               "jacobi-large [--seed=N] [--seconds=S] [--trace=FILE] "
               "[--self-test]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunConfig cfg;
  const std::string bench_path = "BENCHMARK.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto val = [&a](const char* key) -> const char* {
      const std::string k = std::string(key) + "=";
      return a.rfind(k, 0) == 0 ? a.c_str() + k.size() : nullptr;
    };
    if (const char* v = val("--workload")) {
      cfg.workload = v;
    } else if (const char* v = val("--seed")) {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = val("--seconds")) {
      cfg.seconds = std::atof(v);
    } else if (const char* v = val("--trace")) {
      cfg.trace_file = v;
    } else if (a == "--self-test") {
      cfg.self_test = true;
    } else {
      return usage("unknown argument " + a);
    }
  }
  if (!(cfg.seconds > 0)) return usage("--seconds must be positive");

  const std::map<std::string, e2e::RunResult (*)(const e2e::RunConfig&)>
      workloads = {{"serve-small", e2e::run_serve_small},
                   {"serve-large", e2e::run_serve_large},
                   {"mgrid-solve", e2e::run_mgrid_solve},
                   {"jacobi-large", e2e::run_jacobi_large}};
  const auto wl = workloads.find(cfg.workload);
  if (wl == workloads.end()) return usage("unknown workload '" + cfg.workload + "'");

  std::ifstream bf(bench_path);
  std::stringstream text;
  text << bf.rdbuf();
  JsonValue bench;
  std::string err;
  std::vector<MetricSpec> specs;
  if (!bf || !rt::obs::json_parse(text.str(), &bench, &err) ||
      !read_metric_list(bench, cfg.traced() ? "per_layer" : "end_to_end",
                        &specs)) {
    return usage("cannot read the metric lists of " + bench_path + " " + err);
  }

  std::unique_ptr<e2e::Tracer> tracer;
  if (cfg.traced()) {
    tracer = std::make_unique<e2e::Tracer>();
    e2e::g_tracer = tracer.get();
  }
  e2e::RunResult res = wl->second(cfg);
  e2e::g_tracer = nullptr;

  // Every metric the run measured must be one BENCHMARK.json lists, with
  // the same unit; a listed per-layer metric the workload does not
  // exercise reads 0.  An incorrect run exits 1 whatever else went wrong,
  // and its metrics may lack the samples it stopped before.
  std::map<std::string, e2e::RunResult::Metric> measured;
  bool config_error = false;
  for (const e2e::RunResult::Metric& m : res.metrics) {
    measured[m.name] = m;
    bool listed = false;
    for (const MetricSpec& s : specs) listed = listed || (s.name == m.name && s.unit == m.unit);
    if (!listed) {
      std::cerr << "rt_e2e: metric " << m.name << " [" << m.unit
                << "] is not listed in " << bench_path << "\n";
      config_error = true;
    }
  }
  JsonValue metrics = JsonValue::object();
  for (const MetricSpec& s : specs) {
    const auto it = measured.find(s.name);
    if (it == measured.end() && res.correct && !cfg.traced()) {
      std::cerr << "rt_e2e: " << cfg.workload << " did not measure " << s.name << "\n";
      config_error = true;
    }
    double v = it != measured.end() ? it->second.value : 0.0;
    if (!std::isfinite(v)) {
      if (res.correct) {
        std::cerr << "rt_e2e: " << s.name << " is not finite\n";
        config_error = true;
      }
      v = 0;
    }
    std::cout << cfg.workload << " " << s.name << " "
              << JsonValue::format_double(v) << " " << s.unit;
    if (it != measured.end() && !it->second.note.empty()) {
      std::cout << " (" << it->second.note << ")";
    }
    std::cout << "\n";
    JsonValue m = JsonValue::object();
    m.set("value", v).set("unit", s.unit);
    metrics.set(s.name, std::move(m));
  }

  if (tracer) {
    for (const auto& [layer, lt] : tracer->layer_times()) {
      std::cout << cfg.workload << " trace.self_ms." << layer << " "
                << JsonValue::format_double(lt.self_ms) << " ms ("
                << lt.calls << " calls)\n";
    }
    if (!tracer->write_chrome(cfg.trace_file, &err)) {
      std::cerr << "rt_e2e: " << err << "\n";
      config_error = true;
    }
  }
  if (!res.correct) {
    std::cerr << "rt_e2e: " << cfg.workload
              << " is INCORRECT: " << res.first_error << "\n";
  }

  JsonValue out = JsonValue::object();
  out.set("correct", res.correct);
  out.set("attempted", res.attempted);
  out.set("failed", res.failed);
  out.set("metrics", std::move(metrics));
  std::cout << out.dump() << std::endl;
  return !res.correct ? 1 : config_error ? 2 : 0;
}
