#include "rt/bench/options.hpp"

#include "rt/bench/table.hpp"
#include "rt/obs/metrics_writer.hpp"
#include "rt/tune/plan_store.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

namespace rt::bench {

std::vector<long> BenchOptions::sweep(long def_min, long def_max,
                                      long def_step, long full_step) const {
  const long lo = nmin > 0 ? nmin : def_min;
  const long hi = nmax > 0 ? nmax : def_max;
  long st = nstep > 0 ? nstep : (full ? full_step : def_step);
  if (st <= 0) st = 1;
  std::vector<long> xs;
  for (long n = lo; n <= hi; n += st) xs.push_back(n);
  if (xs.empty() || xs.back() != hi) xs.push_back(hi);
  return xs;
}

std::string BenchOptions::resolved_plan_store() const {
  return plan_store.empty() ? rt::tune::default_store_path() : plan_store;
}

rt::core::Backend BenchOptions::resolved_backend(
    const rt::core::CacheGeom& geom) const {
  return backend_auto ? rt::core::auto_backend(geom) : backend;
}

BenchOptions parse_options(int argc, char** argv) {
  BenchOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    // Full-string numeric validation: atol would silently turn "--nmin=abc"
    // or an empty "--threads=" into 0, which then falls back to a default.
    const auto num = [&](const char* prefix) -> long {
      const char* s = a.c_str() + std::strlen(prefix);
      char* end = nullptr;
      errno = 0;
      const long v = std::strtol(s, &end, 10);
      if (end == s || *end != '\0' || errno == ERANGE) {
        std::cerr << "bad numeric value for " << prefix << " flag: " << a
                  << "\n";
        std::exit(2);
      }
      return v;
    };
    if (a == "--full") {
      o.full = true;
    } else if (a == "--host") {
      o.host = true;
    } else if (a == "--no-sim") {
      o.simulate = false;
    } else if (a.rfind("--nmin=", 0) == 0) {
      o.nmin = num("--nmin=");
    } else if (a.rfind("--nmax=", 0) == 0) {
      o.nmax = num("--nmax=");
    } else if (a.rfind("--nstep=", 0) == 0) {
      o.nstep = num("--nstep=");
    } else if (a.rfind("--steps=", 0) == 0) {
      o.steps = static_cast<int>(num("--steps="));
    } else if (a.rfind("--threads=", 0) == 0) {
      o.threads = static_cast<int>(num("--threads="));
      if (o.threads < 1) o.threads = 1;
    } else if (a.rfind("--simd=", 0) == 0) {
      if (!rt::simd::parse_simd_mode(a.substr(7), &o.simd)) {
        std::cerr << "bad --simd value (want off|auto|avx2): " << a << "\n";
        std::exit(2);
      }
      o.simd_given = true;
    } else if (a.rfind("--temporal=", 0) == 0) {
      if (!rt::core::parse_temporal_mode(a.substr(11), &o.temporal)) {
        std::cerr << "bad --temporal value (want off|skew|diamond): " << a
                  << "\n";
        std::exit(2);
      }
      o.temporal_given = true;
    } else if (a.rfind("--bk=", 0) == 0) {
      o.bk = num("--bk=");
      if (o.bk < 0) {
        std::cerr << "bad --bk value (want >= 0; 0 = auto): " << a << "\n";
        std::exit(2);
      }
    } else if (a.rfind("--csv=", 0) == 0) {
      o.csv = a.substr(6);
      set_csv_sink(o.csv);
    } else if (a.rfind("--counters=", 0) == 0) {
      if (!rt::obs::parse_counter_mode(a.substr(11), &o.counters)) {
        std::cerr << "bad --counters value (want off|auto|on): " << a << "\n";
        std::exit(2);
      }
    } else if (a.rfind("--json=", 0) == 0) {
      o.json = a.substr(7);
      if (o.json.empty()) {
        std::cerr << "empty --json= path\n";
        std::exit(2);
      }
    } else if (a.rfind("--verify=", 0) == 0) {
      if (!rt::guard::parse_verify_mode(a.substr(9), &o.verify)) {
        std::cerr << "bad --verify value (want off|post|para): " << a << "\n";
        std::exit(2);
      }
    } else if (a.rfind("--timeout=", 0) == 0) {
      const char* s = a.c_str() + 10;
      char* end = nullptr;
      errno = 0;
      const double v = std::strtod(s, &end);
      if (end == s || *end != '\0' || errno == ERANGE || !(v > 0)) {
        std::cerr << "bad --timeout value (want seconds > 0): " << a << "\n";
        std::exit(2);
      }
      o.timeout_seconds = v;
    } else if (a.rfind("--backend=", 0) == 0) {
      const std::string v = a.substr(10);
      if (v == "auto") {
        o.backend = rt::core::Backend::kModel;  // resolved against geometry
        o.backend_auto = true;
      } else if (!rt::core::parse_backend(v, &o.backend)) {
        std::cerr << "bad --backend value (want model|lattice|oblivious|"
                     "auto): "
                  << a << "\n";
        std::exit(2);
      }
      o.backend_given = true;
    } else if (a.rfind("--tune=", 0) == 0) {
      if (!rt::tune::parse_tune_mode(a.substr(7), &o.tune)) {
        std::cerr << "bad --tune value (want off|load|on): " << a << "\n";
        std::exit(2);
      }
    } else if (a.rfind("--plan-store=", 0) == 0) {
      o.plan_store = a.substr(13);
      if (o.plan_store.empty()) {
        std::cerr << "empty --plan-store= path\n";
        std::exit(2);
      }
    } else if (a.rfind("--tsteps=", 0) == 0) {
      o.tsteps = static_cast<int>(num("--tsteps="));
      if (o.tsteps < 0) {
        std::cerr << "bad --tsteps value (want >= 0; 0 = derive): " << a
                  << "\n";
        std::exit(2);
      }
      o.tsteps_given = true;
    } else if (a.rfind("--retries=", 0) == 0) {
      o.retries = static_cast<int>(num("--retries="));
      if (o.retries < 0) {
        std::cerr << "bad --retries value (want >= 0; 0 = off): " << a
                  << "\n";
        std::exit(2);
      }
      o.retries_given = true;
    } else if (a.rfind("--retry-budget-ms=", 0) == 0) {
      o.retry_budget_ms = static_cast<int>(num("--retry-budget-ms="));
      if (o.retry_budget_ms < 0) {
        std::cerr << "bad --retry-budget-ms value (want >= 0): " << a << "\n";
        std::exit(2);
      }
      o.retry_budget_given = true;
    } else if (a.rfind("--backoff-ms=", 0) == 0) {
      o.backoff_ms = static_cast<int>(num("--backoff-ms="));
      if (o.backoff_ms < 0) {
        std::cerr << "bad --backoff-ms value (want >= 0): " << a << "\n";
        std::exit(2);
      }
      o.backoff_given = true;
    } else if (a == "--help" || a == "-h") {
      std::cout << "flags: --full --host --no-sim --nmin= --nmax= --nstep= "
                   "--steps= --threads=N --simd=off|auto|avx2 "
                   "--temporal=off|skew|diamond --bk=N --tsteps=N "
                   "--csv=FILE --counters=off|auto|on --json=FILE "
                   "--verify=off|post|para --timeout=SECS "
                   "--backend=model|lattice|oblivious|auto "
                   "--tune=off|load|on --plan-store=FILE "
                   "--retries=N --retry-budget-ms=N --backoff-ms=N\n";
      std::exit(0);
    } else {
      std::cerr << "unknown flag: " << a << "\n";
      std::exit(2);
    }
  }
  // Cross-flag contradictions are configuration errors, not data points:
  // reject them the way a malformed value is rejected.
  if (o.temporal != rt::core::TemporalMode::kOff && o.tsteps_given &&
      o.tsteps == 0) {
    std::cerr << "contradictory flags: --temporal="
              << rt::core::temporal_mode_name(o.temporal)
              << " fuses time steps, but --tsteps=0 leaves none to fuse\n";
    std::exit(2);
  }
  if (o.retry_budget_given && o.retry_budget_ms == 0 && o.retries > 0) {
    std::cerr << "contradictory flags: --retries=" << o.retries
              << " enables retrying, but --retry-budget-ms=0 leaves no "
                 "time to retry in (pass --retries=0 to disable retrying)\n";
    std::exit(2);
  }
  if (o.backoff_given && o.retries_given && o.retries == 0) {
    std::cerr << "contradictory flags: --backoff-ms=" << o.backoff_ms
              << " shapes the retry backoff, but --retries=0 disables "
                 "retrying\n";
    std::exit(2);
  }
  if (o.tune == rt::tune::TuneMode::kLoad) {
    const std::string store = o.resolved_plan_store();
    std::error_code ec;
    if (!std::filesystem::exists(store, ec)) {
      std::cerr << "--tune=load needs an existing plan store, but " << store
                << " does not exist (run --tune=on first, or pass "
                   "--plan-store=FILE)\n";
      std::exit(2);
    }
    // A named backend served from a pre-backend store is a contradiction:
    // v1 winners carry no backend id, so "--backend=lattice --tune=load"
    // would silently answer with plans another planner produced.  Peek the
    // store's schema version here (full validation stays in rt::tune).
    if (o.backend_given) {
      std::ifstream in(store);
      std::ostringstream text;
      text << in.rdbuf();
      rt::obs::JsonValue doc;
      if (in && rt::obs::json_parse(text.str(), &doc) && doc.is_object()) {
        const rt::obs::JsonValue* ver = doc.find("version");
        if (ver != nullptr && ver->is_number() &&
            ver->as_int() < rt::tune::kPlanStoreVersion) {
          std::cerr << "contradictory flags: --backend="
                    << rt::core::backend_name(o.backend)
                    << (o.backend_auto ? " (auto)" : "")
                    << " names a planner backend, but " << store
                    << " is a pre-backend plan store (version "
                    << ver->as_int() << " < " << rt::tune::kPlanStoreVersion
                    << ") whose winners carry no backend id; re-tune with "
                       "--tune=on to regenerate it\n";
          std::exit(2);
        }
      }
      // Unreadable/corrupt stores fall through: rt::tune degrades those
      // to the model plan with a typed kCorrupt reason at load time.
    }
  }
  return o;
}

}  // namespace rt::bench
