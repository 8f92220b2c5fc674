// Chaos soak for the rt::serve + rt::resil stack: drive a live server
// through deterministic fault storms — torn sockets, short writes,
// injected solver hangs with and without deadlines, and a failed fsync
// under the plan store — twice: once with the resilience layer on
// (RetryingClient + server self-healing active) and once with it off
// (single-attempt calls), under IDENTICAL fault schedules
// (rt::guard::FaultInjector is trigger-count based, never clock based).
//
// Invariants asserted after every storm (violations exit 1):
//   1. every issued request gets exactly one final outcome — answered ok,
//      typed rejection, or typed transport failure; never silence, never
//      a second answer (response ids are matched per call);
//   2. every "ok" response's checksum is bit-identical to the same solve
//      computed directly (plan + serial kernels, no server);
//   3. the server's counters are monotone across storm snapshots — a
//      respawned executor or tripped breaker never resets accounting;
//   4. the server returns to healthy+ready within a bounded poll after
//      the faults are disarmed (self-healing actually healed).
// Plus one storm over the plan store: an injected fsync failure must
// leave both the primary and the .bak generation loadable.
//
// Output: a table per (storm, mode) and --json=FILE records
// (results/BENCH_9.json schema) with goodput, availability, p50/p99 and
// the retry-layer's own accounting, ending in a summary record comparing
// resil on vs off.  The acceptance claim is that retry + self-heal
// strictly improves total goodput under the fault storms.
//
// Flags (rt::bench::parse_options): --retries=N --retry-budget-ms=N
// --backoff-ms=N --json=FILE --full

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "rt/array/array3d.hpp"
#include "rt/bench/options.hpp"
#include "rt/bench/table.hpp"
#include "rt/core/plan.hpp"
#include "rt/guard/fault_injector.hpp"
#include "rt/kernels/jacobi3d.hpp"
#include "rt/kernels/kernel_info.hpp"
#include "rt/obs/metrics_writer.hpp"
#include "rt/resil/retry.hpp"
#include "rt/serve/client.hpp"
#include "rt/serve/protocol.hpp"
#include "rt/serve/server.hpp"
#include "rt/serve/solve.hpp"
#include "rt/simd/exec.hpp"
#include "rt/tune/plan_store.hpp"

using rt::guard::FaultInjector;
using rt::guard::FaultKind;
using rt::guard::Status;
using rt::obs::JsonValue;
using rt::resil::RetryingClient;
using rt::resil::RetryPolicy;
using rt::serve::Client;
using rt::serve::Server;
using rt::serve::ServerOptions;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One deterministic fault schedule: arm(kind, after, count) applied just
/// before the storm's requests are issued.
struct Storm {
  std::string name;
  FaultKind kind = FaultKind::kHang;
  int after = 0;
  int count = 0;        ///< 0 = no fault (baseline)
  int deadline_ms = 0;  ///< attached to every solve request when > 0
};

JsonValue solve_req(long long id, long n, int tsteps, int deadline_ms) {
  JsonValue r = JsonValue::object();
  r.set("id", id);
  r.set("op", "solve");
  r.set("kernel", "JACOBI");
  r.set("n", n);
  r.set("tsteps", tsteps);
  r.set("transform", "gcdpad");
  if (deadline_ms > 0) r.set("deadline_ms", deadline_ms);
  return r;
}

/// Direct (no server, serial) JACOBI reference checksum — what every "ok"
/// response must match bit for bit, faults or no faults.
std::string reference_checksum(long n, int tsteps) {
  const rt::core::StencilSpec& spec =
      rt::kernels::kernel_info(rt::kernels::KernelId::kJacobi).spec;
  const long cs = rt::serve::serve_cs_elems();
  const rt::core::PlanReport rep = rt::core::plan_for_checked(
      rt::core::Transform::kGcdPad, cs, n, n, spec, n);
  const rt::array::Dims3 dims =
      rt::array::Dims3::padded(n, n, n, rep.plan.dip, rep.plan.djp);
  rt::array::Array3D<double> a(dims), b(dims);
  for (int idx = 0; idx < 2; ++idx) {
    rt::array::Array3D<double>& g = idx == 0 ? a : b;
    const double scale = 1.0 / (1.0 + idx);
    for (long k = 0; k < g.n3(); ++k) {
      for (long j = 0; j < g.n2(); ++j) {
        for (long i = 0; i < g.n1(); ++i) {
          g(i, j, k) = scale * (0.001 * static_cast<double>(i) +
                                0.002 * static_cast<double>(j) +
                                0.003 * static_cast<double>(k));
        }
      }
    }
  }
  for (int t = 0; t < tsteps; ++t) {
    rt::simd::jacobi({nullptr, rt::simd::SimdLevel::kScalar}, rep.plan, a, b,
                     1.0 / 6.0);
    rt::kernels::copy_interior(b, a);
  }
  return rt::serve::checksum_hex(rt::serve::checksum_region(a));
}

struct StormResult {
  std::string storm;
  bool resil = false;
  int requests = 0;
  int good = 0;      ///< ok + checksum verified
  int dropped = 0;   ///< typed failure or rejection (a lost request)
  int violations = 0;
  double wall_s = 0;
  double heal_s = -1;  ///< time to healthy+ready after disarm (-1 = never)
  std::vector<double> lat_s;
  rt::resil::RetryStats retry;

  double availability() const {
    return requests > 0 ? static_cast<double>(good) / requests : 0;
  }
  double goodput() const {
    return wall_s > 0 ? static_cast<double>(good) / wall_s : 0;
  }
  double percentile(double q) const {
    if (lat_s.empty()) return 0;
    std::vector<double> v = lat_s;
    const std::size_t idx = std::min(
        v.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5));
    std::nth_element(v.begin(), v.begin() + static_cast<long>(idx), v.end());
    return v[idx];
  }
};

/// The monotone subset of the server's counters: values that must never
/// decrease across storm snapshots within one server lifetime.
std::map<std::string, long long> monotone_counters(const JsonValue& stats) {
  std::map<std::string, long long> m;
  for (const char* key :
       {"connections", "requests", "admitted", "rejected_overloaded",
        "protocol_errors", "io_errors", "responses_ok", "responses_error",
        "timeouts"}) {
    if (const JsonValue* v = stats.find(key)) m[key] = v->as_int();
  }
  if (const JsonValue* rz = stats.find("resilience")) {
    for (const char* key :
         {"retry_hints", "degraded_rejections", "executors_wedged",
          "executors_respawned", "breaker_trips", "breaker_resets"}) {
      if (const JsonValue* v = rz->find(key)) m[std::string("rz.") + key] = v->as_int();
    }
  }
  if (const JsonValue* ab = stats.find("abandonment")) {
    if (const JsonValue* v = ab->find("abandoned_batches")) {
      m["ab.abandoned_batches"] = v->as_int();
    }
  }
  return m;
}

/// Poll the health op until the server says healthy + ready.
double await_healthy(int port, double timeout_s) {
  const Clock::time_point t0 = Clock::now();
  while (seconds_since(t0) < timeout_s) {
    rt::guard::Expected<Client> c = Client::connect(port, 500);
    if (c.ok()) {
      JsonValue req = JsonValue::object();
      req.set("op", "health");
      rt::guard::Expected<JsonValue> resp = c.value().call(req);
      if (resp.ok()) {
        const JsonValue* h = resp.value().find("health");
        if (h != nullptr && h->find("state")->as_string() == "healthy" &&
            h->find("ready")->as_bool()) {
          return seconds_since(t0);
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return -1;
}

std::string fmt(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

/// The plan-store leg: an injected fsync failure mid-save must leave both
/// the primary and the demoted .bak generation loadable.
bool store_storm_holds() {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "rt_chaos_soak_store";
  std::error_code ec;
  fs::remove_all(dir, ec);
  const std::string path = (dir / "plans.json").string();

  rt::tune::PlanStore gen;
  gen.fingerprint = "chaos-soak";
  bool ok = true;
  gen.entries = {};
  if (rt::tune::save_store(gen, path) != Status::kOk) ok = false;
  if (rt::tune::save_store(gen, path) != Status::kOk) ok = false;

  FaultInjector::instance().arm(FaultKind::kFsyncFail, 0, 1);
  std::string why;
  if (rt::tune::save_store(gen, path, &why) != Status::kIoError) ok = false;
  FaultInjector::instance().disarm_all();

  if (!rt::tune::load_store(path, "chaos-soak").ok()) ok = false;
  if (!rt::tune::load_store(rt::tune::store_bak_path(path), "chaos-soak")
           .ok()) {
    ok = false;
  }
  fs::remove_all(dir, ec);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const rt::bench::BenchOptions opt = rt::bench::parse_options(argc, argv);

  const long n = opt.full ? 48 : 32;
  const int base_tsteps = 1;
  const int requests_per_storm = opt.full ? 30 : 10;

  // Deterministic storm schedule, identical for both modes.  Triggers are
  // write_frame calls (client sends and server responses interleave
  // strictly in a closed loop) for the socket faults, and solver hang
  // points for kHang.
  const std::vector<Storm> storms = {
      {"baseline", FaultKind::kHang, 0, 0, 0},
      {"sockdrop", FaultKind::kSockDrop, 3, 2, 0},
      {"partialwrite", FaultKind::kPartialWrite, 2, 2, 0},
      {"hang_deadline", FaultKind::kHang, 0, 2, 150},
      {"wedge_respawn", FaultKind::kHang, 0, 1, 0},
  };

  std::cout << "chaos soak: JACOBI n=" << n << " tsteps=" << base_tsteps
            << "/" << base_tsteps + 1 << ", " << requests_per_storm
            << " requests/storm, retries=" << opt.retries
            << " budget=" << opt.retry_budget_ms << "ms backoff="
            << opt.backoff_ms << "ms\n\n";

  std::map<int, std::string> refs;
  refs[base_tsteps] = reference_checksum(n, base_tsteps);
  refs[base_tsteps + 1] = reference_checksum(n, base_tsteps + 1);

  std::vector<StormResult> results;
  bool failed = false;

  for (const bool resil_on : {false, true}) {
    ServerOptions so;
    so.executors = 2;
    so.batching = false;  // one response per request: exact accounting
    so.queue_depth = 64;
    so.retry_after_ms = 25;
    so.supervise_interval_ms = 10;
    so.executor_wedge_ms = 120;
    so.max_respawns = 8;
    so.breaker_threshold = 4;  // single-wedge storms must not trip it
    so.breaker_window_ms = 300;
    Server server(so);
    std::string why;
    if (server.start(&why) != Status::kOk) {
      std::cerr << "server start failed: " << why << "\n";
      return 1;
    }

    RetryPolicy policy;
    policy.max_attempts = resil_on ? opt.retries + 1 : 1;
    policy.base_backoff_ms = opt.backoff_ms;
    policy.max_backoff_ms = 200;
    policy.budget_ms = opt.retry_budget_ms;
    policy.connect_timeout_ms = 1000;
    policy.send_timeout_ms = 1000;
    policy.recv_timeout_ms = 1000;
    RetryingClient client(server.port(), policy);
    if (client.policy_status() != Status::kOk) {
      std::cerr << "bad retry policy: " << client.policy_detail() << "\n";
      return 2;
    }

    std::map<std::string, long long> prev_counters;
    long long next_id = 1;
    for (const Storm& storm : storms) {
      StormResult r;
      r.storm = storm.name;
      r.resil = resil_on;
      r.requests = requests_per_storm;
      const rt::resil::RetryStats before = client.stats();

      FaultInjector::instance().disarm_all();
      if (storm.count > 0) {
        FaultInjector::instance().arm(storm.kind, storm.after, storm.count);
      }

      const Clock::time_point t0 = Clock::now();
      int outcomes = 0;
      for (int i = 0; i < requests_per_storm; ++i) {
        const int ts = base_tsteps + (i % 2);
        const long long id = next_id++;
        const Clock::time_point sent = Clock::now();
        rt::guard::Expected<JsonValue> resp =
            client.call(solve_req(id, n, ts, storm.deadline_ms));
        ++outcomes;  // invariant 1: exactly one outcome per request
        if (!resp.ok()) {
          ++r.dropped;  // typed transport/retry-exhaustion failure
          continue;
        }
        const JsonValue* st = resp.value().find("status");
        const std::string status =
            st != nullptr ? st->as_string() : std::string("?");
        if (status != "ok") {
          ++r.dropped;  // typed rejection (overloaded / timeout / ...)
          continue;
        }
        const JsonValue* sum = resp.value().find("checksum");
        if (sum == nullptr || sum->as_string() != refs.at(ts)) {
          std::cerr << "VIOLATION [" << storm.name
                    << "]: ok response with wrong checksum (id " << id
                    << ")\n";
          ++r.violations;
          continue;
        }
        r.lat_s.push_back(seconds_since(sent));
        ++r.good;
      }
      r.wall_s = seconds_since(t0);
      if (outcomes != requests_per_storm) {
        std::cerr << "VIOLATION [" << storm.name << "]: " << outcomes
                  << " outcomes for " << requests_per_storm << " requests\n";
        ++r.violations;
      }

      // Let the storm's wedged/abandoned workers run to completion, then
      // require the server to report itself healthy again.
      FaultInjector::instance().disarm_all();
      FaultInjector::instance().cancel_hangs();
      r.heal_s = await_healthy(server.port(), 10.0);
      if (r.heal_s < 0) {
        std::cerr << "VIOLATION [" << storm.name
                  << "]: server never returned to healthy+ready\n";
        ++r.violations;
      }

      // Counters must be monotone snapshot to snapshot.
      const std::map<std::string, long long> now_counters =
          monotone_counters(server.stats_json());
      for (const auto& [key, value] : prev_counters) {
        const auto it = now_counters.find(key);
        if (it != now_counters.end() && it->second < value) {
          std::cerr << "VIOLATION [" << storm.name << "]: counter " << key
                    << " went backwards (" << value << " -> " << it->second
                    << ")\n";
          ++r.violations;
        }
      }
      prev_counters = now_counters;

      // This storm's share of the retry layer's accounting.
      const rt::resil::RetryStats after = client.stats();
      r.retry.attempts = after.attempts - before.attempts;
      r.retry.retries = after.retries - before.retries;
      r.retry.reconnects = after.reconnects - before.reconnects;
      r.retry.transport_retries =
          after.transport_retries - before.transport_retries;
      r.retry.overloaded_retries =
          after.overloaded_retries - before.overloaded_retries;
      r.retry.timeout_retries = after.timeout_retries - before.timeout_retries;

      if (r.violations > 0) failed = true;
      results.push_back(std::move(r));
    }
    server.stop();
  }

  const bool store_ok = store_storm_holds();
  if (!store_ok) {
    std::cerr << "VIOLATION [store_fsync]: plan store lost a generation\n";
    failed = true;
  }

  std::vector<std::vector<std::string>> rows;
  for (const StormResult& r : results) {
    rows.push_back({r.storm, r.resil ? "on" : "off",
                    std::to_string(r.good) + "/" + std::to_string(r.requests),
                    fmt(r.availability() * 100, 1), fmt(r.goodput(), 1),
                    fmt(r.percentile(0.50) * 1e3, 1),
                    fmt(r.percentile(0.99) * 1e3, 1),
                    std::to_string(r.retry.retries),
                    std::to_string(r.retry.reconnects), fmt(r.heal_s, 2),
                    r.violations > 0 ? std::to_string(r.violations) + " VIOL"
                                     : "-"});
  }
  rt::bench::print_table({"storm", "resil", "good", "avail %", "good/s",
                          "p50 ms", "p99 ms", "retries", "reconn", "heal s",
                          "invariants"},
                         rows);

  // The acceptance comparison: under the fault storms, retry + self-heal
  // must strictly improve total goodput (and never lose availability on
  // any individual storm).
  long total_good_on = 0, total_good_off = 0;
  bool on_never_worse = true;
  for (const StormResult& r : results) {
    (r.resil ? total_good_on : total_good_off) += r.good;
    if (r.resil) {
      for (const StormResult& off : results) {
        if (!off.resil && off.storm == r.storm &&
            r.availability() < off.availability()) {
          on_never_worse = false;
        }
      }
    }
  }
  const bool strictly_better = total_good_on > total_good_off;
  std::cout << "\ntotal good responses: resil on " << total_good_on
            << " vs off " << total_good_off
            << (strictly_better ? " (retry+self-heal strictly better)\n"
                                : " (NO strict improvement)\n")
            << "plan store fsync storm: "
            << (store_ok ? "both generations intact\n" : "LOST DATA\n");
  if (!strictly_better || !on_never_worse) failed = true;

  if (!opt.json.empty()) {
    rt::obs::MetricsWriter writer;
    for (const StormResult& r : results) {
      JsonValue& rec = writer.add_record();
      rec.set("bench", "chaos_soak").set("storm", r.storm);
      rec.set("resil", r.resil ? "on" : "off");
      rec.set("kernel", "JACOBI").set("n", n);
      rec.set("requests", r.requests).set("good", r.good);
      rec.set("dropped", r.dropped).set("violations", r.violations);
      rec.set("availability", r.availability());
      rec.set("goodput_rps", r.goodput());
      rec.set("lat_p50_ms", r.percentile(0.50) * 1e3);
      rec.set("lat_p99_ms", r.percentile(0.99) * 1e3);
      rec.set("wall_s", r.wall_s).set("heal_s", r.heal_s);
      rec.set("retry_attempts", static_cast<long long>(r.retry.attempts));
      rec.set("retries", static_cast<long long>(r.retry.retries));
      rec.set("reconnects", static_cast<long long>(r.retry.reconnects));
      rec.set("transport_retries",
              static_cast<long long>(r.retry.transport_retries));
      rec.set("overloaded_retries",
              static_cast<long long>(r.retry.overloaded_retries));
      rec.set("timeout_retries",
              static_cast<long long>(r.retry.timeout_retries));
    }
    JsonValue& sum = writer.add_record();
    sum.set("bench", "chaos_soak").set("storm", "summary");
    sum.set("total_good_resil_on", total_good_on);
    sum.set("total_good_resil_off", total_good_off);
    sum.set("resil_strictly_better", strictly_better);
    sum.set("resil_never_worse_per_storm", on_never_worse);
    sum.set("store_crash_safe", store_ok);
    sum.set("all_invariants_hold", !failed);
    std::string werr;
    if (writer.write_file_checked(opt.json, &werr) != Status::kOk) {
      std::cerr << "error: cannot write " << opt.json << ": " << werr << "\n";
      failed = true;
    } else {
      std::cout << "wrote " << writer.num_records() << " records to "
                << opt.json << "\n";
    }
  }
  return failed ? 1 : 0;
}
