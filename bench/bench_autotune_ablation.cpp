// Autotuning ablation (rt::tune): for JACOBI and RESID under GcdPad at a
// memory-bound and a cache-friendly N, run the measured calibration sweep —
// the model plan plus its tile/pad/untiled neighbourhood, every candidate
// timed under the identical host protocol — and emit three rows per key:
//
//   autotuned  the sweep's winner (time primary, counter tie-break)
//   model      the analytic plan (paper's direct-mapped search), same sweep
//   worst      the slowest completed candidate (how bad a wrong tile is)
//
// Because the model plan is always in the candidate set, autotuned >= model
// holds by construction; the interesting output is *how much* measurement
// buys over the model on an associative, prefetching host, and how far the
// worst plausible tile falls behind.
//
// Winners persist to the plan store (--plan-store=FILE, default
// $RT_TUNE_STORE / ~/.cache/rt-tune/plans.json), keyed by the host's
// cache-topology fingerprint.  A second run with --tune=load serves the
// stored winners with no calibration sweep (two measured rows per key:
// the served winner and the model plan).  A corrupt, stale or
// wrong-version store degrades to the model plan with the typed reason in
// the "store" column — never a crash.
//
// Flags: --tune=off|load|on (default on: this bench exists to calibrate),
// --plan-store=FILE, --nmin/--nmax/--nstep, --steps, --threads, --simd,
// --counters, --timeout, --json=FILE (results/BENCH_7.json schema).

#include <chrono>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "rt/bench/options.hpp"
#include "rt/bench/runner.hpp"
#include "rt/bench/table.hpp"
#include "rt/core/cache_topology.hpp"
#include "rt/obs/metrics_writer.hpp"
#include "rt/obs/perf_counters.hpp"
#include "rt/tune/autotuner.hpp"

using rt::bench::RunOptions;
using rt::bench::RunResult;
using rt::core::Transform;
using rt::guard::Status;
using rt::kernels::KernelId;
using rt::obs::CounterKind;
using rt::tune::Measurement;
using rt::tune::TuneMode;

namespace {

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

bool same_plan(const rt::core::TilingPlan& a, const rt::core::TilingPlan& b) {
  return a.tiled == b.tiled && a.tile == b.tile && a.dip == b.dip &&
         a.djp == b.djp;
}

/// Measurement for the tuner from a full bench run: median-able time,
/// throughput, and the counter-derived tie-breakers when the PMU is open.
Measurement to_measurement(const RunResult& r) {
  Measurement m;
  if (r.status != Status::kOk) {
    m.status = r.status;
    m.detail = r.status_detail;
    return m;
  }
  m.seconds = r.measure.count > 0 ? r.measure.total_s / r.measure.count : 0;
  m.mflops = r.host_mflops;
  if (r.hw.available && r.hw.iters > 0) {
    const auto& llc = r.hw.readings[CounterKind::kLlcLoadMisses];
    const auto& tlb = r.hw.readings[CounterKind::kDtlbLoadMisses];
    const auto& cyc = r.hw.readings[CounterKind::kCycles];
    const auto& ins = r.hw.readings[CounterKind::kInstructions];
    if (llc.valid) {
      m.llc_misses = static_cast<double>(llc.value) / r.hw.iters;
    }
    if (tlb.valid) {
      m.dtlb_misses = static_cast<double>(tlb.value) / r.hw.iters;
    }
    if (cyc.valid && ins.valid && cyc.value > 0) {
      m.ipc = static_cast<double>(ins.value) / static_cast<double>(cyc.value);
    }
  }
  return m;
}

std::string tile_str(const rt::core::TilingPlan& p) {
  if (!p.tiled) return "-";
  return std::to_string(p.tile.ti) + "x" + std::to_string(p.tile.tj);
}

}  // namespace

int main(int argc, char** argv) {
  rt::bench::BenchOptions bo = rt::bench::parse_options(argc, argv);
  // This bench exists to calibrate: default to tuning unless the user
  // explicitly turned it off (in which case only model rows are emitted).
  bool tune_defaulted = false;
  if (bo.tune == TuneMode::kOff) {
    bool flag_given = false;
    for (int i = 1; i < argc; ++i) {
      if (std::string(argv[i]).rfind("--tune=", 0) == 0) flag_given = true;
    }
    if (!flag_given) {
      bo.tune = TuneMode::kOn;
      tune_defaulted = true;
    }
  }

  const std::vector<long> sizes = bo.sweep(200, 400, 200, 100);
  const std::string store_path = bo.resolved_plan_store();
  const std::string fingerprint =
      rt::core::host_cache_topology().fingerprint();

  RunOptions ro;
  ro.simulate = false;
  ro.time_host = true;
  ro.time_steps = bo.steps;
  ro.counters = bo.counters;
  if (bo.threads > 0) ro.threads = bo.threads;
  ro.simd = bo.simd;
  ro.timeout_seconds = bo.timeout_seconds;
  ro.backend = bo.resolved_backend(ro.geom());

  // Load (or start) the store.  Corrupt / stale stores degrade to the
  // model plan with the typed reason recorded; --tune=on starts fresh.
  rt::tune::PlanStore store;
  store.fingerprint = fingerprint;
  std::string store_status = "fresh";
  if (bo.tune != TuneMode::kOff) {
    rt::guard::Expected<rt::tune::PlanStore> loaded =
        rt::tune::load_store(store_path, fingerprint);
    if (loaded.ok()) {
      store = loaded.value();
      store_status = "loaded(" + std::to_string(store.entries.size()) + ")";
    } else if (loaded.status() == Status::kInvalidArgument) {
      store_status = "fresh";  // nothing persisted yet (--tune=load exits 2
                               // earlier, so this is the --tune=on path)
    } else {
      store_status = rt::guard::status_name(loaded.status());
      std::cout << "plan store " << store_path << ": "
                << rt::guard::status_name(loaded.status()) << " — "
                << loaded.detail() << " (serving model plans)\n";
    }
  }

  std::cout << "autotune ablation: tune=" << rt::tune::tune_mode_name(bo.tune)
            << (tune_defaulted ? " (default)" : "") << "  store="
            << store_path << " [" << store_status << "]\n"
            << "host topology: " << fingerprint << "\n"
            << rt::obs::describe_counter_support() << "\n\n";

  rt::tune::TuneConfig cfg;
  cfg.repeats = 3;
  rt::tune::Autotuner tuner(cfg);

  const struct {
    KernelId id;
    const char* name;
  } kernels[] = {{KernelId::kJacobi, "JACOBI"}, {KernelId::kResid, "RESID"}};
  const Transform tr = Transform::kGcdPad;

  rt::obs::MetricsWriter writer;
  std::vector<std::vector<std::string>> rows;
  bool failed = false;

  for (const auto& kn : kernels) {
    for (long n : sizes) {
      const rt::core::StencilSpec& spec =
          rt::kernels::kernel_info(kn.id).spec;
      rt::tune::TuneKey key;
      key.kernel = kn.name;
      key.n = n;
      key.n3 = ro.k_dim;
      key.transform = tr;
      key.backend = ro.backend;
      key.threads = ro.threads;
      key.simd = rt::simd::simd_mode_name(ro.simd);
      const rt::core::PlanKey pkey = rt::core::PlanCache::make_backend_key(
          ro.backend, tr, ro.geom(), n, n, spec, ro.k_dim);

      const rt::core::PlanReport model_rep = rt::core::plan_with_backend(
          ro.backend, tr, ro.geom(), n, n, spec, ro.k_dim);

      const auto emit_row = [&](const char* variant, const std::string& origin,
                                const RunResult& r,
                                const rt::tune::TuneResult* tres) {
        if (!bo.json.empty()) {
          rt::obs::JsonValue& rec =
              rt::bench::append_json_record(writer, kn.name, n, r);
          rec.set("variant", variant).set("origin", origin);
          rec.set("store_status", store_status);
          if (tres != nullptr) {
            rec.set("tune", rt::bench::tune_json(bo.tune, *tres));
          } else {
            rec.set("tune", rt::obs::JsonValue());
          }
        }
        std::string note;
        if (r.status != Status::kOk) note = rt::guard::status_name(r.status);
        rows.push_back({kn.name, std::to_string(n), variant, origin,
                        tile_str(r.plan), std::to_string(r.plan.dip),
                        rt::bench::fmt(r.host_mflops, 0), note});
      };

      const rt::tune::StoreEntry* entry =
          bo.tune != TuneMode::kOff ? store.find(key) : nullptr;
      if (entry != nullptr && tuner.is_stale(*entry, now_ms())) {
        // Age-stale winner: drop back to calibration (--tune=on) or the
        // model plan (--tune=load) instead of serving outdated numbers.
        std::cout << key.str() << ": stored winner is stale (tuned_at="
                  << entry->tuned_at_ms << "ms), re-tuning\n";
        entry = nullptr;
      }

      if (bo.tune != TuneMode::kOff && entry != nullptr) {
        // Served from the store: no calibration sweep — measure the served
        // winner and the model plan once each for this run's records.
        RunResult wr = rt::bench::run_kernel_with_plan(kn.id, entry->plan, n, ro);
        emit_row("autotuned", entry->origin + " (stored)", wr, nullptr);
        RunResult mr =
            rt::bench::run_kernel_with_plan(kn.id, model_rep.plan, n, ro);
        emit_row("model", "model", mr, nullptr);
        continue;
      }

      if (bo.tune != TuneMode::kOn) {
        // --tune=off: model rows only.
        RunResult mr =
            rt::bench::run_kernel_with_plan(kn.id, model_rep.plan, n, ro);
        emit_row("model", "model", mr, nullptr);
        continue;
      }

      // Calibration sweep.  The runner keeps every full RunResult so the
      // winner/model/worst rows reuse the sweep's own measurements.
      const std::vector<rt::tune::Candidate> cands =
          rt::tune::spatial_candidates(model_rep.plan, n, n, spec.halo,
                                       ro.geom(), spec, cfg.max_candidates);
      struct Trace {
        std::mutex m;
        std::vector<std::pair<rt::core::TilingPlan, RunResult>> runs;
      };
      auto trace = std::make_shared<Trace>();
      const KernelId id = kn.id;
      const RunOptions ro_copy = ro;
      const long n_copy = n;
      rt::tune::CandidateRunner runner =
          [trace, id, ro_copy, n_copy](const rt::core::TilingPlan& plan) {
            RunResult r =
                rt::bench::run_kernel_with_plan(id, plan, n_copy, ro_copy);
            Measurement m = to_measurement(r);
            std::lock_guard<std::mutex> lk(trace->m);
            trace->runs.emplace_back(plan, std::move(r));
            return m;
          };
      rt::tune::TuneResult tres = tuner.tune_spatial(key, cands, runner);

      const auto run_for = [&](int idx) -> const RunResult* {
        if (idx < 0) return nullptr;
        const auto& plan = tres.candidates[static_cast<std::size_t>(idx)].plan;
        for (const auto& [p, r] : trace->runs) {
          if (same_plan(p, plan)) return &r;
        }
        return nullptr;
      };

      if (!tres.ok()) {
        // Every candidate skipped: fall back to the model plan, recorded.
        std::cout << key.str() << ": " << rt::guard::status_name(tres.status)
                  << " — " << tres.detail << " (model plan)\n";
        RunResult mr =
            rt::bench::run_kernel_with_plan(kn.id, model_rep.plan, n, ro);
        emit_row("model", "model", mr, &tres);
        continue;
      }

      const auto emit_variant = [&](const char* variant, int idx) {
        if (idx < 0) return;
        const RunResult* r = run_for(idx);
        if (r == nullptr) return;
        RunResult row = *r;
        // The row reports the sweep's median measurement, not whichever
        // repeat happened to be traced first.
        const auto& c = tres.candidates[static_cast<std::size_t>(idx)];
        if (c.m.ok()) row.host_mflops = c.m.mflops;
        emit_row(variant, c.origin, row, &tres);
      };
      emit_variant("autotuned", tres.winner);
      emit_variant("model", tres.model);
      if (tres.worst != tres.winner && tres.worst != tres.model) {
        emit_variant("worst", tres.worst);
      }

      // Persist the winner.
      rt::tune::StoreEntry e;
      e.key = key;
      e.temporal = false;
      e.plan_key = pkey;
      e.plan = tres.candidates[static_cast<std::size_t>(tres.winner)].plan;
      e.origin = tres.candidates[static_cast<std::size_t>(tres.winner)].origin;
      e.mflops = tres.mflops_at(tres.winner);
      e.model_mflops = tres.mflops_at(tres.model);
      e.tuned_at_ms = now_ms();
      store.put(std::move(e));
    }
  }

  if (bo.tune == TuneMode::kOn && !store.entries.empty()) {
    const Status st = rt::tune::save_store(store, store_path);
    if (st != Status::kOk) {
      std::cerr << "error: cannot write plan store " << store_path << "\n";
      failed = true;
    } else {
      std::cout << "persisted " << store.entries.size() << " winners to "
                << store_path << "\n";
    }
  }

  std::cout << "\nAutotuned vs model vs worst (GcdPad, K=" << ro.k_dim
            << ", threads=" << ro.threads << "):\n";
  rt::bench::print_table(
      {"kernel", "N", "variant", "origin", "tile", "dip", "MFlops", "note"},
      rows);

  if (!bo.json.empty()) {
    if (!writer.write_file(bo.json)) {
      std::cerr << "error: cannot write " << bo.json << "\n";
      failed = true;
    } else {
      std::cout << "\nwrote " << writer.num_records() << " records to "
                << bo.json << "\n";
    }
  }
  return failed ? 1 : 0;
}
