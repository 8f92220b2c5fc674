// Real-hardware cross-check of the cache simulator (rt::obs): runs JACOBI
// and RESID under Orig / Tile / Pad / GcdPad at several N, with hardware
// performance counters (perf_event_open) wrapped around the measured host
// loop, and prints the *measured* L1D / LLC load-miss-per-reference next to
// the cachesim prediction.  The two machines differ (the model is a
// direct-mapped UltraSparc2 L1, the host is associative — see
// bench_figures' ablation_assoc spec for why conflict effects largely
// vanish), so the
// interesting signal is the trend across transforms, not equality: tiling
// should never *raise* the measured miss ratios, and padding's conflict
// repair shows up only where the host cache geometry resembles the model.
//
// The per-reference denominator is the simulator's reference count for one
// time step (both executions run the same loop nest, so the model's count
// is the ground truth for "references"); the misses-per-load column uses
// the host's own L1D load counter when the PMU exposes it.
//
// Degrades gracefully: on hosts without perf-event access (containers, CI,
// most VMs) the hw columns print "-" and the run still succeeds — that
// path is part of the acceptance criteria for this bench.
//
// Flags (see rt/bench/options.hpp): --counters=off|auto|on (default auto),
// --json=FILE (machine-readable records through rt::obs::MetricsWriter),
// --nmin/--nmax/--nstep, --steps, --no-sim, --threads, --simd.

#include <iostream>
#include <string>
#include <vector>

#include "rt/bench/options.hpp"
#include "rt/bench/runner.hpp"
#include "rt/bench/table.hpp"
#include "rt/obs/metrics_writer.hpp"
#include "rt/obs/perf_counters.hpp"

using rt::bench::RunResult;
using rt::core::Transform;
using rt::kernels::KernelId;
using rt::obs::CounterKind;

namespace {

/// "-" when the counter did not open; otherwise 100 * value / denom.
std::string pct_or_dash(const rt::bench::RunResult& r, CounterKind k,
                        double denom, int prec = 3) {
  const auto& c = r.hw.readings[k];
  if (!c.valid || denom <= 0) return "-";
  return rt::bench::fmt(100.0 * static_cast<double>(c.value) / denom, prec);
}

}  // namespace

int main(int argc, char** argv) {
  const rt::bench::BenchOptions bo = rt::bench::parse_options(argc, argv);
  const std::vector<long> sizes = bo.sweep(100, 300, 100, 50);

  rt::bench::RunOptions ro;
  ro.simulate = bo.simulate;
  ro.time_host = true;
  ro.time_steps = bo.steps;
  ro.counters = bo.counters;
  if (bo.threads > 0) ro.threads = bo.threads;
  ro.simd = bo.simd;
  ro.verify = bo.verify;
  ro.timeout_seconds = bo.timeout_seconds;
  ro.backend = bo.resolved_backend(ro.geom());

  std::cout << rt::obs::describe_counter_support() << "\n";
  if (ro.counters == rt::obs::CounterMode::kOff) {
    std::cout << "(--counters=off: hw columns will be '-')\n";
  }
  std::cout << "\n";

  const struct {
    KernelId id;
    const char* name;
  } kernels[] = {{KernelId::kJacobi, "JACOBI"}, {KernelId::kResid, "RESID"}};
  const std::vector<Transform> transforms = {Transform::kOrig,
                                             Transform::kTile, Transform::kPad,
                                             Transform::kGcdPad};

  rt::obs::MetricsWriter writer;
  std::vector<std::vector<std::string>> rows;
  bool any_degraded = false;
  for (const auto& kn : kernels) {
    for (long n : sizes) {
      for (Transform tr : transforms) {
        const RunResult r = rt::bench::run_kernel(kn.id, tr, n, ro);
        if (!bo.json.empty()) {
          rt::bench::append_json_record(writer, kn.name, n, r);
        }
        // One model time step's references: the denominator shared by the
        // simulated and measured miss-per-reference columns.
        const double refs_per_step =
            ro.simulate && ro.time_steps > 0
                ? static_cast<double>(r.sim_accesses) / ro.time_steps
                : 0.0;
        const double hw_refs = refs_per_step * r.hw.iters;
        const auto& loads = r.hw.readings[CounterKind::kL1dLoads];
        const auto& l1m = r.hw.readings[CounterKind::kL1dLoadMisses];
        const auto& cyc = r.hw.readings[CounterKind::kCycles];
        const auto& ins = r.hw.readings[CounterKind::kInstructions];
        std::string note;
        if (r.status != rt::guard::Status::kOk) {
          note = rt::guard::status_name(r.status);
          any_degraded = true;
        } else if (r.plan_status != rt::guard::Status::kOk) {
          note = std::string("plan: ") + rt::guard::status_name(r.plan_status);
          any_degraded = true;
        } else if (r.degraded()) {
          note = "serial fallback";
          any_degraded = true;
        } else if (r.hw.requested && !r.hw.available) {
          note = "hw n/a";
        }
        rows.push_back(
            {kn.name, std::to_string(n),
             std::string(rt::core::transform_name(tr)),
             r.plan.tiled ? std::to_string(r.plan.tile.ti) + "x" +
                                std::to_string(r.plan.tile.tj)
                          : "-",
             rt::bench::fmt(r.host_mflops, 0),
             ro.simulate ? rt::bench::fmt(r.l1_miss_pct, 2) : "-",
             pct_or_dash(r, CounterKind::kL1dLoadMisses, hw_refs),
             loads.valid && l1m.valid && loads.value > 0
                 ? rt::bench::fmt(100.0 * static_cast<double>(l1m.value) /
                                      static_cast<double>(loads.value),
                                  2)
                 : "-",
             ro.simulate ? rt::bench::fmt(r.l2_miss_pct, 3) : "-",
             pct_or_dash(r, CounterKind::kLlcLoadMisses, hw_refs),
             pct_or_dash(r, CounterKind::kDtlbLoadMisses, hw_refs),
             cyc.valid && ins.valid && cyc.value > 0
                 ? rt::bench::fmt(static_cast<double>(ins.value) /
                                      static_cast<double>(cyc.value),
                                  2)
                 : "-",
             note});
      }
    }
  }

  std::cout << "Hardware-counter validation (K=" << ro.k_dim
            << "; miss columns are percent):\n"
            << "  simL1 / simL2 : cachesim prediction, misses per reference\n"
            << "  hwL1r / hwLLCr / hwTLBr : measured load misses per *model*"
               " reference\n"
            << "  hwL1ld : measured L1D load misses per measured L1D load\n";
  rt::bench::print_table({"kernel", "N", "transform", "tile", "MFlops",
                          "simL1", "hwL1r", "hwL1ld", "simL2", "hwLLCr",
                          "hwTLBr", "IPC", "note"},
                         rows);
  if (any_degraded) {
    std::cout << "\nnote: rows marked 'serial fallback' requested --threads/"
                 "--simd axes this kernel\ncannot run; they timed serially "
                 "(see RunResult::degraded).\n";
  }

  if (!bo.json.empty()) {
    if (!writer.write_file(bo.json)) {
      std::cerr << "error: cannot write " << bo.json << "\n";
      return 1;
    }
    std::cout << "\nwrote " << writer.num_records() << " records to "
              << bo.json << "\n";
  }
  return 0;
}
