#pragma once
// Tiny CLI option parser shared by the bench executables.
//
// Common flags:
//   --full          dense problem-size sweep (paper resolution; slower)
//   --nmin=N --nmax=N --nstep=N   override the sweep range
//   --steps=N       measured time steps per configuration
//   --host          also run host wall-clock timing
//   --no-sim        skip cache simulation
//   --threads=N     worker threads for host timing (parallel tiled kernels)
//   --simd=MODE     host-timing SIMD fast path: off | auto | avx2
//   --temporal=M    temporal blocking: off | skew | diamond (benches that
//                   support it restrict their temporal section to M)
//   --bk=N          temporal K-block depth / diamond width (0 = auto)
//   --counters=M    hardware counters around host timing: off | auto | on
//   --json=FILE     write records through rt::obs::MetricsWriter
//   --verify=M      post-run NaN/Inf sweep: off | post | para (rt::guard)
//   --timeout=SECS  per-run watchdog deadline; a hung run becomes a
//                   recorded "timeout" row instead of wedging the sweep
//   --backend=B     planner backend (rt/core/backend.hpp): model (the
//                   paper's searches; default) | lattice (associativity-
//                   aware tiles) | oblivious (cache-parameter-free
//                   recursive schedule) | auto (probed geometry -> lattice,
//                   unprobed -> oblivious)
//   --tune=M        measurement-driven plan autotuning (rt::tune):
//                   off | load (serve persisted winners, never calibrate) |
//                   on (serve winners, calibrate + persist missing keys)
//   --plan-store=F  tuned-plan store file (default: rt::tune's resolved
//                   default path, $RT_TUNE_STORE / ~/.cache/rt-tune)
//   --tsteps=N      fused time steps for temporal blocking (0 = derive
//                   from --steps)
//   --retries=N     serving benches: client retry attempts beyond the
//                   first (0 = retrying off)
//   --retry-budget-ms=N  total wall budget per call incl. backoff
//   --backoff-ms=N  base of the exponential retry backoff
//
// Numeric flags are validated in full: `--nmin=abc` or `--threads=` exit 2
// with a message instead of silently becoming 0 (and the default).
// Contradictory combinations are rejected the same way after parsing:
// an explicit `--tsteps=0` alongside `--temporal=skew|diamond` (a temporal
// schedule with nothing to fuse), `--tune=load` when the resolved plan
// store file does not exist (nothing to load — a silent model-plan run
// would masquerade as a tuned one), an explicit `--retry-budget-ms=0`
// while retries are enabled (retrying with zero time to retry in),
// `--backoff-ms=N` alongside an explicit `--retries=0` (a backoff curve
// no retry will ever walk), and an explicit `--backend=` combined with
// `--tune=load` against a pre-backend (version < 2) plan store — v1
// winners carry no backend id, so serving them under a named backend
// would silently answer with another planner's plans.

#include <string>
#include <vector>

#include "rt/core/backend.hpp"
#include "rt/core/temporal.hpp"
#include "rt/guard/verify.hpp"
#include "rt/obs/perf_counters.hpp"
#include "rt/simd/simd.hpp"
#include "rt/tune/tune.hpp"

namespace rt::bench {

struct BenchOptions {
  bool full = false;
  bool host = false;
  bool simulate = true;
  long nmin = 0, nmax = 0, nstep = 0;  // 0 = bench default
  int steps = 2;
  int threads = 0;  ///< --threads=N host-timing width (0 = flag not given)
  rt::simd::SimdMode simd = rt::simd::SimdMode::kOff;  ///< --simd=MODE
  bool simd_given = false;  ///< --simd= was on the command line
  /// --temporal=off|skew|diamond temporal-blocking schedule selection.
  rt::core::TemporalMode temporal = rt::core::TemporalMode::kOff;
  bool temporal_given = false;  ///< --temporal= was on the command line
  long bk = 0;  ///< --bk=N temporal block depth / diamond width (0 = auto)
  std::string csv;  ///< --csv=PATH: also append CSV blocks to this file
  /// --counters=off|auto|on hardware-counter policy for host timing.
  rt::obs::CounterMode counters = rt::obs::CounterMode::kAuto;
  std::string json;  ///< --json=PATH: write MetricsWriter records here
  /// --verify=off|post|para post-run NaN/Inf sweep (rt::guard).
  rt::guard::VerifyMode verify = rt::guard::VerifyMode::kOff;
  /// --timeout=SECS per-run watchdog deadline (0 = off).
  double timeout_seconds = 0;
  /// --backend=model|lattice|oblivious|auto planner backend selection
  /// (rt/core/backend.hpp).  "auto" keeps backend at kModel here and sets
  /// backend_auto; benches resolve it against the probed cache geometry
  /// via rt::core::auto_backend once they know it.
  rt::core::Backend backend = rt::core::Backend::kModel;
  bool backend_given = false;  ///< --backend= was on the command line
  bool backend_auto = false;   ///< --backend=auto: resolve against geometry
  /// --tune=off|load|on autotuning policy (rt::tune).
  rt::tune::TuneMode tune = rt::tune::TuneMode::kOff;
  /// --plan-store=FILE tuned-plan store ("" = rt::tune default path).
  std::string plan_store;
  /// --tsteps=N fused time steps for temporal blocking (0 = derive from
  /// steps; an *explicit* 0 with --temporal=skew|diamond exits 2).
  int tsteps = 0;
  bool tsteps_given = false;  ///< --tsteps= was on the command line
  /// --retries=N retry attempts beyond the first for serving benches
  /// (0 = retrying disabled; rt::resil policy).
  int retries = 3;
  bool retries_given = false;  ///< --retries= was on the command line
  /// --retry-budget-ms=N total wall budget per retried call (an explicit
  /// 0 with retries enabled exits 2).
  int retry_budget_ms = 2000;
  bool retry_budget_given = false;  ///< --retry-budget-ms= was given
  /// --backoff-ms=N base exponential backoff (given with an explicit
  /// --retries=0 exits 2).
  int backoff_ms = 5;
  bool backoff_given = false;  ///< --backoff-ms= was on the command line

  /// The store file --tune=load/on will use: plan_store if given, else
  /// rt::tune::default_store_path().
  std::string resolved_plan_store() const;

  /// The backend a bench should plan with: the named one, or — for
  /// --backend=auto — rt::core::auto_backend over @p geom (typically
  /// RunOptions::geom()), so probed hosts get the lattice backend and
  /// unprobed ones degrade to the cache-oblivious planner.
  rt::core::Backend resolved_backend(const rt::core::CacheGeom& geom) const;

  /// Sweep of problem sizes honouring the defaults and overrides.
  std::vector<long> sweep(long def_min, long def_max, long def_step,
                          long full_step) const;
};

BenchOptions parse_options(int argc, char** argv);

}  // namespace rt::bench
