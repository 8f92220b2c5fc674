#pragma once
// rt::tune — measurement-driven online autotuner (shared vocabulary).
//
// The paper's planners (Euc3D/GcdPad/Pad) model a direct-mapped cache; real
// hosts have associative caches, hardware prefetchers and TLBs, so the
// analytically best tile is not always the measured best ("Model-Driven
// Automatic Tiling with Cache Associativity Lattices").  rt::tune closes
// that gap: it seeds a candidate set from the model plan, runs short guarded
// calibration sweeps through a caller-supplied runner, selects a measured
// winner, and persists it in a versioned, topology-fingerprinted plan store
// so later runs skip the sweep entirely (--tune=load).
//
// Layering: rt_tune depends on rt_core/rt_guard/rt_obs only.  Executing a
// candidate needs kernels and the bench runner, which live above this
// library — so measurement is injected as a CandidateRunner callback and
// unit tests drive the tuner with synthetic runners.

#include <functional>
#include <string>

#include "rt/core/plan.hpp"
#include "rt/core/temporal.hpp"
#include "rt/guard/status.hpp"

namespace rt::tune {

/// The --tune= flag: kOff = model plans only; kLoad = serve persisted
/// winners, never calibrate; kOn = serve persisted winners and calibrate
/// (then persist) the keys the store is missing.
enum class TuneMode {
  kOff,
  kLoad,
  kOn,
};

/// Stable token ("off", "load", "on").
const char* tune_mode_name(TuneMode m);
bool parse_tune_mode(const std::string& s, TuneMode* out);

/// Parse a transform_name() token back into a Transform (the writer-side
/// tokens are the paper's names: "Orig", "Tile", "Euc3D", "GcdPad", "Pad",
/// "GcdPadNT").  Anything else returns false.
bool parse_transform(const std::string& s, rt::core::Transform* out);

/// Identity of one tuning problem: what the winner was measured *for*.
/// Everything that changes the measured ranking is in the key — kernel,
/// shape, transform family, execution width, SIMD level and the temporal
/// schedule — so a store entry is only served for the exact configuration
/// it was calibrated on.
struct TuneKey {
  std::string kernel;  ///< kernel table name (e.g. "JACOBI", "RESID")
  long n = 0;          ///< problem size (N x N x n3 arrays)
  long n3 = 0;         ///< third dimension (the paper fixes it at 30)
  rt::core::Transform transform = rt::core::Transform::kOrig;
  /// Planner backend the winner was calibrated against: a lattice-planned
  /// winner must never be served for a model-planned configuration (plan
  /// identity; see rt/core/backend.hpp).
  rt::core::Backend backend = rt::core::Backend::kModel;
  int threads = 1;
  std::string simd = "off";  ///< SIMD mode token ("off" / "auto" / "avx2")
  rt::core::TemporalMode temporal = rt::core::TemporalMode::kOff;
  int tsteps = 0;  ///< fused time steps (temporal keys; 0 for spatial)

  friend bool operator==(const TuneKey&, const TuneKey&) = default;

  /// Stable one-line identity, e.g.
  ///   "JACOBI/n400x30/GcdPad/model/t4/simd=avx2/temporal=off/ts0"
  /// — used as the table label and the store's de-duplication key.
  std::string str() const;
};

/// One calibration measurement of one candidate plan.  `seconds` is the
/// primary objective (median measured step time); the counter-derived
/// fields break ties and are negative when the host exposes no counters.
struct Measurement {
  double seconds = 0;  ///< median wall-clock seconds per measured step
  double mflops = 0;   ///< throughput at that time (reporting only)
  double llc_misses = -1;   ///< LLC load misses per step (-1 = unavailable)
  double dtlb_misses = -1;  ///< dTLB load misses per step (-1 = unavailable)
  double ipc = -1;          ///< instructions per cycle (-1 = unavailable)
  /// Non-kOk marks the candidate skipped-and-recorded (kTimeout when the
  /// per-candidate watchdog fired, kAllocFailed, ...): it stays in the
  /// result table but never competes for the win.
  rt::guard::Status status = rt::guard::Status::kOk;
  std::string detail;
  bool ok() const { return status == rt::guard::Status::kOk; }
};

/// Measurement callback for spatial candidates: execute @p plan for the
/// keyed configuration and report one Measurement.  The autotuner may run
/// it from a watchdog-supervised worker thread, so the callable must own
/// everything it touches (by-value captures; see rt/guard/watchdog.hpp).
using CandidateRunner =
    std::function<Measurement(const rt::core::TilingPlan& plan)>;

/// Same for temporal candidates.
using TemporalCandidateRunner =
    std::function<Measurement(const rt::core::TemporalPlan& plan)>;

}  // namespace rt::tune
