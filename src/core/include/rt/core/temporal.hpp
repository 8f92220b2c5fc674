#pragma once
// Temporal-blocking planner: the validated entry point that sizes a
// time-skewed or diamond-wavefront execution of the ping-pong Jacobi
// kernel.  The plan is schedule data: rt::simd::for_each_step_block turns
// it into (step, box) work items and rt::simd::run_steps runs them.
//
// Spatial tiling (the paper's contribution) exploits reuse *within* one
// sweep; temporal blocking keeps a window of K planes cache-resident
// across T sweeps, cutting memory traffic by up to T — the paper's stated
// future work (Section 2.1, Song & Li / Wonnacott) and the regime where
// the Malas-style diamond schedule beats spatial par+simd (memory-bound
// large N).  Two schedules are planned here:
//
//  * kSkew — slope-1 skewed K blocks: plane p's step-t update runs in the
//    block containing p + t; blocks run serially in ascending K, planes of
//    one (block, t) stage are independent (wavefront parallelism).
//  * kDiamond — two-phase diamond wavefront: phase 1 runs per-block
//    descending triangles (steps t cover the planes whose offset within
//    the block lies in [t, W-1-t]) which are fully independent across
//    blocks; after a barrier, phase 2 fills the inverted triangles at the
//    block boundaries.  With W >= 2*tb the triangles of one step touch
//    disjoint plane sets, so every step is one set of independent work
//    items — each triangle split into `team` J slices — and one barrier
//    per step orders the pass.
//
// Like plan_for_checked, this never throws and never silently clamps: a
// degraded request (cache window too small, width below the diamond
// minimum, non-positive threads) is recorded as a typed rt::guard status
// with a still-usable plan, so benches route it into a recorded skipped
// row instead of printing a misleading data point.

#include <string>

#include "rt/guard/status.hpp"

namespace rt::core {

/// Requested temporal-blocking schedule (the --temporal= flag).
enum class TemporalMode {
  kOff,      ///< no temporal blocking (plain per-sweep execution)
  kSkew,     ///< slope-1 skewed K blocks
  kDiamond,  ///< two-phase diamond wavefront, triangles split in J
};

/// Stable token ("off", "skew", "diamond").
const char* temporal_mode_name(TemporalMode m);
bool parse_temporal_mode(const std::string& s, TemporalMode* out);

/// Concrete temporal-blocking decision for one (mode, shape, tsteps,
/// threads) request — the temporal analogue of TilingPlan.
struct TemporalPlan {
  TemporalMode mode = TemporalMode::kOff;
  int tsteps = 0;  ///< time steps the plan covers
  long bk = 0;     ///< K-block depth (kSkew) / diamond width W (kDiamond)
  int tb = 0;      ///< steps fused per diamond pass, <= bk/2 (0 for kSkew)
  int threads = 1; ///< total execution width
  int team = 1;    ///< J slices per diamond triangle (1 for kSkew)
  /// Scheduled (window, step) sweeps with a nonempty plane range.
  long stages = 0;
  /// Mean fraction of the execution width with a plane (kSkew) or a work
  /// unit (kDiamond) to run, over all scheduled steps — the wavefront
  /// occupancy the JSON "temporal" block reports.
  double occupancy = 0.0;
};

/// temporal_plan() plus the typed reason for any degradation; `plan` is
/// always usable (clamped to the nearest valid configuration), `status`
/// says what actually happened:
///   kOk               the request is planned as asked
///   kInvalidArgument  mode off, tsteps < 0, no interior, cs <= 0,
///                     threads < 1, bk < 0, or a diamond width below 2
///   kInfeasible       valid inputs, but the requested/auto window cannot
///                     be cache-resident (the plan still runs correctly)
///   kOverflow         a working-set size computation overflows long
struct TemporalReport {
  TemporalPlan plan;
  rt::guard::Status status = rt::guard::Status::kOk;
  std::string detail;  ///< human-readable reason when status != kOk
  bool ok() const { return status == rt::guard::Status::kOk; }
};

/// Validated temporal planner for an n1 x n2 x n3 ping-pong Jacobi grid.
/// @param cs       target cache capacity in elements (the level that holds
///                 the plane window — L2/L3, not the planner's L1)
/// @param tsteps   time steps to fuse
/// @param bk       requested block depth / diamond width; 0 = auto-size
///                 from cs (the skew window keeps ~(bk + tsteps + 2)
///                 planes of both arrays live; the diamond keeps ~2*W)
/// @param threads  requested execution width (teams * team for kDiamond)
/// @param halo     stencil radius (boundary layers per side; 1 for Jacobi)
TemporalReport temporal_plan_checked(TemporalMode mode, long cs, long n1,
                                     long n2, long n3, int tsteps, long bk,
                                     int threads, long halo = 1);

}  // namespace rt::core
