#include "rt/core/temporal.hpp"

#include <algorithm>

namespace rt::core {

namespace {

using rt::guard::Status;

/// Count the scheduled sweeps of the slope-1 skew (the exact loop bounds
/// rt::simd::for_each_step_block runs) and the mean fraction of `threads`
/// with a plane to sweep per stage.
void skew_stages(long kmax, int tsteps, long bk, int threads,
                 TemporalPlan* plan) {
  long stages = 0;
  double util = 0;
  for (long kb = 1; kb < kmax + tsteps; kb += bk) {
    for (int t = 0; t < tsteps; ++t) {
      const long lo = std::max(1L, kb - t);
      const long hi = std::min(kmax, kb + bk - 1 - t);
      if (hi < lo) continue;
      ++stages;
      util += static_cast<double>(std::min<long>(hi - lo + 1, threads)) /
              static_cast<double>(threads);
    }
  }
  plan->stages = stages;
  plan->occupancy = stages > 0 ? util / static_cast<double>(stages) : 0.0;
}

/// Same for the two-phase diamond: stages are (block, step) and
/// (boundary, step) sweeps; occupancy is the mean fraction of teams with a
/// work unit, per step of each phase.
void diamond_stages(long kmax, int tsteps, long w, int tb, int teams,
                    TemporalPlan* plan) {
  const long nblocks = (kmax + w - 1) / w;
  long stages = 0;
  double util = 0;
  long steps = 0;
  for (int t0 = 0; t0 < tsteps; t0 += tb) {
    const int tbc = std::min<int>(tb, tsteps - t0);
    for (int t = 0; t < tbc; ++t) {  // phase 1: descending triangles
      long active = 0;
      for (long d = 0; d < nblocks; ++d) {
        const long s = 1 + d * w;
        if (s + t <= std::min(kmax, s + w - 1 - t)) ++active;
      }
      stages += active;
      ++steps;
      util += static_cast<double>(std::min<long>(active, teams)) /
              static_cast<double>(teams);
    }
    for (int t = 1; t < tbc; ++t) {  // phase 2: inverted triangles
      long active = 0;
      for (long d = 0; d <= nblocks; ++d) {
        const long b = 1 + d * w;
        if (std::max(1L, b - t) <= std::min(kmax, b + t - 1)) ++active;
      }
      stages += active;
      ++steps;
      util += static_cast<double>(std::min<long>(active, teams)) /
              static_cast<double>(teams);
    }
  }
  plan->stages = stages;
  plan->occupancy = steps > 0 ? util / static_cast<double>(steps) : 0.0;
}

}  // namespace

const char* temporal_mode_name(TemporalMode m) {
  switch (m) {
    case TemporalMode::kOff:
      return "off";
    case TemporalMode::kSkew:
      return "skew";
    case TemporalMode::kDiamond:
      return "diamond";
  }
  return "off";
}

bool parse_temporal_mode(const std::string& s, TemporalMode* out) {
  if (s == "off") {
    *out = TemporalMode::kOff;
  } else if (s == "skew") {
    *out = TemporalMode::kSkew;
  } else if (s == "diamond") {
    *out = TemporalMode::kDiamond;
  } else {
    return false;
  }
  return true;
}

TemporalReport temporal_plan_checked(TemporalMode mode, long cs, long n1,
                                     long n2, long n3, int tsteps, long bk,
                                     int threads, long halo) {
  TemporalReport rep;
  TemporalPlan& plan = rep.plan;
  plan.mode = mode;
  plan.tsteps = std::max(tsteps, 0);
  plan.threads = std::max(threads, 1);

  if (mode == TemporalMode::kOff) {
    rep.status = Status::kInvalidArgument;
    rep.detail = "temporal mode off has nothing to plan";
    return rep;
  }
  if (halo < 1) {
    rep.status = Status::kInvalidArgument;
    rep.detail = "stencil halo must be >= 1 (halo = " + std::to_string(halo) +
                 ")";
    plan.bk = 1;
    return rep;
  }
  if (n1 <= 2 * halo || n2 <= 2 * halo || n3 <= 2 * halo) {
    rep.status = Status::kInvalidArgument;
    rep.detail = "dimensions " + std::to_string(n1) + "x" +
                 std::to_string(n2) + "x" + std::to_string(n3) +
                 " at or below the stencil halo (" + std::to_string(halo) +
                 "): no interior to sweep";
    plan.bk = 1;
    return rep;
  }
  if (cs <= 0) {
    rep.status = Status::kInvalidArgument;
    rep.detail = "cache size must be positive (cs = " + std::to_string(cs) +
                 ")";
    plan.bk = 1;
    return rep;
  }
  if (tsteps < 0) {
    rep.status = Status::kInvalidArgument;
    rep.detail = "tsteps must be >= 0 (tsteps = " + std::to_string(tsteps) +
                 ")";
    plan.bk = 1;
    return rep;
  }
  if (bk < 0) {
    rep.status = Status::kInvalidArgument;
    rep.detail = "block depth must be >= 0 (bk = " + std::to_string(bk) +
                 "; 0 auto-sizes from the cache)";
    bk = 0;  // plan as if auto-sized so the report stays usable
  }
  if (threads < 1) {
    rep.status = Status::kInvalidArgument;
    rep.detail = "threads must be >= 1 (threads = " +
                 std::to_string(threads) + ")";
  }

  // Working-set arithmetic, overflow-checked: one plane, and the two-array
  // window of `win` planes the schedule keeps live.
  long plane = 0;
  if (__builtin_mul_overflow(n1, n2, &plane)) {
    rep.status = Status::kOverflow;
    rep.detail = "plane size " + std::to_string(n1) + "x" +
                 std::to_string(n2) + " overflows long";
    plan.bk = 1;
    return rep;
  }
  const long kmax = n3 - 2 * halo;  // interior planes, indexed 1..kmax

  if (mode == TemporalMode::kSkew) {
    // The skew window keeps ~(bk + tsteps + 2) planes of BOTH arrays live.
    // Auto-sizing budgets HALF the capacity: a window that nominally fills
    // the cache thrashes in practice (streaming boundaries, other data,
    // imperfect LRU), and measurements show a half-capacity window is
    // reliably faster than a full-capacity one.
    if (bk == 0) {
      plan.bk = cs / (4 * plane) - tsteps - 2;
      if (plan.bk < 1) {
        plan.bk = 1;
        if (rep.status == Status::kOk) {
          rep.status = Status::kInfeasible;
          rep.detail = "cache of " + std::to_string(cs) +
                       " elements cannot hold the " +
                       std::to_string(tsteps + 3) +
                       "-plane skew window of two " + std::to_string(plane) +
                       "-element planes";
        }
      }
    } else {
      plan.bk = bk;
      long win = 0, elems = 0;
      if (__builtin_add_overflow(bk, tsteps + 2, &win) ||
          __builtin_mul_overflow(2 * plane, win, &elems)) {
        rep.status = Status::kOverflow;
        rep.detail = "skew window size overflows long for bk = " +
                     std::to_string(bk);
        return rep;
      }
      if (elems > cs && rep.status == Status::kOk) {
        rep.status = Status::kInfeasible;
        rep.detail = "requested skew window of " + std::to_string(win) +
                     " planes of both arrays (" + std::to_string(elems) +
                     " elements) exceeds the " + std::to_string(cs) +
                     "-element cache";
      }
    }
    skew_stages(kmax, plan.tsteps, plan.bk, plan.threads, &plan);
    return rep;
  }

  // kDiamond: the pass keeps ~W planes of both arrays live; W >= 2*tb so
  // concurrent phase-2 triangles stay plane-disjoint.  Auto-sizing budgets
  // half the capacity, same rationale as the skew window.
  long w = bk;
  if (w == 0) {
    w = cs / (4 * plane);
    if (w < 2) {
      w = 2;
      if (rep.status == Status::kOk) {
        rep.status = Status::kInfeasible;
        rep.detail = "cache of " + std::to_string(cs) +
                     " elements cannot hold the minimum 2-plane diamond "
                     "window of two " + std::to_string(plane) +
                     "-element planes";
      }
    }
  } else if (w < 2) {
    if (rep.status == Status::kOk) {
      rep.status = Status::kInvalidArgument;
      rep.detail = "diamond width must be >= 2 (bk = " + std::to_string(w) +
                   ")";
    }
    w = 2;
  }
  plan.bk = w;
  plan.tb = plan.tsteps > 0
                ? static_cast<int>(std::clamp<long>(plan.tsteps, 1, w / 2))
                : 0;
  // Team shape: one team per concurrent block when threads allow, the
  // remaining width stacked inside teams (members split the J range).
  const long nblocks = (kmax + w - 1) / w;
  const int teams = static_cast<int>(
      std::clamp<long>(nblocks, 1, plan.threads));
  plan.team = std::max(1, plan.threads / teams);
  diamond_stages(kmax, plan.tsteps, w, std::max(plan.tb, 1), teams, &plan);
  return rep;
}

}  // namespace rt::core
