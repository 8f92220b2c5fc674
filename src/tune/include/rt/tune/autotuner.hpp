#pragma once
// The calibration engine: measure every candidate under one protocol,
// pick the winner, and never let a bad candidate take the sweep down.
//
//  * Objective: median measured seconds over `repeats` runs (the median is
//    the outlier trim at these repeat counts).  Candidates within
//    `tie_tolerance` of the best time tie, and ties break on hardware
//    counters — fewer LLC misses, then fewer dTLB misses, then higher IPC
//    (rt::obs::PerfCounters; skipped when the host exposes none) — and
//    finally on candidate order, which is preference order with the model
//    plan first.  "Autotuned >= model" therefore holds by construction:
//    the model plan is always in the candidate set, measured identically.
//  * Guardrails: each calibration run can be supervised by an rt::guard
//    watchdog deadline; a hung or failed candidate becomes a recorded
//    skip row (kTimeout / kAllocFailed / ...) and the sweep continues.
//  * Staleness + background re-tune: store entries older than max_age_ms
//    are re-tuned on a background worker (retune_async / wait_idle) so the
//    serving path never blocks on a calibration sweep.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "rt/guard/status.hpp"
#include "rt/tune/candidates.hpp"
#include "rt/tune/plan_store.hpp"
#include "rt/tune/tune.hpp"

namespace rt::tune {

struct TuneConfig {
  int repeats = 3;  ///< calibration runs per candidate (median taken)
  /// Times within this fraction of the best tie; counters break ties.
  double tie_tolerance = 0.02;
  /// Watchdog deadline per calibration run (seconds); a run that exceeds
  /// it marks the candidate kTimeout-skipped.  0 = unsupervised.
  double candidate_deadline_s = 0;
  /// Store entries older than this re-tune in the background (0 = never
  /// stale by age; version/fingerprint staleness is handled by the store).
  std::int64_t max_age_ms = 0;
  std::size_t max_candidates = 24;  ///< candidate-set cap
};

/// One measured (or skipped) candidate in the result table.
struct CandidateResult {
  std::string origin;
  rt::core::TilingPlan plan{};            ///< spatial sweeps
  rt::core::TemporalPlan temporal_plan{}; ///< temporal sweeps
  Measurement m;
};

/// Outcome of one calibration sweep.
struct TuneResult {
  TuneKey key;
  /// kOk when a winner was measured; kInfeasible when every candidate was
  /// skipped (the caller falls back to the model plan, recorded).
  rt::guard::Status status = rt::guard::Status::kOk;
  std::string detail;
  std::vector<CandidateResult> candidates;
  int winner = -1;  ///< index into candidates (-1 when status != kOk)
  int model = -1;   ///< index of the "model" candidate (-1 if absent)
  int worst = -1;   ///< slowest successfully measured candidate
  bool ok() const { return status == rt::guard::Status::kOk; }
  double mflops_at(int i) const {
    return i >= 0 && i < static_cast<int>(candidates.size())
               ? candidates[static_cast<std::size_t>(i)].m.mflops
               : 0;
  }
};

class Autotuner {
 public:
  explicit Autotuner(TuneConfig cfg = {});
  /// Joins the background worker (drains queued re-tunes first).
  ~Autotuner();
  Autotuner(const Autotuner&) = delete;
  Autotuner& operator=(const Autotuner&) = delete;

  const TuneConfig& config() const { return cfg_; }

  /// Measure @p cands (in order) through @p runner and select the winner.
  /// Candidates past config().max_candidates are dropped (recorded in the
  /// result detail).  Never throws; a throwing runner marks its candidate
  /// skipped.
  TuneResult tune_spatial(const TuneKey& key,
                          const std::vector<Candidate>& cands,
                          const CandidateRunner& runner);

  /// Same sweep over temporal candidates.
  TuneResult tune_temporal(const TuneKey& key,
                           const std::vector<TemporalCandidate>& cands,
                           const TemporalCandidateRunner& runner);

  /// Is @p e older than config().max_age_ms at wall-clock @p now_ms?
  bool is_stale(const StoreEntry& e, std::int64_t now_ms) const;

  /// Queue @p job on the background re-tune worker (started lazily).
  /// Jobs run strictly in queue order, one at a time.
  void retune_async(std::function<void()> job);
  /// Block until every queued job has finished.
  void wait_idle();
  /// Jobs completed so far (observability for tests).
  std::size_t jobs_run() const;

 private:
  struct Sweep;
  TuneResult run_sweep(const TuneKey& key, Sweep& sweep);
  Measurement measure_candidate(const std::function<Measurement()>& once);

  TuneConfig cfg_;
  struct Worker;
  Worker* worker_;  // lazily started; owned (deleted in dtor)
};

}  // namespace rt::tune
