#include "rt/tune/autotuner.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <new>
#include <thread>

#include "rt/guard/watchdog.hpp"

namespace rt::tune {

using rt::guard::Status;

// ---------------------------------------------------------------------------
// Background re-tune worker: one thread, strict queue order, drained on exit.

struct Autotuner::Worker {
  std::mutex m;
  std::condition_variable cv;
  std::deque<std::function<void()>> q;
  bool stop = false;
  bool busy = false;
  std::size_t done = 0;
  std::thread th;

  Worker() : th([this] { loop(); }) {}

  ~Worker() {
    {
      std::lock_guard<std::mutex> lk(m);
      stop = true;
    }
    cv.notify_all();
    th.join();
  }

  void loop() {
    std::unique_lock<std::mutex> lk(m);
    while (true) {
      cv.wait(lk, [&] { return stop || !q.empty(); });
      if (q.empty()) {
        if (stop) return;  // queued jobs drain before shutdown
        continue;
      }
      std::function<void()> job = std::move(q.front());
      q.pop_front();
      busy = true;
      lk.unlock();
      try {
        job();
      } catch (...) {
        // A failed re-tune keeps the old entry; the worker must survive.
      }
      lk.lock();
      busy = false;
      ++done;
      cv.notify_all();
    }
  }
};

Autotuner::Autotuner(TuneConfig cfg) : cfg_(cfg), worker_(new Worker) {}

Autotuner::~Autotuner() { delete worker_; }

void Autotuner::retune_async(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lk(worker_->m);
    worker_->q.push_back(std::move(job));
  }
  worker_->cv.notify_all();
}

void Autotuner::wait_idle() {
  std::unique_lock<std::mutex> lk(worker_->m);
  worker_->cv.wait(lk, [&] { return worker_->q.empty() && !worker_->busy; });
}

std::size_t Autotuner::jobs_run() const {
  std::lock_guard<std::mutex> lk(worker_->m);
  return worker_->done;
}

bool Autotuner::is_stale(const StoreEntry& e, std::int64_t now_ms) const {
  return cfg_.max_age_ms > 0 && now_ms - e.tuned_at_ms > cfg_.max_age_ms;
}

// ---------------------------------------------------------------------------
// Calibration sweep.

Measurement Autotuner::measure_candidate(
    const std::function<Measurement()>& once) {
  std::vector<Measurement> reps;
  const int repeats = std::max(1, cfg_.repeats);
  for (int i = 0; i < repeats; ++i) {
    Measurement m;
    try {
      if (cfg_.candidate_deadline_s > 0) {
        // Watchdog contract (rt/guard/watchdog.hpp): the closure owns its
        // state.  `once` is copied in; the result lives on the shared heap
        // so an abandoned run writes into memory that outlives this frame.
        auto out = std::make_shared<Measurement>();
        const auto deadline = std::chrono::milliseconds(
            static_cast<long long>(cfg_.candidate_deadline_s * 1000.0));
        std::function<Measurement()> run = once;
        const rt::guard::WatchdogResult wd = rt::guard::run_with_deadline(
            [run, out] { *out = run(); }, deadline);
        if (!wd.completed) {
          m.status = Status::kTimeout;
          m.detail = wd.abandoned
                         ? "calibration run abandoned after deadline"
                         : "calibration run exceeded deadline";
          return m;
        }
        m = *out;
      } else {
        m = once();
      }
    } catch (const std::bad_alloc&) {
      m = Measurement{};
      m.status = Status::kAllocFailed;
      m.detail = "calibration run allocation failed";
      return m;
    } catch (const std::exception& e) {
      m = Measurement{};
      m.status = Status::kInvalidArgument;
      m.detail = std::string("calibration run threw: ") + e.what();
      return m;
    }
    if (!m.ok()) return m;  // runner-reported skip: record as-is
    reps.push_back(m);
  }
  // Median by time — the whole Measurement rides along so the winner's
  // counters are the median run's, not a mix.
  std::sort(reps.begin(), reps.end(),
            [](const Measurement& a, const Measurement& b) {
              return a.seconds < b.seconds;
            });
  return reps[reps.size() / 2];
}

namespace {

/// Counter tie-break: fewer LLC misses, then fewer dTLB misses, then
/// higher IPC.  Slots either side lacks (negative) don't discriminate;
/// full ties keep the earlier candidate (preference order, model first).
bool counters_better(const Measurement& a, const Measurement& b) {
  if (a.llc_misses >= 0 && b.llc_misses >= 0 && a.llc_misses != b.llc_misses)
    return a.llc_misses < b.llc_misses;
  if (a.dtlb_misses >= 0 && b.dtlb_misses >= 0 &&
      a.dtlb_misses != b.dtlb_misses)
    return a.dtlb_misses < b.dtlb_misses;
  if (a.ipc >= 0 && b.ipc >= 0 && a.ipc != b.ipc) return a.ipc > b.ipc;
  return false;
}

}  // namespace

struct Autotuner::Sweep {
  std::vector<CandidateResult> rows;
  std::vector<std::function<Measurement()>> run;
};

TuneResult Autotuner::run_sweep(const TuneKey& key, Sweep& sweep) {
  TuneResult res;
  res.key = key;
  res.candidates = std::move(sweep.rows);
  for (std::size_t i = 0; i < res.candidates.size(); ++i) {
    res.candidates[i].m = measure_candidate(sweep.run[i]);
    if (res.candidates[i].origin == "model") res.model = static_cast<int>(i);
  }

  double best_s = 0;
  bool any_ok = false;
  for (std::size_t i = 0; i < res.candidates.size(); ++i) {
    const Measurement& m = res.candidates[i].m;
    if (!m.ok()) continue;
    if (!any_ok || m.seconds < best_s) best_s = m.seconds;
    any_ok = true;
    if (res.worst < 0 ||
        m.seconds >
            res.candidates[static_cast<std::size_t>(res.worst)].m.seconds) {
      res.worst = static_cast<int>(i);
    }
  }
  if (!any_ok) {
    res.status = Status::kInfeasible;
    res.detail = "no candidate completed calibration";
    return res;
  }
  // Winner = earliest candidate within tie_tolerance of the best time,
  // improved upon only by a counter-better contender.
  for (std::size_t i = 0; i < res.candidates.size(); ++i) {
    const Measurement& m = res.candidates[i].m;
    if (!m.ok()) continue;
    if (m.seconds > best_s * (1.0 + cfg_.tie_tolerance)) continue;
    if (res.winner < 0) {
      res.winner = static_cast<int>(i);
      continue;
    }
    const Measurement& w =
        res.candidates[static_cast<std::size_t>(res.winner)].m;
    if (counters_better(m, w)) res.winner = static_cast<int>(i);
  }
  return res;
}

TuneResult Autotuner::tune_spatial(const TuneKey& key,
                                   const std::vector<Candidate>& cands,
                                   const CandidateRunner& runner) {
  Sweep sweep;
  const std::size_t n = std::min(cands.size(), cfg_.max_candidates);
  for (std::size_t i = 0; i < n; ++i) {
    CandidateResult row;
    row.origin = cands[i].origin;
    row.plan = cands[i].plan;
    sweep.rows.push_back(std::move(row));
    const rt::core::TilingPlan plan = cands[i].plan;
    sweep.run.push_back([runner, plan] { return runner(plan); });
  }
  TuneResult res = run_sweep(key, sweep);
  if (res.ok() && n < cands.size()) {
    res.detail = "candidate set capped at " + std::to_string(n);
  }
  if (res.candidates.empty()) {
    res.status = Status::kInvalidArgument;
    res.detail = "empty candidate set";
  }
  return res;
}

TuneResult Autotuner::tune_temporal(const TuneKey& key,
                                    const std::vector<TemporalCandidate>& cands,
                                    const TemporalCandidateRunner& runner) {
  Sweep sweep;
  const std::size_t n = std::min(cands.size(), cfg_.max_candidates);
  for (std::size_t i = 0; i < n; ++i) {
    CandidateResult row;
    row.origin = cands[i].origin;
    row.temporal_plan = cands[i].report.plan;
    sweep.rows.push_back(std::move(row));
    const rt::core::TemporalPlan plan = cands[i].report.plan;
    sweep.run.push_back([runner, plan] { return runner(plan); });
  }
  TuneResult res = run_sweep(key, sweep);
  if (res.ok() && n < cands.size()) {
    res.detail = "candidate set capped at " + std::to_string(n);
  }
  if (res.candidates.empty()) {
    res.status = Status::kInvalidArgument;
    res.detail = "empty candidate set";
  }
  return res;
}

}  // namespace rt::tune
