#include "rt/par/thread_pool.hpp"

#include <stdexcept>
#include <system_error>

#include "rt/guard/fault_injector.hpp"

namespace rt::par {

namespace {
// The pool whose body the current thread is executing right now (nullptr
// outside any body).  Lets parallel_for detect reentrant entry — from the
// job's calling thread or from a pool worker — where waiting on job_m_
// would deadlock the barrier.
thread_local const ThreadPool* tl_running_pool = nullptr;

struct RunningPoolScope {
  const ThreadPool* prev;
  explicit RunningPoolScope(const ThreadPool* p) : prev(tl_running_pool) {
    tl_running_pool = p;
  }
  ~RunningPoolScope() { tl_running_pool = prev; }
};

// The claim word's layout: generation above kIndexBits, index below.
constexpr int kIndexBits = 32;
constexpr std::uint64_t kIndexMask = (std::uint64_t{1} << kIndexBits) - 1;
static_assert(ThreadPool::kMaxCount == static_cast<long>(kIndexMask));
}  // namespace

int ThreadPool::default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) threads = default_threads();
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int t = 1; t < threads; ++t) {
    // Spawn failure (resource exhaustion, or an injected fault) degrades
    // the pool to the width reached so far instead of crashing: any width
    // >= 1 is correct (parallel_for's dynamic scheduling covers all
    // indices), and num_threads() reports the real width so callers can
    // record requested-vs-ran (RunResult::degraded()).
    if (rt::guard::FaultInjector::armed(rt::guard::FaultKind::kThreadSpawn) &&
        rt::guard::FaultInjector::instance().should_fail(
            rt::guard::FaultKind::kThreadSpawn)) {
      break;
    }
    try {
      workers_.emplace_back([this] { worker_loop(); });
    } catch (const std::system_error&) {
      break;
    }
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (std::thread& w : workers_) w.join();
}

long ThreadPool::run_claimed(std::uint64_t gen, long count,
                             const std::function<void(long)>& body) {
  const std::uint64_t tag = (gen & kIndexMask) << kIndexBits;
  long ran = 0;
  std::uint64_t w = claim_.load(std::memory_order_relaxed);
  // The index never passes count <= kMaxCount, so it cannot carry into the
  // generation.  A stale worker would need 2^32 jobs to pass between its
  // wake-up and its claim to see its own tag again.
  while ((w & ~kIndexMask) == tag &&
         static_cast<long>(w & kIndexMask) < count) {
    if (claim_.compare_exchange_weak(w, w + 1, std::memory_order_relaxed)) {
      body(static_cast<long>(w & kIndexMask));
      ++ran;
      w = claim_.load(std::memory_order_relaxed);
    }
  }
  return ran;
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(long)>* body = nullptr;
    long count = 0;
    {
      std::unique_lock<std::mutex> lk(m_);
      cv_start_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      body = body_;
      count = count_;
    }
    long ran = 0;
    {
      RunningPoolScope scope(this);
      ran = run_claimed(seen, count, *body);
    }
    // Counted under m_, the mutex the caller's wait predicate reads done_
    // under, so the last completion cannot slip in between the caller's
    // check and its wait.  A worker that ran nothing takes no lock: its
    // job may already be closed, and done_ may belong to a later one.
    if (ran > 0) {
      std::lock_guard<std::mutex> lk(m_);
      if (done_.fetch_add(ran, std::memory_order_acq_rel) + ran == count) {
        cv_done_.notify_one();
      }
    }
  }
}

void ThreadPool::parallel_for(long count,
                              const std::function<void(long)>& body) {
  if (count <= 0) return;
  if (count > kMaxCount) {
    throw std::length_error("ThreadPool::parallel_for: count above kMaxCount");
  }
  if (workers_.empty() || count == 1 || tl_running_pool == this) {
    // Sequential fast path, index order: what the serial kernels do.  Also
    // the reentrant path — a body running on this pool calling back in
    // cannot wait for the pool's own barrier, so the nested job runs
    // inline (still exactly-once, still deterministic index order).
    for (long i = 0; i < count; ++i) body(i);
    return;
  }
  // One job at a time: concurrent external callers queue here.  Each
  // caller's job still runs at full pool width once admitted.
  std::lock_guard<std::mutex> job_lk(job_m_);
  std::uint64_t gen = 0;
  {
    std::lock_guard<std::mutex> lk(m_);
    body_ = &body;
    count_ = count;
    gen = ++generation_;
    done_.store(0, std::memory_order_relaxed);
    claim_.store((gen & kIndexMask) << kIndexBits, std::memory_order_relaxed);
  }
  cv_start_.notify_all();
  // The calling thread works too; workers and caller share the claim
  // word.  Once it runs dry, only indices a worker claimed and has not
  // finished are left to wait for.
  long ran = 0;
  {
    RunningPoolScope scope(this);
    ran = run_claimed(gen, count, body);
  }
  if (done_.fetch_add(ran, std::memory_order_acq_rel) + ran == count) return;
  std::unique_lock<std::mutex> lk(m_);
  cv_done_.wait(lk, [&] {
    return done_.load(std::memory_order_acquire) == count;
  });
}

}  // namespace rt::par
