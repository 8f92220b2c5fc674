// ThreadPool unit tests: exact index coverage under contention, reuse
// across many jobs (including a long run of tiny back-to-back jobs, where
// a worker waking late must never run an index of a job other than the
// one it was handed), the sequential 1-thread fast path, and edge counts
// down to zero and up past the claim field's range.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "rt/par/thread_pool.hpp"

namespace rt::par {
namespace {

TEST(ThreadPool, DefaultThreadsAtLeastOne) {
  EXPECT_GE(ThreadPool::default_threads(), 1);
  ThreadPool p;
  EXPECT_GE(p.num_threads(), 1);
}

TEST(ThreadPool, RequestedWidth) {
  EXPECT_EQ(ThreadPool(1).num_threads(), 1);
  EXPECT_EQ(ThreadPool(4).num_threads(), 4);
  EXPECT_EQ(ThreadPool(7).num_threads(), 7);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const long count = 10000;
  std::vector<std::atomic<int>> hits(count);
  pool.parallel_for(count, [&](long i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
  });
  for (long i = 0; i < count; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "i=" << i;
  }
}

TEST(ThreadPool, CountSmallerThanPool) {
  ThreadPool pool(8);
  std::atomic<long> sum{0};
  pool.parallel_for(3, [&](long i) { sum.fetch_add(i + 1); });
  EXPECT_EQ(sum.load(), 1 + 2 + 3);
}

TEST(ThreadPool, ZeroAndNegativeCountAreNoOps) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](long) { calls.fetch_add(1); });
  pool.parallel_for(-5, [&](long) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  for (int job = 0; job < 200; ++job) {
    pool.parallel_for(17, [&](long) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 200 * 17);
}

TEST(ThreadPool, TinyBackToBackJobsRunOnlyTheCurrentJobExactlyOnce) {
  // The caller usually finishes a 2-3 item job before every worker has
  // woken, and returns without waiting for them.  A worker that wakes
  // late must find its job exhausted: each body checks that the job it
  // captured is the one running, and every index of every job must run
  // exactly once.
  ThreadPool pool(4);
  constexpr long kJobs = 100000;
  std::atomic<long> current{-1};
  std::array<std::atomic<int>, 3> hits{};
  std::atomic<long> wrong_job{0};
  long miscounted = 0;
  for (long job = 0; job < kJobs; ++job) {
    const long count = 2 + job % 2;
    for (std::atomic<int>& h : hits) h.store(0, std::memory_order_relaxed);
    current.store(job, std::memory_order_relaxed);
    pool.parallel_for(count, [&, job](long i) {
      if (current.load(std::memory_order_relaxed) != job) {
        wrong_job.fetch_add(1, std::memory_order_relaxed);
      }
      hits[static_cast<std::size_t>(i)].fetch_add(1,
                                                  std::memory_order_relaxed);
    });
    for (long i = 0; i < 3; ++i) {
      const int want = i < count ? 1 : 0;
      if (hits[static_cast<std::size_t>(i)].load() != want) ++miscounted;
    }
  }
  EXPECT_EQ(wrong_job.load(), 0) << "a body ran outside its own job";
  EXPECT_EQ(miscounted, 0) << "an index ran other than exactly once";
}

TEST(ThreadPool, CountsAboveTheClaimFieldThrowBeforeRunningAnyIndex) {
  // The claim word keeps the next index in 32 bits, so larger counts are
  // refused up front, the same way at every width (the inline paths
  // included), and the pool stays usable.
  EXPECT_EQ(ThreadPool::kMaxCount, (1L << 32) - 1);
  for (const int width : {1, 2, 4}) {
    ThreadPool pool(width);
    std::atomic<long> calls{0};
    const auto body = [&](long) { calls.fetch_add(1); };
    EXPECT_THROW(pool.parallel_for(ThreadPool::kMaxCount + 1, body),
                 std::length_error);
    EXPECT_THROW(pool.parallel_for(std::numeric_limits<long>::max(), body),
                 std::length_error);
    EXPECT_EQ(calls.load(), 0) << "width " << width;
    pool.parallel_for(5, body);
    EXPECT_EQ(calls.load(), 5) << "width " << width;
  }
}

TEST(ThreadPool, SingleThreadRunsSequentiallyInOrder) {
  // The 1-thread pool must behave exactly like a plain loop: same thread,
  // ascending index order (this is what keeps traced runs deterministic).
  ThreadPool pool(1);
  std::vector<long> order;
  pool.parallel_for(50, [&](long i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 50u);
  for (long i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPool, ParallelForIsABarrier) {
  // All writes from the job must be visible after parallel_for returns,
  // without any extra synchronisation in the caller.
  ThreadPool pool(4);
  std::vector<long> out(1000, 0);
  pool.parallel_for(1000, [&](long i) { out[static_cast<std::size_t>(i)] = i * i; });
  for (long i = 0; i < 1000; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
  }
}

TEST(ThreadPool, ConcurrentExternalCallersEachCoverExactlyOnce) {
  // Regression: two threads entering parallel_for on the SAME pool used to
  // race on the job state (body_/count_/generation_) — indices were lost or
  // run twice, silently.  Entry is now serialized on an internal job mutex:
  // both jobs must still see exact once-each coverage.  The TSan gate runs
  // this test; pre-fix it reports the data race even when counts happen to
  // come out right.
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr long kCount = 4000;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& h : hits) {
    h = std::vector<std::atomic<int>>(kCount);
  }
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &hits, c] {
      for (int round = 0; round < 5; ++round) {
        pool.parallel_for(kCount, [&hits, c](long i) {
          hits[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)]
              .fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    for (long i = 0; i < kCount; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)]
                    .load(),
                5)
          << "caller=" << c << " i=" << i;
    }
  }
}

TEST(ThreadPool, ReentrantParallelForRunsInlineWithoutDeadlock) {
  // A worker body calling parallel_for on its own pool must not block on
  // the job mutex its outer job holds — the nested call degrades to an
  // inline sequential loop on the calling thread.
  ThreadPool pool(4);
  const long outer = 8, inner = 16;
  std::vector<std::atomic<int>> hits(outer * inner);
  pool.parallel_for(outer, [&](long o) {
    pool.parallel_for(inner, [&](long i) {
      hits[static_cast<std::size_t>(o * inner + i)].fetch_add(
          1, std::memory_order_relaxed);
    });
  });
  for (long x = 0; x < outer * inner; ++x) {
    EXPECT_EQ(hits[static_cast<std::size_t>(x)].load(), 1) << "x=" << x;
  }
}

}  // namespace
}  // namespace rt::par
