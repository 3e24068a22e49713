#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

namespace qta {
namespace {

TEST(ResolveThreadCount, ExplicitRequestWins) {
  EXPECT_EQ(resolve_thread_count(3, 16, 100), 3u);
  EXPECT_EQ(resolve_thread_count(1, 16, 100), 1u);
}

TEST(ResolveThreadCount, ZeroRequestUsesHardware) {
  EXPECT_EQ(resolve_thread_count(0, 8, 100), 8u);
}

// std::thread::hardware_concurrency() is documented to return 0 when the
// platform cannot report a value; that must resolve to one thread, not
// clamp through zero.
TEST(ResolveThreadCount, UnknownHardwareFallsBackToOneThread) {
  EXPECT_EQ(resolve_thread_count(0, 0, 100), 1u);
  EXPECT_EQ(resolve_thread_count(0, 0, 0), 1u);
}

TEST(ResolveThreadCount, CappedByUsefulWork) {
  EXPECT_EQ(resolve_thread_count(16, 16, 5), 5u);
  EXPECT_EQ(resolve_thread_count(0, 16, 2), 2u);
  // Zero items still resolves to a valid (1-thread) pool.
  EXPECT_EQ(resolve_thread_count(4, 16, 0), 1u);
}

TEST(ThreadPoolTest, RunsEveryItemExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ZeroItemsIsANoOp) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolTest, SingleThreadPoolStillCompletes) {
  ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.parallel_for(100, [&](std::size_t i) {
    sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(17, [&](std::size_t) { ++count; });
    ASSERT_EQ(count.load(), 17);
  }
}

// Back-to-back batches, each with its own function. A worker that wakes
// only after its batch finished must never run a later batch's items
// through the finished batch's function (in real callers that function
// is a dead temporary). Every function stays alive here, so such a call
// is counted instead of being undefined behaviour. How often a buggy
// pool gets caught depends on the scheduler: it needs a worker to be
// descheduled between noticing a batch and taking the lock.
TEST(ThreadPoolTest, LateWorkerNeverRunsAFinishedBatchsFunction) {
  ThreadPool pool(8);
  std::atomic<std::uint64_t> current{0};
  std::atomic<std::uint64_t> stale{0};
  std::deque<std::function<void(std::size_t)>> fns;
  for (std::uint64_t batch = 1; batch <= 5000; ++batch) {
    current.store(batch);
    fns.emplace_back([batch, &current, &stale](std::size_t) {
      if (current.load() != batch) stale.fetch_add(1);
    });
    pool.parallel_for(16, fns.back());
  }
  EXPECT_EQ(stale.load(), 0u);
}

// A skewed batch (one slow item first in worker 0's deque, many quick
// ones behind it) must get rebalanced: the quick items land on other
// workers via steals instead of waiting behind the slow one.
TEST(ThreadPoolTest, StealsRebalanceSkewedWork) {
  ThreadPool pool(4);
  const std::size_t kItems = 64;
  std::atomic<int> done{0};
  pool.parallel_for(kItems, [&](std::size_t i) {
    if (i == 0) {
      // Item 0 parks worker 0 until everything else finished elsewhere.
      while (done.load() < static_cast<int>(kItems) - 1) {
        std::this_thread::yield();
      }
    }
    ++done;
  });
  EXPECT_EQ(done.load(), static_cast<int>(kItems));
  // Worker 0 held item 0 the whole time, so its remaining 15 round-robin
  // items can only have run through steals.
  EXPECT_GE(pool.steals(), 15u);
}

// Regression: steals() used to read plain (non-atomic) per-worker
// counters that workers increment concurrently — a data race under
// TSan. The counters are atomics now; polling steals() while a batch
// is in flight must be clean (this test runs in the TSan CI leg).
TEST(ThreadPoolTest, StealsIsSafeToPollDuringABatch) {
  ThreadPool pool(4);
  std::atomic<bool> stop{false};
  std::uint64_t observed = 0;
  std::thread poller([&] {
    while (!stop.load()) {
      observed = pool.steals();
      std::this_thread::yield();
    }
  });
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> done{0};
    pool.parallel_for(64, [&](std::size_t i) {
      if (i == 0) {
        while (done.load() < 63) std::this_thread::yield();
      }
      ++done;
    });
  }
  stop.store(true);
  poller.join();
  // The skewed batches force steals, and the monotone counter's final
  // value must dominate anything the poller saw mid-flight.
  EXPECT_GE(pool.steals(), observed);
  EXPECT_GE(pool.steals(), 15u);
}

TEST(ThreadPoolTest, ExecutionIsDeterministicRegardlessOfSchedule) {
  // Items write to disjoint slots: any interleaving yields the same
  // result (the property IndependentPipelines relies on).
  std::vector<std::uint64_t> a(100, 0), b(100, 0);
  {
    ThreadPool pool(7);
    pool.parallel_for(a.size(), [&](std::size_t i) { a[i] = i * i; });
  }
  {
    ThreadPool pool(2);
    pool.parallel_for(b.size(), [&](std::size_t i) { b[i] = i * i; });
  }
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace qta
