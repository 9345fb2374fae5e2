#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace ft {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPool) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, RunTasksCoversRangeAndBlocks) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.run_tasks(hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  // run_tasks has joined: every index ran exactly once.
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);

  pool.run_tasks(0, [&](std::size_t) { FAIL() << "empty batch ran"; });
  std::atomic<int> once{0};
  pool.run_tasks(1, [&](std::size_t) { ++once; });  // inline fast path
  EXPECT_EQ(once.load(), 1);
}

// Work-stealing stress: one pathological chunk gets ~all the work. With
// static partitioning the batch would take ~serial time on one worker;
// correctness here is that every index still runs exactly once and the
// call joins, with thieves draining the hot chunk's neighbours.
TEST(ThreadPool, StealsFromUnevenTaskCosts) {
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 512;
  std::vector<std::atomic<int>> hits(kTasks);
  std::atomic<long> checksum{0};
  pool.run_tasks(kTasks, [&](std::size_t i) {
    // Indices in the first chunk spin ~1000x longer than the rest.
    volatile long sink = 0;
    const long iters = (i < kTasks / 5) ? 200000 : 200;
    for (long k = 0; k < iters; ++k) sink += k;
    checksum.fetch_add(sink, std::memory_order_relaxed);
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

// Back-to-back batches through one pool: epoch publication must not lose
// or double-run indices even when batches are much smaller than the pool,
// larger than it, or dispatched in a tight loop (stragglers from batch k
// may race the dispatch of batch k+1).
TEST(ThreadPool, RepeatedBatchesStayExact) {
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    const std::size_t count = 1 + static_cast<std::size_t>(round % 97);
    std::vector<std::atomic<int>> hits(count);
    pool.run_tasks(count, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "round " << round << " index " << i;
    }
  }
}

// The dispatching thread participates instead of blocking: a pool of size
// zero (no workers at all) must still complete every batch inline.
TEST(ThreadPool, CallerParticipatesWithNoWorkers) {
  ThreadPool pool(1);  // size() may be 0 or 1 depending on the host
  std::vector<std::atomic<int>> hits(100);
  std::atomic<int> distinct_threads{0};
  pool.run_tasks(hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  (void)distinct_threads;
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// Legacy submit() traffic interleaved with run_tasks batches: the queued
// path and the epoch path share workers and must not starve each other.
TEST(ThreadPool, SubmitAndRunTasksInterleave) {
  ThreadPool pool(4);
  std::atomic<int> queued{0};
  std::atomic<int> batched{0};
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 4; ++i) {
      pool.submit([&] { queued.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.run_tasks(32, [&](std::size_t) {
      batched.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(queued.load(), 200);
  EXPECT_EQ(batched.load(), 1600);
}

// Nested submission: a batch body enqueues legacy tasks that are only
// awaited afterwards. The pool must neither deadlock (workers are inside
// run_tasks when submit fires) nor drop the nested work.
TEST(ThreadPool, NestedSubmitFromBatchBody) {
  ThreadPool pool(4);
  std::atomic<int> nested{0};
  pool.run_tasks(64, [&](std::size_t i) {
    if (i % 8 == 0) {
      pool.submit([&] { nested.fetch_add(1, std::memory_order_relaxed); });
    }
  });
  pool.wait_idle();
  EXPECT_EQ(nested.load(), 8);
}

}  // namespace
}  // namespace ft
