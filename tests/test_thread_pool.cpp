#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "util/parse.hpp"

namespace ft {
namespace {

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
    for (long k = 0; k < iters; ++k) sink = sink + k;
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

// The smallest pool: one worker plus the dispatching thread, which joins
// every batch as slot 0, still run every index exactly once.
TEST(ThreadPool, OneWorkerAndCallerRunEveryIndexOnce) {
  ThreadPool pool(1);
  ASSERT_EQ(pool.size(), 1u);
  std::vector<std::atomic<int>> hits(100);
  pool.run_tasks(hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// Destroying a pool whose workers have parked wakes and joins them: the
// stop flag is stored under the parking mutex, so no worker can miss it
// between its predicate check and its wait.
TEST(ThreadPool, DestructorJoinsParkedWorkers) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  pool.run_tasks(8, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
  // Far longer than the spin and yield budget: every worker parks.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

// The one thread-count rule behind the engine's pool, ftd's workers and
// the shard-level heuristic: an explicit count passes through, and 0
// (hardware concurrency) resolves to at least one thread.
TEST(ThreadPool, ResolveThreadsKeepsExplicitCountsAndResolvesZero) {
  EXPECT_EQ(resolve_threads(3), 3u);
  EXPECT_GE(resolve_threads(0), 1u);
}

}  // namespace
}  // namespace ft
