// A small fixed-size work-stealing pool: the delivery-cycle engine's
// batch executor. The engine dispatches one batch per shard band or
// FIFO round — thousands of batches per second. Each
// batch is published by bumping an epoch counter; parked workers wake,
// claim chunks of the index range from per-slot atomic cursors, and
// steal from other slots when their own runs dry. No per-task lock
// acquisition and no per-batch thread creation.
//
// Simulators themselves stay deterministic: the engine only hands the
// pool work whose results are order-independent (disjoint shards whose
// per-channel arbitration is keyed by (seed, cycle, channel) streams),
// so results are identical at any thread count.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ft {

class ThreadPool {
 public:
  /// Starts `workers` threads; the caller of run_tasks joins every batch
  /// as one more participant.
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Runs body(i) for i in [0, count) on the pool and blocks until all
  /// calls return. The calling thread participates in the batch, so
  /// `size() + 1` threads make progress. Indices are pre-partitioned
  /// into one contiguous chunk per participant; idle participants steal
  /// from the others' chunks, so uneven per-index costs still balance.
  /// Must not be called concurrently from two threads or reentrantly
  /// from inside a batch body (the engine dispatches all batches from
  /// its single coordinating thread).
  void run_tasks(std::size_t count,
                 const std::function<void(std::size_t)>& body);

 private:
  /// One participant's chunk of the current batch: indices
  /// [cursor >> 32, cursor & 0xffffffff) remain. next and end are
  /// packed into one word so a claim (own or steal) is a single
  /// fetch_add of 1 << 32; the 64-byte alignment keeps each slot on a
  /// private cache line so claims don't ping-pong between cores.
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> cursor{0};
  };

  void worker_loop(std::size_t idx);
  /// Drain the current batch starting from slot `idx`, stealing from
  /// the other slots once it is empty. Decrements remaining_ by the
  /// number of indices executed and wakes the dispatcher on zero.
  void work_on_batch(std::size_t idx);

  std::vector<std::thread> workers_;
  std::vector<Slot> slots_;  // workers + 1 (dispatcher participates)

  // Batch state. Publication order: body_/remaining_/cursors (relaxed or
  // release), then epoch_ release-increment; workers acquire epoch_ (or
  // acquire a cursor via its claim RMW), which makes all of it visible.
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::atomic<std::size_t> slots_in_use_{0};
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::size_t> remaining_{0};
  std::atomic<int> sleepers_{0};
  std::atomic<bool> stop_{false};

  // Parking: guards both condition variables, on its own cache line, off
  // the one every participant polls (epoch_, remaining_).
  alignas(64) std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_done_;
};

}  // namespace ft
