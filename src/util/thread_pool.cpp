#include "util/thread_pool.hpp"

#include <algorithm>

namespace ft {

namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

// Spin budget before a worker parks. Short busy-spin first (a new batch
// usually follows within microseconds when the engine is in its cycle
// loop), then a few yields so an oversubscribed host can schedule the
// coordinating thread, then the condition variable.
constexpr int kSpinIters = 256;
constexpr int kYieldIters = 16;

}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  slots_ = std::vector<Slot>(workers + 1);  // + dispatcher slot
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    // Worker i owns slot i + 1; the run_tasks caller owns slot 0.
    workers_.emplace_back([this, i] { worker_loop(i + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_.store(true, std::memory_order_release);
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_tasks(std::size_t count,
                           const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  if (count == 1) {
    body(0);
    return;
  }

  // Publish the batch: one contiguous chunk per participant. The cursor
  // stores are release so a straggler from the previous batch that
  // claims an index via the acquire RMW also sees the new body_ — it
  // then simply helps with the new batch (claims are atomic, so nothing
  // runs twice). remaining_ counts indices, not participants: the batch
  // is done exactly when `count` claims have executed.
  const std::size_t nslots = std::min(count, slots_.size());
  body_ = &body;
  remaining_.store(count, std::memory_order_relaxed);
  const std::size_t base = count / nslots;
  const std::size_t extra = count % nslots;
  std::size_t lo = 0;
  for (std::size_t s = 0; s < nslots; ++s) {
    const std::size_t len = base + (s < extra ? 1 : 0);
    slots_[s].cursor.store(
        (static_cast<std::uint64_t>(lo) << 32) | (lo + len),
        std::memory_order_release);
    lo += len;
  }
  for (std::size_t s = nslots; s < slots_.size(); ++s) {
    slots_[s].cursor.store(0, std::memory_order_release);
  }
  slots_in_use_.store(nslots, std::memory_order_relaxed);
  // Dekker handshake with worker_loop: the dispatcher stores epoch_ then
  // loads sleepers_; a parking worker stores sleepers_ then re-loads
  // epoch_ (in the wait predicate, under mu_). Both seq_cst, so at least
  // one side sees the other — either the worker observes the new epoch
  // and skips the sleep, or the dispatcher observes the sleeper and
  // notifies under the same mutex the wait holds.
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard lock(mu_);
    cv_task_.notify_all();
  }

  work_on_batch(0);

  // Stragglers are normally microseconds behind; spin briefly, then park
  // on cv_done_ (the last finisher notifies under mu_).
  for (int spin = 0; spin < kSpinIters; ++spin) {
    if (remaining_.load(std::memory_order_acquire) == 0) return;
    cpu_relax();
  }
  for (int i = 0; i < kYieldIters; ++i) {
    if (remaining_.load(std::memory_order_acquire) == 0) return;
    std::this_thread::yield();
  }
  std::unique_lock lock(mu_);
  cv_done_.wait(lock, [this] {
    return remaining_.load(std::memory_order_acquire) == 0;
  });
}

void ThreadPool::work_on_batch(std::size_t idx) {
  const std::size_t nslots = slots_in_use_.load(std::memory_order_acquire);
  if (nslots == 0) return;
  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t done = 0;
  // Own slot first, then steal round-robin from the others.
  for (std::size_t probe = 0; probe < nslots; ++probe) {
    Slot& slot = slots_[(idx + probe) % nslots];
    for (;;) {
      std::uint64_t v = slot.cursor.load(std::memory_order_relaxed);
      if ((v >> 32) >= (v & 0xffffffffu)) break;  // empty — move on
      v = slot.cursor.fetch_add(std::uint64_t{1} << 32,
                                std::memory_order_acq_rel);
      const std::size_t next = static_cast<std::size_t>(v >> 32);
      if (next >= (v & 0xffffffffu)) break;  // lost the race; overshoot
                                             // is harmless (never claims)
      // The acquire RMW read the dispatcher's release cursor store, so
      // body_ (written before it) is visible here.
      if (body == nullptr) body = body_;
      (*body)(next);
      ++done;
    }
  }
  if (done > 0 &&
      remaining_.fetch_sub(done, std::memory_order_acq_rel) == done) {
    std::lock_guard lock(mu_);
    cv_done_.notify_all();
  }
}

void ThreadPool::worker_loop(std::size_t idx) {
  std::uint64_t seen = 0;
  int idle = 0;
  for (;;) {
    const std::uint64_t e = epoch_.load(std::memory_order_acquire);
    if (e != seen) {
      seen = e;
      work_on_batch(idx);
      idle = 0;
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) return;
    if (idle < kSpinIters) {
      ++idle;
      cpu_relax();
      continue;
    }
    if (idle < kSpinIters + kYieldIters) {
      ++idle;
      std::this_thread::yield();
      continue;
    }
    std::unique_lock lock(mu_);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    cv_task_.wait(lock, [&] {
      return stop_.load(std::memory_order_relaxed) ||
             epoch_.load(std::memory_order_seq_cst) != seen;
    });
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
    idle = 0;  // whatever woke us is handled at the top of the loop
  }
}

}  // namespace ft
