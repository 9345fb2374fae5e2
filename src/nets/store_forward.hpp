// Synchronous store-and-forward simulation on a competitor network. Each
// round every link forwards up to its capacity in FIFO order; the result
// is the delivery time t that Theorem 10 compares the fat-tree's
// O(t · lg³ n) against.
//
// The round loop runs on the unified CycleEngine (engine/engine.hpp) with
// Fifo contention; a Route is already an EnginePath, so this file only
// maps the Network onto the engine's channel graph.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/fault_plan.hpp"
#include "engine/observer.hpp"
#include "nets/network.hpp"
#include "nets/routing.hpp"

namespace ft {

struct StoreForwardResult {
  std::uint64_t rounds = 0;         ///< time to deliver everything
  std::uint64_t delivered = 0;      ///< messages delivered (== routes unless
                                    ///< gave_up; includes round-0 locals)
  std::uint64_t total_hops = 0;     ///< sum of route lengths
  double mean_latency = 0.0;        ///< average per-message finish round
  std::uint32_t max_queue = 0;      ///< peak per-link queue length
  bool gave_up = false;             ///< hit max_rounds with traffic queued
  std::uint64_t fault_down_events = 0;  ///< link down transitions
  std::uint64_t fault_up_events = 0;    ///< link repair transitions
  std::uint64_t subtree_kill_events = 0;  ///< correlated domain strikes
};

struct StoreForwardOptions {
  /// Forward links on a thread pool; results are identical to serial mode.
  bool parallel = false;
  std::size_t threads = 0;
  /// Optional per-round instrumentation (engine/observer.hpp). Not owned.
  EngineObserver* observer = nullptr;
  /// Optional transient-fault plan (not owned): a down link forwards
  /// nothing that round, its queue waits. Supply max_rounds with plans
  /// that can pin a link down indefinitely.
  const FaultPlan* fault_plan = nullptr;
  /// Abort after this many rounds (0 = run to completion).
  std::uint32_t max_rounds = 0;
};

/// Simulates messages with precomputed routes. Messages with empty routes
/// (src == dst) finish in round 0.
StoreForwardResult simulate_store_forward(const Network& net,
                                          const std::vector<Route>& routes,
                                          const StoreForwardOptions& opts = {});

/// Lower bound on delivery time: max(longest route, max per-link
/// congestion / capacity). Useful as a sanity reference in experiments.
std::uint32_t store_forward_lower_bound(const Network& net,
                                        const std::vector<Route>& routes);

}  // namespace ft
