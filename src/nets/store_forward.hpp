// Synchronous store-and-forward simulation on a competitor network. Each
// round every link forwards up to its capacity in FIFO order; the result
// is the delivery time t that Theorem 10 compares the fat-tree's
// O(t · lg³ n) against.
//
// The rounds run in engine/store_forward_rounds.hpp; a Route is already a
// path of the Network's flat link graph, so this file only maps the
// Network onto that graph.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/store_forward_rounds.hpp"
#include "nets/network.hpp"
#include "nets/routing.hpp"

namespace ft {

struct StoreForwardResult {
  std::uint64_t rounds = 0;         ///< time to deliver everything
  std::uint64_t delivered = 0;      ///< messages delivered (== routes unless
                                    ///< gave_up; includes round-0 locals)
  std::uint64_t total_hops = 0;     ///< sum of route lengths
  /// Average finish round of the delivered messages (round-0 locals
  /// included).
  double mean_latency = 0.0;
  std::uint32_t max_queue = 0;      ///< peak per-link queue length
  bool gave_up = false;             ///< hit max_rounds with traffic queued
  std::uint64_t fault_down_events = 0;  ///< link down transitions
  std::uint64_t fault_up_events = 0;    ///< link repair transitions
  std::uint64_t subtree_kill_events = 0;  ///< correlated domain strikes
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
