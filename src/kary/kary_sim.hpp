// Round-based delivery simulation on a k-ary n-tree: unit-capacity links,
// synchronous store-and-forward with FIFO link queues. Reports rounds and
// link-load statistics per ascent policy — the E13 ablation.
//
// Routing stays here (it is what the ablation varies); the delivery rounds
// run in engine/store_forward_rounds.hpp, a KaryRoute being already a path
// over the tree's dense link ids.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/store_forward_rounds.hpp"
#include "kary/kary_routing.hpp"

namespace ft {

struct KarySimResult {
  std::uint64_t rounds = 0;
  std::uint64_t delivered = 0;  ///< messages delivered (== perm size when
                                ///< the run completes)
  std::uint64_t max_link_load = 0;
  double mean_link_load = 0.0;
  std::uint32_t max_route_hops = 0;
  bool gave_up = false;         ///< hit max_rounds with traffic queued
  std::uint64_t fault_down_events = 0;  ///< link down transitions
  std::uint64_t fault_up_events = 0;    ///< link repair transitions
  std::uint64_t subtree_kill_events = 0;  ///< correlated domain strikes
};

/// Routes the permutation under `policy` (processor p's route drawn p-th
/// from `rng`) and simulates delivery.
KarySimResult simulate_kary_permutation(const KaryTree& tree,
                                        const std::vector<std::uint32_t>& perm,
                                        AscentPolicy policy, Rng& rng,
                                        const StoreForwardOptions& opts = {});

}  // namespace ft
