// Round-based delivery simulation on a k-ary n-tree: unit-capacity links,
// synchronous store-and-forward with FIFO link queues. Reports rounds and
// link-load statistics per ascent policy — the E13 ablation.
//
// Routing stays here (it is what the ablation varies); the delivery rounds
// run on the unified CycleEngine with Fifo contention, a KaryRoute being
// already an EnginePath over the tree's dense link ids.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/fault_plan.hpp"
#include "engine/observer.hpp"
#include "kary/kary_routing.hpp"

namespace ft {

struct KarySimResult {
  std::uint64_t rounds = 0;
  std::uint64_t delivered = 0;  ///< messages delivered (== perm size when
                                ///< the run completes)
  std::uint64_t max_link_load = 0;
  double mean_link_load = 0.0;
  std::uint32_t max_route_hops = 0;
  std::uint64_t fault_down_events = 0;  ///< link down transitions
  std::uint64_t fault_up_events = 0;    ///< link repair transitions
  std::uint64_t subtree_kill_events = 0;  ///< correlated domain strikes
};

struct KarySimOptions {
  /// Forward links on a thread pool; results are identical to serial mode.
  bool parallel = false;
  std::size_t threads = 0;
  /// Optional per-round instrumentation (engine/observer.hpp). Not owned.
  EngineObserver* observer = nullptr;
  /// Optional transient-fault plan (not owned): a down link forwards
  /// nothing that round, its queue waits.
  const FaultPlan* fault_plan = nullptr;
};

/// Routes the permutation under `policy` and simulates delivery.
KarySimResult simulate_kary_permutation(const KaryTree& tree,
                                        const std::vector<std::uint32_t>& perm,
                                        AscentPolicy policy, Rng& rng,
                                        const KarySimOptions& opts = {});

}  // namespace ft
