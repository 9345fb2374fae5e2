// Synchronous store-and-forward rounds: the competitor networks' delivery
// model (Theorem 10's t rounds), not the paper's lossy delivery cycle
// (engine/engine.hpp). Each round every channel forwards up to its
// capacity from its FIFO queue, and a message moves at most one hop a
// round. The rounds run in the shared cycle frame (engine/cycle_frame.hpp).
// In parallel mode channel ranges resolve on a thread pool and merge in
// ascending range order, so a run is identical at any thread count.
#pragma once

#include <cstddef>
#include <cstdint>

#include "engine/channel_graph.hpp"
#include "engine/cycle_frame.hpp"
#include "engine/fault_plan.hpp"
#include "engine/observer.hpp"

namespace ft {

/// The options of a store-and-forward run, as nets/store_forward and
/// kary/kary_sim take them.
struct StoreForwardOptions {
  /// Forward channel ranges on a thread pool; results are identical to
  /// serial mode. Threads: 0 = hardware concurrency; 1 builds no pool.
  bool parallel = false;
  std::size_t threads = 0;
  /// Optional per-round instrumentation (engine/observer.hpp). Not owned.
  EngineObserver* observer = nullptr;
  /// Optional transient-fault plan (not owned): a down channel forwards
  /// nothing that round, and its queue waits. Supply max_rounds with
  /// plans that can pin a channel down indefinitely.
  const FaultPlan* fault_plan = nullptr;
  /// Stop after this many rounds (0 = run to completion).
  std::uint32_t max_rounds = 0;
};

/// What a store-and-forward run computes: `cycles` counts rounds, and
/// `delivered` includes the empty paths, which finish at round 0.
struct RoundsResult : CycleTotals {
  std::uint64_t total_hops = 0;  ///< forwards, one per channel crossed
  double latency_sum = 0.0;      ///< delivered messages' finish rounds
  std::uint32_t max_queue = 0;   ///< peak queue depth
};

/// Runs `paths` on `graph`, which it reads only through num_channels,
/// capacity_of and in_budget: every hop must be an in-budget channel,
/// checked before round 1. Message i of the trace is path i.
RoundsResult store_forward_rounds(const ChannelGraph& graph,
                                  const PathSet& paths,
                                  const StoreForwardOptions& opts = {});

}  // namespace ft
