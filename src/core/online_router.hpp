// On-line randomized routing (the extension sketched in Sections II and
// VI and developed in Greenberg & Leiserson, "Randomized routing on
// fat-trees", FOCS 1985 — reference [8] of the paper).
//
// Model: traffic is batched into delivery cycles. In a cycle, every
// still-undelivered message attempts its unique tree path. At each channel
// the concentrator can carry only cap(c) messages; when more contend, a
// random cap(c)-subset survives and the rest are *lost* (the paper's
// congestion + acknowledgment mechanism — the source learns of the loss
// and retries next cycle). The FOCS result shows all messages are
// delivered in O(λ(M) + lg n · lg lg n) cycles with high probability;
// experiment E11 measures exactly that curve.
//
// The cycle loop itself runs on the unified CycleEngine
// (engine/engine.hpp) with RandomSubset contention; this file is the
// fat-tree adapter. Each arbitration draws from a private (seed, cycle,
// channel) stream, so serial and parallel execution give identical
// results for one seed (and the router remains deterministic given
// `rng`'s state, from which that seed is drawn).
#pragma once

#include <cstdint>
#include <vector>

#include "core/capacity.hpp"
#include "core/message.hpp"
#include "core/topology.hpp"
#include "core/traffic.hpp"
#include "engine/engine.hpp"
#include "engine/fault_plan.hpp"
#include "engine/observer.hpp"
#include "engine/phase_profile.hpp"
#include "util/prng.hpp"

namespace ft {

struct OnlineRoutingResult {
  std::uint64_t delivery_cycles = 0;
  std::uint64_t total_attempts = 0;   ///< Message-attempts over all cycles.
  std::uint64_t total_losses = 0;     ///< Attempts killed by congestion.
  /// True iff the router hit max_cycles with messages still undelivered;
  /// the result is then a truncated run, not a completed routing. Callers
  /// that need completion must check this (never reported silently:
  /// delivered_per_cycle sums to less than |M|).
  bool gave_up = false;
  // Retry / dynamic-fault lifecycle (zero without a RetryPolicy or
  // FaultPlan in the options).
  std::uint64_t messages_given_up = 0;  ///< retries exhausted per policy
  std::uint64_t total_backoffs = 0;     ///< backoff parkings
  std::uint64_t fault_down_events = 0;  ///< channel down transitions
  std::uint64_t fault_up_events = 0;    ///< channel repair transitions
  std::uint64_t subtree_kill_events = 0;  ///< correlated domain strikes
  std::uint64_t degraded_channel_cycles = 0;  ///< Σ degraded chans/cycle
  /// Wall-clock Amdahl decomposition of the cycle loop; all-zero unless
  /// OnlineRouterOptions::time_phases was set.
  EnginePhaseProfile phases;
  std::vector<std::uint32_t> delivered_per_cycle;
};

/// Sentinel for OnlineRouterOptions::shard_level: defer to the measured
/// heuristic.
inline constexpr std::uint32_t kShardLevelAuto = 0xffffffffu;

struct OnlineRouterOptions {
  /// Give up after this many cycles. 0 selects the safety default
  /// 64·(⌊λ(M)⌋ + lg² n + 4) — far above the w.h.p. envelope, so hitting
  /// it indicates a genuine livelock rather than bad luck. When the cap
  /// is hit, OnlineRoutingResult::gave_up is set.
  std::uint32_t max_cycles = 0;
  /// Routing discipline for contended channels (the routing-policy seam;
  /// see engine/engine.hpp). ObliviousRandom is the paper's randomized
  /// lossy lottery and the default; every discipline preserves the
  /// serial ≡ parallel determinism contract.
  RoutingPolicy policy = RoutingPolicy::ObliviousRandom;
  /// Concentrator effectiveness: a channel of capacity c accepts
  /// floor(alpha * c) messages but at least 1 (alpha = 1 models the ideal
  /// concentrator; 3/4 models the partial concentrators of Section IV).
  double alpha = 1.0;
  /// Run the subtree-sharded executor on a thread pool; results are
  /// identical to the serial mode.
  bool parallel = false;
  /// Worker threads for parallel mode (0 = hardware concurrency).
  std::size_t threads = 0;
  /// Subtree shard depth for the parallel executor. kShardLevelAuto
  /// defers to the pick_shard_level heuristic (~2 shards per worker); any
  /// other value is used as-is, clamped to the topology height. 0 means
  /// no shard partition, which runs the serial executor. Ignored in
  /// serial mode.
  std::uint32_t shard_level = kShardLevelAuto;
  /// Optional instrumentation hook (per-cycle counters, channel
  /// utilization; see engine/observer.hpp). Not owned.
  EngineObserver* observer = nullptr;
  /// Per-message retry policy (bounded attempts / exponential backoff /
  /// deadline). Defaults to the classic retry-every-cycle behavior.
  RetryPolicy retry;
  /// Optional transient-fault plan consulted every delivery cycle (not
  /// owned; must outlive the call). nullptr = fault-free run.
  const FaultPlan* fault_plan = nullptr;
  /// Time the parallel sweeps vs the serial spine/coordination band and
  /// report the measured Amdahl profile in OnlineRoutingResult::phases.
  /// Never changes routing results.
  bool time_phases = false;
};

/// Routes m on-line; every message is delivered by termination unless the
/// result's gave_up flag is set. Deterministic given `rng`'s seed.
OnlineRoutingResult route_online(const FatTreeTopology& topo,
                                 const CapacityProfile& caps,
                                 const MessageSet& m, Rng& rng,
                                 const OnlineRouterOptions& opts = {});

/// Streaming form: the workload arrives as a MessageStream and reaches the
/// engine as leaf pairs one chunk at a time, so the full message set never
/// exists (peak input memory is one chunk; see DESIGN.md "Scale-out").
/// `lambda_hint` stands in for load_factor(topo, caps, m) in the default
/// max_cycles estimate, since the message set cannot be scanned twice; it
/// is ignored when opts.max_cycles is nonzero. For the same messages in
/// the same order, the result is bit-identical to route_online.
OnlineRoutingResult route_online_stream(const FatTreeTopology& topo,
                                        const CapacityProfile& caps,
                                        MessageStream& messages,
                                        double lambda_hint, Rng& rng,
                                        const OnlineRouterOptions& opts = {});

}  // namespace ft
