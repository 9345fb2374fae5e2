// Instrumentation hooks for the delivery-cycle models (the CycleEngine and
// store-and-forward rounds). Each accumulates one CycleSnapshot per
// delivery cycle (or round) and hands it to an observer from the
// coordinating thread — callbacks are always serial and in cycle order,
// even when contention resolves in parallel, so observers need no locking.
//
// A cycle's channel state is one {channel, carried} list of the channels
// arbitrated or forwarded that cycle, so readers pay for busy channels,
// not for the graph. Its order depends on the executor.
//
// Observers can additionally opt in to per-message lifecycle events
// (wants_message_events()). Those too are emitted only from the serial
// coordination path, in a deterministic order that does not depend on
// thread count, and the engine skips all event bookkeeping when no
// observer asks for them — tracing is zero-cost when disabled.
//
// Ready-made observers (EngineMetrics, TelemetryProbe, TraceSink) live in
// the observability layer, src/obs/; ObserverFanout, which rides several
// of them on one run, is in engine/observer_fanout.hpp.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "engine/channel_graph.hpp"

namespace ft {

/// One message delivered this cycle, for latency-digest observers
/// (wants_latency_samples()). `latency` counts delivery cycles from the
/// message's injection cycle inclusive (a message injected and delivered
/// in the same cycle has latency 1); `ideal` is its contention-free cost
/// in the same unit — 1 in the lossy modes (a whole path traverses in one
/// uncontended cycle), the path's hop count in FIFO mode — so
/// latency / ideal is the message's stretch.
struct LatencySample {
  std::uint32_t latency = 0;
  std::uint32_t ideal = 1;
};

/// One channel's traffic in one cycle: the messages that traversed it
/// (survived its arbitration, tallied on it, or were forwarded over it).
struct ChannelLoad {
  std::uint32_t channel = 0;
  std::uint32_t carried = 0;
};

/// What happened in one delivery cycle. The pointers borrow engine state
/// that is only valid during the callback — copy what you need.
struct CycleSnapshot {
  std::uint32_t cycle = 0;          ///< 1-based cycle / round number
  std::size_t pending_before = 0;   ///< messages alive entering the cycle
  std::uint32_t delivered = 0;      ///< messages that finished this cycle
  std::uint64_t attempts = 0;       ///< path attempts (lossy) / hops (FIFO)
  std::uint64_t losses = 0;         ///< attempts killed by contention
  std::uint32_t peak_queue = 0;     ///< deepest FIFO queue this round
  // Dynamic-fault and retry lifecycle (all zero without an active
  // FaultPlan / RetryPolicy, see engine/fault_plan.hpp).
  std::uint32_t faults_down = 0;    ///< channels that failed at cycle start
  std::uint32_t faults_up = 0;      ///< channels that recovered
  std::uint32_t subtree_kills = 0;  ///< correlated domains struck this cycle
  std::uint32_t channels_down = 0;  ///< channels down during this cycle
  std::uint64_t degraded_channels = 0;  ///< channels below full capacity
  std::uint32_t backoffs = 0;       ///< messages that entered retry backoff
  std::uint32_t gave_up = 0;        ///< messages that exhausted their retries
  /// This cycle's channel state: each channel arbitrated (lossy/tally) or
  /// forwarded on (FIFO) appears exactly once; channels not listed
  /// carried nothing, and an entry may carry 0 (a down channel's
  /// contenders all lose). The order differs between executors, so
  /// readers must be order-independent (an argmax breaks ties by channel
  /// id). nullptr when no attached observer asked for this cycle's
  /// channel state (see EngineObserver::wants_channel_state).
  const std::vector<ChannelLoad>* loads = nullptr;
  /// Messages delivered through the network this cycle, in a deterministic
  /// order that does not depend on thread count (ascending pending index
  /// in the lossy modes, ascending final channel in FIFO mode). nullptr
  /// unless an observer opted in via wants_latency_samples(). Locally
  /// delivered messages (empty paths) appear with latency == ideal == 1 in
  /// the lossy modes and are omitted in FIFO mode (they finish before
  /// round 1 and cross no channel).
  const std::vector<LatencySample>* latencies = nullptr;
  const ChannelGraph* graph = nullptr;
};

/// Sentinel channel for events that are not tied to one channel (local
/// delivery, give-up).
inline constexpr std::uint32_t kNoChannel =
    std::numeric_limits<std::uint32_t>::max();

/// Sentinel message id for channel-level events (FaultDown/FaultUp) that
/// are not tied to one message.
inline constexpr std::uint32_t kNoMessage =
    std::numeric_limits<std::uint32_t>::max();

/// Per-message lifecycle event taxonomy. Lossy (RandomSubset/Tally) runs
/// emit Inject, Attempt, Loss, Deliver, Backoff, GiveUp; FIFO runs emit
/// Inject, Hop, Deliver, GiveUp. A run that gives up reports GiveUp only
/// for messages that were already injected (batches never injected leave
/// no events). Runs under a FaultPlan additionally emit FaultDown/FaultUp
/// channel-state events (message = kNoMessage) at the start of the cycle
/// the transition takes effect in, preceded by one SubtreeKill event per
/// correlated domain struck that cycle (`channel` carries the domain's
/// topology node label, not a channel id).
enum class MessageEventKind : std::uint8_t {
  Inject,   ///< message entered the engine (channel = first path channel)
  Attempt,  ///< lossy: message contends for its full path this cycle
  Hop,      ///< FIFO: message was forwarded across `channel` this round
  Loss,     ///< lossy: message lost the arbitration lottery at `channel`
  Deliver,  ///< message reached its destination this cycle/round
  Backoff,  ///< lossy: message parks for its retry-backoff delay
  GiveUp,   ///< message undelivered at max_cycles, or its retry policy
            ///< (max_attempts / deadline) ran out
  FaultDown,  ///< `channel` failed at this cycle's start (msg = kNoMessage)
  FaultUp,    ///< `channel` recovered (msg = kNoMessage)
  SubtreeKill,  ///< correlated domain struck; `channel` = domain node label
                ///< (msg = kNoMessage), emitted before the FaultDown batch
};

struct MessageEvent {
  MessageEventKind kind = MessageEventKind::Inject;
  std::uint32_t message = 0;  ///< injection-order id within the run
  std::uint32_t cycle = 0;    ///< 0 = before the first FIFO round
  std::uint32_t channel = kNoChannel;

  friend bool operator==(const MessageEvent&, const MessageEvent&) = default;
};

class EngineObserver {
 public:
  virtual ~EngineObserver() = default;
  virtual void on_cycle(const CycleSnapshot& snapshot) = 0;

  /// Opt-in for per-message events. Sampled once per run; when false the
  /// engine emits nothing and pays only one branch per cycle.
  virtual bool wants_message_events() const { return false; }
  virtual void on_message_event(const MessageEvent& /*event*/) {}

  /// Per-cycle opt-in for the channel-state list. Consulted once per
  /// cycle from the coordinating thread, before the sweep; when it
  /// returns false the engine records no channel state that cycle and the
  /// snapshot's `loads` is nullptr. Defaults to true so observers see
  /// every cycle; sampling observers (telemetry with every_k > 1) return
  /// true only on the cycles they keep.
  virtual bool wants_channel_state(std::uint32_t /*cycle*/) const {
    return true;
  }

  /// Opt-in for per-delivery latency samples. Sampled once per run; when
  /// true the engine tracks each message's injection cycle and fills the
  /// snapshot's `latencies` with this cycle's deliveries.
  virtual bool wants_latency_samples() const { return false; }
};

}  // namespace ft
