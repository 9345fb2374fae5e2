// The cycle frame: what a delivery cycle does around its model's sweep.
// The CycleEngine's lossy and tally cycles (engine/engine.hpp) and
// store-and-forward rounds (engine/store_forward_rounds.hpp) both run each
// cycle inside a CycleFrame, so what they share exists once: the cycle's
// fault transitions and their events, the counter fold, the snapshot's
// shared fields, the observer call and the max_cycles stop. The model
// calls it from its coordinating thread, so observers see one callback
// per cycle, in cycle order.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/channel_graph.hpp"
#include "engine/fault_plan.hpp"
#include "engine/observer.hpp"

namespace ft {

/// The counters the frame keeps for every run, whatever its model.
struct CycleTotals {
  /// Delivery cycles (lossy) or rounds (store-and-forward). 64-bit: a
  /// heavily faulted or backoff-parked run at n = 2^20 can exceed 2^32;
  /// the cycle index the frame hands out stays 32-bit (the
  /// arbitration-stream domain) and is overflow-checked.
  std::uint64_t cycles = 0;
  bool gave_up = false;  ///< max_cycles hit with messages undelivered
  std::uint64_t delivered = 0;
  // Dynamic-fault accounting (zero without an active FaultPlan).
  std::uint64_t fault_down_events = 0;
  std::uint64_t fault_up_events = 0;
  /// Correlated subtree-kill events (scheduled or storm-drawn domain
  /// strikes); each also contributes its channels to fault_down_events.
  std::uint64_t subtree_kill_events = 0;
  /// Channel-cycles spent below full admission limit (down or browned
  /// out): the time-degraded numerator of availability.
  std::uint64_t degraded_channel_cycles = 0;
  std::vector<std::uint32_t> delivered_per_cycle;
};

/// What the frame hands its model as a cycle begins.
struct CycleStart {
  std::uint32_t cycle = 0;  ///< 1-based
  /// Per-channel limits in force: the fault state's (0 = down) in a
  /// faulted run, else the model's base table (null when it is empty).
  const std::uint32_t* limits = nullptr;
  bool want_loads = false;  ///< the observer wants the channel state
};

class CycleFrame {
 public:
  /// One run's frame. `observer` and `plan` may be null. The frame folds
  /// into `totals` and lends `loads` and `latencies` (the model's
  /// channel-state list and latency samples) to the snapshot, clearing
  /// each as a cycle begins. max_cycles = 0 is unbounded.
  CycleFrame(const ChannelGraph& graph, EngineObserver* observer,
             const FaultPlan* plan, std::uint32_t max_cycles,
             CycleTotals& totals, std::vector<ChannelLoad>& loads,
             std::vector<LatencySample>& latencies);

  /// The observer's per-run opt-ins.
  bool trace() const { return trace_; }
  bool lat_on() const { return lat_on_; }
  bool faulted() const { return faults_ != nullptr; }
  /// Channels down this cycle.
  std::uint32_t channels_down() const {
    return cf_ != nullptr ? cf_->channels_down : 0;
  }

  /// Opens the next cycle, applying its fault transitions against the
  /// model's per-channel `base_limit` (which a faulted run must fill).
  CycleStart begin_cycle(const std::vector<std::uint32_t>& base_limit);
  /// Closes the cycle: folds the snapshot's deliveries, fills its shared
  /// fields and hands it to the observer. Returns false, setting gave_up,
  /// when max_cycles stops a run that still has messages (`more`).
  bool end_cycle(CycleSnapshot& snap, bool more);

 private:
  const ChannelGraph& graph_;
  EngineObserver* observer_;
  std::uint32_t max_cycles_;
  CycleTotals& totals_;
  std::vector<ChannelLoad>& loads_;
  std::vector<LatencySample>& latencies_;
  bool trace_ = false;
  bool lat_on_ = false;
  bool want_loads_ = false;
  std::unique_ptr<FaultState> faults_;  ///< null without an active plan
  const FaultState::CycleFaults* cf_ = nullptr;  ///< this cycle's faults
};

}  // namespace ft
