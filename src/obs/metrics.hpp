// EngineMetrics: the ready-made CycleEngine observer shared by all four
// simulator frontends (route_online, replay_schedule,
// simulate_store_forward, simulate_kary_permutation). ObserverFanout
// (engine/observer_fanout.hpp, included here for this header's users)
// lets it ride one engine run beside other observers.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/observer.hpp"
#include "engine/observer_fanout.hpp"
#include "obs/json.hpp"
#include "util/stats.hpp"

namespace ft {

/// Ready-made observer: run totals, peak gauges, per-level utilization
/// and a channel utilization histogram — the instrumentation consumed by
/// the bench/ experiments and RunReports. Reusable across runs over the
/// *same* topology shape via plain aggregation; observing a graph of a
/// different shape without reset() is a checked error, not a silent blend
/// of per-level tallies of different topologies.
class EngineMetrics final : public EngineObserver {
 public:
  static constexpr std::size_t kHistogramBins = 10;

  EngineMetrics();

  void on_cycle(const CycleSnapshot& s) override;

  void reset();

  std::uint32_t cycles() const {
    return static_cast<std::uint32_t>(delivered_per_cycle.size());
  }
  std::uint64_t total_attempts() const { return attempts_; }
  std::uint64_t total_losses() const { return losses_; }
  std::uint64_t total_delivered() const { return delivered_; }
  double loss_rate() const {
    return attempts_ == 0 ? 0.0
                          : static_cast<double>(losses_) /
                                static_cast<double>(attempts_);
  }
  std::uint32_t peak_queue_depth() const { return peak_queue_; }

  // Fault / retry lifecycle (all zero on fault-free runs).
  std::uint64_t fault_down_events() const { return fault_down_; }
  std::uint64_t fault_up_events() const { return fault_up_; }
  std::uint64_t subtree_kill_events() const { return subtree_kills_; }
  std::uint64_t total_backoffs() const { return backoffs_; }
  std::uint64_t messages_given_up() const { return gave_up_; }
  std::uint64_t degraded_channel_cycles() const { return degraded_; }
  std::uint32_t peak_channels_down() const { return peak_down_; }
  /// Fraction of usable channel-cycles at full capacity: 1 −
  /// degraded_channel_cycles / (usable channels × cycles). 1.0 for
  /// fault-free or empty runs.
  double availability() const;

  /// Mean carried/capacity over channel-cycles at one level tag.
  double level_utilization(std::uint32_t level) const;
  std::uint32_t num_levels() const {
    return static_cast<std::uint32_t>(carried_by_level_.size());
  }

  /// Per-channel-per-cycle utilization histogram over [0, 1]; overloaded
  /// channel-cycles (carried > capacity) land in overflow().
  const Histogram& utilization_histogram() const { return util_hist_; }

  /// Counters, gauges and the utilization histogram plus the per-level
  /// utilization profile — the "engine" section of a RunReport.
  JsonValue to_json() const;

  /// Messages delivered per cycle, index = cycle - 1.
  std::vector<std::uint32_t> delivered_per_cycle;

 private:
  std::uint64_t attempts_ = 0;
  std::uint64_t losses_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t fault_down_ = 0;
  std::uint64_t fault_up_ = 0;
  std::uint64_t subtree_kills_ = 0;
  std::uint64_t backoffs_ = 0;
  std::uint64_t gave_up_ = 0;
  std::uint64_t degraded_ = 0;
  std::uint32_t peak_queue_ = 0;
  std::uint32_t peak_down_ = 0;
  Histogram util_hist_;
  /// Channels with nonzero capacity in the observed graph — the
  /// availability denominator per cycle.
  std::uint64_t usable_channels_ = 0;
  /// In-budget channels of the observed graph: those absent from a
  /// cycle's load list enter the histogram's bin 0 as one weighted count.
  std::uint64_t budget_channels_ = 0;
  /// Cycles that carried channel state.
  std::uint64_t state_cycles_ = 0;
  // Per-level carried tallies over all cycles and per-cycle in-budget
  // capacity, index = ChannelGraph::level_of.
  std::vector<std::uint64_t> carried_by_level_;
  std::vector<std::uint64_t> budget_by_level_;
  // Shape of the first graph observed since reset(); guards against
  // silently blending runs over different topologies.
  std::size_t graph_channels_ = 0;
  std::uint32_t graph_levels_ = 0;
  bool graph_seen_ = false;
};

}  // namespace ft
