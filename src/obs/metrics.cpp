#include "obs/metrics.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace ft {

EngineMetrics::EngineMetrics() : util_hist_(0.0, 1.0, kHistogramBins) {}

void EngineMetrics::on_cycle(const CycleSnapshot& s) {
  delivered_per_cycle.push_back(s.delivered);
  attempts_ += s.attempts;
  losses_ += s.losses;
  delivered_ += s.delivered;
  fault_down_ += s.faults_down;
  fault_up_ += s.faults_up;
  subtree_kills_ += s.subtree_kills;
  backoffs_ += s.backoffs;
  gave_up_ += s.gave_up;
  degraded_ += s.degraded_channels;
  peak_queue_ = std::max(peak_queue_, s.peak_queue);
  peak_down_ = std::max(peak_down_, s.channels_down);
  if (s.graph == nullptr || s.loads == nullptr) return;

  const ChannelGraph& g = *s.graph;
  if (graph_seen_) {
    // Aggregating over a different topology shape silently blends
    // incomparable per-level tallies; make the caller reset() first.
    FT_CHECK_MSG(
        g.num_channels() == graph_channels_ &&
            g.num_levels() == graph_levels_,
        "EngineMetrics observed a different graph shape; call reset() "
        "between runs over different topologies");
  } else {
    graph_seen_ = true;
    graph_channels_ = g.num_channels();
    graph_levels_ = g.num_levels();
    carried_by_level_.assign(graph_levels_, 0);
    budget_by_level_ = g.budget_capacity_by_level();
    budget_channels_ = g.num_budget_channels();
    usable_channels_ = 0;
    for (std::size_t c = 0; c < graph_channels_; ++c) {
      usable_channels_ += g.capacity_of(c) > 0;
    }
  }

  ++state_cycles_;
  std::uint64_t busy = 0;
  for (const ChannelLoad& l : *s.loads) {
    if (!g.in_budget(l.channel)) continue;
    ++busy;
    carried_by_level_[g.level_of(l.channel)] += l.carried;
    util_hist_.observe(static_cast<double>(l.carried) /
                       static_cast<double>(g.capacity_of(l.channel)));
  }
  // The in-budget channels missing from the list carried nothing.
  util_hist_.observe(0.0, budget_channels_ - busy);
}

void EngineMetrics::reset() { *this = EngineMetrics(); }

double EngineMetrics::availability() const {
  const std::uint64_t denom =
      usable_channels_ * static_cast<std::uint64_t>(cycles());
  if (denom == 0) return 1.0;
  return 1.0 - static_cast<double>(degraded_) / static_cast<double>(denom);
}

double EngineMetrics::level_utilization(std::uint32_t level) const {
  if (level >= carried_by_level_.size()) return 0.0;
  const std::uint64_t capacity = budget_by_level_[level] * state_cycles_;
  if (capacity == 0) return 0.0;
  return static_cast<double>(carried_by_level_[level]) /
         static_cast<double>(capacity);
}

JsonValue EngineMetrics::to_json() const {
  JsonValue out = JsonValue::object();
  JsonValue& c = out["counters"];
  c["engine.attempts"] = attempts_;
  c["engine.losses"] = losses_;
  c["engine.delivered"] = delivered_;
  c["engine.fault_down_events"] = fault_down_;
  c["engine.fault_up_events"] = fault_up_;
  c["engine.subtree_kill_events"] = subtree_kills_;
  c["engine.backoffs"] = backoffs_;
  c["engine.messages_given_up"] = gave_up_;
  c["engine.degraded_channel_cycles"] = degraded_;
  // Gauges are written as doubles, the report's encoding for them (a
  // peak of 100000 prints as 1e+05); test_obs pins the bytes.
  JsonValue& g = out["gauges"];
  g["engine.peak_queue_depth"] = static_cast<double>(peak_queue_);
  g["engine.peak_channels_down"] = static_cast<double>(peak_down_);
  JsonValue& h = out["histograms"]["engine.channel_utilization"];
  h["lo"] = util_hist_.lo();
  h["hi"] = util_hist_.hi();
  JsonValue& bins = h["bins"];
  bins = JsonValue::array();
  for (std::size_t i = 0; i < util_hist_.num_bins(); ++i) {
    bins.push_back(util_hist_.bin_count(i));
  }
  h["underflow"] = util_hist_.underflow();
  h["overflow"] = util_hist_.overflow();
  out["cycles"] = cycles();
  out["loss_rate"] = loss_rate();
  out["availability"] = availability();
  JsonValue& levels = out["level_utilization"];
  levels = JsonValue::array();
  for (std::uint32_t k = 0; k < num_levels(); ++k) {
    levels.push_back(level_utilization(k));
  }
  return out;
}

}  // namespace ft
