#include "core/schedule_stats.hpp"

#include <algorithm>

#include "core/replay.hpp"
#include "util/check.hpp"

namespace ft {

namespace {

/// Per-cycle wire-slot usage accumulated from the replay's channel state.
/// Usable slots are the in-budget channels (node 1's external interface
/// is excluded by the channel graph); carried load is clamped to capacity
/// so an over-full cycle cannot exceed 100%.
class UtilizationObserver final : public EngineObserver {
 public:
  void on_cycle(const CycleSnapshot& s) override {
    const ChannelGraph& g = *s.graph;
    if (avail_by_level.empty()) {
      avail_by_level = g.budget_capacity_by_level();
      used_by_level.assign(g.num_levels(), 0);
    }
    std::uint64_t used = 0;
    for (const ChannelLoad& l : *s.loads) {
      if (!g.in_budget(l.channel)) continue;
      const auto u =
          std::min<std::uint64_t>(l.carried, g.capacity_of(l.channel));
      used += u;
      used_by_level[g.level_of(l.channel)] += u;
    }
    used_per_cycle.push_back(used);
  }

  std::vector<std::uint64_t> used_per_cycle;
  std::vector<std::uint64_t> used_by_level;
  /// Wire slots available per cycle at each level.
  std::vector<std::uint64_t> avail_by_level;
};

}  // namespace

ScheduleStats analyze_schedule(const FatTreeTopology& topo,
                               const CapacityProfile& caps,
                               const Schedule& schedule) {
  ScheduleStats stats;
  stats.cycles = schedule.num_cycles();
  stats.messages = schedule.total_messages();
  stats.level_utilization.assign(topo.height() + 1, 0.0);
  if (stats.cycles == 0) return stats;

  UtilizationObserver obs;
  const ReplayResult replay = replay_schedule(topo, caps, schedule, {}, &obs);
  FT_CHECK(replay.cycles == stats.cycles);

  std::uint64_t avail = 0;
  for (const auto a : obs.avail_by_level) avail += a;

  double sum_util = 0.0;
  double max_util = 0.0;
  double min_util = 2.0;
  for (std::size_t i = 0; i < stats.cycles; ++i) {
    const double util = avail ? static_cast<double>(obs.used_per_cycle[i]) /
                                    static_cast<double>(avail)
                              : 0.0;
    sum_util += util;
    max_util = std::max(max_util, util);
    if (!schedule.cycles[i].empty()) min_util = std::min(min_util, util);
  }
  for (std::size_t k = 0; k < stats.level_utilization.size(); ++k) {
    const std::uint64_t level_avail =
        obs.avail_by_level[k] * static_cast<std::uint64_t>(stats.cycles);
    stats.level_utilization[k] =
        level_avail ? static_cast<double>(obs.used_by_level[k]) /
                          static_cast<double>(level_avail)
                    : 0.0;
  }

  stats.mean_utilization = sum_util / static_cast<double>(stats.cycles);
  stats.max_cycle_utilization = max_util;
  stats.min_cycle_utilization = min_util > 1.5 ? 0.0 : min_util;
  stats.root_utilization = stats.level_utilization[1];
  stats.throughput = static_cast<double>(stats.messages) /
                     static_cast<double>(stats.cycles);
  return stats;
}

}  // namespace ft
