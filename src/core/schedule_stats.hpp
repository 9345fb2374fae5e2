// Schedule quality metrics beyond cycle count: per-cycle channel
// utilization (how much of the paid-for bandwidth each delivery cycle
// actually uses) and per-level aggregates. Section VII claims "the
// architecture automatically ensures that communication bandwidth is
// effectively utilized"; experiment E15 quantifies it.
#pragma once

#include <cstdint>
#include <vector>

#include "core/capacity.hpp"
#include "core/offline_scheduler.hpp"

namespace ft {

struct ScheduleStats {
  std::size_t cycles = 0;
  std::size_t messages = 0;
  /// Mean over cycles of (used wire-slots / available wire-slots) over
  /// channels carrying nonzero potential load.
  double mean_utilization = 0.0;
  /// Utilization of the busiest cycle / the emptiest nonempty cycle.
  double max_cycle_utilization = 0.0;
  double min_cycle_utilization = 0.0;
  /// Mean utilization of the level-1 channels (the expensive top trunks;
  /// the external-interface channel above the root is excluded):
  /// level_utilization[1].
  double root_utilization = 0.0;
  /// Per-level mean utilization across all cycles (index = channel level;
  /// level 0 — the external interface — is always 0 for internal
  /// traffic). Height + 1 entries, all 0 for an empty schedule.
  std::vector<double> level_utilization;
  /// Mean messages per cycle.
  double throughput = 0.0;
};

/// Computes utilization statistics of a schedule on a fat-tree. The
/// denominator is the full wire budget of every channel — idle root
/// trunks count against utilization, because whether the fattening is
/// wasted is exactly the question being measured.
ScheduleStats analyze_schedule(const FatTreeTopology& topo,
                               const CapacityProfile& caps,
                               const Schedule& schedule);

}  // namespace ft
