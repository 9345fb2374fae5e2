// Offline schedule replay (Section VI: "schedule once, replay every
// emulated step"). Executes a compiled Schedule on the unified
// CycleEngine, one injected batch per scheduled delivery cycle, with pure
// occupancy accounting (Tally contention): every message is delivered in
// its scheduled cycle and the engine reports exactly what each channel
// carried. This is the single source of truth for schedule analytics —
// verify_schedule() and core/schedule_stats build on it.
#pragma once

#include <cstdint>
#include <vector>

#include "core/capacity.hpp"
#include "core/offline_scheduler.hpp"
#include "core/topology.hpp"
#include "engine/fault_plan.hpp"
#include "engine/observer.hpp"
#include "engine/phase_profile.hpp"

namespace ft {

struct ReplayOptions {
  /// Optional transient-fault plan (not owned). A down channel rejects
  /// its scheduled messages, which then retry in later cycles — the
  /// replay measures how a precomputed schedule degrades under churn
  /// (cycles may exceed schedule.num_cycles()). Brownouts do not bind
  /// here: tally replay has no admission cap to scale.
  const FaultPlan* fault_plan = nullptr;
  /// Per-message retry policy for faulted replays (default: retry every
  /// cycle forever, the classic behavior).
  RetryPolicy retry;
  /// Time the stage sweeps vs coordination (ReplayResult::phases).
  bool time_phases = false;
};

struct ReplayResult {
  std::uint64_t cycles = 0;     ///< == schedule.num_cycles() if fault-free
  std::uint64_t delivered = 0;  ///< == schedule.total_messages()
  /// Channel-cycles where the scheduled load exceeded capacity. Zero iff
  /// every scheduled cycle is a one-cycle message set.
  std::uint64_t capacity_violations = 0;
  // Fault / retry lifecycle (zero on fault-free replays).
  std::uint64_t messages_given_up = 0;
  std::uint64_t fault_down_events = 0;
  std::uint64_t fault_up_events = 0;
  std::uint64_t subtree_kill_events = 0;
  /// Wall-clock Amdahl decomposition; all-zero unless
  /// ReplayOptions::time_phases was set.
  EnginePhaseProfile phases;
  std::vector<std::uint32_t> delivered_per_cycle;
};

/// Replays `schedule` on the fat-tree, feeding per-cycle channel
/// occupancy to `observer` (optional). Self messages deliver locally in
/// their scheduled cycle.
ReplayResult replay_schedule(const FatTreeTopology& topo,
                             const CapacityProfile& caps,
                             const Schedule& schedule,
                             const ReplayOptions& opts = {},
                             EngineObserver* observer = nullptr);

}  // namespace ft
