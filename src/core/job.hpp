// One job: a named workload on a universal fat-tree, delivered by the
// Section III off-line schedule (offline, packed, greedy, reuse; replayed
// on the engine) or the Section VI on-line router (online). ftsim builds
// a JobSpec from argv and ftd from a request (ftd::JobRequest derives
// from it); both call run_job, so equal fields give equal runs. The seed
// rules live here and nowhere else.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/online_router.hpp"

namespace ft {

class PhaseTimers;

// The workload draws from Rng(seed), the on-line router from Rng(seed ^
// kRouterSeedMix), static wire faults from Rng(seed ^ kWireFaultSeedMix);
// a front-end keys its transient FaultPlan with seed ^ kFaultPlanSeedMix.
inline constexpr std::uint64_t kRouterSeedMix = 0x0511e5;
inline constexpr std::uint64_t kWireFaultSeedMix = 0xfa017;
inline constexpr std::uint64_t kFaultPlanSeedMix = 0xd1fa;

struct JobSpec {
  std::uint32_t n = 256;  ///< processors, a power of two >= 2
  std::uint64_t w = 0;    ///< root capacity; 0 = default_root_capacity(n)
  std::string workload = "random-perm";  ///< a workload_table() name
  std::uint64_t messages = 0;  ///< a Volume workload's size; 0 = n
  std::uint32_t stack = 1;     ///< copies of the workload (0 acts as 1)
  std::uint64_t seed = 1;
  std::string scheduler = "offline";  ///< see known_scheduler()
  double faults = 0.0;  ///< static wire-failure probability
  // The on-line router's options; `retry` also drives a faulted replay.
  RoutingPolicy policy = RoutingPolicy::ObliviousRandom;
  std::string policy_name = "oblivious";
  std::uint32_t max_cycles = 0;
  bool parallel = false;
  std::size_t threads = 0;
  std::uint32_t shard_level = kShardLevelAuto;
  RetryPolicy retry;
};

/// What a front-end attaches to a job (not owned; none changes results).
struct JobHooks {
  EngineObserver* observer = nullptr;  ///< the router's or replay's cycles
  /// Transient faults (nullptr when none). An off-line schedule is then
  /// verified first on a healthy replay, which the observer does not see.
  const FaultPlan* fault_plan = nullptr;
  PhaseTimers* timers = nullptr;  ///< a wall-clock scope per job phase
  bool time_phases = false;       ///< fill the engine's Amdahl split
};

/// The router's result; an off-line job fills delivery_cycles,
/// messages_given_up, the fault counters and phases from its replay.
struct JobResult : OnlineRoutingResult {
  std::uint64_t messages = 0;  ///< stacked workload size
  double lambda = 0.0;         ///< load factor on the (faulted) capacities
  /// Online: nothing given up. Offline: the schedule partitions the
  /// workload within capacity, and a faulted replay delivered it all.
  bool verified = false;
  std::uint64_t delivered = 0;            ///< off-line replay
  std::uint64_t capacity_violations = 0;  ///< off-line replay
};

/// n/4, at least 1.
inline std::uint64_t default_root_capacity(std::uint32_t n) {
  return n / 4 ? n / 4 : 1;
}

inline bool known_scheduler(std::string_view name) {
  return name == "offline" || name == "packed" || name == "greedy" ||
         name == "reuse" || name == "online";
}

/// Runs one job; the front-end has checked n and both names.
JobResult run_job(const JobSpec& spec, const JobHooks& hooks = {});

}  // namespace ft
