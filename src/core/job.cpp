#include "core/job.hpp"

#include <algorithm>
#include <optional>

#include "core/faults.hpp"
#include "core/load.hpp"
#include "core/offline_scheduler.hpp"
#include "core/replay.hpp"
#include "core/reuse_scheduler.hpp"
#include "core/traffic.hpp"
#include "obs/run_report.hpp"
#include "util/check.hpp"

namespace ft {
namespace {

/// A phase scope, or none when the job is untimed.
std::optional<PhaseTimers::Scope> phase(PhaseTimers* timers,
                                        const char* name) {
  if (timers == nullptr) return std::nullopt;
  return timers->scope(name);
}

MessageSet job_workload(const JobSpec& spec) {
  const WorkloadEntry* w = find_workload(spec.workload);
  FT_CHECK_MSG(w != nullptr, "unknown workload");
  Rng rng(spec.seed);
  MessageSet m = build_workload(
      *w, spec.n, spec.messages != 0 ? spec.messages : spec.n, rng);
  const std::size_t base = m.size();
  m.resize(base * std::max(spec.stack, 1u));
  for (std::uint32_t k = 1; k < spec.stack; ++k) {
    std::copy_n(m.begin(), base, m.begin() + k * base);
  }
  return m;
}

Schedule job_schedule(const JobSpec& spec, const FatTreeTopology& topo,
                      const CapacityProfile& caps, const MessageSet& m) {
  if (spec.scheduler == "offline") return schedule_offline(topo, caps, m);
  if (spec.scheduler == "packed") {
    return schedule_offline_packed(topo, caps, m);
  }
  if (spec.scheduler == "greedy") return schedule_greedy(topo, caps, m);
  FT_CHECK_MSG(spec.scheduler == "reuse", "unknown scheduler");
  return schedule_reuse(topo, caps, m).schedule;
}

}  // namespace

JobResult run_job(const JobSpec& spec, const JobHooks& hooks) {
  const FatTreeTopology topo(spec.n);
  CapacityProfile caps = CapacityProfile::universal(
      topo, spec.w != 0 ? spec.w : default_root_capacity(spec.n));
  if (spec.faults > 0.0) {
    const auto t = phase(hooks.timers, "faults");
    Rng rng(spec.seed ^ kWireFaultSeedMix);
    caps = inject_wire_faults(topo, caps, spec.faults, rng);
  }

  JobResult r;
  auto workload_t = phase(hooks.timers, "workload");
  const MessageSet m = job_workload(spec);
  workload_t.reset();
  r.messages = m.size();
  auto lambda_t = phase(hooks.timers, "load_factor");
  r.lambda = load_factor(topo, caps, m);
  lambda_t.reset();

  if (spec.scheduler == "online") {
    Rng rng(spec.seed ^ kRouterSeedMix);
    const OnlineRouterOptions opts{.max_cycles = spec.max_cycles,
                                   .policy = spec.policy,
                                   .parallel = spec.parallel,
                                   .threads = spec.threads,
                                   .shard_level = spec.shard_level,
                                   .observer = hooks.observer,
                                   .retry = spec.retry,
                                   .fault_plan = hooks.fault_plan,
                                   .time_phases = hooks.time_phases};
    const auto t = phase(hooks.timers, "route");
    static_cast<OnlineRoutingResult&>(r) =
        route_online(topo, caps, m, rng, opts);
    r.verified = !r.gave_up && r.messages_given_up == 0;
    return r;
  }

  auto schedule_t = phase(hooks.timers, "schedule");
  const Schedule schedule = job_schedule(spec, topo, caps, m);
  schedule_t.reset();
  // Without faults one replay both delivers the schedule and checks its
  // capacities. A faulted replay says nothing about the schedule itself,
  // so a healthy replay verifies it first.
  if (hooks.fault_plan != nullptr) {
    const auto t = phase(hooks.timers, "verify");
    r.verified = verify_schedule(topo, caps, m, schedule);
  }
  auto replay_t = phase(hooks.timers, "replay");
  const ReplayResult rep = replay_schedule(
      topo, caps, schedule,
      {.fault_plan = hooks.fault_plan,
       .retry = spec.retry,
       .time_phases = hooks.time_phases},
      hooks.observer);
  replay_t.reset();
  if (hooks.fault_plan == nullptr) {
    r.verified =
        rep.capacity_violations == 0 && schedule_partitions(m, schedule);
  } else {
    r.verified = r.verified && rep.messages_given_up == 0 &&
                 rep.delivered == schedule.total_messages();
  }
  r.delivery_cycles = rep.cycles;
  r.delivered = rep.delivered;
  r.capacity_violations = rep.capacity_violations;
  r.messages_given_up = rep.messages_given_up;
  r.fault_down_events = rep.fault_down_events;
  r.fault_up_events = rep.fault_up_events;
  r.subtree_kill_events = rep.subtree_kill_events;
  r.phases = rep.phases;
  return r;
}

}  // namespace ft
