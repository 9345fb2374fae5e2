#include "core/replay.hpp"

#include "engine/engine.hpp"
#include "engine/fat_tree_model.hpp"
#include "engine/observer_fanout.hpp"

namespace ft {
namespace {

/// Counts channel-cycles whose tallied load exceeds the wire budget.
class ViolationCounter final : public EngineObserver {
 public:
  void on_cycle(const CycleSnapshot& s) override {
    if (s.graph == nullptr || s.loads == nullptr) return;
    for (const ChannelLoad& l : *s.loads) {
      if (l.carried > s.graph->capacity_of(l.channel)) ++violations_;
    }
  }

  std::uint64_t violations() const { return violations_; }

 private:
  std::uint64_t violations_ = 0;
};

}  // namespace

ReplayResult replay_schedule(const FatTreeTopology& topo,
                             const CapacityProfile& caps,
                             const Schedule& schedule,
                             const ReplayOptions& opts,
                             EngineObserver* observer) {
  EngineOptions eopts;
  eopts.contention = ContentionPolicy::Tally;
  eopts.fault_plan = opts.fault_plan;
  eopts.retry = opts.retry;
  eopts.time_phases = opts.time_phases;
  if (opts.fault_plan != nullptr && !opts.fault_plan->empty()) {
    // A faulted replay can run past the schedule horizon while messages
    // wait out down channels; the plan seed keys the fault streams.
    eopts.seed = opts.fault_plan->seed();
    eopts.max_cycles = 64 * (schedule.num_cycles() + 64);
  }

  CycleEngine engine(fat_tree_channel_graph(topo, caps), eopts);
  ViolationCounter counter;
  ObserverFanout fanout;
  fanout.add(&counter);
  fanout.add(observer);
  // One chunk of leaf pairs per scheduled cycle; self messages stay in
  // their cycle's chunk, and the engine delivers them locally.
  MessageSetPairs source(schedule.cycles);
  const EngineResult er = engine.run_batched_stream(source, &fanout);

  ReplayResult result;
  result.cycles = er.cycles;
  result.delivered = er.delivered;
  result.capacity_violations = counter.violations();
  result.messages_given_up = er.messages_given_up;
  result.fault_down_events = er.fault_down_events;
  result.fault_up_events = er.fault_up_events;
  result.subtree_kill_events = er.subtree_kill_events;
  result.phases = er.phases;
  result.delivered_per_cycle = er.delivered_per_cycle;
  return result;
}

}  // namespace ft
