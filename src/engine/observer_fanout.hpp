// ObserverFanout: one engine run, several observers. It sits in the engine
// layer, not in src/obs/, so the simulator frontends in ft_core (which
// does not link ft_obs) compose their own observers with the caller's
// through it. It is not in engine/observer.hpp because engine.cpp must
// not see a concrete observer class: GCC 12 then speculatively
// devirtualizes the engine's observer calls to it, which changes the
// cycle loop's code; perfbench's hotspot_serial workload measured 8-12%
// slower that way (4-vCPU Xeon VM, Release).
#pragma once

#include <cstdint>
#include <vector>

#include "engine/observer.hpp"

namespace ft {

/// Fans one engine run out to several observers (e.g. EngineMetrics plus
/// a TraceSink). Each opt-in is the union of the targets'; message events
/// are forwarded only to targets that want them.
class ObserverFanout final : public EngineObserver {
 public:
  /// nullptr targets are ignored, so optional observers chain cleanly.
  void add(EngineObserver* target) {
    if (target != nullptr) targets_.push_back(target);
  }

  void on_cycle(const CycleSnapshot& s) override {
    for (EngineObserver* t : targets_) t->on_cycle(s);
  }
  bool wants_message_events() const override {
    for (const EngineObserver* t : targets_) {
      if (t->wants_message_events()) return true;
    }
    return false;
  }
  void on_message_event(const MessageEvent& e) override {
    for (EngineObserver* t : targets_) {
      if (t->wants_message_events()) t->on_message_event(e);
    }
  }
  bool wants_channel_state(std::uint32_t cycle) const override {
    for (const EngineObserver* t : targets_) {
      if (t->wants_channel_state(cycle)) return true;
    }
    return false;
  }
  bool wants_latency_samples() const override {
    for (const EngineObserver* t : targets_) {
      if (t->wants_latency_samples()) return true;
    }
    return false;
  }

 private:
  std::vector<EngineObserver*> targets_;
};

}  // namespace ft
