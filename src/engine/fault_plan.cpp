#include "engine/fault_plan.hpp"

#include <algorithm>

#include "util/prng.hpp"

namespace ft {
namespace {

// Domain-separation salts for the plan's per-(seed, cycle, channel) and
// per-(seed, cycle) streams, so flap draws never correlate with burst
// channel selection or with the engine's arbitration streams (which hash
// the same cycle/channel pair under the arbitration seed).
constexpr std::uint64_t kFlapSalt = 0xf1a9f1a9f1a9f1a9ULL;
constexpr std::uint64_t kBurstSalt = 0xb0b5b0b5b0b5b0b5ULL;
constexpr std::uint64_t kSubtreeSalt = 0x5ab7ee5ab7ee5ab7ULL;

/// One uniform double in [0, 1) from a private (seed, cycle, channel)
/// stream: no draw depends on the order channels are visited in.
double flap_uniform(std::uint64_t seed, std::uint32_t cycle,
                    std::uint32_t channel) {
  SplitMix64 sm(seed ^ kFlapSalt ^ (static_cast<std::uint64_t>(cycle) << 32) ^
                channel);
  return static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
}

}  // namespace

FaultState::FaultState(const FaultPlan& plan, const ChannelGraph& graph)
    : plan_(plan), graph_(graph) {
  const std::size_t n = graph.num_channels();
  for (std::uint32_t c = 0; c < n; ++c) {
    if (graph.capacity_of(c) > 0) usable_.push_back(c);
  }
  flap_down_.assign(n, 0);
  forced_down_until_.assign(n, 0);
  was_down_.assign(n, 0);
  eff_limit_.assign(n, 0);
  domain_down_until_.assign(plan.domains().size(), 0);
  for (const FaultDomain& dom : plan.domains()) {
    for (const std::uint32_t c : dom.channels) {
      FT_CHECK_MSG(c < n, "FaultDomain channel out of range for this graph");
    }
  }
  for (const SubtreeKill& k : plan.subtree_kills()) {
    bool known = false;
    for (const FaultDomain& dom : plan.domains()) known |= dom.node == k.node;
    FT_CHECK_MSG(known, "SubtreeKill names a node with no FaultDomain");
  }
}

const FaultState::CycleFaults& FaultState::begin_cycle(
    std::uint32_t cycle, const std::vector<std::uint32_t>& base_limit) {
  FT_CHECK_MSG(cycle == last_cycle_ + 1,
               "FaultState cycles must advance consecutively from 1");
  last_cycle_ = cycle;
  out_.went_down.clear();
  out_.came_up.clear();
  out_.killed_nodes.clear();
  out_.channels_down = 0;
  out_.degraded_channels = 0;

  // Correlated subtree kills. Scheduled kills fire exactly at their cycle
  // (and extend an outage already in progress); the storm strikes each
  // currently-up domain with kill_prob from a private (seed, cycle, node)
  // stream, so timelines are independent of domain visit order and
  // identical serial vs parallel. Felled channels reuse the burst
  // forced-down mechanism, so went_down/came_up transitions and limits
  // fall out of the per-channel pass below.
  for (std::size_t d = 0; d < plan_.domains().size(); ++d) {
    const FaultDomain& dom = plan_.domains()[d];
    std::uint32_t duration = 0;
    for (const SubtreeKill& k : plan_.subtree_kills()) {
      if (k.node == dom.node && k.at_cycle == cycle)
        duration = std::max(duration, k.duration);
    }
    const SubtreeStormModel& storm = plan_.storm();
    if (duration == 0 && storm.kill_prob > 0.0 &&
        cycle >= domain_down_until_[d]) {
      SplitMix64 sm(plan_.seed() ^ kSubtreeSalt ^
                    (static_cast<std::uint64_t>(cycle) << 32) ^ dom.node);
      const double u = static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
      if (u < storm.kill_prob) {
        const std::uint64_t span =
            storm.max_duration - storm.min_duration + 1;
        duration = storm.min_duration +
                   static_cast<std::uint32_t>(sm.next() % span);
      }
    }
    if (duration == 0) continue;
    out_.killed_nodes.push_back(dom.node);
    domain_down_until_[d] =
        std::max(domain_down_until_[d], cycle + duration);
    for (const std::uint32_t c : dom.channels) {
      forced_down_until_[c] =
          std::max(forced_down_until_[c], cycle + duration);
    }
  }

  // Burst kills trigger exactly at their cycle; the victim set is a pure
  // function of (plan seed, at_cycle), drawn by partial Fisher–Yates over
  // the usable channels.
  for (const BurstKill& b : plan_.bursts()) {
    if (b.at_cycle != cycle || b.count == 0 || usable_.empty()) continue;
    std::vector<std::uint32_t> pool = usable_;
    Rng pick(SplitMix64(plan_.seed() ^ kBurstSalt ^ b.at_cycle).next());
    const std::size_t kills = std::min<std::size_t>(b.count, pool.size());
    for (std::size_t i = 0; i < kills; ++i) {
      const std::size_t j = i + pick.below(pool.size() - i);
      std::swap(pool[i], pool[j]);
      const std::uint32_t c = pool[i];
      forced_down_until_[c] =
          std::max(forced_down_until_[c], cycle + b.duration);
    }
  }

  // Flap transitions: one private draw per usable channel per cycle.
  const ChannelFlapModel& flaps = plan_.flaps();
  const bool flapping = flaps.down_prob > 0.0;

  // Stateless brownout windows active this cycle.
  std::vector<const BrownoutWindow*> active;
  for (const BrownoutWindow& w : plan_.brownouts()) {
    if (cycle >= w.from_cycle &&
        (w.until_cycle == 0 || cycle < w.until_cycle)) {
      active.push_back(&w);
    }
  }

  for (const std::uint32_t c : usable_) {
    if (flapping) {
      const double u = flap_uniform(plan_.seed(), cycle, c);
      if (flap_down_[c]) {
        if (u < flaps.up_prob) flap_down_[c] = 0;
      } else {
        if (u < flaps.down_prob) flap_down_[c] = 1;
      }
    }
    const bool down = flap_down_[c] != 0 || cycle < forced_down_until_[c];
    if (down != (was_down_[c] != 0)) {
      (down ? out_.went_down : out_.came_up).push_back(c);
      was_down_[c] = down ? 1 : 0;
    }
    const std::uint32_t base = base_limit[c];
    std::uint32_t eff = base;
    if (down) {
      eff = 0;
      ++out_.channels_down;
    } else {
      for (const BrownoutWindow* w : active) {
        if (w->level != kAllLevels && graph_.level_of(c) != w->level) {
          continue;
        }
        eff = std::max<std::uint32_t>(
            1, static_cast<std::uint32_t>(static_cast<double>(eff) *
                                          w->capacity_factor));
      }
    }
    eff_limit_[c] = eff;
    if (eff < base) ++out_.degraded_channels;
  }
  return out_;
}

}  // namespace ft
