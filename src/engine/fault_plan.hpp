// Dynamic (mid-run) fault injection for the CycleEngine. The static
// models in core/faults degrade a CapacityProfile *before* a run; a
// FaultPlan describes faults that strike *during* one — channels flapping
// down and up with memoryless (geometric ≈ discrete exponential) holding
// times, capacity brownouts over a cycle window, burst kills that take
// out a random set of channels at a given cycle, and *correlated* subtree
// kills that fell every channel in a fate-sharing domain (a subtree's
// power feed or cable bundle) at once — so the paper's retry loop
// (Section II: loss + acknowledgment + retry) is exercised under churn,
// not just against pre-damaged capacities.
//
// Determinism contract: a plan is an immutable description; the engine
// materializes a per-run FaultState whose entire evolution is a pure
// function of (plan seed, cycle, channel). State advances once per cycle
// on the engine's serial coordination path, so serial and parallel runs
// see identical fault timelines (the same guarantee test_engine_parity
// pins for arbitration).
//
// A RetryPolicy rides alongside: bounded per-message attempts with
// optional exponential backoff (skip-k-cycles between retries) and a
// give-up deadline, replacing the engine's single global max_cycles cliff
// with per-message lifecycle decisions (surfaced as Backoff/GiveUp trace
// events and fault counters, see obs/).
#pragma once

#include <cstdint>
#include <vector>

#include "engine/channel_graph.hpp"

namespace ft {

/// Per-message retry policy for lossy (RandomSubset/Tally) runs. All
/// fields default to "off", which reproduces the classic behavior: retry
/// every cycle until delivered or the engine-wide max_cycles cliff.
struct RetryPolicy {
  /// Give a message up after this many contested cycles (0 = unbounded).
  std::uint32_t max_attempts = 0;
  /// After the k-th loss, skip min(2^(k-1) - 1, max_backoff) cycles
  /// before retrying (so the first retry is still immediate).
  bool exponential_backoff = false;
  /// Cap on skipped cycles per backoff step.
  std::uint32_t max_backoff = 64;
  /// Messages whose next retry would start after this cycle give up
  /// (0 = no deadline).
  std::uint32_t deadline_cycles = 0;

  bool enabled() const {
    return max_attempts != 0 || exponential_backoff || deadline_cycles != 0;
  }
};

/// Channels flap down/up with per-cycle probabilities; holding times are
/// geometric (the discrete memoryless analogue of exponential up/down
/// times). Applies to every usable channel.
struct ChannelFlapModel {
  double down_prob = 0.0;  ///< per up-cycle P(channel fails)
  double up_prob = 0.0;    ///< per down-cycle P(channel repairs)
};

/// Matches every level tag (ChannelGraph::level_of) in a BrownoutWindow.
inline constexpr std::uint32_t kAllLevels = 0xffffffffu;

/// Capacity brownout: admission limits scale by capacity_factor (floor 1)
/// for cycles in [from_cycle, until_cycle).
struct BrownoutWindow {
  std::uint32_t from_cycle = 1;   ///< first affected cycle (1-based)
  std::uint32_t until_cycle = 0;  ///< first unaffected cycle (0 = forever)
  double capacity_factor = 0.5;
  std::uint32_t level = kAllLevels;  ///< restrict to one level tag
};

/// Burst kill: `count` distinct usable channels (chosen by the plan seed)
/// go hard down at `at_cycle` and repair `duration` cycles later.
struct BurstKill {
  std::uint32_t at_cycle = 1;
  std::uint32_t duration = 1;
  std::uint32_t count = 1;
};

/// A correlated-failure domain: the set of engine channels that share a
/// physical fate (power feed, cable bundle) with the subtree rooted at
/// `node`. The channel list is topology-specific — built by
/// fat_tree_subtree_domain / kary_pod_domains / binary_tree_subtree_domain
/// — so the FaultPlan itself stays topology-agnostic.
struct FaultDomain {
  std::uint32_t node = 0;               ///< topology label of the domain root
  std::vector<std::uint32_t> channels;  ///< engine channel ids, fate-shared
};

/// Scheduled subtree kill: every channel in the domain rooted at `node`
/// goes hard down at `at_cycle` and repairs `duration` cycles later.
struct SubtreeKill {
  std::uint32_t node = 0;
  std::uint32_t at_cycle = 1;
  std::uint32_t duration = 1;
};

/// Random correlated kills: each cycle, every *up* domain is struck with
/// probability kill_prob (private per-(seed, cycle, node) stream); the
/// outage lasts uniform [min_duration, max_duration] cycles.
struct SubtreeStormModel {
  double kill_prob = 0.0;
  std::uint32_t min_duration = 1;
  std::uint32_t max_duration = 8;
};

/// Immutable transient-fault description handed to the engine via
/// EngineOptions::fault_plan (not owned; must outlive the run).
class FaultPlan {
 public:
  explicit FaultPlan(std::uint64_t seed = 0) : seed_(seed) {}

  FaultPlan& set_flaps(const ChannelFlapModel& m) {
    FT_CHECK(m.down_prob >= 0.0 && m.down_prob <= 1.0);
    FT_CHECK(m.up_prob >= 0.0 && m.up_prob <= 1.0);
    flaps_ = m;
    return *this;
  }
  FaultPlan& add_brownout(const BrownoutWindow& w) {
    FT_CHECK(w.capacity_factor >= 0.0 && w.capacity_factor <= 1.0);
    brownouts_.push_back(w);
    return *this;
  }
  FaultPlan& add_burst(const BurstKill& b) {
    FT_CHECK(b.at_cycle >= 1);
    bursts_.push_back(b);
    return *this;
  }
  /// Installs the correlated-failure domains (required before any
  /// subtree kill or storm takes effect). Domain roots must be unique.
  FaultPlan& set_domains(std::vector<FaultDomain> domains) {
    for (std::size_t i = 0; i < domains.size(); ++i) {
      for (std::size_t j = i + 1; j < domains.size(); ++j) {
        FT_CHECK_MSG(domains[i].node != domains[j].node,
                     "duplicate FaultDomain root");
      }
    }
    domains_ = std::move(domains);
    return *this;
  }
  FaultPlan& add_subtree_kill(const SubtreeKill& k) {
    FT_CHECK(k.at_cycle >= 1);
    FT_CHECK(k.duration >= 1);
    subtree_kills_.push_back(k);
    return *this;
  }
  FaultPlan& set_storm(const SubtreeStormModel& s) {
    FT_CHECK(s.kill_prob >= 0.0 && s.kill_prob <= 1.0);
    FT_CHECK(s.min_duration >= 1 && s.min_duration <= s.max_duration);
    storm_ = s;
    return *this;
  }

  bool empty() const {
    return flaps_.down_prob == 0.0 && brownouts_.empty() && bursts_.empty() &&
           subtree_kills_.empty() && storm_.kill_prob == 0.0;
  }

  std::uint64_t seed() const { return seed_; }
  const ChannelFlapModel& flaps() const { return flaps_; }
  const std::vector<BrownoutWindow>& brownouts() const { return brownouts_; }
  const std::vector<BurstKill>& bursts() const { return bursts_; }
  const std::vector<FaultDomain>& domains() const { return domains_; }
  const std::vector<SubtreeKill>& subtree_kills() const {
    return subtree_kills_;
  }
  const SubtreeStormModel& storm() const { return storm_; }

 private:
  std::uint64_t seed_;
  ChannelFlapModel flaps_;
  std::vector<BrownoutWindow> brownouts_;
  std::vector<BurstKill> bursts_;
  std::vector<FaultDomain> domains_;
  std::vector<SubtreeKill> subtree_kills_;
  SubtreeStormModel storm_;
};

/// Per-run dynamic fault state. The engine creates one per run and calls
/// begin_cycle(1), begin_cycle(2), ... from its coordinating thread; each
/// call rewrites eff_limit() — 0 for down channels, brownout-scaled base
/// limit otherwise — and reports the cycle's state transitions.
class FaultState {
 public:
  FaultState(const FaultPlan& plan, const ChannelGraph& graph);

  struct CycleFaults {
    /// Channels that failed / recovered at this cycle's start, ascending
    /// channel order (the trace event emission order).
    std::vector<std::uint32_t> went_down;
    std::vector<std::uint32_t> came_up;
    /// Domain roots whose subtree was struck at this cycle (scheduled
    /// kill or storm draw), in plan domain order.
    std::vector<std::uint32_t> killed_nodes;
    std::uint32_t channels_down = 0;  ///< down during this cycle
    /// Channels whose effective limit is below base this cycle (down or
    /// browned out) — the numerator of time-degraded availability.
    std::uint64_t degraded_channels = 0;
  };

  /// Advances to `cycle` (consecutive, starting at 1) against the given
  /// per-channel base admission limits. The returned reference and
  /// eff_limit() stay valid until the next call.
  const CycleFaults& begin_cycle(std::uint32_t cycle,
                                 const std::vector<std::uint32_t>& base_limit);

  const std::vector<std::uint32_t>& eff_limit() const { return eff_limit_; }
  /// Channels with nonzero capacity — the availability denominator.
  std::uint32_t num_usable() const {
    return static_cast<std::uint32_t>(usable_.size());
  }

 private:
  const FaultPlan& plan_;
  const ChannelGraph& graph_;
  std::vector<std::uint32_t> usable_;     ///< channel ids, capacity > 0
  std::vector<std::uint8_t> flap_down_;   ///< per channel
  std::vector<std::uint32_t> forced_down_until_;  ///< burst/kill repair cycle
  std::vector<std::uint32_t> domain_down_until_;  ///< per plan domain
  std::vector<std::uint8_t> was_down_;    ///< effective state last cycle
  std::vector<std::uint32_t> eff_limit_;
  std::uint32_t last_cycle_ = 0;
  CycleFaults out_;
};

}  // namespace ft
