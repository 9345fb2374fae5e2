// Dynamic fault injection and retry/backoff: FaultState determinism and
// semantics (flaps, bursts, brownouts), retry-policy lifecycle (bounded
// attempts, exponential backoff, deadlines), fault handling in both the
// lossy and FIFO engines, and the observability surface (trace events,
// fault counters, availability).
#include "engine/fault_plan.hpp"

#include <gtest/gtest.h>

#include <map>
#include <numeric>

#include "core/online_router.hpp"
#include "core/traffic.hpp"
#include "engine/fat_tree_model.hpp"
#include "nets/builders.hpp"
#include "nets/routing.hpp"
#include "nets/store_forward.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ft {
namespace {

std::vector<std::uint32_t> base_limits(const ChannelGraph& g) {
  std::vector<std::uint32_t> lim(g.num_channels());
  for (std::size_t c = 0; c < g.num_channels(); ++c) {
    lim[c] = static_cast<std::uint32_t>(g.capacity_of(c));
  }
  return lim;
}

std::uint64_t total_delivered(const std::vector<std::uint32_t>& per_cycle) {
  return std::accumulate(per_cycle.begin(), per_cycle.end(), std::uint64_t{0});
}

TEST(FaultPlan, EmptyPlanIsEmpty) {
  FaultPlan plan(42);
  EXPECT_TRUE(plan.empty());
  plan.set_flaps({0.01, 0.5});
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, FlapTimelineIsDeterministic) {
  FatTreeTopology t(64);
  const auto caps = CapacityProfile::universal(t, 16);
  const ChannelGraph g = fat_tree_channel_graph(t, caps);
  const auto lim = base_limits(g);

  FaultPlan plan(7);
  plan.set_flaps({0.05, 0.3});
  FaultState a(plan, g);
  FaultState b(plan, g);
  bool saw_down = false, saw_up = false;
  for (std::uint32_t cycle = 1; cycle <= 50; ++cycle) {
    const auto& fa = a.begin_cycle(cycle, lim);
    const auto& fb = b.begin_cycle(cycle, lim);
    EXPECT_EQ(fa.went_down, fb.went_down) << cycle;
    EXPECT_EQ(fa.came_up, fb.came_up) << cycle;
    EXPECT_EQ(fa.channels_down, fb.channels_down) << cycle;
    EXPECT_EQ(a.eff_limit(), b.eff_limit()) << cycle;
    // Transition lists are emitted in ascending channel order.
    EXPECT_TRUE(std::is_sorted(fa.went_down.begin(), fa.went_down.end()));
    EXPECT_TRUE(std::is_sorted(fa.came_up.begin(), fa.came_up.end()));
    for (const std::uint32_t c : fa.went_down) {
      EXPECT_EQ(a.eff_limit()[c], 0u);
    }
    saw_down = saw_down || !fa.went_down.empty();
    saw_up = saw_up || !fa.came_up.empty();
  }
  EXPECT_TRUE(saw_down);  // p = 0.05 over 50 cycles x many channels
  EXPECT_TRUE(saw_up);
}

TEST(FaultPlan, BurstKillTakesChannelsDownForDuration) {
  FatTreeTopology t(32);
  const auto caps = CapacityProfile::universal(t, 8);
  const ChannelGraph g = fat_tree_channel_graph(t, caps);
  const auto lim = base_limits(g);

  FaultPlan plan(9);
  plan.add_burst({/*at_cycle=*/2, /*duration=*/3, /*count=*/5});
  FaultState st(plan, g);

  EXPECT_EQ(st.begin_cycle(1, lim).channels_down, 0u);
  const auto& hit = st.begin_cycle(2, lim);
  EXPECT_EQ(hit.went_down.size(), 5u);
  EXPECT_EQ(hit.channels_down, 5u);
  for (const std::uint32_t c : hit.went_down) {
    EXPECT_EQ(st.eff_limit()[c], 0u);
  }
  EXPECT_EQ(st.begin_cycle(3, lim).channels_down, 5u);
  EXPECT_EQ(st.begin_cycle(4, lim).channels_down, 5u);
  const auto& healed = st.begin_cycle(5, lim);  // repairs at 2 + 3
  EXPECT_EQ(healed.came_up.size(), 5u);
  EXPECT_EQ(healed.channels_down, 0u);
  for (std::size_t c = 0; c < g.num_channels(); ++c) {
    EXPECT_EQ(st.eff_limit()[c], lim[c]);
  }
}

TEST(FaultPlan, BrownoutScalesLimitsInsideWindow) {
  FatTreeTopology t(32);
  const auto caps = CapacityProfile::universal(t, 16);
  const ChannelGraph g = fat_tree_channel_graph(t, caps);
  const auto lim = base_limits(g);

  FaultPlan plan(11);
  plan.add_brownout({/*from=*/2, /*until=*/4, /*factor=*/0.5});
  FaultState st(plan, g);

  st.begin_cycle(1, lim);
  EXPECT_EQ(st.eff_limit(), lim);
  const auto& dim = st.begin_cycle(2, lim);
  EXPECT_EQ(dim.channels_down, 0u);
  std::uint64_t degraded = 0;
  for (std::size_t c = 0; c < g.num_channels(); ++c) {
    const std::uint32_t want =
        std::max<std::uint32_t>(1, lim[c] / 2);
    EXPECT_EQ(st.eff_limit()[c], lim[c] == 0 ? 0u : want) << c;
    if (lim[c] != 0 && want < lim[c]) ++degraded;
  }
  EXPECT_EQ(dim.degraded_channels, degraded);
  st.begin_cycle(3, lim);
  const auto& after = st.begin_cycle(4, lim);  // window is half-open
  EXPECT_EQ(after.degraded_channels, 0u);
  EXPECT_EQ(st.eff_limit(), lim);
}

TEST(FaultPlan, RouterDeliversEverythingUnderFlaps) {
  const std::uint32_t n = 64;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::universal(t, 16);
  Rng gen(17);
  const auto m = stacked_permutations(n, 2, gen);

  FaultPlan plan(19);
  plan.set_flaps({0.02, 0.25});

  EngineMetrics metrics;
  Rng rng(18);
  OnlineRouterOptions opts;
  opts.fault_plan = &plan;
  opts.observer = &metrics;
  const auto r = route_online(t, caps, m, rng, opts);

  EXPECT_FALSE(r.gave_up);
  EXPECT_EQ(total_delivered(r.delivered_per_cycle), m.size());
  EXPECT_GT(r.fault_down_events, 0u);
  EXPECT_GT(r.degraded_channel_cycles, 0u);
  // Every repaired channel first went down.
  EXPECT_LE(r.fault_up_events, r.fault_down_events);

  // Observability mirrors the result, and availability reflects the
  // degraded channel-cycles.
  EXPECT_EQ(metrics.fault_down_events(), r.fault_down_events);
  EXPECT_EQ(metrics.fault_up_events(), r.fault_up_events);
  EXPECT_EQ(metrics.degraded_channel_cycles(), r.degraded_channel_cycles);
  EXPECT_LT(metrics.availability(), 1.0);
  EXPECT_GT(metrics.availability(), 0.0);
  EXPECT_GT(metrics.peak_channels_down(), 0u);
  // attempts - losses == delivered still holds under churn.
  EXPECT_EQ(metrics.total_attempts() - metrics.total_losses(),
            total_delivered(metrics.delivered_per_cycle));
}

TEST(FaultPlan, FaultFreeRunHasFullAvailability) {
  const std::uint32_t n = 32;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::universal(t, 8);
  Rng gen(21);
  const auto m = random_permutation_traffic(n, gen);

  EngineMetrics metrics;
  Rng rng(22);
  OnlineRouterOptions opts;
  opts.observer = &metrics;
  route_online(t, caps, m, rng, opts);
  EXPECT_DOUBLE_EQ(metrics.availability(), 1.0);
  EXPECT_EQ(metrics.fault_down_events(), 0u);
  EXPECT_EQ(metrics.peak_channels_down(), 0u);
}

TEST(FaultPlan, MaxAttemptsGivesMessagesUp) {
  const std::uint32_t n = 64;
  FatTreeTopology t(n);
  // Unit capacities + stacked permutations: heavy contention, so one
  // attempt is not enough for most messages.
  const auto caps = CapacityProfile::constant(t, 1);
  Rng gen(23);
  const auto m = stacked_permutations(n, 4, gen);

  Rng rng(24);
  OnlineRouterOptions opts;
  opts.retry.max_attempts = 1;
  const auto r = route_online(t, caps, m, rng, opts);

  EXPECT_GT(r.messages_given_up, 0u);
  std::uint64_t routed = 0;
  for (const auto& msg : m) {
    if (msg.src != msg.dst) ++routed;
  }
  const std::uint64_t self = m.size() - routed;
  // One contested cycle each: every routed message either delivered or
  // gave up, within a single delivery cycle.
  EXPECT_EQ(total_delivered(r.delivered_per_cycle) - self +
                r.messages_given_up,
            routed);
  EXPECT_EQ(r.delivery_cycles, 1u);
}

TEST(FaultPlan, ExponentialBackoffParksMessages) {
  const std::uint32_t n = 64;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::constant(t, 2);
  Rng gen(27);
  const auto m = stacked_permutations(n, 4, gen);

  Rng r1(28), r2(28);
  const auto classic = route_online(t, caps, m, r1);

  OnlineRouterOptions opts;
  opts.retry.exponential_backoff = true;
  opts.retry.max_backoff = 8;  // full 64-cycle naps outlast max_cycles here
  const auto backoff = route_online(t, caps, m, r2, opts);

  EXPECT_FALSE(backoff.gave_up);
  EXPECT_EQ(total_delivered(backoff.delivered_per_cycle), m.size());
  EXPECT_GT(backoff.total_backoffs, 0u);
  EXPECT_EQ(backoff.messages_given_up, 0u);
  // Parked messages sit out cycles, so the run stretches in time.
  EXPECT_GE(backoff.delivery_cycles, classic.delivery_cycles);
}

TEST(FaultPlan, DeadlineBoundsTheRun) {
  const std::uint32_t n = 64;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::constant(t, 1);
  Rng gen(31);
  const auto m = stacked_permutations(n, 8, gen);

  Rng rng(32);
  OnlineRouterOptions opts;
  opts.retry.deadline_cycles = 5;
  const auto r = route_online(t, caps, m, rng, opts);

  // No retry is ever scheduled past the deadline, so the run ends there.
  EXPECT_LE(r.delivery_cycles, 5u);
  EXPECT_GT(r.messages_given_up, 0u);
  EXPECT_FALSE(r.gave_up);  // per-message give-up, not the engine cliff
}

TEST(FaultPlan, DeadlineInsideBackoffWindowGivesUpExactlyOnce) {
  // Regression pin for the give-up accounting audit: when the deadline
  // expires while a message is parked in an exponential-backoff window,
  // the engine drops it at park time (the wake cycle would overshoot the
  // deadline) — it must count exactly once in messages_given_up, emit
  // exactly one GiveUp trace event, at a cycle never past the deadline,
  // and fall silent afterwards. Double-counting (park-time drop plus a
  // later deadline sweep) would break conservation.
  const std::uint32_t n = 64;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::constant(t, 1);
  Rng gen(43);
  const auto m = stacked_permutations(n, 6, gen);

  TraceSink trace;
  Rng rng(44);
  OnlineRouterOptions opts;
  opts.retry.exponential_backoff = true;
  opts.retry.max_backoff = 8;
  // Small enough that second-loss windows (delay >= 1 at cycle >= 5)
  // already straddle it: plenty of park-time expiries.
  opts.retry.deadline_cycles = 6;
  opts.observer = &trace;
  const auto r = route_online(t, caps, m, rng, opts);

  EXPECT_GT(r.messages_given_up, 0u);
  EXPECT_GT(r.total_backoffs, 0u);
  EXPECT_FALSE(r.gave_up);  // per-message policy, not the engine cliff
  EXPECT_LE(r.delivery_cycles, 6u);

  // Conservation: every routed message is delivered or gave up, no
  // message does both or neither.
  std::uint64_t routed = 0;
  for (const auto& msg : m) routed += msg.src != msg.dst;
  const std::uint64_t self = m.size() - routed;
  EXPECT_EQ(total_delivered(r.delivered_per_cycle) - self +
                r.messages_given_up,
            routed);

  // Per-message lifecycle: at most one GiveUp each, none after the
  // deadline, and a given-up message emits nothing afterwards.
  std::map<std::uint32_t, std::uint32_t> give_up_cycle;
  std::uint64_t give_ups = 0;
  for (const MessageEvent& e : trace.message_events()) {
    if (e.message == kNoMessage) continue;
    const auto it = give_up_cycle.find(e.message);
    if (it != give_up_cycle.end()) {
      ADD_FAILURE() << "message " << e.message << " emitted a "
                    << static_cast<int>(e.kind) << " event at cycle "
                    << e.cycle << " after giving up at cycle " << it->second;
    }
    if (e.kind == MessageEventKind::GiveUp) {
      ++give_ups;
      EXPECT_LE(e.cycle, 6u) << "GiveUp past the deadline";
      give_up_cycle.emplace(e.message, e.cycle);
    }
  }
  EXPECT_EQ(give_ups, r.messages_given_up);
  EXPECT_EQ(give_up_cycle.size(), r.messages_given_up);
}

TEST(FaultPlan, StoreForwardRidesOutABurst) {
  const auto net = build_hypercube(5);
  Rng traffic(33);
  const auto m = random_permutation_traffic(32, traffic);
  const auto routes = route_all_bfs(net, m);

  const auto healthy = simulate_store_forward(net, routes);

  FaultPlan plan(35);
  plan.add_burst({/*at_cycle=*/1, /*duration=*/4,
                  /*count=*/net.num_links() / 4});
  StoreForwardOptions opts;
  opts.fault_plan = &plan;
  const auto hurt = simulate_store_forward(net, routes, opts);

  EXPECT_FALSE(hurt.gave_up);
  EXPECT_GE(hurt.rounds, healthy.rounds);
  EXPECT_EQ(hurt.total_hops, healthy.total_hops);  // same routes, later
  EXPECT_EQ(hurt.fault_down_events, net.num_links() / 4);
  EXPECT_EQ(hurt.fault_up_events, net.num_links() / 4);
}

TEST(FaultPlan, TraceRecordsFaultAndBackoffLifecycle) {
  const std::uint32_t n = 64;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::constant(t, 1);
  Rng gen(37);
  const auto m = stacked_permutations(n, 2, gen);

  FaultPlan plan(39);
  plan.set_flaps({0.05, 0.5});

  TraceSink trace;
  Rng rng(38);
  OnlineRouterOptions opts;
  opts.fault_plan = &plan;
  opts.retry.exponential_backoff = true;
  opts.retry.max_backoff = 8;  // keep naps short of the max_cycles budget
  opts.observer = &trace;
  const auto r = route_online(t, caps, m, rng, opts);
  EXPECT_EQ(total_delivered(r.delivered_per_cycle), m.size());

  std::uint64_t downs = 0, ups = 0, backoffs = 0;
  for (const MessageEvent& e : trace.message_events()) {
    switch (e.kind) {
      case MessageEventKind::FaultDown:
        ++downs;
        EXPECT_EQ(e.message, kNoMessage);
        EXPECT_NE(e.channel, kNoChannel);
        break;
      case MessageEventKind::FaultUp:
        ++ups;
        EXPECT_EQ(e.message, kNoMessage);
        break;
      case MessageEventKind::Backoff:
        ++backoffs;
        EXPECT_NE(e.message, kNoMessage);
        EXPECT_NE(e.channel, kNoChannel);  // the channel it lost at
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(downs, r.fault_down_events);
  EXPECT_EQ(ups, r.fault_up_events);
  EXPECT_EQ(backoffs, r.total_backoffs);
  EXPECT_GT(downs, 0u);
  EXPECT_GT(backoffs, 0u);

  // Per-cycle fault fields aggregate to the run totals.
  std::uint64_t rec_downs = 0, rec_backoffs = 0;
  for (const TraceCycleRecord& rec : trace.cycle_records()) {
    rec_downs += rec.faults_down;
    rec_backoffs += rec.backoffs;
  }
  EXPECT_EQ(rec_downs, r.fault_down_events);
  EXPECT_EQ(rec_backoffs, r.total_backoffs);
}

}  // namespace
}  // namespace ft
