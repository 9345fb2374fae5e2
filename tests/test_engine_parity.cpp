// Parity tests for the delivery-cycle engine and store-and-forward rounds:
// every entry point must produce identical results in serial and parallel
// mode (the engine's per-(seed, cycle, channel) arbitration streams and
// the rounds' fixed channel ranges make thread scheduling invisible), and
// the offline replay must reproduce a schedule exactly.
#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <string>

#include "core/offline_scheduler.hpp"
#include "core/online_router.hpp"
#include "core/replay.hpp"
#include "core/traffic.hpp"
#include "engine/engine.hpp"
#include "engine/fat_tree_model.hpp"
#include "engine/store_forward_rounds.hpp"
#include "kary/kary_sim.hpp"
#include "nets/builders.hpp"
#include "nets/routing.hpp"
#include "nets/store_forward.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace ft {
namespace {

OnlineRoutingResult run_online(const FatTreeTopology& t,
                               const CapacityProfile& caps,
                               const MessageSet& m, double alpha,
                               bool parallel) {
  Rng rng(12345);  // same seed both modes: the engine stream is derived
  OnlineRouterOptions opts;
  opts.alpha = alpha;
  opts.parallel = parallel;
  return route_online(t, caps, m, rng, opts);
}

std::uint64_t event_fingerprint(const TraceSink& trace) {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a over events
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  for (const MessageEvent& e : trace.message_events()) {
    mix(static_cast<std::uint64_t>(e.kind));
    mix(e.message);
    mix(e.cycle);
    mix(e.channel);
  }
  return h;
}

/// event_fingerprint plus every cycle record's per-level carried tally,
/// so a trace compares on channel state as well as on its events.
std::uint64_t trace_fingerprint(const TraceSink& trace) {
  std::uint64_t h = event_fingerprint(trace);
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  for (const TraceCycleRecord& r : trace.cycle_records()) {
    mix(r.cycle);
    mix(r.carried_by_level.size());
    for (const std::uint64_t c : r.carried_by_level) mix(c);
  }
  return h;
}

/// Per-cycle channel-state invariants: no channel is listed twice in one
/// cycle, every listed channel exists (capacity > 0), and none carries
/// more than its admission limit. Both fanouts below run at alpha = 1
/// (lossy) or store-and-forward rounds, where that limit is the channel's
/// capacity.
class ChannelStateInvariants final : public EngineObserver {
 public:
  void on_cycle(const CycleSnapshot& s) override {
    if (s.loads == nullptr) return;
    const ChannelGraph& g = *s.graph;
    last_listed_.resize(g.num_channels(), 0);
    for (const ChannelLoad& l : *s.loads) {
      ++entries;
      if (last_listed_[l.channel] == s.cycle) ++duplicates;
      last_listed_[l.channel] = s.cycle;
      if (g.capacity_of(l.channel) == 0) ++unusable;
      if (l.carried > g.capacity_of(l.channel)) ++over_limit;
    }
  }

  std::uint64_t entries = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t unusable = 0;
  std::uint64_t over_limit = 0;

 private:
  /// The cycle each channel was last listed in (cycles are 1-based).
  std::vector<std::uint32_t> last_listed_;
};

void expect_invariants_hold(const ChannelStateInvariants& inv,
                            const std::string& at) {
  EXPECT_GT(inv.entries, 0u) << at;
  EXPECT_EQ(inv.duplicates, 0u) << at;
  EXPECT_EQ(inv.unusable, 0u) << at;
  EXPECT_EQ(inv.over_limit, 0u) << at;
}

TEST(EngineParity, OnlineSerialEqualsParallel) {
  const std::uint32_t n = 128;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::universal(t, 32);
  Rng gen(7);
  const auto m = stacked_permutations(n, 4, gen);

  for (const double alpha : {1.0, 0.75}) {
    const auto serial = run_online(t, caps, m, alpha, false);
    const auto parallel = run_online(t, caps, m, alpha, true);
    EXPECT_EQ(serial.delivery_cycles, parallel.delivery_cycles)
        << "alpha=" << alpha;
    EXPECT_EQ(serial.delivered_per_cycle, parallel.delivered_per_cycle)
        << "alpha=" << alpha;
    EXPECT_EQ(serial.total_attempts, parallel.total_attempts)
        << "alpha=" << alpha;
    EXPECT_EQ(serial.total_losses, parallel.total_losses)
        << "alpha=" << alpha;
    EXPECT_FALSE(serial.gave_up);
    const auto delivered =
        std::accumulate(serial.delivered_per_cycle.begin(),
                        serial.delivered_per_cycle.end(), std::uint64_t{0});
    EXPECT_EQ(delivered, m.size());
  }
}

TEST(EngineParity, OnlineDeterministicAcrossRuns) {
  FatTreeTopology t(64);
  const auto caps = CapacityProfile::doubling(t);
  Rng gen(11);
  const auto m = random_permutation_traffic(64, gen);
  const auto a = run_online(t, caps, m, 1.0, false);
  const auto b = run_online(t, caps, m, 1.0, false);
  EXPECT_EQ(a.delivery_cycles, b.delivery_cycles);
  EXPECT_EQ(a.delivered_per_cycle, b.delivered_per_cycle);
}

TEST(EngineParity, StoreForwardSerialEqualsParallel) {
  const auto net = build_hypercube(6);
  Rng traffic(22);
  const auto m = random_permutation_traffic(64, traffic);
  const auto routes = route_all_bfs(net, m);

  const auto serial = simulate_store_forward(net, routes);
  StoreForwardOptions popts;
  popts.parallel = true;
  const auto parallel = simulate_store_forward(net, routes, popts);

  EXPECT_EQ(serial.rounds, parallel.rounds);
  EXPECT_EQ(serial.total_hops, parallel.total_hops);
  EXPECT_EQ(serial.max_queue, parallel.max_queue);
  EXPECT_DOUBLE_EQ(serial.mean_latency, parallel.mean_latency);
}

TEST(EngineParity, KarySerialEqualsParallel) {
  KaryTree tree(4, 3);  // 64 processors
  Rng perm_rng(31);
  std::vector<std::uint32_t> perm(tree.num_processors());
  std::iota(perm.begin(), perm.end(), 0u);
  perm_rng.shuffle(perm);

  Rng r1(33), r2(33);  // identical routing decisions in both runs
  const auto serial =
      simulate_kary_permutation(tree, perm, AscentPolicy::Random, r1);
  StoreForwardOptions popts;
  popts.parallel = true;
  const auto parallel =
      simulate_kary_permutation(tree, perm, AscentPolicy::Random, r2, popts);

  EXPECT_EQ(serial.rounds, parallel.rounds);
  EXPECT_EQ(serial.max_link_load, parallel.max_link_load);
  EXPECT_DOUBLE_EQ(serial.mean_link_load, parallel.mean_link_load);
  EXPECT_EQ(serial.max_route_hops, parallel.max_route_hops);
}

TEST(EngineParity, ReplayReproducesSchedule) {
  const std::uint32_t n = 64;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::universal(t, 16);
  Rng gen(41);
  auto m = stacked_permutations(n, 3, gen);
  m.push_back({5, 5});  // a local message rides along
  const auto schedule = schedule_offline(t, caps, m);
  ASSERT_TRUE(verify_schedule(t, caps, m, schedule));

  const auto replay = replay_schedule(t, caps, schedule);
  EXPECT_EQ(replay.cycles, schedule.num_cycles());
  EXPECT_EQ(replay.delivered, schedule.total_messages());
  EXPECT_EQ(replay.capacity_violations, 0u);
  ASSERT_EQ(replay.delivered_per_cycle.size(), schedule.num_cycles());
  for (std::size_t i = 0; i < schedule.num_cycles(); ++i) {
    EXPECT_EQ(replay.delivered_per_cycle[i], schedule.cycles[i].size());
  }
}

TEST(EngineParity, ReplayCountsCapacityViolations) {
  FatTreeTopology t(8);
  const auto caps = CapacityProfile::constant(t, 1);
  // Two messages through the same root trunk in one "cycle".
  Schedule s;
  s.cycles.push_back({{0, 4}, {1, 5}});
  const auto replay = replay_schedule(t, caps, s);
  EXPECT_GT(replay.capacity_violations, 0u);
  EXPECT_EQ(replay.delivered, 2u);  // tally mode still delivers
  EXPECT_FALSE(verify_schedule(t, caps, {{0, 4}, {1, 5}}, s));
}

TEST(EngineParity, GaveUpIsReportedNotSilent) {
  const std::uint32_t n = 64;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::constant(t, 1);
  Rng gen(51);
  const auto m = stacked_permutations(n, 8, gen);
  Rng rng(52);
  OnlineRouterOptions opts;
  opts.max_cycles = 1;  // far too few for 8 stacked permutations
  const auto r = route_online(t, caps, m, rng, opts);
  EXPECT_TRUE(r.gave_up);
  EXPECT_EQ(r.delivery_cycles, 1u);
  const auto delivered =
      std::accumulate(r.delivered_per_cycle.begin(),
                      r.delivered_per_cycle.end(), std::uint64_t{0});
  EXPECT_LT(delivered, m.size());
}

TEST(EngineParity, MetricsObserverMatchesResult) {
  const std::uint32_t n = 64;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::universal(t, 16);
  Rng gen(61);
  const auto m = stacked_permutations(n, 3, gen);

  EngineMetrics metrics;
  Rng rng(62);
  OnlineRouterOptions opts;
  opts.observer = &metrics;
  const auto r = route_online(t, caps, m, rng, opts);

  EXPECT_EQ(metrics.cycles(), r.delivery_cycles);
  EXPECT_EQ(metrics.total_attempts(), r.total_attempts);
  EXPECT_EQ(metrics.total_losses(), r.total_losses);
  // Every attempt either dies or delivers within its cycle.
  const auto engine_delivered =
      std::accumulate(metrics.delivered_per_cycle.begin(),
                      metrics.delivered_per_cycle.end(), std::uint64_t{0});
  EXPECT_EQ(metrics.total_attempts() - metrics.total_losses(),
            engine_delivered);
  EXPECT_EQ(metrics.peak_queue_depth(), 0u);  // lossy mode never queues

  // The utilization histogram covers every wire-budget channel once per
  // cycle: (num_nodes - 1) node channels x 2 directions.
  const std::uint64_t budget_channels = (t.num_nodes() - 1) * 2ull;
  EXPECT_EQ(metrics.utilization_histogram().total(),
            budget_channels * metrics.cycles());

  const double root_util = metrics.level_utilization(1);
  EXPECT_GT(root_util, 0.0);
  EXPECT_LE(root_util, 1.0);
}

// The traced event stream must be byte-identical in serial and parallel
// mode: lossy events are derived on the coordinating thread, and FIFO
// per-range event logs are replayed in ascending-channel range order.
TEST(EngineParity, LossyTraceSerialEqualsParallel) {
  const std::uint32_t n = 128;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::universal(t, 32);
  Rng gen(71);
  const auto m = stacked_permutations(n, 4, gen);
  // Self messages are delivered locally without entering the engine, so
  // they emit no events.
  std::uint64_t routed = 0;
  for (const auto& msg : m) {
    if (msg.src != msg.dst) ++routed;
  }

  std::vector<std::vector<MessageEvent>> streams;
  for (const bool parallel : {false, true}) {
    TraceSink trace;
    Rng rng(72);
    OnlineRouterOptions opts;
    opts.parallel = parallel;
    opts.observer = &trace;
    const auto r = route_online(t, caps, m, rng, opts);
    EXPECT_FALSE(r.gave_up);

    std::uint64_t injects = 0, attempts = 0, losses = 0, delivers = 0;
    for (const MessageEvent& e : trace.message_events()) {
      switch (e.kind) {
        case MessageEventKind::Inject: ++injects; break;
        case MessageEventKind::Attempt: ++attempts; break;
        case MessageEventKind::Loss: ++losses; break;
        case MessageEventKind::Deliver: ++delivers; break;
        default: break;
      }
    }
    EXPECT_EQ(injects, routed);
    EXPECT_EQ(delivers, routed);
    EXPECT_EQ(attempts, r.total_attempts);
    EXPECT_EQ(losses, r.total_losses);
    streams.push_back(trace.message_events());
  }
  EXPECT_EQ(streams[0], streams[1]);
}

// The fault subsystem must preserve the engine's core guarantee: with an
// active FaultPlan (flaps + a burst) and a retry policy, serial and
// parallel runs still agree on cycle counts, per-cycle deliveries, every
// fault/retry counter, and the full traced event stream. FaultState
// advances only on the coordinating thread and every flap draw comes from
// a private (seed, cycle, channel) stream, so thread count is invisible.
TEST(EngineParity, TransientFaultsSerialEqualsParallel) {
  const std::uint32_t n = 128;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::universal(t, 32);
  Rng gen(91);
  const auto m = stacked_permutations(n, 4, gen);

  FaultPlan plan(92);
  plan.set_flaps({0.03, 0.3});
  plan.add_burst({/*at_cycle=*/2, /*duration=*/2, /*count=*/8});

  std::vector<OnlineRoutingResult> results;
  std::vector<std::vector<MessageEvent>> streams;
  for (const bool parallel : {false, true}) {
    TraceSink trace;
    Rng rng(93);
    OnlineRouterOptions opts;
    opts.parallel = parallel;
    opts.fault_plan = &plan;
    opts.retry.exponential_backoff = true;
    opts.observer = &trace;
    results.push_back(route_online(t, caps, m, rng, opts));
    streams.push_back(trace.message_events());
  }
  const auto& s = results[0];
  const auto& p = results[1];
  EXPECT_EQ(s.delivery_cycles, p.delivery_cycles);
  EXPECT_EQ(s.delivered_per_cycle, p.delivered_per_cycle);
  EXPECT_EQ(s.total_attempts, p.total_attempts);
  EXPECT_EQ(s.total_losses, p.total_losses);
  EXPECT_EQ(s.total_backoffs, p.total_backoffs);
  EXPECT_EQ(s.messages_given_up, p.messages_given_up);
  EXPECT_EQ(s.fault_down_events, p.fault_down_events);
  EXPECT_EQ(s.fault_up_events, p.fault_up_events);
  EXPECT_EQ(s.degraded_channel_cycles, p.degraded_channel_cycles);
  EXPECT_EQ(streams[0], streams[1]);
  // The scenario is not degenerate: faults struck and everything was
  // still delivered.
  EXPECT_GT(s.fault_down_events, 0u);
  EXPECT_FALSE(s.gave_up);
  const auto delivered =
      std::accumulate(s.delivered_per_cycle.begin(),
                      s.delivered_per_cycle.end(), std::uint64_t{0});
  EXPECT_EQ(delivered, m.size());
}

// Every routing discipline in the zoo must preserve the engine's
// serial ≡ parallel contract: a parallel run without a shard partition
// (which runs the serial executor) and the subtree-sharded executor must
// both reproduce the serial run bit for bit — counters and the full
// traced event stream. The wire-selecting policies (dmod, rlb) pick
// winners by pending index and hashed wire claims, the adaptive policy
// folds its occupancy feedback on the coordinating thread only; none of
// it may depend on thread count.
TEST(EngineParity, RoutingPoliciesSerialEqualsParallel) {
  const std::uint32_t n = 128;
  FatTreeTopology t(n);
  // Unit capacities + a persistent hotspot: every arbitration path is
  // exercised (long over-limit streaks for the adaptive feedback, real
  // wire contention for dmod/rlb), nothing degenerates to uncontended.
  const auto caps = CapacityProfile::constant(t, 1);
  Rng gen(111);
  auto m = persistent_hotspot_traffic(n, n / 3, 24, 0, gen);
  const auto local = stacked_permutations(n, 2, gen);
  m.insert(m.end(), local.begin(), local.end());

  struct Executor {
    const char* name;
    bool parallel;
    std::uint32_t shard_level;
  };
  const Executor executors[] = {
      {"serial", false, kShardLevelAuto},
      {"parallel-unsharded", true, 0},
      {"parallel-sharded", true, kShardLevelAuto},
  };

  for (const RoutingPolicy pol :
       {RoutingPolicy::ObliviousRandom, RoutingPolicy::DeterministicDmod,
        RoutingPolicy::RandomLoadBalanced,
        RoutingPolicy::AdaptiveOccupancy}) {
    std::vector<OnlineRoutingResult> results;
    std::vector<std::vector<MessageEvent>> streams;
    for (const Executor& ex : executors) {
      TraceSink trace;
      Rng rng(112);
      OnlineRouterOptions opts;
      opts.policy = pol;
      opts.parallel = ex.parallel;
      opts.shard_level = ex.shard_level;
      opts.observer = &trace;
      results.push_back(route_online(t, caps, m, rng, opts));
      streams.push_back(trace.message_events());
    }
    const auto& s = results[0];
    EXPECT_FALSE(s.gave_up) << static_cast<int>(pol);
    const auto delivered =
        std::accumulate(s.delivered_per_cycle.begin(),
                        s.delivered_per_cycle.end(), std::uint64_t{0});
    EXPECT_EQ(delivered, m.size()) << static_cast<int>(pol);
    if (pol == RoutingPolicy::AdaptiveOccupancy) {
      // The feedback actually engaged: hot-channel losers were parked.
      EXPECT_GT(s.total_backoffs, 0u);
    }
    for (std::size_t e = 1; e < results.size(); ++e) {
      const auto& p = results[e];
      EXPECT_EQ(s.delivery_cycles, p.delivery_cycles)
          << executors[e].name << " policy " << static_cast<int>(pol);
      EXPECT_EQ(s.delivered_per_cycle, p.delivered_per_cycle)
          << executors[e].name << " policy " << static_cast<int>(pol);
      EXPECT_EQ(s.total_attempts, p.total_attempts)
          << executors[e].name << " policy " << static_cast<int>(pol);
      EXPECT_EQ(s.total_losses, p.total_losses)
          << executors[e].name << " policy " << static_cast<int>(pol);
      EXPECT_EQ(s.total_backoffs, p.total_backoffs)
          << executors[e].name << " policy " << static_cast<int>(pol);
      EXPECT_EQ(s.messages_given_up, p.messages_given_up)
          << executors[e].name << " policy " << static_cast<int>(pol);
      EXPECT_EQ(streams[0], streams[e])
          << executors[e].name << " policy " << static_cast<int>(pol);
    }
  }
}

// The sharded executor on a workload big enough to dispatch its thread
// pool: the first cycles' up and down bands hold more than
// kMinParallelWork (4096) worklist entries, so shards really run on four
// threads. With one thread the engine builds no pool and runs the same
// sharded layout inline. Every policy, with and without channel flaps
// (default retry, so AdaptiveOccupancy parks through its own feedback
// rather than a backoff schedule that would mask it), must match the
// serial run in every EngineResult field, the per-cycle deliveries, the
// traced event stream and per-level carried tallies, the telemetry
// stream and the EngineMetrics report section. Shard level 1 has no spine:
// every crossing message lands from an outbox straight onto the other
// shard's root down channel. Every serial run loses messages on down
// channels (odd ids), so the down band's contended buckets, whose
// cursors the fill sweep sets, stay exercised.
TEST(EngineParity, PooledShardsMatchSerialForEveryPolicy) {
  const std::uint32_t n = 4096;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::universal(t, n / 8);
  Rng gen(121);
  const std::vector<MessageSet> sets{stacked_permutations(n, 2, gen)};
  const std::size_t routed = sets[0].size();

  FaultPlan flaps(122);
  flaps.set_flaps({0.01, 0.3});
  const FaultPlan* fault_cases[] = {nullptr, &flaps};

  struct Run {
    EngineResult result;
    std::uint64_t trace_fp = 0;
    std::uint64_t telemetry_fp = 0;
    std::string metrics_json;
    std::uint64_t down_losses = 0;  ///< Loss events on down channels
  };
  const auto run = [&](const EngineOptions& opts, std::uint32_t shard_level,
                       const std::string& at) {
    TraceSink trace;
    TelemetryProbe probe;
    EngineMetrics metrics;
    ChannelStateInvariants invariants;
    ObserverFanout fanout;
    fanout.add(&trace);
    fanout.add(&probe);
    fanout.add(&metrics);
    fanout.add(&invariants);
    CycleEngine engine(fat_tree_channel_graph(t, caps, shard_level), opts);
    MessageSetPairs pairs(sets);
    Run r;
    r.result = engine.run_stream(pairs, &fanout);
    r.trace_fp = trace_fingerprint(trace);
    r.telemetry_fp = probe.fingerprint();
    r.metrics_json = metrics.to_json().dump(0);
    for (const MessageEvent& e : trace.message_events()) {
      if (e.kind == MessageEventKind::Loss && (e.channel & 1u) != 0) {
        ++r.down_losses;
      }
    }
    expect_invariants_hold(invariants, at);
    return r;
  };

  for (const RoutingPolicy pol :
       {RoutingPolicy::ObliviousRandom, RoutingPolicy::DeterministicDmod,
        RoutingPolicy::RandomLoadBalanced,
        RoutingPolicy::AdaptiveOccupancy}) {
    for (const FaultPlan* fp : fault_cases) {
      EngineOptions opts;
      opts.seed = 123;
      opts.policy = pol;
      opts.fault_plan = fp;
      const std::string label = "policy " +
                                std::to_string(static_cast<int>(pol)) +
                                (fp != nullptr ? " flaps" : " fault-free");
      const Run s = run(opts, 0, label);
      EXPECT_FALSE(s.result.gave_up) << label;
      EXPECT_EQ(s.result.delivered + s.result.messages_given_up, routed)
          << label;
      EXPECT_GT(s.result.total_losses, 0u) << label;
      EXPECT_GT(s.down_losses, 0u) << label;
      if (fp != nullptr) {
        EXPECT_GT(s.result.fault_down_events, 0u) << label;
      }

      opts.parallel = true;
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        opts.threads = threads;
        for (const std::uint32_t shard_level : {1u, 2u, 3u}) {
          const std::string at = label + " threads " +
                                 std::to_string(threads) + " shard_level " +
                                 std::to_string(shard_level);
          const Run p = run(opts, shard_level, at);
          const EngineResult& a = s.result;
          const EngineResult& b = p.result;
          EXPECT_EQ(a.cycles, b.cycles) << at;
          EXPECT_EQ(a.gave_up, b.gave_up) << at;
          EXPECT_EQ(a.delivered, b.delivered) << at;
          EXPECT_EQ(a.total_attempts, b.total_attempts) << at;
          EXPECT_EQ(a.total_losses, b.total_losses) << at;
          EXPECT_EQ(a.total_hops, b.total_hops) << at;
          EXPECT_EQ(a.messages_given_up, b.messages_given_up) << at;
          EXPECT_EQ(a.total_backoffs, b.total_backoffs) << at;
          EXPECT_EQ(a.fault_down_events, b.fault_down_events) << at;
          EXPECT_EQ(a.fault_up_events, b.fault_up_events) << at;
          EXPECT_EQ(a.subtree_kill_events, b.subtree_kill_events) << at;
          EXPECT_EQ(a.degraded_channel_cycles, b.degraded_channel_cycles)
              << at;
          EXPECT_EQ(a.delivered_per_cycle, b.delivered_per_cycle) << at;
          EXPECT_EQ(s.trace_fp, p.trace_fp) << at;
          EXPECT_EQ(s.telemetry_fp, p.telemetry_fp) << at;
          EXPECT_EQ(s.metrics_json, p.metrics_json) << at;
        }
      }
    }
  }
}

// One engine reused after a run that max_cycles stopped: that run's last
// compaction reseeded its losers, so its stage worklists still hold
// entries (on pooled blocks) when it returns. The next run on the same
// engine must start from empty worklists and match a fresh engine in
// every result field and its trace fingerprint, serial and pooled-sharded
// (the first cycles' bands hold more than kMinParallelWork entries, so
// the four-thread pool really dispatches).
TEST(EngineParity, ReusedEngineAfterTruncatedRunMatchesFreshEngine) {
  const std::uint32_t n = 4096;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::universal(t, n / 8);
  Rng gen(131);
  // About 39 cycles to finish: far past the cap.
  const std::vector<MessageSet> cut{stacked_permutations(n, 8, gen)};
  // About 10 cycles: finishes under it.
  const std::vector<MessageSet> done{stacked_permutations(n, 2, gen)};

  struct Run {
    EngineResult result;
    std::uint64_t trace_fp = 0;
  };
  const auto run_done = [&](CycleEngine& engine) {
    TraceSink trace;
    MessageSetPairs pairs(done);
    Run r;
    r.result = engine.run_stream(pairs, &trace);
    r.trace_fp = trace_fingerprint(trace);
    return r;
  };

  for (const bool sharded : {false, true}) {
    const std::string at = sharded ? "pooled-sharded" : "serial";
    EngineOptions opts;
    opts.seed = 133;
    opts.max_cycles = 12;
    opts.parallel = sharded;
    opts.threads = 4;
    const std::uint32_t shard_level = sharded ? 3 : 0;

    CycleEngine fresh(fat_tree_channel_graph(t, caps, shard_level), opts);
    const Run want = run_done(fresh);
    ASSERT_FALSE(want.result.gave_up) << at;
    EXPECT_GT(want.result.total_losses, 0u) << at;

    CycleEngine reused(fat_tree_channel_graph(t, caps, shard_level), opts);
    MessageSetPairs cut_pairs(cut);
    const EngineResult first = reused.run_stream(cut_pairs);
    ASSERT_TRUE(first.gave_up) << at;
    ASSERT_LT(first.delivered, cut[0].size()) << at;
    const Run got = run_done(reused);

    const EngineResult& a = want.result;
    const EngineResult& b = got.result;
    EXPECT_EQ(a.cycles, b.cycles) << at;
    EXPECT_EQ(a.gave_up, b.gave_up) << at;
    EXPECT_EQ(a.delivered, b.delivered) << at;
    EXPECT_EQ(a.total_attempts, b.total_attempts) << at;
    EXPECT_EQ(a.total_losses, b.total_losses) << at;
    EXPECT_EQ(a.total_hops, b.total_hops) << at;
    EXPECT_EQ(a.messages_given_up, b.messages_given_up) << at;
    EXPECT_EQ(a.total_backoffs, b.total_backoffs) << at;
    EXPECT_EQ(a.delivered_per_cycle, b.delivered_per_cycle) << at;
    EXPECT_EQ(want.trace_fp, got.trace_fp) << at;
  }
}

// A fault-free, override-free lossy or tally engine keeps one admission
// limit per level and compares each bucket with its stage's; a graph with
// a per-channel capacity table takes the dense per-channel path. The same
// wires must give the same run either way: the tagged graph against a
// copy carrying a per-channel table filled from its own capacity_of,
// under the four policies and Tally, at three alphas, serial and
// pooled-sharded (the first cycles' bands hold more than
// kMinParallelWork entries, so the pool dispatches), without faults and
// under flaps plus a brownout (whose FaultState scales a dense table,
// which the level graph's engine builds at the run's start).
TEST(EngineParity, LevelLimitsMatchPerChannelLimits) {
  const std::uint32_t n = 4096;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::universal(t, n / 8);
  Rng gen(141);
  const std::vector<MessageSet> sets{stacked_permutations(n, 2, gen)};

  FaultPlan faults(142);
  faults.set_flaps({0.01, 0.3});
  faults.add_brownout({/*from_cycle=*/2, /*until_cycle=*/6, 0.5});
  const FaultPlan* fault_cases[] = {nullptr, &faults};

  struct Mode {
    const char* name;
    ContentionPolicy contention;
    RoutingPolicy policy;
  };
  const Mode modes[] = {
      {"oblivious", ContentionPolicy::RandomSubset,
       RoutingPolicy::ObliviousRandom},
      {"dmod", ContentionPolicy::RandomSubset,
       RoutingPolicy::DeterministicDmod},
      {"rlb", ContentionPolicy::RandomSubset,
       RoutingPolicy::RandomLoadBalanced},
      {"adaptive", ContentionPolicy::RandomSubset,
       RoutingPolicy::AdaptiveOccupancy},
      {"tally", ContentionPolicy::Tally, RoutingPolicy::ObliviousRandom},
  };

  struct Run {
    EngineResult result;
    std::uint64_t trace_fp = 0;
  };
  const auto run = [&](bool per_channel, const EngineOptions& opts,
                       std::uint32_t shard_level) {
    ChannelGraph g = fat_tree_channel_graph(t, caps, shard_level);
    if (per_channel) {
      std::vector<std::uint64_t> cap(g.num_channels());
      for (std::size_t c = 0; c < cap.size(); ++c) cap[c] = g.capacity_of(c);
      g.capacity = std::move(cap);
    }
    TraceSink trace;
    CycleEngine engine(std::move(g), opts);
    MessageSetPairs pairs(sets);
    Run r;
    r.result = engine.run_stream(pairs, &trace);
    r.trace_fp = trace_fingerprint(trace);
    return r;
  };

  for (const Mode& mode : modes) {
    for (const double alpha : {1.0, 0.75, 0.3}) {
      for (const FaultPlan* fp : fault_cases) {
        for (const bool sharded : {false, true}) {
          const std::string at =
              std::string(mode.name) + " alpha " + std::to_string(alpha) +
              (fp != nullptr ? " faulted" : " fault-free") +
              (sharded ? " pooled-sharded" : " serial");
          EngineOptions opts;
          opts.seed = 143;
          opts.contention = mode.contention;
          opts.policy = mode.policy;
          opts.alpha = alpha;
          opts.fault_plan = fp;
          opts.parallel = sharded;
          opts.threads = 4;
          const std::uint32_t shard_level = sharded ? 3 : 0;
          const Run lv = run(false, opts, shard_level);
          const Run pc = run(true, opts, shard_level);
          const EngineResult& a = lv.result;
          const EngineResult& b = pc.result;
          if (mode.contention == ContentionPolicy::RandomSubset) {
            EXPECT_GT(a.total_losses, 0u) << at;
          }
          EXPECT_EQ(a.delivered + a.messages_given_up, sets[0].size()) << at;
          EXPECT_EQ(a.cycles, b.cycles) << at;
          EXPECT_EQ(a.gave_up, b.gave_up) << at;
          EXPECT_EQ(a.delivered, b.delivered) << at;
          EXPECT_EQ(a.total_attempts, b.total_attempts) << at;
          EXPECT_EQ(a.total_losses, b.total_losses) << at;
          EXPECT_EQ(a.total_hops, b.total_hops) << at;
          EXPECT_EQ(a.messages_given_up, b.messages_given_up) << at;
          EXPECT_EQ(a.total_backoffs, b.total_backoffs) << at;
          EXPECT_EQ(a.fault_down_events, b.fault_down_events) << at;
          EXPECT_EQ(a.fault_up_events, b.fault_up_events) << at;
          EXPECT_EQ(a.degraded_channel_cycles, b.degraded_channel_cycles)
              << at;
          EXPECT_EQ(a.delivered_per_cycle, b.delivered_per_cycle) << at;
          EXPECT_EQ(lv.trace_fp, pc.trace_fp) << at;
        }
      }
    }
  }
}

// Golden determinism for correlated subtree kills: for two plan seeds the
// full timeline — cycle count, kill/fault counters, and an FNV-1a
// fingerprint of the traced event stream — is pinned, and serial and
// parallel runs agree bit-for-bit. Any change to the per-(seed, cycle,
// node) storm streams, the kill → forced-down expansion, or event
// ordering shows up here as a changed fingerprint.
TEST(EngineParity, SubtreeKillGoldenTimelines) {
  const std::uint32_t n = 64;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::universal(t, 16);
  Rng gen(101);
  const auto m = stacked_permutations(n, 3, gen);

  struct Golden {
    std::uint64_t plan_seed;
    std::uint32_t delivery_cycles;
    std::uint64_t subtree_kill_events;
    std::uint64_t fault_down_events;
    std::uint64_t fault_up_events;
    std::uint64_t event_fingerprint;
  };
  const Golden goldens[] = {
      {201, 453, 80, 4774, 4774, 733948185611607479ull},
      {202, 453, 79, 4712, 4712, 7881268179795093087ull},
  };

  for (const Golden& g : goldens) {
    FaultPlan plan(g.plan_seed);
    plan.set_domains(fat_tree_subtree_domains(t, 2));
    plan.add_subtree_kill({/*node=*/4, /*at_cycle=*/2, /*duration=*/5});
    plan.set_storm({0.05, 1, 6});

    std::vector<OnlineRoutingResult> results;
    std::vector<std::uint64_t> prints;
    for (const bool parallel : {false, true}) {
      TraceSink trace;
      Rng rng(777);  // engine seed fixed; only the plan seed varies
      OnlineRouterOptions opts;
      opts.parallel = parallel;
      opts.fault_plan = &plan;
      opts.retry.exponential_backoff = true;
      opts.observer = &trace;
      results.push_back(route_online(t, caps, m, rng, opts));
      prints.push_back(event_fingerprint(trace));
    }
    const auto& s = results[0];
    const auto& p = results[1];
    EXPECT_EQ(s.delivery_cycles, p.delivery_cycles);
    EXPECT_EQ(s.delivered_per_cycle, p.delivered_per_cycle);
    EXPECT_EQ(s.subtree_kill_events, p.subtree_kill_events);
    EXPECT_EQ(s.fault_down_events, p.fault_down_events);
    EXPECT_EQ(s.fault_up_events, p.fault_up_events);
    EXPECT_EQ(prints[0], prints[1]);

    EXPECT_FALSE(s.gave_up);
    const auto delivered =
        std::accumulate(s.delivered_per_cycle.begin(),
                        s.delivered_per_cycle.end(), std::uint64_t{0});
    EXPECT_EQ(delivered, m.size());

    EXPECT_EQ(s.delivery_cycles, g.delivery_cycles)
        << "plan seed " << g.plan_seed;
    EXPECT_EQ(s.subtree_kill_events, g.subtree_kill_events)
        << "plan seed " << g.plan_seed;
    EXPECT_EQ(s.fault_down_events, g.fault_down_events)
        << "plan seed " << g.plan_seed;
    EXPECT_EQ(s.fault_up_events, g.fault_up_events)
        << "plan seed " << g.plan_seed;
    EXPECT_EQ(prints[0], g.event_fingerprint)
        << "plan seed " << g.plan_seed;
  }
}

// FIFO rounds share the lossy engine's cycle frame, fault path included:
// without faults and under a FaultPlan (flaps plus a burst), serial and
// range-parallel runs agree on the traced event stream, the per-level
// carried tallies, the EngineMetrics report and every fault counter.
TEST(EngineParity, FifoTraceSerialEqualsParallel) {
  const auto net = build_hypercube(6);
  Rng traffic(81);
  const auto m = random_permutation_traffic(64, traffic);
  const auto routes = route_all_bfs(net, m);

  FaultPlan plan(82);
  plan.set_flaps({0.05, 0.3});
  plan.add_burst({/*at_cycle=*/2, /*duration=*/3, /*count=*/8});

  const FaultPlan* const inputs[] = {nullptr, &plan};
  for (const FaultPlan* faults : inputs) {
    const std::string input = faults != nullptr ? "faulted" : "fault-free";
    std::vector<StoreForwardResult> results;
    std::vector<std::vector<MessageEvent>> streams;
    std::vector<std::uint64_t> trace_fps;
    std::vector<std::string> metrics_json;
    for (const bool parallel : {false, true}) {
      TraceSink trace;
      EngineMetrics metrics;
      ChannelStateInvariants invariants;
      ObserverFanout fanout;
      fanout.add(&trace);
      fanout.add(&metrics);
      fanout.add(&invariants);
      StoreForwardOptions opts;
      opts.parallel = parallel;
      opts.observer = &fanout;
      opts.fault_plan = faults;
      const auto r = simulate_store_forward(net, routes, opts);

      std::uint64_t hops = 0;
      for (const MessageEvent& e : trace.message_events()) {
        if (e.kind == MessageEventKind::Hop) ++hops;
      }
      EXPECT_EQ(hops, r.total_hops) << input;
      expect_invariants_hold(
          invariants, input + (parallel ? " parallel" : " serial"));
      results.push_back(r);
      streams.push_back(trace.message_events());
      trace_fps.push_back(trace_fingerprint(trace));
      metrics_json.push_back(metrics.to_json().dump(0));
    }
    const auto& s = results[0];
    const auto& p = results[1];
    EXPECT_EQ(s.rounds, p.rounds) << input;
    EXPECT_EQ(s.delivered, p.delivered) << input;
    EXPECT_EQ(s.fault_down_events, p.fault_down_events) << input;
    EXPECT_EQ(s.fault_up_events, p.fault_up_events) << input;
    EXPECT_EQ(streams[0], streams[1]) << input;
    EXPECT_EQ(trace_fps[0], trace_fps[1]) << input;
    EXPECT_EQ(metrics_json[0], metrics_json[1]) << input;
    EXPECT_FALSE(s.gave_up) << input;
    EXPECT_EQ(s.delivered, m.size()) << input;
    // The faulted input is not degenerate: faults struck mid-run.
    if (faults != nullptr) {
      EXPECT_GT(s.fault_down_events, 0u);
    }
  }
}

// A store-and-forward path naming a channel the graph lacks is rejected
// before round 1, instead of indexing past the per-channel queues.
TEST(EngineDeathTest, FifoRejectsUnknownChannel) {
  PathSet paths;  // one path: 0 -> 5
  paths.push_channel(0);
  paths.push_channel(5);
  paths.close_path();
  EXPECT_DEATH(store_forward_rounds(ChannelGraph::flat({1, 1}), paths),
               "path uses an unknown channel");
}

// Only the address codec routes a message, and only the tree tag defines
// it and the shard partition, so the engine rejects every untagged graph
// at construction, under both policies, serial or parallel: a flat graph,
// one that carries a shard count, and a sharded fat-tree graph with its
// tag cleared.
TEST(EngineDeathTest, UntaggedGraphIsRejected) {
  FatTreeTopology t(64);
  ChannelGraph sharded_flat = ChannelGraph::flat({1, 1, 1, 1});
  sharded_flat.num_shards = 2;
  ChannelGraph cleared =
      fat_tree_channel_graph(t, CapacityProfile::universal(t, 16), 2);
  cleared.tree_height = 0;
  const ChannelGraph graphs[] = {ChannelGraph::flat({1, 1}), sharded_flat,
                                 cleared};
  for (const ChannelGraph& g : graphs) {
    for (const ContentionPolicy contention :
         {ContentionPolicy::RandomSubset, ContentionPolicy::Tally}) {
      for (const bool parallel : {false, true}) {
        EngineOptions opts;
        opts.contention = contention;
        opts.parallel = parallel;
        opts.threads = 2;
        EXPECT_DEATH({ CycleEngine engine(g, opts); },
                     "the engine needs a tree-tagged channel graph")
            << "shards " << g.num_shards << " contention "
            << static_cast<int>(contention) << " parallel " << parallel;
      }
    }
  }
}

// RandomSubset admits floor(alpha * capacity) per channel, so alpha must
// lie in (0, 1]: above 1 a channel would admit more than its wires, and a
// huge alpha would overflow the limit's conversion to an integer. Both
// policies reject it at construction, with one message.
TEST(EngineDeathTest, AlphaOutsideUnitIntervalIsRejected) {
  FatTreeTopology t(4);
  const ChannelGraph graph =
      fat_tree_channel_graph(t, CapacityProfile::constant(t, 4));
  for (const double alpha : {0.0, -0.5, 2.0,
                             std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()}) {
    for (const ContentionPolicy contention :
         {ContentionPolicy::RandomSubset, ContentionPolicy::Tally}) {
      EngineOptions opts;
      opts.alpha = alpha;
      opts.contention = contention;
      EXPECT_DEATH({ CycleEngine engine(graph, opts); }, "alpha must be in")
          << "alpha " << alpha;
    }
  }
}

}  // namespace
}  // namespace ft
