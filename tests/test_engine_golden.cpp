// Golden determinism tests for the unified delivery-cycle engine: exact
// per-seed EngineResult values (cycles, delivered, losses, attempts, hop
// counts, and an FNV-1a hash of delivered_per_cycle) pinned for a handful
// of (topology, policy, seed) configurations. The constants below were
// recorded from the pre-worklist engine (commit ebad4b0; the
// routing-policy rows from the engine that still folded adaptive hot
// streaks once per cycle), so any engine refactor that claims to be
// bit-identical — not merely distribution-preserving — must keep every
// one of these green.
//
// To re-record after an *intentional* behavior change, run this binary
// with FT_GOLDEN_PRINT=1 and paste the printed rows over the tables.
#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <iostream>
#include <iterator>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "core/capacity.hpp"
#include "core/offline_scheduler.hpp"
#include "core/online_router.hpp"
#include "core/replay.hpp"
#include "core/topology.hpp"
#include "core/traffic.hpp"
#include "engine/engine.hpp"
#include "engine/fat_tree_model.hpp"
#include "engine/fault_plan.hpp"
#include "engine/observer_fanout.hpp"
#include "kary/kary_sim.hpp"
#include "nets/builders.hpp"
#include "nets/routing.hpp"
#include "nets/store_forward.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ft {
namespace {

bool print_mode() { return std::getenv("FT_GOLDEN_PRINT") != nullptr; }

/// FNV-1a over the little-endian bytes of a uint32 vector: a stable
/// fingerprint of the per-cycle delivery profile.
std::uint64_t fnv1a(const std::vector<std::uint32_t>& v) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const std::uint32_t x : v) {
    for (int b = 0; b < 4; ++b) {
      h ^= (x >> (8 * b)) & 0xffu;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

/// Sums the per-channel carried counts over all cycles: the number of
/// successful channel traversals, which EngineResult::total_hops reports.
class CarriedSummer final : public EngineObserver {
 public:
  void on_cycle(const CycleSnapshot& s) override {
    if (s.loads != nullptr) {
      for (const ChannelLoad& l : *s.loads) sum_ += l.carried;
    }
  }
  std::uint64_t sum() const { return sum_; }

 private:
  std::uint64_t sum_ = 0;
};

// ---------------------------------------------------------------------------
// Lossy (RandomSubset) arbitration, driven directly through the engine.

struct LossyGolden {
  std::uint64_t seed;
  double alpha;
  std::uint32_t cycles;
  std::uint64_t delivered;
  std::uint64_t attempts;
  std::uint64_t losses;
  std::uint64_t hops;  ///< successful channel traversals (sum of carried)
  std::uint64_t dpc_hash;
};

constexpr LossyGolden kLossyGolden[] = {
    {1, 1.0, 12, 512, 2830, 2319, 9185, 9416255908271736541ULL},
    {2, 1.0, 13, 512, 2851, 2340, 9034, 17532918026386496563ULL},
    {3, 1.0, 12, 512, 2714, 2203, 8943, 14713001954155442791ULL},
    {7, 0.75, 22, 512, 4512, 4001, 10013, 1030322477785156329ULL},
};

TEST(EngineGolden, LossyRandomSubset) {
  const std::uint32_t n = 128;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::universal(t, 32);
  Rng gen(9);
  const std::vector<MessageSet> sets{stacked_permutations(n, 4, gen)};
  const auto graph = fat_tree_channel_graph(t, caps);

  for (const LossyGolden& g : kLossyGolden) {
    EngineOptions opts;
    opts.contention = ContentionPolicy::RandomSubset;
    opts.alpha = g.alpha;
    opts.seed = g.seed;
    CycleEngine engine(graph, opts);
    CarriedSummer hops;
    MessageSetPairs pairs(sets);
    const EngineResult r = engine.run_stream(pairs, &hops);
    if (print_mode()) {
      std::cout << "GOLDEN lossy {" << g.seed << ", " << g.alpha << ", "
                << r.cycles << ", " << r.delivered << ", "
                << r.total_attempts << ", " << r.total_losses << ", "
                << hops.sum() << ", " << fnv1a(r.delivered_per_cycle)
                << "ULL},\n";
      continue;
    }
    EXPECT_EQ(r.cycles, g.cycles) << "seed=" << g.seed;
    EXPECT_EQ(r.delivered, g.delivered) << "seed=" << g.seed;
    EXPECT_EQ(r.total_attempts, g.attempts) << "seed=" << g.seed;
    EXPECT_EQ(r.total_losses, g.losses) << "seed=" << g.seed;
    EXPECT_EQ(hops.sum(), g.hops) << "seed=" << g.seed;
    EXPECT_EQ(r.total_hops, g.hops) << "seed=" << g.seed;
    EXPECT_EQ(fnv1a(r.delivered_per_cycle), g.dpc_hash) << "seed=" << g.seed;
    EXPECT_FALSE(r.gave_up);
  }
}

// A run that exhausts max_cycles must be deterministic too: the partial
// delivery profile and the gave_up flag are part of the pinned contract.
TEST(EngineGolden, LossyGiveUp) {
  const std::uint32_t n = 64;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::constant(t, 1);
  Rng gen(13);
  const std::vector<MessageSet> sets{stacked_permutations(n, 6, gen)};

  EngineOptions opts;
  opts.contention = ContentionPolicy::RandomSubset;
  opts.seed = 5;
  opts.max_cycles = 4;
  CycleEngine engine(fat_tree_channel_graph(t, caps), opts);
  MessageSetPairs pairs(sets);
  const EngineResult r = engine.run_stream(pairs);
  if (print_mode()) {
    std::cout << "GOLDEN giveup delivered=" << r.delivered
              << " losses=" << r.total_losses
              << " hash=" << fnv1a(r.delivered_per_cycle) << "ULL\n";
    return;
  }
  EXPECT_TRUE(r.gave_up);
  EXPECT_EQ(r.cycles, 4u);
  EXPECT_EQ(r.delivered, 40u);
  EXPECT_EQ(r.total_losses, 1415u);
  EXPECT_EQ(fnv1a(r.delivered_per_cycle), 6680217803996358699ULL);
}

// ---------------------------------------------------------------------------
// The online-routing frontend end to end (adapter + self-message handling).

TEST(EngineGolden, OnlineRouting) {
  const std::uint32_t n = 64;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::universal(t, 16);
  Rng gen(7);
  auto m = stacked_permutations(n, 3, gen);
  m.push_back({5, 5});  // a local message rides along

  Rng rng(101);
  const auto r = route_online(t, caps, m, rng);
  if (print_mode()) {
    std::cout << "GOLDEN online cycles=" << r.delivery_cycles
              << " attempts=" << r.total_attempts
              << " losses=" << r.total_losses
              << " hash=" << fnv1a(r.delivered_per_cycle) << "ULL\n";
    return;
  }
  EXPECT_FALSE(r.gave_up);
  EXPECT_EQ(r.delivery_cycles, 9u);
  EXPECT_EQ(r.total_attempts, 797u);
  EXPECT_EQ(r.total_losses, 608u);
  EXPECT_EQ(fnv1a(r.delivered_per_cycle), 11967730147615725460ULL);
  const auto delivered =
      std::accumulate(r.delivered_per_cycle.begin(),
                      r.delivered_per_cycle.end(), std::uint64_t{0});
  EXPECT_EQ(delivered, m.size());
}

// ---------------------------------------------------------------------------
// The routing-policy seam: the three non-default disciplines on a
// persistent hotspot. The serial and the sharded executor must both land
// on the row, so a change that moves both together still shows.

struct PolicyGolden {
  RoutingPolicy policy;
  const char* label;
  std::uint64_t cycles;
  std::uint64_t attempts;
  std::uint64_t losses;
  std::uint64_t backoffs;
  std::uint64_t dpc_hash;
};

constexpr PolicyGolden kPolicyGolden[] = {
    {RoutingPolicy::DeterministicDmod, "dmod", 162, 340155, 335932, 0,
     17442982182293381263ULL},
    {RoutingPolicy::RandomLoadBalanced, "rlb", 163, 397951, 393728, 0,
     6833353631778256309ULL},
    {RoutingPolicy::AdaptiveOccupancy, "adaptive", 139, 48212, 43989, 18221,
     3418642282142993863ULL},
};

TEST(EngineGolden, RoutingPolicies) {
  const std::uint32_t n = 1024;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::universal(t, n / 16);
  Rng gen(31);
  const auto m = persistent_hotspot_traffic(n, n / 3, n / 8, 4 * n, gen);

  for (const PolicyGolden& g : kPolicyGolden) {
    for (const bool parallel : {false, true}) {
      OnlineRouterOptions opts;
      opts.policy = g.policy;
      opts.parallel = parallel;
      opts.threads = 4;
      Rng rng(32);
      const auto r = route_online(t, caps, m, rng, opts);
      const std::string at =
          std::string(g.label) + (parallel ? " sharded" : " serial");
      if (print_mode()) {
        std::cout << "GOLDEN policy " << at << " {" << r.delivery_cycles
                  << ", " << r.total_attempts << ", " << r.total_losses
                  << ", " << r.total_backoffs << ", "
                  << fnv1a(r.delivered_per_cycle) << "ULL},\n";
        continue;
      }
      EXPECT_FALSE(r.gave_up) << at;
      EXPECT_EQ(r.delivery_cycles, g.cycles) << at;
      EXPECT_EQ(r.total_attempts, g.attempts) << at;
      EXPECT_EQ(r.total_losses, g.losses) << at;
      EXPECT_EQ(r.total_backoffs, g.backoffs) << at;
      EXPECT_EQ(fnv1a(r.delivered_per_cycle), g.dpc_hash) << at;
    }
  }
}

// Congestion feedback acts on the channels in the wire budget
// (ChannelGraph::in_budget), which on a fat-tree graph are every tree
// channel a message can lose at: 64 messages from leaf 0 to leaf 1 of a
// two-leaf tree of single-wire channels contend for leaf 0's up channel,
// and its losers are parked.
TEST(EngineGolden, AdaptiveIgnoresOutOfBudgetChannels) {
  FatTreeTopology t(2);
  const std::vector<MessageSet> sets{MessageSet(64, Message{0, 1})};
  EngineOptions opts;
  opts.policy = RoutingPolicy::AdaptiveOccupancy;
  opts.seed = 5;
  CycleEngine engine(
      fat_tree_channel_graph(t, CapacityProfile::constant(t, 1)), opts);
  MessageSetPairs pairs(sets);
  const EngineResult r = engine.run_stream(pairs);
  if (print_mode()) {
    std::cout << "GOLDEN in-budget {" << r.cycles << ", " << r.total_attempts
              << ", " << r.total_losses << ", " << r.total_backoffs << "}\n";
    return;
  }
  EXPECT_FALSE(r.gave_up);
  EXPECT_EQ(r.delivered, sets[0].size());
  EXPECT_EQ(r.cycles, 84u);
  EXPECT_EQ(r.total_attempts, 1450u);
  EXPECT_EQ(r.total_losses, 1386u);
  EXPECT_EQ(r.total_backoffs, 650u);
}

// ---------------------------------------------------------------------------
// Codec cases: the golden workloads and a 4096-leaf stacked permutation
// under every lossy policy and tally, with and without faults and retry.
// Each row fingerprints every EngineResult field and the traced event
// stream of one run. The all-at-once rows were recorded from the CSR
// hop-buffer codec (the engine's reference for untagged graphs, since
// deleted), which the address codec matched bit for bit at the time; the
// batched rows were recorded from the deleted run_batched on compiled
// paths, each workload split into three batches injected at cycles 1, 2
// and 3. Both now hold for the same messages as leaf pairs: run_stream
// and run_batched_stream on the serial and the pooled-sharded executor
// must reproduce every row.

/// FNV-1a over 64-bit words: every EngineResult field of a run without
/// phase timing, then every traced event in order. The two zero words
/// stand where the rows were recorded with the engine's store-and-forward
/// fields (latency sum and peak queue), which a lossy or tally run left
/// at zero.
std::uint64_t run_fingerprint(const EngineResult& r, const TraceSink& trace) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ULL; };
  for (const std::uint64_t v :
       {r.cycles, std::uint64_t{r.gave_up}, r.delivered, r.total_attempts,
        r.total_losses, r.total_hops, std::uint64_t{0}, std::uint64_t{0},
        r.messages_given_up, r.total_backoffs,
        r.fault_down_events, r.fault_up_events, r.subtree_kill_events,
        r.degraded_channel_cycles}) {
    mix(v);
  }
  for (const std::uint32_t d : r.delivered_per_cycle) mix(d);
  for (const MessageEvent& e : trace.message_events()) {
    mix(static_cast<std::uint64_t>(e.kind));
    mix(e.message);
    mix(e.cycle);
    mix(e.channel);
  }
  return h;
}

struct CodecGolden {
  const char* workload;
  const char* mode;
  bool faulted;
  std::uint64_t fingerprint;
};

constexpr CodecGolden kCodecGolden[] = {
    {"golden-lossy", "oblivious", false, 0xe1855d275ecec66aULL},
    {"golden-lossy", "oblivious", true, 0xaa269eb15ada94ecULL},
    {"golden-lossy", "dmod", false, 0xeefacf1d83d3716aULL},
    {"golden-lossy", "dmod", true, 0x634be9c930ad7faULL},
    {"golden-lossy", "rlb", false, 0x9d8137f902a49233ULL},
    {"golden-lossy", "rlb", true, 0x1e8f8820382912efULL},
    {"golden-lossy", "adaptive", false, 0xe3f1dff737e2a8eaULL},
    {"golden-lossy", "adaptive", true, 0xaa269eb15ada94ecULL},
    {"golden-lossy", "tally", false, 0xf51d74539dea682dULL},
    {"golden-lossy", "tally", true, 0x144e3c5e98a46eb1ULL},
    {"golden-giveup", "oblivious", false, 0xe7e194174f352defULL},
    {"golden-giveup", "oblivious", true, 0x3b407068fdf41323ULL},
    {"golden-giveup", "dmod", false, 0xa75aa844a044dae0ULL},
    {"golden-giveup", "dmod", true, 0xb310562fa095ff01ULL},
    {"golden-giveup", "rlb", false, 0xa75aa844a044dae0ULL},
    {"golden-giveup", "rlb", true, 0xb310562fa095ff01ULL},
    {"golden-giveup", "adaptive", false, 0x96338a6545a6ea67ULL},
    {"golden-giveup", "adaptive", true, 0x3b407068fdf41323ULL},
    {"golden-giveup", "tally", false, 0xd44c6a9e315b3a63ULL},
    {"golden-giveup", "tally", true, 0x34b62e8a202df328ULL},
    {"golden-online", "oblivious", false, 0xc3731b9458dd815bULL},
    {"golden-online", "oblivious", true, 0x5f9a0f5329003558ULL},
    {"golden-online", "dmod", false, 0x9c50c76b14e4712dULL},
    {"golden-online", "dmod", true, 0x73a87469a870f929ULL},
    {"golden-online", "rlb", false, 0xab176706525fe6afULL},
    {"golden-online", "rlb", true, 0x213cbfb12e2d24f8ULL},
    {"golden-online", "adaptive", false, 0xa594ec164920ca1fULL},
    {"golden-online", "adaptive", true, 0x5f9a0f5329003558ULL},
    {"golden-online", "tally", false, 0x9225e4ec8b62d5edULL},
    {"golden-online", "tally", true, 0x9b8a710e5d4bf20fULL},
    {"golden-policies", "oblivious", false, 0xacd2d7c2277124b4ULL},
    {"golden-policies", "oblivious", true, 0x2803f04a4a35eae6ULL},
    {"golden-policies", "dmod", false, 0x8c9e9237007ddcccULL},
    {"golden-policies", "dmod", true, 0x49c811034cc91705ULL},
    {"golden-policies", "rlb", false, 0x5c6be11b19dcf35dULL},
    {"golden-policies", "rlb", true, 0xc7786b4ef40fc4a1ULL},
    {"golden-policies", "adaptive", false, 0x6716229e88ec40a6ULL},
    {"golden-policies", "adaptive", true, 0x2803f04a4a35eae6ULL},
    {"golden-policies", "tally", false, 0xcb0702f14b4f512cULL},
    {"golden-policies", "tally", true, 0x38649e5c3a02bbd7ULL},
    {"stacked-4096", "oblivious", false, 0xb3b3feb7f2fc29c7ULL},
    {"stacked-4096", "oblivious", true, 0xe5f86c5a68f1c886ULL},
    {"stacked-4096", "dmod", false, 0xfa86e6b903985778ULL},
    {"stacked-4096", "dmod", true, 0x561b75e27e78ad35ULL},
    {"stacked-4096", "rlb", false, 0x589b1be6015d0585ULL},
    {"stacked-4096", "rlb", true, 0x860c05ee8596fe4aULL},
    {"stacked-4096", "adaptive", false, 0xab1e5c7018f76364ULL},
    {"stacked-4096", "adaptive", true, 0xe5f86c5a68f1c886ULL},
    {"stacked-4096", "tally", false, 0xab596a1435f37da0ULL},
    {"stacked-4096", "tally", true, 0x230448c4ed00b536ULL},
};

constexpr CodecGolden kCodecBatchedGolden[] = {
    {"golden-lossy", "oblivious", false, 0x268064a2c24ca351ULL},
    {"golden-lossy", "oblivious", true, 0x225adf5a4d6523b5ULL},
    {"golden-lossy", "dmod", false, 0x9dde1fa1ee916a16ULL},
    {"golden-lossy", "dmod", true, 0xea69043216192306ULL},
    {"golden-lossy", "rlb", false, 0xe48fe42f237dc6edULL},
    {"golden-lossy", "rlb", true, 0xfd7d590cd152a735ULL},
    {"golden-lossy", "adaptive", false, 0x1977641fd0b178ecULL},
    {"golden-lossy", "adaptive", true, 0x5c62ffdb29ce82abULL},
    {"golden-lossy", "tally", false, 0xbffd62d8c79d21d7ULL},
    {"golden-lossy", "tally", true, 0xc8dba201bad25ce5ULL},
    {"golden-giveup", "oblivious", false, 0x769151941ddc1066ULL},
    {"golden-giveup", "oblivious", true, 0x549c187caba11bbfULL},
    {"golden-giveup", "dmod", false, 0x4c9c6836cc0163b5ULL},
    {"golden-giveup", "dmod", true, 0x909851539dc245a7ULL},
    {"golden-giveup", "rlb", false, 0x4c9c6836cc0163b5ULL},
    {"golden-giveup", "rlb", true, 0x909851539dc245a7ULL},
    {"golden-giveup", "adaptive", false, 0x60a859aff8f5af97ULL},
    {"golden-giveup", "adaptive", true, 0xaa275c445b669807ULL},
    {"golden-giveup", "tally", false, 0x7b88d2e4d654b90cULL},
    {"golden-giveup", "tally", true, 0x35eda210e4f505c0ULL},
    {"golden-online", "oblivious", false, 0xb109619b28281f08ULL},
    {"golden-online", "oblivious", true, 0xd32991cfaa1f156dULL},
    {"golden-online", "dmod", false, 0x473af12a9bc04751ULL},
    {"golden-online", "dmod", true, 0x6acfa72f02152b19ULL},
    {"golden-online", "rlb", false, 0xef66ea475c7a48b8ULL},
    {"golden-online", "rlb", true, 0x42f9dce4522c3a7ULL},
    {"golden-online", "adaptive", false, 0x706a5854e8807d67ULL},
    {"golden-online", "adaptive", true, 0x2d168d7d17696103ULL},
    {"golden-online", "tally", false, 0x60af9d4aaa47322fULL},
    {"golden-online", "tally", true, 0xb3cc980e2779d6b8ULL},
    {"golden-policies", "oblivious", false, 0xd6155d3385093fa6ULL},
    {"golden-policies", "oblivious", true, 0x65ec5e32a3a205ceULL},
    {"golden-policies", "dmod", false, 0xc43735681adc08b8ULL},
    {"golden-policies", "dmod", true, 0xb4fce2d03a84383cULL},
    {"golden-policies", "rlb", false, 0xd506942497222498ULL},
    {"golden-policies", "rlb", true, 0xf96c4aa0f8eadc1aULL},
    {"golden-policies", "adaptive", false, 0xf8b0e8ab8cd57bc4ULL},
    {"golden-policies", "adaptive", true, 0xaada4d6fe6ffb98cULL},
    {"golden-policies", "tally", false, 0xa75f2243d69ec4a5ULL},
    {"golden-policies", "tally", true, 0x49cc685f39cd82edULL},
    {"stacked-4096", "oblivious", false, 0x7a0c361deb739660ULL},
    {"stacked-4096", "oblivious", true, 0xcfbdc506a1f64eb6ULL},
    {"stacked-4096", "dmod", false, 0x22a1925a7e773b48ULL},
    {"stacked-4096", "dmod", true, 0x2c92256a2ad08090ULL},
    {"stacked-4096", "rlb", false, 0x193cd6d514046accULL},
    {"stacked-4096", "rlb", true, 0x529395b2e7924ebfULL},
    {"stacked-4096", "adaptive", false, 0x359df26dd9fb7acbULL},
    {"stacked-4096", "adaptive", true, 0x4d906291371fe8e2ULL},
    {"stacked-4096", "tally", false, 0xdbcdf1219b57631bULL},
    {"stacked-4096", "tally", true, 0x3cd5cea401141308ULL},
};

TEST(EngineGolden, CodecCasesMatchCsrReference) {
  Rng gen(61);
  const struct {
    const char* name;
    std::uint32_t n;
    std::uint64_t w;  ///< universal(w); 0 = constant(1)
    MessageSet m;
    std::uint32_t max_cycles;
  } cases[] = {
      {"golden-lossy", 128, 32, stacked_permutations(128, 4, gen), 0},
      {"golden-giveup", 64, 0, stacked_permutations(64, 6, gen), 4},
      {"golden-online", 64, 16, stacked_permutations(64, 3, gen), 0},
      {"golden-policies", 1024, 64,
       persistent_hotspot_traffic(1024, 341, 128, 4096, gen), 0},
      {"stacked-4096", 4096, 256, stacked_permutations(4096, 2, gen), 0},
  };
  struct Mode {
    ContentionPolicy contention;
    RoutingPolicy policy;
    const char* name;
  };
  std::vector<Mode> modes;
  for (const RoutingPolicyName& pol : kRoutingPolicies) {
    modes.push_back({ContentionPolicy::RandomSubset, pol.policy, pol.name});
  }
  modes.push_back(
      {ContentionPolicy::Tally, RoutingPolicy::ObliviousRandom, "tally"});
  // The two input shapes: the whole set at cycle 1, or its thirds at
  // cycles 1, 2 and 3. Each walks its own table.
  static_assert(std::size(kCodecBatchedGolden) == std::size(kCodecGolden));
  const CodecGolden* const tables[] = {kCodecGolden, kCodecBatchedGolden};
  std::size_t next_row[] = {0, 0};
  std::string printed[2];
  std::uint64_t backoffs = 0;
  std::uint64_t given_up = 0;
  for (const auto& c : cases) {
    FatTreeTopology topo(c.n);
    const CapacityProfile caps = c.w == 0
                                     ? CapacityProfile::constant(topo, 1)
                                     : CapacityProfile::universal(topo, c.w);
    const std::vector<MessageSet> all{c.m};
    std::vector<MessageSet> thirds;
    for (std::size_t k = 0; k < 3; ++k) {
      thirds.emplace_back(c.m.begin() + k * c.m.size() / 3,
                          c.m.begin() + (k + 1) * c.m.size() / 3);
    }
    FaultPlan plan(77);
    plan.set_flaps({0.02, 0.3});
    plan.set_domains(fat_tree_subtree_domains(topo, 2));
    plan.add_subtree_kill({/*node=*/5, /*at_cycle=*/2, /*duration=*/3});
    for (const Mode& mode : modes) {
      for (const bool faulted : {false, true}) {
        EngineOptions opts;
        opts.seed = 4242;
        opts.contention = mode.contention;
        opts.policy = mode.policy;
        opts.max_cycles = c.max_cycles;
        opts.threads = 4;
        if (faulted) {
          opts.fault_plan = &plan;
          opts.retry.exponential_backoff = true;
          opts.retry.deadline_cycles = 24;
        }
        for (const bool batched : {false, true}) {
          for (const bool pooled : {false, true}) {
            opts.parallel = pooled;
            CycleEngine engine(
                fat_tree_channel_graph(topo, caps, pooled ? 2 : 0), opts);
            TraceSink trace;
            MessageSetPairs pairs(batched ? thirds : all);
            const EngineResult r =
                batched ? engine.run_batched_stream(pairs, &trace)
                        : engine.run_stream(pairs, &trace);
            const std::uint64_t fp = run_fingerprint(r, trace);
            if (print_mode()) {
              if (!pooled) {
                std::ostringstream line;
                line << "    {\"" << c.name << "\", \"" << mode.name
                     << "\", " << (faulted ? "true" : "false") << ", 0x"
                     << std::hex << fp << "ULL},\n";
                printed[batched] += line.str();
              }
              continue;
            }
            const std::string at = std::string(c.name) + " " + mode.name +
                                   (faulted ? " faulted" : "") +
                                   (batched ? " batched" : "") +
                                   (pooled ? " pooled" : " serial");
            ASSERT_LT(next_row[batched], std::size(kCodecGolden)) << at;
            const CodecGolden& row = tables[batched][next_row[batched]];
            EXPECT_STREQ(row.workload, c.name) << at;
            EXPECT_STREQ(row.mode, mode.name) << at;
            EXPECT_EQ(row.faulted, faulted) << at;
            EXPECT_EQ(fp, row.fingerprint) << at;
            backoffs += r.total_backoffs;
            given_up += r.messages_given_up;
          }
          ++next_row[batched];
        }
      }
    }
  }
  if (print_mode()) {
    std::cout << "kCodecGolden:\n"
              << printed[0] << "kCodecBatchedGolden:\n"
              << printed[1];
    return;
  }
  EXPECT_EQ(next_row[0], std::size(kCodecGolden));
  EXPECT_EQ(next_row[1], std::size(kCodecBatchedGolden));
  // The retry machinery ran: messages backed off and deadlines expired.
  EXPECT_GT(backoffs, 0u);
  EXPECT_GT(given_up, 0u);
}

// ---------------------------------------------------------------------------
// Tally-mode offline replay: a valid schedule replays exactly.

TEST(EngineGolden, TallyReplay) {
  const std::uint32_t n = 64;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::universal(t, 16);
  Rng gen(41);
  const auto m = stacked_permutations(n, 3, gen);
  const auto schedule = schedule_offline(t, caps, m);
  ASSERT_TRUE(verify_schedule(t, caps, m, schedule));

  const auto r = replay_schedule(t, caps, schedule);
  std::vector<std::uint32_t> dpc(r.delivered_per_cycle.begin(),
                                 r.delivered_per_cycle.end());
  if (print_mode()) {
    std::cout << "GOLDEN replay cycles=" << r.cycles
              << " hash=" << fnv1a(dpc) << "ULL\n";
    return;
  }
  EXPECT_EQ(r.cycles, schedule.num_cycles());
  EXPECT_EQ(r.cycles, 18u);
  EXPECT_EQ(r.delivered, m.size());
  EXPECT_EQ(r.capacity_violations, 0u);
  EXPECT_EQ(fnv1a(dpc), 15442268163853219301ULL);
}

// ---------------------------------------------------------------------------
// FIFO store-and-forward rounds on a competitor network and a k-ary tree.

TEST(EngineGolden, FifoStoreForward) {
  const auto net = build_hypercube(6);
  Rng traffic(22);
  const auto m = random_permutation_traffic(64, traffic);
  const auto routes = route_all_bfs(net, m);
  std::uint64_t route_hops = 0;
  for (const auto& r : routes) route_hops += r.size();

  const auto r = simulate_store_forward(net, routes);
  if (print_mode()) {
    std::cout << "GOLDEN fifo rounds=" << r.rounds << " hops=" << r.total_hops
              << " max_queue=" << r.max_queue << "\n";
    return;
  }
  EXPECT_EQ(r.rounds, 8u);
  EXPECT_EQ(r.total_hops, route_hops);
  EXPECT_EQ(r.total_hops, 194u);
  EXPECT_EQ(r.max_queue, 2u);
}

TEST(EngineGolden, FifoKary) {
  KaryTree tree(4, 3);  // 64 processors
  Rng perm_rng(31);
  std::vector<std::uint32_t> perm(tree.num_processors());
  std::iota(perm.begin(), perm.end(), 0u);
  perm_rng.shuffle(perm);

  Rng rng(33);
  const auto r = simulate_kary_permutation(tree, perm, AscentPolicy::Random, rng);
  if (print_mode()) {
    std::cout << "GOLDEN kary rounds=" << r.rounds
              << " max_load=" << r.max_link_load
              << " max_hops=" << r.max_route_hops << "\n";
    return;
  }
  EXPECT_EQ(r.rounds, 9u);
  EXPECT_EQ(r.max_link_load, 4u);
  EXPECT_EQ(r.max_route_hops, 6u);
}

/// FNV-1a over 64-bit words: a FIFO run's result fields (given), then its
/// traced event stream, then the bytes of its EngineMetrics report.
std::uint64_t fifo_fingerprint(std::initializer_list<std::uint64_t> fields,
                               const TraceSink& trace,
                               const EngineMetrics& metrics) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ULL; };
  for (const std::uint64_t v : fields) mix(v);
  for (const MessageEvent& e : trace.message_events()) {
    mix(static_cast<std::uint64_t>(e.kind));
    mix(e.message);
    mix(e.cycle);
    mix(e.channel);
  }
  for (const char c : metrics.to_json().dump(0)) {
    mix(static_cast<unsigned char>(c));
  }
  return h;
}

struct FifoGolden {
  const char* network;
  bool pooled;
  bool faulted;
  std::uint64_t fingerprint;
};

constexpr FifoGolden kFifoGolden[] = {
    {"hypercube6", false, false, 0x70ee7fdabcf406e3ULL},
    {"hypercube6", false, true, 0x20782e25d34314c5ULL},
    {"hypercube6", true, false, 0x70ee7fdabcf406e3ULL},
    {"hypercube6", true, true, 0x20782e25d34314c5ULL},
    {"kary4x3", false, false, 0x232e721bb602cf2eULL},
    {"kary4x3", false, true, 0xf81377254332adf4ULL},
    {"kary4x3", true, false, 0x232e721bb602cf2eULL},
    {"kary4x3", true, true, 0xf81377254332adf4ULL},
};

// The FifoStoreForward and FifoKary runs through their public entry
// points, serial and range-parallel on 4 threads, fault-free and under
// FifoTraceSerialEqualsParallel's plan (flaps plus a burst). Each row
// fingerprints every result field (the mean latency's bits included; the
// k-ary gave_up flag is checked on its own), the traced event stream and
// the EngineMetrics report.
TEST(EngineGolden, FifoRunsMatchPinnedFingerprints) {
  const auto net = build_hypercube(6);
  Rng traffic(22);
  const auto routes =
      route_all_bfs(net, random_permutation_traffic(64, traffic));
  KaryTree tree(4, 3);  // 64 processors
  Rng perm_rng(31);
  std::vector<std::uint32_t> perm(tree.num_processors());
  std::iota(perm.begin(), perm.end(), 0u);
  perm_rng.shuffle(perm);
  FaultPlan plan(82);
  plan.set_flaps({0.05, 0.3});
  plan.add_burst({/*at_cycle=*/2, /*duration=*/3, /*count=*/8});

  for (const FifoGolden& g : kFifoGolden) {
    TraceSink trace;
    EngineMetrics metrics;
    ObserverFanout fanout;
    fanout.add(&trace);
    fanout.add(&metrics);
    const bool kary = std::string(g.network) == "kary4x3";
    std::uint64_t fp = 0;
    if (kary) {
      StoreForwardOptions opts;
      opts.parallel = g.pooled;
      opts.threads = 4;
      opts.observer = &fanout;
      opts.fault_plan = g.faulted ? &plan : nullptr;
      Rng rng(33);
      const auto r = simulate_kary_permutation(tree, perm,
                                               AscentPolicy::Random, rng, opts);
      EXPECT_FALSE(r.gave_up);
      fp = fifo_fingerprint(
          {r.rounds, r.delivered, r.max_link_load,
           std::bit_cast<std::uint64_t>(r.mean_link_load),
           std::uint64_t{r.max_route_hops}, r.fault_down_events,
           r.fault_up_events, r.subtree_kill_events},
          trace, metrics);
    } else {
      StoreForwardOptions opts;
      opts.parallel = g.pooled;
      opts.threads = 4;
      opts.observer = &fanout;
      opts.fault_plan = g.faulted ? &plan : nullptr;
      const auto r = simulate_store_forward(net, routes, opts);
      fp = fifo_fingerprint(
          {r.rounds, r.delivered, r.total_hops,
           std::bit_cast<std::uint64_t>(r.mean_latency),
           std::uint64_t{r.max_queue}, std::uint64_t{r.gave_up},
           r.fault_down_events, r.fault_up_events, r.subtree_kill_events},
          trace, metrics);
    }
    if (print_mode()) {
      std::cout << "    {\"" << g.network << "\", "
                << (g.pooled ? "true" : "false") << ", "
                << (g.faulted ? "true" : "false") << ", 0x" << std::hex << fp
                << std::dec << "ULL},\n";
      continue;
    }
    EXPECT_EQ(fp, g.fingerprint)
        << g.network << (g.pooled ? " pooled" : " serial")
        << (g.faulted ? " faulted" : " fault-free");
  }
}

}  // namespace
}  // namespace ft
