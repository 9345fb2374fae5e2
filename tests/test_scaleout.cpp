// Scale-out regression tests: a run does not depend on how its input is
// chunked (results and trace streams), every message source leaves its
// chunk empty once drained, leaf pairs route as their compiled tree paths,
// the address codec names every hop, stage and shard of those paths, a
// fat-tree channel graph's level profile answers as the per-channel
// builder's tables did, unused channels change nothing, checked narrowing
// aborts at the 32-bit boundary, and the subtree-sharded parallel executor
// matches the serial engine on every workload shape — including faults
// and retry policies. See DESIGN.md "Scale-out". test_engine_golden pins
// the codec's runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/capacity.hpp"
#include "core/faults.hpp"
#include "core/online_router.hpp"
#include "core/topology.hpp"
#include "core/traffic.hpp"
#include "engine/address_codec.hpp"
#include "engine/engine.hpp"
#include "engine/fat_tree_model.hpp"
#include "engine/kary_model.hpp"
#include "engine/network_model.hpp"
#include "kary/kary_routing.hpp"
#include "kary/kary_sim.hpp"
#include "kary/kary_tree.hpp"
#include "nets/builders.hpp"
#include "nets/routing.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace {

using namespace ft;

std::uint64_t event_fingerprint(const TraceSink& trace) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  for (const MessageEvent& e : trace.message_events()) {
    mix(static_cast<std::uint64_t>(e.kind));
    mix(e.message);
    mix(e.cycle);
    mix(e.channel);
  }
  return h;
}

void expect_same_result(const EngineResult& a, const EngineResult& b,
                        const char* label) {
  EXPECT_EQ(a.cycles, b.cycles) << label;
  EXPECT_EQ(a.gave_up, b.gave_up) << label;
  EXPECT_EQ(a.delivered, b.delivered) << label;
  EXPECT_EQ(a.total_attempts, b.total_attempts) << label;
  EXPECT_EQ(a.total_losses, b.total_losses) << label;
  EXPECT_EQ(a.total_hops, b.total_hops) << label;
  EXPECT_EQ(a.latency_sum, b.latency_sum) << label;
  EXPECT_EQ(a.max_queue, b.max_queue) << label;
  EXPECT_EQ(a.messages_given_up, b.messages_given_up) << label;
  EXPECT_EQ(a.total_backoffs, b.total_backoffs) << label;
  EXPECT_EQ(a.delivered_per_cycle, b.delivered_per_cycle) << label;
}

// --- Streaming vs materialized -------------------------------------------

/// The compiled tree paths of a message set, in order: the lossy PathSet
/// input that FatTreePathSource streams, built whole for the tests that
/// slice or edit it.
PathSet tree_paths(const FatTreeTopology& topo, const MessageSet& m) {
  PathSet paths;
  for (const Message& msg : m) {
    append_fat_tree_path(topo, msg.src, msg.dst, paths);
  }
  return paths;
}

// run_stream over chunked slices of a PathSet gives one run whatever the
// chunk size (1, 7 and the default), for every contention policy,
// including the traced event stream.
TEST(Scaleout, StreamedRunMatchesMaterialized) {
  const std::uint32_t n = 128;
  FatTreeTopology topo(n);
  const auto caps = CapacityProfile::universal(topo, 16);
  Rng gen(11);
  const PathSet paths = tree_paths(topo, stacked_permutations(n, 3, gen));

  for (const ContentionPolicy policy :
       {ContentionPolicy::RandomSubset, ContentionPolicy::Fifo,
        ContentionPolicy::Tally}) {
    EngineOptions opts;
    opts.contention = policy;
    opts.seed = 99;
    const auto run_chunked = [&](std::size_t chunk, TraceSink& trace) {
      CycleEngine engine(fat_tree_channel_graph(topo, caps), opts);
      PathSetSource source(paths, chunk);
      return engine.run_stream(source, &trace);
    };

    TraceSink base_trace;
    const EngineResult base = run_chunked(kDefaultChunkPaths, base_trace);
    EXPECT_EQ(base.delivered, paths.size());
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}}) {
      TraceSink trace;
      expect_same_result(base, run_chunked(chunk, trace), "run_stream");
      EXPECT_EQ(event_fingerprint(base_trace), event_fingerprint(trace))
          << "policy " << static_cast<int>(policy) << " chunk " << chunk;
    }
  }
}

// Every source keeps the MessageSource contract: once exhausted,
// next_chunk returns false and leaves the chunk empty, whatever its
// caller left in it. The pair source keeps PairSource's.
TEST(Scaleout, ExhaustedSourcesLeaveTheChunkEmpty) {
  const auto drain = [](MessageSource& source, const char* name) {
    PathSet chunk;
    chunk.push_channel(7);  // a stale path
    chunk.close_path();
    std::size_t chunks = 0;
    while (source.next_chunk(chunk)) ++chunks;
    EXPECT_GT(chunks, 1u) << name;
    EXPECT_TRUE(chunk.empty()) << name;
    EXPECT_EQ(chunk.total_hops(), 0u) << name;
    EXPECT_FALSE(source.next_chunk(chunk)) << name;
  };

  const auto net = build_mesh2d(6, 6);
  Rng rng(5);
  const auto routes = route_all_bfs(
      net, uniform_random_traffic(36, 2 * kDefaultChunkPaths, rng));
  RouteChunkSource route_source(routes);
  drain(route_source, "RouteChunkSource");

  const KaryTree tree(/*k=*/2, /*levels=*/14);
  std::vector<std::uint32_t> perm(tree.num_processors());
  std::iota(perm.begin(), perm.end(), 0u);
  std::reverse(perm.begin(), perm.end());
  Rng kary_rng(6);
  KaryLoadTracker tracker(tree);
  KaryRouteSource kary_source(tree, perm, AscentPolicy::Random, kary_rng,
                              tracker);
  drain(kary_source, "KaryRouteSource");

  const FatTreeTopology topo(64);
  Rng gen(7);
  const MessageSet m = random_permutation_traffic(64, gen);
  const PathSet paths = tree_paths(topo, m);
  PathSetSource set_source(paths, 5);
  drain(set_source, "PathSetSource");
  MessageSetStream stream(m);
  FatTreePathSource tree_source(topo, stream, 5);
  drain(tree_source, "FatTreePathSource");

  const std::vector<MessageSet> sets{m, m};
  MessageSetPairs pairs(sets);
  std::vector<LeafPair> chunk{{1, 2}};
  std::size_t chunks = 0;
  while (pairs.next_chunk(chunk)) ++chunks;
  EXPECT_EQ(chunks, sets.size());
  EXPECT_TRUE(chunk.empty());
  EXPECT_FALSE(pairs.next_chunk(chunk));
}

// route_online and route_online_stream agree for the same messages,
// including self messages (delivered locally, outside the engine).
TEST(Scaleout, OnlineRouterStreamMatchesMessageSet) {
  const std::uint32_t n = 64;
  FatTreeTopology topo(n);
  const auto caps = CapacityProfile::universal(topo, 16);
  Rng gen(3);
  MessageSet m = random_permutation_traffic(n, gen);
  m.push_back({5, 5});  // self messages bypass the engine
  m.push_back({0, 0});

  for (const bool parallel : {false, true}) {
    OnlineRouterOptions opts;
    opts.parallel = parallel;

    Rng rng_a(777);
    const auto a = route_online(topo, caps, m, rng_a, opts);

    Rng rng_b(777);
    MessageSetStream stream(m);
    // lambda_hint only sizes the give-up horizon; any value above the
    // actual cycle count gives the identical run.
    const auto b = route_online_stream(topo, caps, stream, 2.0, rng_b, opts);

    EXPECT_EQ(a.delivery_cycles, b.delivery_cycles);
    EXPECT_EQ(a.total_attempts, b.total_attempts);
    EXPECT_EQ(a.total_losses, b.total_losses);
    EXPECT_EQ(a.delivered_per_cycle, b.delivered_per_cycle);
    const auto total = std::accumulate(a.delivered_per_cycle.begin(),
                                       a.delivered_per_cycle.end(),
                                       std::uint64_t{0});
    EXPECT_EQ(total, m.size());
  }
}

// RandomPermutationStream consumes the same draw as
// random_permutation_traffic, so the two agree element for element.
TEST(Scaleout, StreamsMatchMaterializedGenerators) {
  const std::uint32_t n = 256;
  Rng a(42), b(42);
  const MessageSet perm = random_permutation_traffic(n, a);
  RandomPermutationStream stream(n, b);
  Message msg;
  std::size_t i = 0;
  while (stream.next(msg)) {
    ASSERT_LT(i, perm.size());
    EXPECT_EQ(msg.src, perm[i].src);
    EXPECT_EQ(msg.dst, perm[i].dst);
    ++i;
  }
  EXPECT_EQ(i, perm.size());
}

// k-ary: the simulation streams its routes; replicating the old
// materialize-then-run pipeline by hand from the same generator state
// must give the same rounds and load statistics.
TEST(Scaleout, KaryStreamMatchesMaterialized) {
  KaryTree tree(/*k=*/2, /*levels=*/5);
  const std::uint32_t n = tree.num_processors();
  Rng pgen(9);
  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  for (std::uint32_t i = n - 1; i > 0; --i) {
    std::swap(perm[i], perm[pgen.below(i + 1)]);
  }

  Rng rng_a(21);
  const auto streamed = simulate_kary_permutation(tree, perm,
                                                  AscentPolicy::Random, rng_a);

  Rng rng_b(21);
  KaryLoadTracker tracker(tree);
  std::vector<KaryRoute> routes;
  std::uint32_t max_hops = 0;
  for (std::uint32_t p = 0; p < n; ++p) {
    routes.push_back(
        kary_route(tree, p, perm[p], AscentPolicy::Random, rng_b, tracker));
    max_hops = std::max(max_hops,
                        static_cast<std::uint32_t>(routes.back().size()));
  }
  EngineOptions fifo;
  fifo.contention = ContentionPolicy::Fifo;
  CycleEngine engine(kary_channel_graph(tree), fifo);
  RouteChunkSource source(routes);
  const EngineResult er = engine.run_stream(source);

  EXPECT_EQ(streamed.rounds, er.cycles);
  EXPECT_EQ(streamed.delivered, er.delivered);
  EXPECT_EQ(streamed.max_route_hops, max_hops);
  EXPECT_EQ(streamed.max_link_load, tracker.max_load());
  EXPECT_EQ(streamed.mean_link_load, tracker.mean_positive_load());
}

// --- Address codec ----------------------------------------------------------

/// The builder's stage rule for channel c, the up (c even) or down
/// channel above heap node c / 2: L - level going up, L - 1 + level going
/// down.
std::uint32_t builder_stage(const FatTreeTopology& topo, std::uint32_t c) {
  const std::uint32_t level = topo.channel_level(c >> 1);
  return (c & 1u) == 0 ? topo.height() - level : topo.height() - 1 + level;
}

/// Checks the codec's word for the pair (src, dst) against the compiled
/// tree path: hop k names the path's k-th channel at the builder's stage,
/// the cursor runs out exactly after the last hop, rewind returns every
/// cursor to the first hop, and the final channel is the path's last.
/// Each hop's worklist key is its channel going up and the destination
/// going down, where the destination alone names the channel at the
/// hop's stage (down_chan), seek puts the cursor back on the hop, and
/// seeking the stage past the last is delivery. hop_onto recovers every
/// hop from its channel.
void expect_codec_path(const FatTreeTopology& topo, const AddressCodec& codec,
                       Leaf src, Leaf dst) {
  const EnginePath path = fat_tree_engine_path(topo, src, dst);
  const std::uint64_t w = AddressCodec::encode(topo.node_of_leaf(src),
                                               topo.node_of_leaf(dst));
  const auto at = [&] {
    return "L=" + std::to_string(topo.height()) + " " + std::to_string(src) +
           "->" + std::to_string(dst);
  };
  ASSERT_EQ(AddressCodec::src(w), topo.node_of_leaf(src)) << at();
  ASSERT_EQ(AddressCodec::dst(w), topo.node_of_leaf(dst)) << at();
  ASSERT_EQ(path.size(), 2 * AddressCodec::turn(w)) << at();
  const std::uint32_t d = AddressCodec::dst(w);
  for (std::size_t k = 0; k < path.size(); ++k) {
    const std::uint64_t v = w + k;
    ASSERT_TRUE(AddressCodec::more(v)) << at() << " hop " << k;
    const AddressCodec::Hop hop = codec.hop(v);
    ASSERT_EQ(hop.chan, path[k]) << at() << " hop " << k;
    ASSERT_EQ(hop.stage, builder_stage(topo, path[k])) << at() << " hop " << k;
    ASSERT_EQ(AddressCodec::rewind(v), w) << at() << " hop " << k;
    ASSERT_EQ(AddressCodec::last_chan(v), path.back()) << at() << " hop " << k;
    if (k < path.size() / 2) {
      ASSERT_LT(hop.stage, topo.height()) << at() << " hop " << k;
      ASSERT_EQ(hop.key, hop.chan) << at() << " hop " << k;
    } else {
      ASSERT_GE(hop.stage, topo.height()) << at() << " hop " << k;
      ASSERT_EQ(codec.down_chan(d, hop.stage), hop.chan)
          << at() << " hop " << k;
      ASSERT_EQ(hop.key, d) << at() << " hop " << k;
      ASSERT_EQ(codec.seek(w, hop.stage), v) << at() << " hop " << k;
    }
    const AddressCodec::Hop onto = codec.hop_onto(hop.chan, v);
    ASSERT_EQ(onto.chan, hop.chan) << at() << " hop " << k;
    ASSERT_EQ(onto.stage, hop.stage) << at() << " hop " << k;
    ASSERT_EQ(onto.key, hop.key) << at() << " hop " << k;
  }
  ASSERT_FALSE(AddressCodec::more(w + path.size())) << at();
  ASSERT_EQ(AddressCodec::rewind(w + path.size()), w) << at();
  ASSERT_EQ(codec.seek(w, codec.num_stages()), w + path.size()) << at();
}

// The codec against the independent path compiler, for every leaf pair of
// every tree up to 256 leaves: each hop's channel is the compiled path's,
// its stage the builder's rule, and more, rewind and last_chan agree; every
// down hop's channel follows from the destination and the stage alone.
// stage_of gives every tree channel the builder's stage; at every shard
// level each channel's shard is its node's ancestor at that level (the
// spine above), and the spine band [spine_lo, spine_hi) holds exactly the
// spine channels' stages. Edge pairs of the tallest taggable tree (2^28
// leaves) check the word's widths.
TEST(AddressCodec, MatchesCompiledTreePaths) {
  for (std::uint32_t n = 2; n <= 256; n *= 2) {
    const FatTreeTopology topo(n);
    const std::uint32_t L = topo.height();
    const AddressCodec codec(L, 0);
    ASSERT_EQ(codec.num_stages(), 2 * L);
    for (Leaf src = 0; src < n; ++src) {
      for (Leaf dst = 0; dst < n; ++dst) {
        if (src == dst) continue;
        expect_codec_path(topo, codec, src, dst);
        if (HasFatalFailure()) return;
      }
    }
    for (NodeId v = 2; v <= topo.num_nodes(); ++v) {
      for (const Direction dir : {Direction::Up, Direction::Down}) {
        const auto c = static_cast<std::uint32_t>(channel_index({v, dir}));
        ASSERT_EQ(codec.stage_of(c), builder_stage(topo, c))
            << "n=" << n << " c=" << c;
      }
    }
    for (std::uint32_t k = 1; k < L; ++k) {
      const AddressCodec sharded(L, 1u << k);
      ASSERT_EQ(sharded.shard_level, k);
      for (NodeId v = 2; v <= topo.num_nodes(); ++v) {
        NodeId root = v;
        while (topo.level(root) > k) root = topo.parent(root);
        const bool spine = topo.level(v) < k;
        for (const Direction dir : {Direction::Up, Direction::Down}) {
          const auto c = static_cast<std::uint32_t>(channel_index({v, dir}));
          const std::string at = "n=" + std::to_string(n) +
                                 " k=" + std::to_string(k) +
                                 " c=" + std::to_string(c);
          ASSERT_EQ(sharded.shard_of(c),
                    spine ? AddressCodec::kSpine : root - (NodeId{1} << k))
              << at;
          const std::uint32_t stage = builder_stage(topo, c);
          ASSERT_EQ(stage >= sharded.spine_lo && stage < sharded.spine_hi,
                    spine)
              << at;
        }
      }
    }
  }
  const FatTreeTopology tall(1u << ChannelGraph::kMaxTreeHeight);
  const AddressCodec codec(tall.height(), 0);
  const Leaf last = tall.num_processors() - 1;
  const Leaf mid = tall.num_processors() / 2;
  for (const auto& [src, dst] :
       {std::pair<Leaf, Leaf>{0, last}, {last, 0}, {0, 1}, {last, last - 1},
        {mid - 1, mid}, {mid, mid - 1}}) {
    expect_codec_path(tall, codec, src, dst);
  }
}

/// The per-channel tables fat_tree_channel_graph filled before a fat-tree
/// graph became its level profile: each channel slot's capacity, level
/// tag and wire-budget membership (heap node 0's pair unused, the root's
/// external interface outside the budget).
struct ChannelTables {
  std::vector<std::uint64_t> capacity;
  std::vector<std::uint32_t> level;
  std::vector<std::uint8_t> in_budget;
};

ChannelTables builder_tables(const FatTreeTopology& topo,
                             const CapacityProfile& caps) {
  const std::size_t bound = channel_index_bound(topo);
  ChannelTables t;
  t.capacity.assign(bound, 0);
  t.level.assign(bound, 0);
  t.in_budget.assign(bound, 0);
  for (NodeId v = 1; v <= topo.num_nodes(); ++v) {
    for (const Direction dir : {Direction::Up, Direction::Down}) {
      const std::size_t idx = channel_index(ChannelId{v, dir});
      t.capacity[idx] = caps.capacity(topo, v);
      t.level[idx] = topo.channel_level(v);
      t.in_budget[idx] = t.capacity[idx] != 0 && v != 1;
    }
  }
  return t;
}

// The graph's functions against the per-channel builder they replace, for
// every tree of 2 .. 1024 leaves under four profiles: universal at two
// root capacities, constant(1), and wire faults at p = 0.3, whose
// overrides are the only case that keeps a per-channel table (a
// million-leaf universal tree keeps none). Every channel's capacity,
// level and budget membership match, and so do the level count, the
// budget totals and FaultState's usable channels.
TEST(ChannelGraph, LevelProfileMatchesPerChannelBuilder) {
  bool saw_overrides = false;
  for (std::uint32_t n = 2; n <= 1024; n *= 2) {
    const FatTreeTopology topo(n);
    const std::uint32_t L = topo.height();
    Rng rng(n);
    const CapacityProfile profiles[] = {
        CapacityProfile::universal(topo, n),
        CapacityProfile::universal(topo, std::max(1u, n / 8)),
        CapacityProfile::constant(topo, 1),
        inject_wire_faults(topo, CapacityProfile::universal(topo, n), 0.3,
                           rng)};
    for (std::size_t p = 0; p < std::size(profiles); ++p) {
      const CapacityProfile& caps = profiles[p];
      const std::string at = "n=" + std::to_string(n) +
                             " profile=" + std::to_string(p);
      const ChannelGraph g = fat_tree_channel_graph(topo, caps);
      const ChannelTables ref = builder_tables(topo, caps);
      saw_overrides |= caps.has_overrides();
      EXPECT_EQ(g.capacity.empty(), !caps.has_overrides()) << at;
      ASSERT_EQ(g.num_channels(), ref.capacity.size()) << at;
      ASSERT_EQ(g.num_levels(), L + 1) << at;
      std::size_t budget_channels = 0;
      std::vector<std::uint64_t> budget_by_level(L + 1, 0);
      std::uint32_t usable = 0;
      for (std::size_t c = 0; c < ref.capacity.size(); ++c) {
        ASSERT_EQ(g.capacity_of(c), ref.capacity[c]) << at << " c=" << c;
        ASSERT_EQ(g.level_of(c), ref.level[c]) << at << " c=" << c;
        ASSERT_EQ(g.in_budget(c), ref.in_budget[c] != 0) << at << " c=" << c;
        budget_channels += ref.in_budget[c];
        if (ref.in_budget[c] != 0) {
          budget_by_level[ref.level[c]] += ref.capacity[c];
        }
        usable += ref.capacity[c] > 0;
      }
      EXPECT_EQ(g.num_budget_channels(), budget_channels) << at;
      EXPECT_EQ(g.budget_capacity_by_level(), budget_by_level) << at;
      const FaultPlan plan(1);
      EXPECT_EQ(FaultState(plan, g).num_usable(), usable) << at;
    }
  }
  EXPECT_TRUE(saw_overrides);
  const FatTreeTopology million(1u << 20);
  const ChannelGraph g = fat_tree_channel_graph(
      million, CapacityProfile::universal(million, 1u << 14));
  EXPECT_TRUE(g.capacity.empty());
  EXPECT_EQ(g.level_capacity.size(), 21u);
}

// A flat graph (FIFO: Network and k-ary links) keeps its per-channel
// table, at one level; a zero-capacity slot is no channel, outside the
// budget and unusable.
TEST(ChannelGraph, FlatGraphKeepsItsTable) {
  const ChannelGraph g = ChannelGraph::flat({2, 0, 3});
  ASSERT_EQ(g.num_channels(), 3u);
  EXPECT_EQ(g.num_levels(), 1u);
  const std::uint64_t caps[] = {2, 0, 3};
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(g.capacity_of(c), caps[c]) << c;
    EXPECT_EQ(g.level_of(c), 0u) << c;
    EXPECT_EQ(g.in_budget(c), caps[c] != 0) << c;
  }
  EXPECT_EQ(g.num_budget_channels(), 2u);
  EXPECT_EQ(g.budget_capacity_by_level(), std::vector<std::uint64_t>{5});
  const FaultPlan plan(1);
  EXPECT_EQ(FaultState(plan, g).num_usable(), 2u);
}

// Leaf pairs route exactly as their compiled tree paths do: the same
// messages through FatTreePathSource, whose paths the engine checks
// against their leaves' tree paths and routes as those pairs, give the
// same run, self pairs included.
TEST(Scaleout, LeafPairsMatchCompiledPaths) {
  const std::uint32_t n = 256;
  FatTreeTopology topo(n);
  const auto caps = CapacityProfile::universal(topo, 32);
  Rng gen(67);
  std::vector<MessageSet> sets(1);
  MessageSet& all = sets[0];
  for (std::uint32_t k = 0; k < 3; ++k) {
    MessageSet part = stacked_permutations(n, 2, gen);
    part[k].dst = part[k].src;  // a self pair
    all.insert(all.end(), part.begin(), part.end());
  }
  for (const ContentionPolicy policy :
       {ContentionPolicy::RandomSubset, ContentionPolicy::Tally}) {
    for (const bool pooled : {false, true}) {
      EngineOptions opts;
      opts.contention = policy;
      opts.seed = 5;
      opts.parallel = pooled;
      opts.threads = 4;
      const ChannelGraph g = fat_tree_channel_graph(topo, caps, pooled ? 3 : 0);
      TraceSink want_trace, got_trace;
      MessageSetStream stream(all);
      FatTreePathSource paths(topo, stream);
      const EngineResult want =
          CycleEngine(g, opts).run_stream(paths, &want_trace);
      MessageSetPairs pairs(sets);
      const EngineResult got =
          CycleEngine(g, opts).run_stream(pairs, &got_trace);
      expect_same_result(want, got, "run_stream pairs");
      EXPECT_EQ(event_fingerprint(want_trace), event_fingerprint(got_trace));
    }
  }
}

// --- Unused channels --------------------------------------------------------

// Adding unused channels to a flat graph — here across 2^16 — must not
// change any result bit. Flat graphs run FIFO, the one mode untagged
// graphs keep.
TEST(Scaleout, NarrowWideBoundaryIsSeamless) {
  const std::size_t kUsed = 100;
  // Three contenders per channel, capacity 1: every channel forwards one
  // message a round until its queue drains.
  std::vector<EnginePath> paths;
  for (std::uint32_t i = 0; i < 3 * kUsed; ++i) {
    paths.push_back({static_cast<std::uint32_t>(i % kUsed)});
  }

  EngineOptions opts;
  opts.contention = ContentionPolicy::Fifo;
  opts.seed = 1234;

  EngineResult base;
  bool have_base = false;
  for (const std::size_t channels :
       {kUsed, std::size_t{65535}, std::size_t{65536}, std::size_t{65537}}) {
    CycleEngine engine(
        ChannelGraph::flat(std::vector<std::uint64_t>(channels, 1)), opts);
    RouteChunkSource source(paths);
    const EngineResult r = engine.run_stream(source);
    EXPECT_EQ(r.delivered, paths.size());
    EXPECT_EQ(r.cycles, 3u);  // capacity 1, three contenders per channel
    if (!have_base) {
      base = r;
      have_base = true;
    } else {
      expect_same_result(base, r, "narrow/wide boundary");
    }
  }

  // The top channel slot is usable at every table size.
  for (const std::size_t channels : {std::size_t{65536}, std::size_t{65537}}) {
    CycleEngine engine(
        ChannelGraph::flat(std::vector<std::uint64_t>(channels, 1)), opts);
    const std::vector<EnginePath> top = {
        {static_cast<std::uint32_t>(channels - 1)},
        {static_cast<std::uint32_t>(channels - 1)}};
    RouteChunkSource source(top);
    const EngineResult r = engine.run_stream(source);
    EXPECT_EQ(r.delivered, 2u);
    EXPECT_EQ(r.cycles, 2u);
  }
}

// On a tagged graph a PathSet path must be its endpoints' tree path. The
// first bad path starts on leaf 0's up channel, ends on leaf n - 1's down
// channel and has the tree path's length, and its stages strictly
// increase, but its second hop climbs above leaf 2 instead of leaf 0. The
// second is the tree path between internal nodes 5 and 6, which the
// address word cannot stage. The serial and the sharded executor reject
// both with the same message.
TEST(ScaleoutDeathTest, NonTreePathIsRejectedOnTreeGraph) {
  const std::uint32_t n = 4096;
  FatTreeTopology topo(n);
  const auto caps = CapacityProfile::universal(topo, 256);
  Rng gen(43);
  const PathSet good = tree_paths(topo, random_permutation_traffic(n, gen));
  ASSERT_GE(good.total_hops(), 4096u);
  const auto chan = [](NodeId v, Direction d) {
    return static_cast<std::uint32_t>(channel_index(ChannelId{v, d}));
  };
  EnginePath swapped = fat_tree_engine_path(topo, 0, n - 1);
  swapped[1] = chan(topo.node_of_leaf(2) >> 1, Direction::Up);
  const EnginePath internal = {chan(5, Direction::Up), chan(2, Direction::Up),
                               chan(3, Direction::Down),
                               chan(6, Direction::Down)};
  for (const EnginePath& bad : {swapped, internal}) {
    PathSet paths;
    for (std::size_t p = 0; p < good.size(); ++p) {
      if (p == good.size() / 2) paths.append(bad.begin(), bad.end());
      const auto first = good.channels().begin() + good.offset(p);
      paths.append(first, first + good.length(p));
    }
    for (const bool parallel : {false, true}) {
      EngineOptions opts;
      opts.parallel = parallel;
      opts.threads = 4;
      EXPECT_DEATH(
          {
            CycleEngine engine(fat_tree_channel_graph(topo, caps, 2), opts);
            PathSetSource source(paths);
            engine.run_stream(source);
          },
          "path is not its endpoints' tree path")
          << "parallel " << parallel << " path of " << bad.size();
    }
  }
}

// A message may use every tree channel, so none may be wireless: the
// constructor rejects, under every contention policy, a tagged graph
// whose level profile has a 0 at some tree level and one whose overridden
// per-channel table (static wire faults) has a 0 on one tree channel. No
// leaf pair or path is checked for capacity at injection. A level
// profile that does not cover levels 0 .. L does not match the tag.
TEST(ScaleoutDeathTest, WirelessTreeChannelIsRejectedAtConstruction) {
  FatTreeTopology topo(64);
  const auto caps = CapacityProfile::universal(topo, 16);
  ChannelGraph level = fat_tree_channel_graph(topo, caps);
  level.level_capacity[topo.height()] = 0;
  Rng rng(7);
  ChannelGraph overridden =
      fat_tree_channel_graph(topo, inject_wire_faults(topo, caps, 0.3, rng));
  ASSERT_FALSE(overridden.capacity.empty());
  overridden.capacity[channel_index(
      ChannelId{topo.node_of_leaf(5), Direction::Down})] = 0;
  ChannelGraph short_profile = fat_tree_channel_graph(topo, caps);
  short_profile.level_capacity.pop_back();
  for (const ContentionPolicy policy :
       {ContentionPolicy::RandomSubset, ContentionPolicy::Tally,
        ContentionPolicy::Fifo}) {
    EngineOptions opts;
    opts.contention = policy;
    for (const ChannelGraph* g : {&level, &overridden}) {
      EXPECT_DEATH({ CycleEngine engine(*g, opts); },
                   "a tree channel has no wires")
          << "policy " << static_cast<int>(policy);
    }
    EXPECT_DEATH({ CycleEngine engine(short_profile, opts); },
                 "tree tag does not match the channel graph")
        << "policy " << static_cast<int>(policy);
  }
}

TEST(ScaleoutDeathTest, CheckedNarrowingAbortsPastU32) {
  EXPECT_EQ(checked_u32(0xffffffffULL, "fits"), 0xffffffffu);
  EXPECT_EQ(checked_u32(0, "fits"), 0u);
  EXPECT_DEATH(checked_u32(0x100000000ULL, "counter overflows 32 bits"),
               "counter overflows 32 bits");
}

// The fat-tree root's external-interface channels are on no internal path
// and belong to neither a shard nor the spine. On a tagged graph only
// tree channels are known, sharded or not: the serial and the sharded
// executor both reject such a path at injection, with the same message.
TEST(ScaleoutDeathTest, RootExternalChannelIsRejectedByEveryExecutor) {
  FatTreeTopology topo(64);
  const auto caps = CapacityProfile::universal(topo, 16);
  const auto root_up = static_cast<std::uint32_t>(
      channel_index(ChannelId{1, Direction::Up}));
  PathSet paths;
  paths.push_channel(root_up);
  paths.close_path();
  for (const std::uint32_t shard_level : {0u, 2u}) {
    for (const bool parallel : {false, true}) {
      EngineOptions opts;
      opts.parallel = parallel;
      opts.threads = 2;
      EXPECT_DEATH(
          {
            CycleEngine engine(fat_tree_channel_graph(topo, caps, shard_level),
                               opts);
            PathSetSource source(paths);
            engine.run_stream(source);
          },
          "path uses an unknown channel")
          << "shard level " << shard_level << " parallel " << parallel;
    }
  }
}

// The shard partition is the tree tag's, so a graph that carries a shard
// count without a tag — a flat graph, or a sharded fat-tree graph with its
// tag cleared — is rejected at construction by every executor.
TEST(ScaleoutDeathTest, ShardCountOnUntaggedGraphIsRejected) {
  FatTreeTopology topo(64);
  ChannelGraph flat = ChannelGraph::flat({1, 1, 1, 1});
  flat.num_shards = 2;
  ChannelGraph cleared =
      fat_tree_channel_graph(topo, CapacityProfile::universal(topo, 16), 2);
  cleared.tree_height = 0;
  for (const ChannelGraph* g : {&flat, &cleared}) {
    for (const bool parallel : {false, true}) {
      EngineOptions opts;
      opts.parallel = parallel;
      opts.threads = 2;
      EXPECT_DEATH({ CycleEngine engine(*g, opts); },
                   "a shard count needs a tree-tagged channel graph")
          << "parallel " << parallel;
    }
  }
}

// Injection checks every path in one serial pass on the coordinating
// thread, whichever executor sweeps the cycle, so no check runs on a pool
// worker. One bad path in the middle of a 4096-leaf permutation aborts
// with the same message serial and sharded.
TEST(ScaleoutDeathTest, InvalidPathInPooledBatchIsRejectedByEveryExecutor) {
  const std::uint32_t n = 4096;
  FatTreeTopology topo(n);
  const auto caps = CapacityProfile::universal(topo, 256);
  Rng gen(41);
  const PathSet good = tree_paths(topo, random_permutation_traffic(n, gen));
  ASSERT_GE(good.total_hops(), 4096u);
  const auto& chans = good.channels();
  std::size_t mid = good.size() / 2;
  while (good.length(mid) < 2) ++mid;
  const std::uint32_t root_up = static_cast<std::uint32_t>(
      channel_index(ChannelId{1, Direction::Up}));
  std::vector<std::uint32_t> reversed(
      chans.begin() + good.offset(mid),
      chans.begin() + good.offset(mid) + good.length(mid));
  std::reverse(reversed.begin(), reversed.end());
  const struct {
    const char* message;
    std::vector<std::uint32_t> bad;
  } cases[] = {
      {"path uses an unknown channel", {root_up}},
      {"path stages must strictly increase", reversed},
  };
  for (const auto& c : cases) {
    PathSet paths;
    for (std::size_t p = 0; p < good.size(); ++p) {
      if (p == good.size() / 2) paths.append(c.bad.begin(), c.bad.end());
      const auto first = chans.begin() + good.offset(p);
      paths.append(first, first + good.length(p));
    }
    for (const bool parallel : {false, true}) {
      EngineOptions opts;
      opts.parallel = parallel;
      opts.threads = 4;
      EXPECT_DEATH(
          {
            CycleEngine engine(fat_tree_channel_graph(topo, caps, 2), opts);
            PathSetSource source(paths);
            engine.run_stream(source);
          },
          c.message)
          << "parallel " << parallel;
    }
  }
}

// --- Subtree sharding -----------------------------------------------------

// The sharded parallel executor is purely an execution strategy: for
// every shard depth (including depth 1, whose spine band is empty) and
// for workloads that stay inside shards, all cross the root, or mix, the
// results and traced event streams match the unsharded serial engine.
TEST(Scaleout, ShardedEngineMatchesSerial) {
  const std::uint32_t n = 128;
  FatTreeTopology topo(n);
  const auto caps = CapacityProfile::universal(topo, 32);

  Rng gen(17);
  const struct {
    const char* name;
    MessageSet m;
  } workloads[] = {
      {"random_perm", random_permutation_traffic(n, gen)},
      {"complement", complement_traffic(n)},  // every message crosses root
      {"local", local_traffic(n, 3, gen)},    // mostly intra-shard
      {"stacked", stacked_permutations(n, 4, gen)},
  };

  for (const auto& w : workloads) {
    const std::vector<MessageSet> sets{w.m};

    EngineOptions serial_opts;
    serial_opts.seed = 321;
    CycleEngine serial_engine(fat_tree_channel_graph(topo, caps),
                              serial_opts);
    TraceSink serial_trace;
    MessageSetPairs serial_pairs(sets);
    const EngineResult serial =
        serial_engine.run_stream(serial_pairs, &serial_trace);
    EXPECT_FALSE(serial.gave_up) << w.name;

    for (const std::uint32_t shard_level : {1u, 2u, 3u}) {
      EngineOptions opts;
      opts.seed = 321;
      opts.parallel = true;
      CycleEngine engine(fat_tree_channel_graph(topo, caps, shard_level),
                         opts);
      TraceSink trace;
      MessageSetPairs pairs(sets);
      const EngineResult sharded = engine.run_stream(pairs, &trace);
      expect_same_result(serial, sharded, w.name);
      EXPECT_EQ(event_fingerprint(serial_trace), event_fingerprint(trace))
          << w.name << " shard_level " << shard_level;
    }
  }
}

// Sharding composes with the retry/fault machinery: dynamic faults, kill
// domains and exponential backoff all run through the sharded sweeps.
TEST(Scaleout, ShardedEngineMatchesSerialUnderFaults) {
  const std::uint32_t n = 64;
  FatTreeTopology topo(n);
  const auto caps = CapacityProfile::universal(topo, 16);
  Rng gen(23);
  const std::vector<MessageSet> sets{stacked_permutations(n, 3, gen)};

  FaultPlan plan(404);
  plan.set_domains(fat_tree_subtree_domains(topo, 2));
  plan.add_subtree_kill({/*node=*/5, /*at_cycle=*/2, /*duration=*/4});
  plan.set_storm({0.05, 1, 5});

  EngineOptions serial_opts;
  serial_opts.seed = 55;
  serial_opts.fault_plan = &plan;
  serial_opts.retry.exponential_backoff = true;
  CycleEngine serial_engine(fat_tree_channel_graph(topo, caps), serial_opts);
  TraceSink serial_trace;
  MessageSetPairs serial_pairs(sets);
  const EngineResult serial =
      serial_engine.run_stream(serial_pairs, &serial_trace);

  EngineOptions opts = serial_opts;
  opts.parallel = true;
  CycleEngine engine(fat_tree_channel_graph(topo, caps, 2), opts);
  TraceSink trace;
  MessageSetPairs pairs(sets);
  const EngineResult sharded = engine.run_stream(pairs, &trace);

  expect_same_result(serial, sharded, "faulted sharded run");
  EXPECT_EQ(serial.fault_down_events, sharded.fault_down_events);
  EXPECT_EQ(serial.fault_up_events, sharded.fault_up_events);
  EXPECT_EQ(serial.subtree_kill_events, sharded.subtree_kill_events);
  EXPECT_EQ(event_fingerprint(serial_trace), event_fingerprint(trace));
}

// Streaming and sharding compose: a streamed sharded parallel run equals
// the serial run of the whole set.
TEST(Scaleout, StreamedShardedMatchesMaterializedSerial) {
  // Streamed path chunks through the sharded executor against the serial
  // engine on the whole set as leaf pairs, results and traced event
  // streams.
  const auto check = [](std::uint32_t n, std::uint64_t w, const MessageSet& m,
                        std::size_t chunk_paths, const EngineOptions& base,
                        const char* label) {
    FatTreeTopology topo(n);
    const auto caps = CapacityProfile::universal(topo, w);
    CycleEngine serial_engine(fat_tree_channel_graph(topo, caps), base);
    TraceSink serial_trace;
    const std::vector<MessageSet> sets{m};
    MessageSetPairs pairs(sets);
    const EngineResult serial = serial_engine.run_stream(pairs, &serial_trace);

    EngineOptions opts = base;
    opts.parallel = true;
    CycleEngine engine(fat_tree_channel_graph(topo, caps, 2), opts);
    MessageSetStream stream(m);
    FatTreePathSource source(topo, stream, chunk_paths);
    TraceSink trace;
    const EngineResult streamed = engine.run_stream(source, &trace);

    expect_same_result(serial, streamed, label);
    EXPECT_EQ(event_fingerprint(serial_trace), event_fingerprint(trace))
        << label;
    return serial;
  };

  Rng gen(29);
  EngineOptions opts;
  opts.seed = 777;
  check(128, 32, random_permutation_traffic(128, gen), 16, opts,
        "streamed sharded");

  // Chunks of 1,024 paths of a 4096-leaf stacked permutation, about 20K
  // hops each, through a four-thread pool. Every 97th message is made
  // local, so each chunk holds empty paths that take an id but no message
  // index. Indices and ids must continue across the chunks exactly as in
  // the one-chunk pair run, and the retries that follow must back off
  // identically.
  MessageSet stacked = stacked_permutations(4096, 2, gen);
  for (std::size_t k = 0; k < stacked.size(); k += 97) {
    stacked[k].dst = stacked[k].src;
  }
  opts.threads = 4;
  opts.retry.exponential_backoff = true;
  const EngineResult pooled =
      check(4096, 64, stacked, 1024, opts, "pooled chunks");
  EXPECT_GT(pooled.total_backoffs, 0u);
}

// --- Pooled shards ---------------------------------------------------------

// The sharded executor on a four-thread pool is pinned bit-identical to
// the serial engine at every shard depth. threads is forced to 4 so the
// pool exists even on single-core hosts (results are thread-count-
// invariant by construction; this test exists to prove it).
TEST(Scaleout, FourThreadShardsMatchSerialAtEveryShardLevel) {
  const std::uint32_t n = 128;
  FatTreeTopology topo(n);
  const auto caps = CapacityProfile::universal(topo, 32);
  Rng gen(31);
  const struct {
    const char* name;
    MessageSet m;
  } workloads[] = {
      {"complement", complement_traffic(n)},  // all traffic through spine
      {"stacked", stacked_permutations(n, 4, gen)},
  };

  for (const auto& w : workloads) {
    const std::vector<MessageSet> sets{w.m};

    EngineOptions serial_opts;
    serial_opts.seed = 808;
    CycleEngine serial_engine(fat_tree_channel_graph(topo, caps),
                              serial_opts);
    TraceSink serial_trace;
    MessageSetPairs serial_pairs(sets);
    const EngineResult serial =
        serial_engine.run_stream(serial_pairs, &serial_trace);
    EXPECT_FALSE(serial.gave_up) << w.name;

    for (const std::uint32_t shard_level : {1u, 2u, 3u}) {
      EngineOptions opts;
      opts.seed = 808;
      opts.parallel = true;
      opts.threads = 4;
      CycleEngine engine(fat_tree_channel_graph(topo, caps, shard_level),
                         opts);
      TraceSink trace;
      MessageSetPairs pairs(sets);
      const EngineResult got = engine.run_stream(pairs, &trace);
      expect_same_result(serial, got, w.name);
      EXPECT_EQ(event_fingerprint(serial_trace), event_fingerprint(trace))
          << w.name << " shard_level " << shard_level;
    }
  }
}

// Same pinning through the observability plane: the telemetry probe rides
// the serial coordination path, so its order-sensitive fingerprint must
// be identical at every shard depth.
TEST(Scaleout, FourThreadShardsKeepTelemetryFingerprint) {
  const std::uint32_t n = 128;
  FatTreeTopology topo(n);
  const auto caps = CapacityProfile::universal(topo, 32);
  Rng gen(37);
  const std::vector<MessageSet> sets{stacked_permutations(n, 4, gen)};

  std::uint64_t fp_serial = 0;
  {
    EngineOptions opts;
    opts.seed = 909;
    TelemetryOptions topts;
    topts.every_k = 2;
    TelemetryProbe probe(topts);
    CycleEngine engine(fat_tree_channel_graph(topo, caps), opts);
    MessageSetPairs pairs(sets);
    engine.run_stream(pairs, &probe);
    fp_serial = probe.fingerprint();
  }

  for (const std::uint32_t shard_level : {1u, 2u, 3u}) {
    EngineOptions opts;
    opts.seed = 909;
    opts.parallel = true;
    opts.threads = 4;
    TelemetryOptions topts;
    topts.every_k = 2;
    TelemetryProbe probe(topts);
    CycleEngine engine(fat_tree_channel_graph(topo, caps, shard_level), opts);
    MessageSetPairs pairs(sets);
    engine.run_stream(pairs, &probe);
    EXPECT_EQ(fp_serial, probe.fingerprint()) << "shard_level " << shard_level;
  }
}

// Fault plans, kill domains, retries and backoff all interleave with the
// four-thread sharded executor; every counter and the traced stream stay
// pinned to the serial run.
TEST(Scaleout, FourThreadShardsMatchSerialUnderFaultsAndRetries) {
  const std::uint32_t n = 64;
  FatTreeTopology topo(n);
  const auto caps = CapacityProfile::universal(topo, 16);
  Rng gen(41);
  const std::vector<MessageSet> sets{stacked_permutations(n, 3, gen)};

  FaultPlan plan(505);
  plan.set_domains(fat_tree_subtree_domains(topo, 2));
  plan.add_subtree_kill({/*node=*/5, /*at_cycle=*/1, /*duration=*/3});
  plan.set_storm({0.08, 1, 4});

  RetryPolicy retries[2];
  retries[1].max_attempts = 6;
  retries[1].exponential_backoff = true;
  retries[1].deadline_cycles = 64;

  for (const RetryPolicy& retry : retries) {
    const FaultPlan* fault_cases[] = {nullptr, &plan};
    for (const FaultPlan* fp : fault_cases) {
      EngineOptions serial_opts;
      serial_opts.seed = 66;
      serial_opts.fault_plan = fp;
      serial_opts.retry = retry;
      CycleEngine serial_engine(fat_tree_channel_graph(topo, caps),
                                serial_opts);
      TraceSink serial_trace;
      MessageSetPairs serial_pairs(sets);
      const EngineResult serial =
          serial_engine.run_stream(serial_pairs, &serial_trace);

      EngineOptions opts = serial_opts;
      opts.parallel = true;
      opts.threads = 4;
      CycleEngine engine(fat_tree_channel_graph(topo, caps, 2), opts);
      TraceSink trace;
      MessageSetPairs pairs(sets);
      const EngineResult got = engine.run_stream(pairs, &trace);
      expect_same_result(serial, got, "faulted four-thread sharded run");
      EXPECT_EQ(serial.fault_down_events, got.fault_down_events);
      EXPECT_EQ(serial.fault_up_events, got.fault_up_events);
      EXPECT_EQ(serial.subtree_kill_events, got.subtree_kill_events);
      EXPECT_EQ(serial.degraded_channel_cycles, got.degraded_channel_cycles);
      EXPECT_EQ(event_fingerprint(serial_trace), event_fingerprint(trace))
          << "faults " << (fp != nullptr) << " backoff "
          << retry.exponential_backoff;
    }
  }
}

}  // namespace
