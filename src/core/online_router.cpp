#include "core/online_router.hpp"

#include <algorithm>

#include "core/load.hpp"
#include "engine/engine.hpp"
#include "engine/fat_tree_model.hpp"
#include "util/parse.hpp"

namespace ft {

namespace {

// Hands the engine the stream's messages as leaf pairs, one chunk at a
// time. Self messages are delivered locally in the first cycle and never
// enter the engine (they would otherwise shift message ids in trace
// streams). The source counts them so the caller can fold them back into
// delivered_per_cycle; the count is complete once the engine has drained
// the stream.
class NonSelfPairs final : public PairSource {
 public:
  explicit NonSelfPairs(MessageStream& inner) : inner_(inner) {}

  bool next_chunk(std::vector<LeafPair>& chunk) override {
    chunk.clear();
    Message m;
    while (chunk.size() < kDefaultChunkPaths && inner_.next(m)) {
      if (m.src == m.dst) {
        ++self_;
      } else {
        chunk.push_back({m.src, m.dst});
      }
    }
    return !chunk.empty();
  }

  std::uint32_t self_delivered() const { return self_; }

 private:
  MessageStream& inner_;
  std::uint32_t self_ = 0;
};

// Shard depth for the engine's subtree-sharded parallel mode. An explicit
// OnlineRouterOptions::shard_level (ftsim --shard-level) wins; otherwise
// the heuristic picks about two shards per worker, not more: the
// work-stealing pool already rebalances bands, so extra shards only buy
// serial overhead — a deeper shard level widens the serial spine band,
// and per-shard worklist setup plus the outbox-distribution pass grow
// with shard count, all on the serial side of the phase profile.
// Measured on the E17 workload (n = 2^18, shard-level sweep): 2^2 -> 2^4
// shards roughly triples spine-band time and raises the measured Amdahl
// serial fraction from ~0.36 to ~0.40 with no up/down-sweep win. Always
// capped by the topology: the spine must stay above the leaves.
std::uint32_t pick_shard_level(const FatTreeTopology& topo,
                               const OnlineRouterOptions& opts) {
  if (!opts.parallel || topo.height() < 2) return 0;
  const std::uint32_t cap = topo.height() - 1;
  if (opts.shard_level != kShardLevelAuto) {
    return std::min(opts.shard_level, cap);
  }
  const std::size_t workers = resolve_threads(opts.threads);
  std::uint32_t lvl = 1;
  while ((std::size_t{1} << lvl) < workers * 2 && lvl < 6) ++lvl;
  return std::min(lvl, cap);
}

}  // namespace

OnlineRoutingResult route_online_stream(const FatTreeTopology& topo,
                                        const CapacityProfile& caps,
                                        MessageStream& messages,
                                        double lambda_hint, Rng& rng,
                                        const OnlineRouterOptions& opts) {
  const std::uint32_t L = topo.height();

  std::uint32_t max_cycles = opts.max_cycles;
  if (max_cycles == 0) {
    max_cycles = 64 * (static_cast<std::uint32_t>(lambda_hint) + L * L + 4);
  }

  EngineOptions eopts;
  eopts.contention = ContentionPolicy::RandomSubset;
  eopts.policy = opts.policy;
  eopts.alpha = opts.alpha;
  eopts.max_cycles = max_cycles;
  eopts.seed = rng.next();
  eopts.parallel = opts.parallel;
  eopts.threads = opts.threads;
  eopts.retry = opts.retry;
  eopts.fault_plan = opts.fault_plan;
  eopts.time_phases = opts.time_phases;

  CycleEngine engine(
      fat_tree_channel_graph(topo, caps, pick_shard_level(topo, opts)), eopts);

  NonSelfPairs routed(messages);
  const EngineResult er = engine.run_stream(routed, opts.observer);

  OnlineRoutingResult result;
  result.delivery_cycles = er.cycles;
  result.total_attempts = er.total_attempts;
  result.total_losses = er.total_losses;
  result.gave_up = er.gave_up;
  result.messages_given_up = er.messages_given_up;
  result.total_backoffs = er.total_backoffs;
  result.fault_down_events = er.fault_down_events;
  result.fault_up_events = er.fault_up_events;
  result.subtree_kill_events = er.subtree_kill_events;
  result.degraded_channel_cycles = er.degraded_channel_cycles;
  result.phases = er.phases;
  result.delivered_per_cycle = er.delivered_per_cycle;

  if (routed.self_delivered() > 0) {
    // Purely local traffic still takes one delivery cycle.
    if (result.delivery_cycles == 0) {
      result.delivery_cycles = 1;
      result.delivered_per_cycle.push_back(routed.self_delivered());
    } else {
      result.delivered_per_cycle.front() += routed.self_delivered();
    }
  }
  return result;
}

OnlineRoutingResult route_online(const FatTreeTopology& topo,
                                 const CapacityProfile& caps,
                                 const MessageSet& m, Rng& rng,
                                 const OnlineRouterOptions& opts) {
  // The materialized set allows the exact load-factor estimate for the
  // default give-up horizon; routing itself rides the streaming path.
  double lambda_hint = 0.0;
  if (opts.max_cycles == 0) lambda_hint = load_factor(topo, caps, m);

  MessageSetStream stream(m);
  return route_online_stream(topo, caps, stream, lambda_hint, rng, opts);
}

}  // namespace ft
