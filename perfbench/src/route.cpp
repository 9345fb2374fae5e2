// Route workloads. One unit of work is one routed message set, timed from
// the route call to a serialized RunReport; sets run back to back, one at
// a time (a closed loop). Every set of a run routes the same messages
// under the same router seed, so each must reproduce the first one's
// statistics exactly.
//
// Traced runs interleave untraced sets (through route_online, as users
// call it) with sets driven through the benchmark's own composition of
// the same public calls — fat_tree_channel_graph -> CycleEngine ->
// run_stream — wrapped so that each layer's time lands in a span.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "core/capacity.hpp"
#include "core/load.hpp"
#include "core/online_router.hpp"
#include "core/topology.hpp"
#include "core/traffic.hpp"
#include "engine/engine.hpp"
#include "engine/fat_tree_model.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/telemetry.hpp"
#include "workloads.hpp"

namespace ftbench {
namespace {

enum class Traffic : std::uint8_t {
  StackedPermutations,  ///< stacked_permutations(n, 4), materialized
  PermutationStream,    ///< a RandomPermutationStream built per set
  PersistentHotspot,    ///< persistent_hotspot_traffic, materialized
};

struct RouteSpec {
  const char* name;
  std::uint32_t n;
  std::uint64_t w;
  std::size_t threads;  ///< sharded executor width; 0 = serial executor
  ft::RoutingPolicy policy;
  const char* policy_name;
  /// EngineMetrics + TelemetryProbe through an ObserverFanout, as
  /// `ftsim --report --telemetry` attaches them.
  bool observers;
  Traffic traffic;
};

// contended_t2 runs two pool threads. The coordinating thread joins every
// pool batch, so four pool threads would keep five threads busy on the
// 4-CPU hosts the benchmark is calibrated on, and each of a set's ~100
// batches would wait on whichever thread the scheduler had parked
// (README.md, "Steadiness").
const RouteSpec kRouteSpecs[] = {
    {"contended_t2", 1u << 16, (1u << 16) / 16, 2,
     ft::RoutingPolicy::ObliviousRandom, "oblivious", true,
     Traffic::StackedPermutations},
    {"stream1m_t4", 1u << 20, (1u << 20) / 2, 4,
     ft::RoutingPolicy::ObliviousRandom, "oblivious", false,
     Traffic::PermutationStream},
    {"hotspot_serial", 1u << 14, (1u << 14) / 16, 0,
     ft::RoutingPolicy::AdaptiveOccupancy, "adaptive", false,
     Traffic::PersistentHotspot},
};

const RouteSpec* find_spec(const std::string& name) {
  for (const RouteSpec& s : kRouteSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

/// ftsim's and ftd's seed discipline: the workload draws from Rng(seed),
/// the router from Rng(seed ^ 0x0511e5).
constexpr std::uint64_t kRouterSeedMix = 0x0511e5;
/// route_online_stream's give-up horizon hint for the streamed permutation
/// (the value exp_scaleout passes for the same workload).
constexpr double kStreamLambdaHint = 1.0;

// Set-up is repeated and its median reported: kMinSetupReps times before
// the first set and, in untimed gaps between the sets of an untraced run,
// for about kSetupShare of each set's time (at most kMaxGapReps times),
// so the median spans the run rather than one moment of the host's load.
constexpr std::size_t kMinSetupReps = 5;
constexpr double kSetupShare = 0.03;
constexpr std::size_t kMaxGapReps = 2000;
/// Fewest sets of each kind a run measures, however long they take.
constexpr std::size_t kMinSets = 3;

/// Everything paid before the first set: topology, capacities and, for
/// the materialized workloads, the message set.
struct Prepared {
  ft::FatTreeTopology topo;
  ft::CapacityProfile caps;
  ft::MessageSet messages;
  double gen_seconds = 0.0;  ///< the traffic generator call

  Prepared(const RouteSpec& s, std::uint64_t seed)
      : topo(s.n), caps(ft::CapacityProfile::universal(topo, s.w)) {
    const auto t0 = Clock::now();
    ft::Rng gen(seed);
    switch (s.traffic) {
      case Traffic::StackedPermutations:
        messages = ft::stacked_permutations(s.n, 4, gen);
        break;
      case Traffic::PersistentHotspot:
        messages = ft::persistent_hotspot_traffic(
            s.n, s.n / 3, s.n / 8, std::size_t{4} * s.n, gen);
        break;
      case Traffic::PermutationStream:
        break;  // generated inside every set
    }
    gen_seconds = seconds_since(t0);
  }
};

/// What the checks need to know about the workload, computed once per
/// run outside every timed region.
struct Expectation {
  double lambda = 0.0;        ///< λ(M), Section III
  std::uint64_t injected = 0;  ///< |M|
};

Expectation expectation(const RouteSpec& s, const Prepared& p,
                        std::uint64_t seed) {
  Expectation e;
  if (s.traffic == Traffic::PermutationStream) {
    // RandomPermutationStream draws exactly random_permutation_traffic's
    // permutation from the same generator state.
    ft::Rng gen(seed);
    const ft::MessageSet m = ft::random_permutation_traffic(s.n, gen);
    e.lambda = ft::load_factor(p.topo, p.caps, m);
    e.injected = m.size();
  } else {
    e.lambda = ft::load_factor(p.topo, p.caps, p.messages);
    e.injected = p.messages.size();
  }
  return e;
}

std::string serialize_report(const RouteSpec& s, std::uint64_t seed,
                             const Expectation& e,
                             const ft::OnlineRoutingResult& r,
                             ft::EngineMetrics* metrics,
                             ft::TelemetryProbe* probe) {
  ft::RunReport report("perfbench");
  ft::JsonValue& params = report.params();
  params["workload"] = s.name;
  params["n"] = s.n;
  params["w"] = s.w;
  params["seed"] = seed;
  params["policy"] = s.policy_name;
  params["threads"] = static_cast<std::uint64_t>(s.threads);
  ft::JsonValue& run = report.add_run(s.name);
  run["messages"] = e.injected;
  run["lambda"] = e.lambda;
  run["scheduler"] = "online";
  run["cycles"] = r.delivery_cycles;
  run["attempts"] = r.total_attempts;
  run["losses"] = r.total_losses;
  run["backoffs"] = r.total_backoffs;
  run["messages_given_up"] = r.messages_given_up;
  run["verified"] = !r.gave_up && r.messages_given_up == 0;
  run["gave_up"] = r.gave_up;
  if (metrics != nullptr) run["engine"] = metrics->to_json();
  if (probe != nullptr) run["telemetry"] = probe->to_json();
  run["amdahl"] = ft::phase_profile_json(r.phases);
  std::ostringstream os;
  report.write(os);
  return os.str();
}

/// Conservation and the Section III lower bound cycles >= ceil(λ(M));
/// empty when the set passes.
std::string check_set(const ft::OnlineRoutingResult& r, const Expectation& e) {
  std::uint64_t delivered = 0;
  for (const std::uint32_t d : r.delivered_per_cycle) delivered += d;
  if (r.gave_up) return "the router gave up";
  if (delivered + r.messages_given_up != e.injected) {
    return "delivered + given_up != injected";
  }
  if (static_cast<double>(r.delivery_cycles) < std::ceil(e.lambda - 1e-9)) {
    return "cycles below ceil(lambda)";
  }
  return {};
}

bool same_result(const ft::OnlineRoutingResult& a,
                 const ft::OnlineRoutingResult& b) {
  return a.delivery_cycles == b.delivery_cycles &&
         a.total_attempts == b.total_attempts &&
         a.total_losses == b.total_losses && a.gave_up == b.gave_up &&
         a.messages_given_up == b.messages_given_up &&
         a.total_backoffs == b.total_backoffs &&
         a.delivered_per_cycle == b.delivered_per_cycle;
}

struct SetRun {
  ft::OnlineRoutingResult result;
  double seconds = 0.0;
};

/// One untraced set through the public router entry points.
SetRun run_set(const RouteSpec& s, const Prepared& p, std::uint64_t seed,
               const Expectation& e) {
  SetRun out;
  const auto t0 = Clock::now();
  ft::EngineMetrics metrics;
  ft::TelemetryProbe probe;
  ft::ObserverFanout fanout;
  ft::OnlineRouterOptions opts;
  opts.policy = s.policy;
  opts.parallel = s.threads > 0;
  opts.threads = s.threads;
  if (s.observers) {
    fanout.add(&metrics);
    fanout.add(&probe);
    opts.observer = &fanout;
  }
  ft::Rng rng(seed ^ kRouterSeedMix);
  if (s.traffic == Traffic::PermutationStream) {
    ft::Rng gen(seed);
    ft::RandomPermutationStream stream(s.n, gen);
    out.result = ft::route_online_stream(p.topo, p.caps, stream,
                                         kStreamLambdaHint, rng, opts);
  } else {
    out.result = ft::route_online(p.topo, p.caps, p.messages, rng, opts);
  }
  // The unit of work ends with the serialized report.
  const std::string report =
      serialize_report(s, seed, e, out.result, s.observers ? &metrics : nullptr,
                       s.observers ? &probe : nullptr);
  out.seconds = seconds_since(t0);
  return out;
}

// ---------------------------------------------------------------------------
// The traced composition.

/// route_online_stream's self-message filter (core/online_router.cpp):
/// src == dst messages are delivered locally in cycle 1 and never enter
/// the engine.
class NonSelfStream final : public ft::MessageStream {
 public:
  explicit NonSelfStream(ft::MessageStream& inner) : inner_(inner) {}

  bool next(ft::Message& out) override {
    while (inner_.next(out)) {
      if (out.src != out.dst) return true;
      ++self_;
    }
    return false;
  }
  std::uint32_t self_delivered() const { return self_; }

 private:
  ft::MessageStream& inner_;
  std::uint32_t self_ = 0;
};

/// Times the generator: reads the inner stream ahead in batches, each
/// inside one "traffic.gen" span, so per-message clock reads do not
/// swamp a next() that costs a few nanoseconds. Order is unchanged.
class TimedStream final : public ft::MessageStream {
 public:
  TimedStream(ft::MessageStream& inner, Tracer& tr) : inner_(inner), tr_(tr) {
    buf_.reserve(kBatch);
  }

  bool next(ft::Message& out) override {
    if (pos_ == buf_.size() && !refill()) return false;
    out = buf_[pos_++];
    return true;
  }

 private:
  static constexpr std::size_t kBatch = 4096;

  bool refill() {
    auto sp = tr_.span("traffic.gen");
    buf_.clear();
    pos_ = 0;
    ft::Message m;
    while (buf_.size() < kBatch && inner_.next(m)) buf_.push_back(m);
    return !buf_.empty();
  }

  ft::MessageStream& inner_;
  Tracer& tr_;
  std::vector<ft::Message> buf_;
  std::size_t pos_ = 0;
};

/// Times path compile: every next_chunk call is a "model.compile" span.
class TimedSource final : public ft::MessageSource {
 public:
  TimedSource(ft::MessageSource& inner, Tracer& tr) : inner_(inner), tr_(tr) {}

  bool next_chunk(ft::PathSet& chunk) override {
    auto sp = tr_.span("model.compile");
    return inner_.next_chunk(chunk);
  }

 private:
  ft::MessageSource& inner_;
  Tracer& tr_;
};

/// Times the observers: every on_cycle is an "obs.observer" span; the
/// opt-in queries pass straight through.
class TimedObserver final : public ft::EngineObserver {
 public:
  TimedObserver(ft::EngineObserver& inner, Tracer& tr)
      : inner_(inner), tr_(tr) {}

  void on_cycle(const ft::CycleSnapshot& s) override {
    auto sp = tr_.span("obs.observer");
    inner_.on_cycle(s);
  }
  bool wants_message_events() const override {
    return inner_.wants_message_events();
  }
  void on_message_event(const ft::MessageEvent& e) override {
    inner_.on_message_event(e);
  }
  bool wants_channel_state(std::uint32_t cycle) const override {
    return inner_.wants_channel_state(cycle);
  }
  bool wants_latency_samples() const override {
    return inner_.wants_latency_samples();
  }

 private:
  ft::EngineObserver& inner_;
  Tracer& tr_;
};

/// route_online's shard-level heuristic (about two shards per worker),
/// which the untraced sets get through kShardLevelAuto.
std::uint32_t shard_level_for(const RouteSpec& s,
                              const ft::FatTreeTopology& topo) {
  if (s.threads == 0 || topo.height() < 2) return 0;
  std::uint32_t lvl = 1;
  while ((std::size_t{1} << lvl) < s.threads * 2 && lvl < 6) ++lvl;
  return std::min(lvl, topo.height() - 1);
}

/// An engine result as route_online_stream reports it: locally delivered
/// self messages fold into the first cycle.
ft::OnlineRoutingResult fold_result(const ft::EngineResult& er,
                                    std::uint32_t self_delivered) {
  ft::OnlineRoutingResult r;
  r.delivery_cycles = er.cycles;
  r.total_attempts = er.total_attempts;
  r.total_losses = er.total_losses;
  r.gave_up = er.gave_up;
  r.messages_given_up = er.messages_given_up;
  r.total_backoffs = er.total_backoffs;
  r.phases = er.phases;
  r.delivered_per_cycle = er.delivered_per_cycle;
  if (self_delivered > 0) {
    if (r.delivery_cycles == 0) {
      r.delivery_cycles = 1;
      r.delivered_per_cycle.push_back(self_delivered);
    } else {
      r.delivered_per_cycle.front() += self_delivered;
    }
  }
  return r;
}

struct ComposedSet {
  ft::EngineResult engine;
  ft::OnlineRoutingResult result;
  std::size_t report_bytes = 0;
};

/// One traced set: route_online's steps, each call in its own span, with
/// the engine's phase profile on.
ComposedSet run_composed_set(const RouteSpec& s, const Prepared& p,
                             std::uint64_t seed, const Expectation& e,
                             bool attach_observers, Tracer& tr) {
  ComposedSet out;
  auto set_span = tr.span("set");
  const std::uint32_t L = p.topo.height();
  double lambda_hint = kStreamLambdaHint;
  if (s.traffic != Traffic::PermutationStream) {
    auto sp = tr.span("load.lambda");
    lambda_hint = ft::load_factor(p.topo, p.caps, p.messages);
  }
  ft::Rng rng(seed ^ kRouterSeedMix);
  ft::EngineOptions eopts;
  eopts.contention = ft::ContentionPolicy::RandomSubset;
  eopts.policy = s.policy;
  eopts.max_cycles =
      64 * (static_cast<std::uint32_t>(lambda_hint) + L * L + 4);
  eopts.seed = rng.next();
  eopts.parallel = s.threads > 0;
  eopts.threads = s.threads;
  eopts.time_phases = true;

  std::optional<ft::ChannelGraph> graph;
  {
    auto sp = tr.span("model.graph");
    graph.emplace(ft::fat_tree_channel_graph(p.topo, p.caps,
                                             shard_level_for(s, p.topo)));
  }
  std::optional<ft::CycleEngine> engine;
  {
    auto sp = tr.span("engine.ctor");
    engine.emplace(std::move(*graph), eopts);
  }
  std::unique_ptr<ft::MessageStream> messages;
  if (s.traffic == Traffic::PermutationStream) {
    auto sp = tr.span("traffic.gen");
    ft::Rng gen(seed);
    messages = std::make_unique<ft::RandomPermutationStream>(s.n, gen);
  } else {
    messages = std::make_unique<ft::MessageSetStream>(p.messages);
  }
  TimedStream timed(*messages, tr);
  NonSelfStream routed(timed);
  ft::FatTreePathSource paths(p.topo, routed);
  TimedSource source(paths, tr);

  ft::EngineMetrics metrics;
  ft::TelemetryProbe probe;
  ft::ObserverFanout fanout;
  fanout.add(&metrics);
  fanout.add(&probe);
  TimedObserver observer(fanout, tr);
  const bool observe = s.observers && attach_observers;
  {
    auto sp = tr.span("engine.run");
    out.engine = engine->run_stream(source, observe ? &observer : nullptr);
  }
  out.result = fold_result(out.engine, routed.self_delivered());
  {
    auto sp = tr.span("obs.report");
    out.report_bytes =
        serialize_report(s, seed, e, out.result, observe ? &metrics : nullptr,
                         observe ? &probe : nullptr)
            .size();
  }
  return out;
}

/// The per-layer split of one traced set, in seconds unless named.
struct LayerSample {
  double set = 0, gen = 0, lambda = 0, graph = 0, ctor = 0, compile = 0;
  double up = 0, spine = 0, spine_pool = 0, down = 0, coord = 0;
  double coord_other = 0, observer = 0, report = 0, run = 0;
  double serial_fraction = 0, unattributed = 0;
  double ns_per_hop = 0, us_per_cycle = 0, delivered_per_attempt = 0;
  double report_bytes = 0;
};

LayerSample layer_sample(const Tracer& tr, std::uint32_t unit,
                         const ComposedSet& c) {
  const ft::EnginePhaseProfile& ph = c.engine.phases;
  LayerSample l;
  l.set = tr.total_seconds(unit, "set");
  l.gen = tr.total_seconds(unit, "traffic.gen");
  l.lambda = tr.total_seconds(unit, "load.lambda");
  l.graph = tr.total_seconds(unit, "model.graph");
  l.ctor = tr.total_seconds(unit, "engine.ctor");
  l.compile = tr.self_seconds(unit, "model.compile");
  l.observer = tr.total_seconds(unit, "obs.observer");
  l.report = tr.total_seconds(unit, "obs.report");
  l.run = tr.total_seconds(unit, "engine.run");
  l.up = ph.up_seconds;
  l.spine = ph.spine_seconds;
  l.spine_pool = ph.spine_parallel_seconds;
  l.down = ph.down_seconds;
  l.coord = ph.coord_seconds;
  // The engine prefetches the first chunk before cycle 1 (StreamAllFeed);
  // every later next_chunk call, with the generator reads inside it, and
  // every on_cycle falls inside the coordination phase.
  const double compile_in_loop = tr.total_seconds(unit, "model.compile") -
                                 tr.first_seconds(unit, "model.compile");
  l.coord_other = std::max(0.0, l.coord - compile_in_loop - l.observer);
  l.serial_fraction = ph.serial_fraction();
  l.unattributed = l.set - (l.gen + l.lambda + l.graph + l.ctor + l.compile +
                            l.observer + l.up + l.spine + l.spine_pool +
                            l.down + l.coord_other + l.report);
  const double sweeps = l.up + l.spine + l.spine_pool + l.down;
  const ft::EngineResult& er = c.engine;
  l.ns_per_hop = er.total_hops > 0
                     ? sweeps / static_cast<double>(er.total_hops) * 1e9
                     : 0.0;
  l.us_per_cycle =
      er.cycles > 0 ? l.run / static_cast<double>(er.cycles) * 1e6 : 0.0;
  l.delivered_per_attempt =
      er.total_attempts > 0 ? static_cast<double>(er.delivered) /
                                  static_cast<double>(er.total_attempts)
                            : 0.0;
  l.report_bytes = static_cast<double>(c.report_bytes);
  return l;
}

template <typename Field>
double median_of(const std::vector<LayerSample>& v, Field f) {
  std::vector<double> xs;
  xs.reserve(v.size());
  for (const LayerSample& l : v) xs.push_back(l.*f);
  return median(xs);
}

/// FNV-1a over the simulated statistics; repeats exactly for one seed.
std::uint64_t fingerprint(const ft::EngineResult& er,
                          const ft::OnlineRoutingResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  mix(r.delivery_cycles);
  mix(r.total_attempts);
  mix(r.total_losses);
  mix(er.total_hops);
  for (const std::uint32_t d : r.delivered_per_cycle) mix(d);
  return h;
}

/// Checks a composed set against the route_online result of the same
/// seed and prints its fingerprint.
void check_composed(const RouteSpec& s, std::uint64_t seed,
                    const ComposedSet& c, const ft::OnlineRoutingResult& ref,
                    const Expectation& e, Outcome& out, bool print) {
  std::string why = check_set(c.result, e);
  if (why.empty() && !same_result(c.result, ref)) {
    why = "composed EngineResult differs from route_online's";
  }
  if (!why.empty()) {
    out.check_failed(std::string(s.name) + " composed set: " + why);
  }
  if (print) {
    std::printf(
        "fingerprint %s seed=%llu 0x%016llx (cycles=%llu attempts=%llu "
        "losses=%llu hops=%llu backoffs=%llu)\n",
        s.name, static_cast<unsigned long long>(seed),
        static_cast<unsigned long long>(fingerprint(c.engine, c.result)),
        static_cast<unsigned long long>(c.result.delivery_cycles),
        static_cast<unsigned long long>(c.result.total_attempts),
        static_cast<unsigned long long>(c.result.total_losses),
        static_cast<unsigned long long>(c.engine.total_hops),
        static_cast<unsigned long long>(c.result.total_backoffs));
  }
}

}  // namespace

bool is_route_workload(const std::string& name) {
  return find_spec(name) != nullptr;
}

unsigned route_workload_threads(const std::string& name) {
  const RouteSpec* s = find_spec(name);
  if (s == nullptr) return 0;
  return s->threads == 0 ? 1 : static_cast<unsigned>(s->threads);
}

Outcome run_route_workload(const RunArgs& args) {
  const RouteSpec& s = *find_spec(args.workload);
  Outcome out;

  // Set-up, repeated; the median is setup_s.
  std::vector<double> setup_times;
  std::vector<double> setup_gen;
  auto time_setup = [&](std::optional<Prepared>& slot) {
    slot.reset();
    const auto t0 = Clock::now();
    slot.emplace(s, args.seed);
    setup_times.push_back(seconds_since(t0));
    setup_gen.push_back(slot->gen_seconds);
  };
  std::optional<Prepared> prep;
  for (std::size_t i = 0; i < kMinSetupReps; ++i) time_setup(prep);
  const Prepared& p = *prep;
  const Expectation e = expectation(s, p, args.seed);

  std::optional<ft::OnlineRoutingResult> first;
  auto record_untraced = [&](const SetRun& r) {
    ++out.attempted;
    std::string why = check_set(r.result, e);
    if (why.empty() && first && !same_result(r.result, *first)) {
      why = "set differs from the run's first set (nondeterminism)";
    }
    if (!why.empty()) {
      out.check_failed(std::string(s.name) + ": " + why);
    }
    if (!first) first = r.result;
  };

  std::vector<double> set_seconds;
  std::vector<double> traced_seconds;
  std::vector<double> run_with_obs;
  std::vector<double> run_without_obs;
  std::vector<LayerSample> layers;
  std::optional<ft::EngineResult> counts;
  Tracer tr;
  std::uint32_t unit = 0;

  // One untimed warm-up set: the allocator and caches reach the state
  // every later set starts from.
  record_untraced(run_set(s, p, args.seed, e));

  const auto start = Clock::now();
  auto more = [&](std::size_t have) {
    return have < kMinSets || seconds_since(start) < args.seconds;
  };
  if (!args.trace) {
    while (more(set_seconds.size())) {
      const SetRun r = run_set(s, p, args.seed, e);
      record_untraced(r);
      set_seconds.push_back(r.seconds);
      std::optional<Prepared> spare;
      const auto gap_t0 = Clock::now();
      for (std::size_t i = 0; i < kMaxGapReps; ++i) {
        time_setup(spare);
        if (seconds_since(gap_t0) >= kSetupShare * r.seconds) break;
      }
    }
  } else {
    // Rotate untraced, traced and (with observers) traced-without-
    // observers sets so drift hits every kind alike.
    const int kinds = s.observers ? 3 : 2;
    for (int k = 0;; k = (k + 1) % kinds) {
      if (k == 0 && !more(std::min({set_seconds.size(), traced_seconds.size(),
                                    s.observers ? run_without_obs.size()
                                                : kMinSets}))) {
        break;
      }
      if (k == 0) {
        const SetRun r = run_set(s, p, args.seed, e);
        record_untraced(r);
        set_seconds.push_back(r.seconds);
        continue;
      }
      tr.begin_unit(++unit);
      const auto t0 = Clock::now();
      const ComposedSet c =
          run_composed_set(s, p, args.seed, e, /*attach_observers=*/k == 1, tr);
      const double secs = seconds_since(t0);
      ++out.attempted;
      check_composed(s, args.seed, c, *first, e, out, /*print=*/unit == 1);
      const double run = tr.total_seconds(unit, "engine.run");
      if (k == 2) {
        run_without_obs.push_back(run);
        continue;
      }
      traced_seconds.push_back(secs);
      run_with_obs.push_back(run);
      layers.push_back(layer_sample(tr, unit, c));
      // Counts repeat exactly from set to set (checked above).
      if (!counts) counts = c.engine;
    }
  }

  if (!args.trace) {
    // One composed set, untimed: the composition must agree with
    // route_online, and it is what exposes hops for the fingerprint.
    tr.begin_unit(++unit);
    const ComposedSet c = run_composed_set(s, p, args.seed, e, true, tr);
    ++out.attempted;
    check_composed(s, args.seed, c, *first, e, out, /*print=*/true);

    // Throughput and latency come from the run's least-disturbed window,
    // here its fastest set: interference from other load on the host only
    // ever adds time, and it swings by tens of percent over tens of
    // seconds, so the best window is the steadiest estimate of the
    // program's own cost (README.md, "Steadiness").
    const double best = *std::min_element(set_seconds.begin(),
                                          set_seconds.end());
    std::printf("%s: %zu sets of %llu messages, fastest %.6f s, median %.6f "
                "s; set seconds:",
                s.name, set_seconds.size(),
                static_cast<unsigned long long>(e.injected), best,
                median(set_seconds));
    for (const double t : set_seconds) std::printf(" %.4f", t);
    std::printf("\n");
    out.add("msgs_per_s", static_cast<double>(e.injected) / best,
            "messages/s");
    out.add("jobs_per_s", 1.0 / best, "jobs/s");
    out.add("job_p50_ms", best * 1e3, "ms");
    out.add("setup_s", median(setup_times), "s");
    out.add("peak_rss_mib",
            static_cast<double>(ft::host_peak_rss_bytes()) / (1024.0 * 1024.0),
            "MiB");
    return out;
  }

  using L = LayerSample;
  const double gen_setup = s.traffic == Traffic::PermutationStream
                               ? 0.0
                               : median(setup_gen);
  out.add("traffic.gen_s", median_of(layers, &L::gen) + gen_setup, "s");
  out.add("load.lambda_s", median_of(layers, &L::lambda), "s");
  out.add("model.graph_s", median_of(layers, &L::graph), "s");
  out.add("model.compile_s", median_of(layers, &L::compile), "s");
  out.add("engine.ctor_s", median_of(layers, &L::ctor), "s");
  out.add("engine.up_s", median_of(layers, &L::up), "s");
  out.add("engine.spine_s", median_of(layers, &L::spine), "s");
  out.add("engine.spine_pool_s", median_of(layers, &L::spine_pool), "s");
  out.add("engine.down_s", median_of(layers, &L::down), "s");
  out.add("engine.ns_per_hop", median_of(layers, &L::ns_per_hop), "ns");
  out.add("engine.coord_s", median_of(layers, &L::coord), "s");
  out.add("engine.coord_other_s", median_of(layers, &L::coord_other), "s");
  out.add("engine.serial_fraction", median_of(layers, &L::serial_fraction),
          "ratio");
  out.add("engine.us_per_cycle", median_of(layers, &L::us_per_cycle), "us");
  out.add("engine.cycles", static_cast<double>(counts->cycles), "count");
  out.add("engine.attempts", static_cast<double>(counts->total_attempts),
          "count");
  out.add("engine.losses", static_cast<double>(counts->total_losses), "count");
  out.add("engine.hops", static_cast<double>(counts->total_hops), "count");
  out.add("engine.backoffs", static_cast<double>(counts->total_backoffs),
          "count");
  out.add("engine.delivered_per_attempt",
          median_of(layers, &L::delivered_per_attempt), "ratio");
  if (s.observers) {
    out.add("obs.observer_s", median_of(layers, &L::observer), "s");
    out.add("obs.observer_cost_ratio",
            median(run_with_obs) / median(run_without_obs), "ratio");
  }
  out.add("obs.report_s", median_of(layers, &L::report), "s");
  out.add("obs.report_bytes", median_of(layers, &L::report_bytes), "bytes");
  out.add("unattributed_s", median_of(layers, &L::unattributed), "s");
  out.add("tracing_overhead",
          median(traced_seconds) / median(set_seconds) - 1.0, "ratio");
  std::printf(
      "%s traced: %zu untraced + %zu traced sets (+%zu without observers); "
      "median set %.6f s untraced, %.6f s traced\n",
      s.name, set_seconds.size(), traced_seconds.size(),
      run_without_obs.size(), median(set_seconds), median(traced_seconds));

  if (!args.spans_path.empty()) {
    std::ofstream f(args.spans_path);
    if (f) tr.write_chrome_trace(f);
  }
  return out;
}

}  // namespace ftbench
