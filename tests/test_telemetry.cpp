// Congestion-observatory tests: ring-downsampling invariants, the
// space-saving sketch's error bound, quantile-digest accuracy, the
// serial == sharded-parallel telemetry-stream parity guarantee (with and
// without fault plans), engine non-perturbation with a probe attached,
// scalar-series conservation at any sampling rate, latency/stretch digest
// semantics in both engine modes, phase-profile sanity, and the
// ft.run_report/2 round trip.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>

#include "core/capacity.hpp"
#include "core/offline_scheduler.hpp"
#include "core/online_router.hpp"
#include "core/replay.hpp"
#include "core/topology.hpp"
#include "core/traffic.hpp"
#include "engine/engine.hpp"
#include "engine/fat_tree_model.hpp"
#include "engine/fault_plan.hpp"
#include "nets/builders.hpp"
#include "nets/routing.hpp"
#include "nets/store_forward.hpp"
#include "obs/run_report.hpp"
#include "obs/telemetry.hpp"
#include "util/prng.hpp"

namespace ft {
namespace {

// --- TelemetryRing --------------------------------------------------------

TEST(TelemetryRing, DownsamplingConservesAndStaysBounded) {
  TelemetryRing ring(8);
  std::uint64_t want_value = 0, want_count = 0;
  const std::uint64_t windows = 1000;
  for (std::uint64_t i = 0; i < windows; ++i) {
    ring.push(/*start_cycle=*/i + 1, /*span=*/1, /*sampled=*/1,
              /*value=*/i * 3 + 1);
    want_value += i * 3 + 1;
    want_count += 1;
  }
  ring.flush();

  EXPECT_LE(ring.samples().size(), ring.capacity());
  EXPECT_GE(ring.samples().size(), ring.capacity() / 2);
  // Stride is the power of two that folds `windows` base windows into at
  // most `capacity` samples.
  EXPECT_EQ(ring.stride() & (ring.stride() - 1), 0u);
  EXPECT_GE(static_cast<std::uint64_t>(ring.stride()) * ring.capacity(),
            windows);

  // Conservation: every pushed value and sampled cycle survives
  // downsampling, and the committed windows tile the run contiguously.
  std::uint64_t got_value = 0, got_count = 0, got_span = 0;
  std::uint64_t prev_end = 1;
  for (const TelemetrySample& s : ring.samples()) {
    EXPECT_EQ(s.start_cycle, prev_end);
    prev_end = s.start_cycle + s.span;
    got_value += s.value;
    got_count += s.count;
    got_span += s.span;
  }
  EXPECT_EQ(got_value, want_value);
  EXPECT_EQ(got_count, want_count);
  EXPECT_EQ(got_span, windows);
  EXPECT_EQ(ring.total_value(), want_value);
  EXPECT_EQ(ring.total_count(), want_count);
}

TEST(TelemetryRing, CapacitySanitizedToEvenAtLeastTwo) {
  EXPECT_EQ(TelemetryRing(0).capacity(), 2u);
  EXPECT_EQ(TelemetryRing(1).capacity(), 2u);
  EXPECT_EQ(TelemetryRing(7).capacity(), 8u);
  EXPECT_EQ(TelemetryRing(8).capacity(), 8u);
}

TEST(TelemetryRing, FlushIsIdempotentAndPartialWindowsCommit) {
  TelemetryRing ring(4);
  ring.push(1, 1, 1, 10);
  ring.flush();
  ring.flush();
  ASSERT_EQ(ring.samples().size(), 1u);
  EXPECT_EQ(ring.samples()[0].value, 10u);
  // Pushing after a flush keeps accumulating correctly.
  ring.push(2, 1, 1, 20);
  ring.flush();
  ASSERT_EQ(ring.samples().size(), 2u);
  EXPECT_EQ(ring.total_value(), 30u);
  EXPECT_EQ(ring.total_count(), 2u);
}

// --- SpaceSavingSketch ----------------------------------------------------

TEST(SpaceSavingSketch, ErrorBoundAndHeavyHitterGuarantee) {
  const std::size_t k = 8;
  SpaceSavingSketch sketch(k);
  // 4 heavy keys and 60 light keys; total weight known exactly.
  std::uint64_t total = 0;
  std::uint64_t true_heavy[4] = {};
  for (int round = 0; round < 50; ++round) {
    for (std::uint64_t key = 0; key < 64; ++key) {
      const std::uint64_t w = key < 4 ? 100 : 1;
      sketch.add(key, w, /*tag=*/static_cast<std::uint32_t>(key % 5));
      total += w;
      if (key < 4) true_heavy[key] += w;
    }
  }
  EXPECT_EQ(sketch.total_weight(), total);

  const auto top = sketch.top();
  EXPECT_LE(top.size(), k);
  // Error bound: every entry's inherited error is at most total / k.
  for (const auto& e : top) {
    EXPECT_LE(e.error, total / k) << "key " << e.key;
    EXPECT_LE(e.count, total);
  }
  // Every key with true weight above total / k must be tracked, with
  // count bracketing true_count <= count <= true_count + error.
  for (std::uint64_t key = 0; key < 4; ++key) {
    ASSERT_GT(true_heavy[key], total / k) << "test workload not heavy";
    bool found = false;
    for (const auto& e : top) {
      if (e.key != key) continue;
      found = true;
      EXPECT_GE(e.count, true_heavy[key]);
      EXPECT_LE(e.count - e.error, true_heavy[key]);
    }
    EXPECT_TRUE(found) << "heavy key " << key << " evicted";
  }
}

TEST(SpaceSavingSketch, TopIsSortedCountDescKeyAsc) {
  SpaceSavingSketch sketch(4);
  sketch.add(30, 5);
  sketch.add(10, 5);
  sketch.add(20, 9);
  const auto top = sketch.top();
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].key, 20u);
  EXPECT_EQ(top[1].key, 10u);  // tie with 30 resolves by ascending key
  EXPECT_EQ(top[2].key, 30u);
}

// --- QuantileDigest -------------------------------------------------------

TEST(QuantileDigest, ExactBelowCutoff) {
  QuantileDigest d;
  for (std::uint64_t v = 1; v <= 63; ++v) d.add(v);
  EXPECT_EQ(d.count(), 63u);
  EXPECT_EQ(d.min(), 1u);
  EXPECT_EQ(d.max(), 63u);
  EXPECT_NEAR(d.mean(), 32.0, 1e-9);
  EXPECT_EQ(d.quantile(0.5), 32u);
  EXPECT_EQ(d.quantile(0.0), 1u);
  EXPECT_EQ(d.quantile(1.0), 63u);
}

TEST(QuantileDigest, BoundedRelativeErrorAboveCutoff) {
  QuantileDigest d;
  // Uniform weights over a wide range; reported quantiles are the bucket
  // upper bounds, so they overshoot by at most one sub-bucket (~1/32 of
  // an octave, ~3.2% relative).
  for (std::uint64_t v = 64; v <= 100000; v += 7) d.add(v);
  for (const double q : {0.5, 0.95, 0.99}) {
    const double exact = 64.0 + (100000.0 - 64.0) * q;
    const double got = static_cast<double>(d.quantile(q));
    EXPECT_GE(got, exact * 0.999) << "q=" << q;  // conservative: never low
    EXPECT_LE(got, exact * 1.04) << "q=" << q;
  }
  // Min and max stay exact, and quantiles clamp to them.
  EXPECT_EQ(d.quantile(1.0), d.max());
  EXPECT_GE(d.quantile(0.0), d.min());
}

TEST(QuantileDigest, SingleValueAllQuantiles) {
  QuantileDigest d;
  d.add(1000, 17);
  EXPECT_EQ(d.count(), 17u);
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(d.quantile(q), 1000u) << "q=" << q;
  }
}

// --- Probe vs engine ------------------------------------------------------

// A serial run and a sharded-parallel run (every shard depth) must emit
// identical telemetry streams: the probe only ever samples on the serial
// coordination path. Checked at full resolution and subsampled.
TEST(Telemetry, SerialShardedParityFingerprint) {
  const std::uint32_t n = 128;
  FatTreeTopology topo(n);
  const auto caps = CapacityProfile::universal(topo, 32);
  Rng gen(17);
  const struct {
    const char* name;
    MessageSet m;
  } workloads[] = {
      {"complement", complement_traffic(n)},
      {"stacked", stacked_permutations(n, 4, gen)},
  };

  for (const auto& w : workloads) {
    const std::vector<MessageSet> sets{w.m};
    for (const std::uint32_t every_k : {1u, 4u}) {
      TelemetryOptions topts;
      topts.every_k = every_k;

      TelemetryProbe serial_probe(topts);
      EngineOptions serial_opts;
      serial_opts.seed = 321;
      CycleEngine serial_engine(fat_tree_channel_graph(topo, caps),
                                serial_opts);
      MessageSetPairs serial_pairs(sets);
      const EngineResult serial =
          serial_engine.run_stream(serial_pairs, &serial_probe);
      EXPECT_FALSE(serial.gave_up) << w.name;
      const std::uint64_t want = serial_probe.fingerprint();
      EXPECT_EQ(serial_probe.cycles_seen(), serial.cycles);

      for (const std::uint32_t shard_level : {1u, 2u, 3u}) {
        TelemetryProbe probe(topts);
        EngineOptions opts;
        opts.seed = 321;
        opts.parallel = true;
        CycleEngine engine(fat_tree_channel_graph(topo, caps, shard_level),
                           opts);
        MessageSetPairs pairs(sets);
        const EngineResult sharded = engine.run_stream(pairs, &probe);
        EXPECT_EQ(sharded.cycles, serial.cycles) << w.name;
        EXPECT_EQ(probe.fingerprint(), want)
            << w.name << " shard_level=" << shard_level
            << " every_k=" << every_k;
      }
    }
  }
}

// Parity must survive the full fault machinery: dynamic flaps, correlated
// subtree kills and exponential backoff all feed the same telemetry
// stream serial and sharded.
TEST(Telemetry, SerialShardedParityUnderFaults) {
  const std::uint32_t n = 64;
  FatTreeTopology topo(n);
  const auto caps = CapacityProfile::universal(topo, 16);
  Rng gen(23);
  const std::vector<MessageSet> sets{stacked_permutations(n, 3, gen)};

  FaultPlan plan(404);
  plan.set_domains(fat_tree_subtree_domains(topo, 2));
  plan.add_subtree_kill({/*node=*/5, /*at_cycle=*/2, /*duration=*/4});
  plan.set_storm({0.05, 1, 5});

  TelemetryProbe serial_probe;
  EngineOptions serial_opts;
  serial_opts.seed = 55;
  serial_opts.fault_plan = &plan;
  serial_opts.retry.exponential_backoff = true;
  CycleEngine serial_engine(fat_tree_channel_graph(topo, caps), serial_opts);
  MessageSetPairs serial_pairs(sets);
  const EngineResult serial =
      serial_engine.run_stream(serial_pairs, &serial_probe);
  EXPECT_GT(serial.fault_down_events, 0u);

  TelemetryProbe probe;
  EngineOptions opts = serial_opts;
  opts.parallel = true;
  CycleEngine engine(fat_tree_channel_graph(topo, caps, 2), opts);
  MessageSetPairs pairs(sets);
  const EngineResult sharded = engine.run_stream(pairs, &probe);

  EXPECT_EQ(sharded.cycles, serial.cycles);
  EXPECT_EQ(probe.fingerprint(), serial_probe.fingerprint());
  // The fault counters reached the series: channels_down accumulated
  // something over the run.
  const TelemetryRing* down = serial_probe.series("channels_down");
  ASSERT_NE(down, nullptr);
  EXPECT_GT(down->total_value(), 0u);
}

// Observers never influence arbitration: an engine run with a telemetry
// probe attached produces the bit-identical EngineResult of a bare run.
TEST(Telemetry, ProbeDoesNotPerturbEngineResults) {
  const std::uint32_t n = 128;
  FatTreeTopology topo(n);
  const auto caps = CapacityProfile::universal(topo, 32);
  Rng gen(29);
  const std::vector<MessageSet> sets{stacked_permutations(n, 4, gen)};

  EngineOptions opts;
  opts.seed = 777;
  CycleEngine bare_engine(fat_tree_channel_graph(topo, caps), opts);
  MessageSetPairs bare_pairs(sets);
  const EngineResult bare = bare_engine.run_stream(bare_pairs);

  TelemetryProbe probe;
  CycleEngine probed_engine(fat_tree_channel_graph(topo, caps), opts);
  MessageSetPairs probed_pairs(sets);
  const EngineResult probed = probed_engine.run_stream(probed_pairs, &probe);

  EXPECT_EQ(bare.cycles, probed.cycles);
  EXPECT_EQ(bare.delivered, probed.delivered);
  EXPECT_EQ(bare.total_attempts, probed.total_attempts);
  EXPECT_EQ(bare.total_losses, probed.total_losses);
  EXPECT_EQ(bare.total_hops, probed.total_hops);
  EXPECT_EQ(bare.gave_up, probed.gave_up);
}

// Scalar counter series accumulate every cycle regardless of every_k, so
// their totals conserve the engine's counters exactly at any sampling
// rate; only channel-state capture is subsampled.
TEST(Telemetry, ScalarSeriesConserveAtAnySamplingRate) {
  const std::uint32_t n = 64;
  FatTreeTopology topo(n);
  const auto caps = CapacityProfile::universal(topo, 16);
  Rng gen(31);
  const std::vector<MessageSet> sets{stacked_permutations(n, 3, gen)};

  for (const std::uint32_t every_k : {1u, 5u}) {
    TelemetryOptions topts;
    topts.every_k = every_k;
    TelemetryProbe probe(topts);
    EngineOptions opts;
    opts.seed = 99;
    CycleEngine engine(fat_tree_channel_graph(topo, caps), opts);
    MessageSetPairs pairs(sets);
    const EngineResult r = engine.run_stream(pairs, &probe);
    probe.finalize();

    const TelemetryRing* attempts = probe.series("attempts");
    const TelemetryRing* losses = probe.series("losses");
    const TelemetryRing* delivered = probe.series("delivered");
    ASSERT_NE(attempts, nullptr);
    ASSERT_NE(losses, nullptr);
    ASSERT_NE(delivered, nullptr);
    EXPECT_EQ(attempts->total_value(), r.total_attempts)
        << "every_k=" << every_k;
    EXPECT_EQ(losses->total_value(), r.total_losses)
        << "every_k=" << every_k;
    EXPECT_EQ(delivered->total_value(), r.delivered)
        << "every_k=" << every_k;
    // Every cycle was observed (scalar path), even when channel state
    // was subsampled.
    EXPECT_EQ(attempts->total_count(), r.cycles) << "every_k=" << every_k;
    EXPECT_EQ(probe.cycles_seen(), r.cycles);
    EXPECT_EQ(probe.series("does_not_exist"), nullptr);
  }
}

// Uncontended lossy traffic: every delivery takes exactly one cycle, so
// the latency digest collapses to 1 and stretch to 1000 milli-units.
TEST(Telemetry, LatencyDigestUncontendedLossy) {
  const std::uint32_t n = 32;
  FatTreeTopology topo(n);
  // Enormous capacity: no contention anywhere.
  const auto caps = CapacityProfile::universal(topo, 4096);
  Rng gen(37);
  const auto m = random_permutation_traffic(n, gen);
  std::uint64_t routed = 0;
  for (const auto& msg : m) {
    if (msg.src != msg.dst) ++routed;
  }

  TelemetryProbe probe;
  Rng rng(38);
  OnlineRouterOptions opts;
  opts.observer = &probe;
  const auto r = route_online(topo, caps, m, rng, opts);
  EXPECT_FALSE(r.gave_up);
  probe.finalize();

  EXPECT_EQ(probe.latency_digest().count(), routed);
  EXPECT_EQ(probe.latency_digest().min(), 1u);
  EXPECT_EQ(probe.latency_digest().max(), 1u);
  EXPECT_EQ(probe.stretch_digest().quantile(0.5), 1000u);
  EXPECT_EQ(probe.stretch_digest().quantile(0.999), 1000u);
}

// FIFO store-and-forward: latency is the finish round, the ideal is the
// hop count, and without queueing each message moves one hop per round —
// stretch is exactly 1000 again.
TEST(Telemetry, LatencyDigestFifoStretch) {
  const auto net = build_hypercube(5);
  Rng traffic(41);
  const auto m = random_permutation_traffic(32, traffic);
  const auto routes = route_all_bfs(net, m);

  TelemetryProbe probe;
  StoreForwardOptions opts;
  opts.observer = &probe;
  const auto r = simulate_store_forward(net, routes, opts);
  probe.finalize();

  EXPECT_GT(probe.latency_digest().count(), 0u);
  EXPECT_GE(probe.latency_digest().max(),
            probe.latency_digest().min());
  // Stretch >= 1.0 always (a message cannot beat its own path length),
  // and the fastest messages ran contention-free.
  EXPECT_GE(probe.stretch_digest().quantile(0.0), 1000u);
  EXPECT_EQ(r.rounds, probe.cycles_seen());
}

// Offline replay passes the engine's per-delivery latency samples through
// to the caller's observer: every replayed message lands in the digests.
TEST(Telemetry, ReplayFeedsLatencyDigest) {
  const std::uint32_t n = 64;
  FatTreeTopology topo(n);
  const auto caps = CapacityProfile::universal(topo, n / 4);
  const auto m = transpose_traffic(n);
  const Schedule schedule = schedule_offline(topo, caps, m);

  TelemetryProbe probe;
  const ReplayResult r = replay_schedule(topo, caps, schedule, {}, &probe);
  probe.finalize();

  EXPECT_EQ(r.delivered, m.size());
  EXPECT_EQ(probe.latency_digest().count(), r.delivered);
  EXPECT_EQ(probe.stretch_digest().count(), r.delivered);
  // A valid schedule delivers every message in its own cycle.
  EXPECT_EQ(probe.latency_digest().max(), 1u);
}

// --- Phase profiling ------------------------------------------------------

TEST(Telemetry, PhaseProfileMeasuresWhenEnabled) {
  const std::uint32_t n = 64;
  FatTreeTopology topo(n);
  const auto caps = CapacityProfile::universal(topo, 16);
  Rng gen(47);
  const auto m = stacked_permutations(n, 3, gen);

  Rng rng(48);
  OnlineRouterOptions opts;
  opts.time_phases = true;
  const auto r = route_online(topo, caps, m, rng, opts);
  EXPECT_FALSE(r.gave_up);
  EXPECT_EQ(r.phases.timed_cycles, r.delivery_cycles);
  const double f = r.phases.serial_fraction();
  EXPECT_GE(f, 0.0);
  EXPECT_LE(f, 1.0);
  EXPECT_GT(r.phases.up_seconds + r.phases.spine_seconds +
                r.phases.down_seconds + r.phases.coord_seconds,
            0.0);

  // Off by default: an untimed run reports an all-zero profile.
  Rng rng2(48);
  const auto untimed = route_online(topo, caps, m, rng2, {});
  EXPECT_EQ(untimed.phases.timed_cycles, 0u);
  // Timing never changes routing results.
  EXPECT_EQ(untimed.delivery_cycles, r.delivery_cycles);
  EXPECT_EQ(untimed.delivered_per_cycle, r.delivered_per_cycle);
}

// --- Export round trips ---------------------------------------------------

TEST(Telemetry, RunReportV2RoundTrip) {
  const std::uint32_t n = 64;
  FatTreeTopology topo(n);
  const auto caps = CapacityProfile::universal(topo, 16);
  Rng gen(53);
  const auto m = stacked_permutations(n, 2, gen);

  TelemetryProbe probe;
  Rng rng(54);
  OnlineRouterOptions opts;
  opts.observer = &probe;
  opts.time_phases = true;
  const auto res = route_online(topo, caps, m, rng, opts);
  EXPECT_FALSE(res.gave_up);

  RunReport report("test_telemetry");
  report.params()["n"] = n;
  JsonValue& run = report.add_run("roundtrip");
  run["telemetry"] = probe.to_json();
  run["amdahl"] = phase_profile_json(res.phases);

  const std::string path = "test_telemetry_roundtrip.json";
  ASSERT_TRUE(report.write_file(path));
  const auto doc = RunReport::read_file(path);
  std::remove(path.c_str());
  ASSERT_TRUE(doc.has_value());

  const JsonValue* schema = doc->find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->as_string(), "ft.run_report/2");

  const JsonValue* runs = doc->find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->size(), 1u);
  const JsonValue* telem = runs->at(0).find("telemetry");
  ASSERT_NE(telem, nullptr);
  for (const char* key :
       {"config", "cycles", "fingerprint_hex", "levels", "series",
        "top_channels", "latency", "stretch"}) {
    EXPECT_NE(telem->find(key), nullptr) << key;
  }
  EXPECT_EQ(telem->find("cycles")->as_uint(), res.delivery_cycles);
  const JsonValue* amdahl = runs->at(0).find("amdahl");
  ASSERT_NE(amdahl, nullptr);
  ASSERT_NE(amdahl->find("serial_fraction"), nullptr);
  const double f = amdahl->find("serial_fraction")->as_double();
  EXPECT_GE(f, 0.0);
  EXPECT_LE(f, 1.0);
}

TEST(Telemetry, HeatmapExportsParse) {
  const std::uint32_t n = 64;
  FatTreeTopology topo(n);
  const auto caps = CapacityProfile::universal(topo, 16);
  Rng gen(59);
  const auto m = stacked_permutations(n, 2, gen);

  TelemetryProbe probe;
  Rng rng(60);
  OnlineRouterOptions opts;
  opts.observer = &probe;
  const auto r = route_online(topo, caps, m, rng, opts);
  EXPECT_FALSE(r.gave_up);

  std::ostringstream csv;
  probe.write_heatmap_csv(csv);
  std::istringstream csv_in(csv.str());
  std::string header;
  ASSERT_TRUE(std::getline(csv_in, header));
  EXPECT_EQ(header,
            "level,start_cycle,span,sampled_cycles,carried,utilization");
  std::size_t rows = 0;
  for (std::string line; std::getline(csv_in, line);) ++rows;
  EXPECT_GT(rows, 0u);

  // Every JSONL line is standalone-parseable, and the three record types
  // all appear.
  std::ostringstream jsonl;
  probe.write_heatmap_jsonl(jsonl);
  std::istringstream jsonl_in(jsonl.str());
  bool saw_series = false, saw_top = false, saw_latency = false;
  for (std::string line; std::getline(jsonl_in, line);) {
    const auto v = JsonValue::parse(line);
    ASSERT_TRUE(v.has_value()) << line;
    const JsonValue* type = v->find("type");
    ASSERT_NE(type, nullptr);
    if (type->as_string() == "series") saw_series = true;
    if (type->as_string() == "top_channels") saw_top = true;
    if (type->as_string() == "latency") saw_latency = true;
  }
  EXPECT_TRUE(saw_series);
  EXPECT_TRUE(saw_top);
  EXPECT_TRUE(saw_latency);
}

// reset() returns the probe to a reusable pristine state.
TEST(Telemetry, ResetAllowsReuse) {
  const std::uint32_t n = 32;
  FatTreeTopology topo(n);
  const auto caps = CapacityProfile::universal(topo, 8);
  Rng gen(61);
  const std::vector<MessageSet> sets{random_permutation_traffic(n, gen)};

  TelemetryProbe probe;
  EngineOptions opts;
  opts.seed = 5;
  CycleEngine engine(fat_tree_channel_graph(topo, caps), opts);
  MessageSetPairs pairs(sets);
  (void)engine.run_stream(pairs, &probe);
  const std::uint64_t first = probe.fingerprint();

  probe.reset();
  EXPECT_EQ(probe.cycles_seen(), 0u);

  CycleEngine engine2(fat_tree_channel_graph(topo, caps), opts);
  MessageSetPairs pairs2(sets);
  (void)engine2.run_stream(pairs2, &probe);
  EXPECT_EQ(probe.fingerprint(), first);
}

}  // namespace
}  // namespace ft
