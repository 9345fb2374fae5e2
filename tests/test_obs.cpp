// Observability-layer tests: histogram edge semantics, the JSON model
// round trip, EngineMetrics' reuse guard and pinned report bytes, trace
// export validity (JSONL and Chrome trace_event), and the RunReport
// schema round trip.
#include <gtest/gtest.h>

#include <cstdio>
#include <numeric>
#include <sstream>
#include <string>

#include "core/online_router.hpp"
#include "core/traffic.hpp"
#include "engine/fault_plan.hpp"
#include "nets/builders.hpp"
#include "nets/routing.hpp"
#include "nets/store_forward.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace ft {
namespace {

TEST(Histogram, BinBoundaries) {
  Histogram h(0.0, 1.0, 10);
  h.observe(0.0);  // bottom edge -> first bin
  EXPECT_EQ(h.bin_count(0), 1u);
  h.observe(1.0);  // top edge: closed top bin, not overflow
  EXPECT_EQ(h.bin_count(9), 1u);
  EXPECT_EQ(h.overflow(), 0u);
  h.observe(0.25);
  EXPECT_EQ(h.bin_count(2), 1u);
  h.observe(0.95);
  EXPECT_EQ(h.bin_count(9), 2u);

  // Overload (utilization > 1, e.g. Tally replay of an invalid schedule)
  // must stay visible instead of being clamped into the top bin.
  h.observe(1.5);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.bin_count(9), 2u);
  h.observe(-0.1);
  EXPECT_EQ(h.underflow(), 1u);

  EXPECT_EQ(h.total(), 6u);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(9), 1.0);

  h.reset();
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.overflow(), 0u);

  // A weighted observation lands in the same bin as that many single
  // ones (EngineMetrics enters a cycle's idle channels this way); weight
  // 0 records nothing.
  h.observe(0.0, 5);
  EXPECT_EQ(h.bin_count(0), 5u);
  h.observe(0.35, 3);
  EXPECT_EQ(h.bin_count(3), 3u);
  h.observe(2.0, 2);
  EXPECT_EQ(h.overflow(), 2u);
  h.observe(-1.0, 4);
  EXPECT_EQ(h.underflow(), 4u);
  h.observe(0.5, 0);
  EXPECT_EQ(h.bin_count(5), 0u);
  EXPECT_EQ(h.total(), 14u);
}

TEST(Json, RoundTrip) {
  JsonValue doc = JsonValue::object();
  doc["int"] = -42;
  doc["big"] = std::uint64_t{18446744073709551615ull};
  doc["pi"] = 3.14159;
  doc["flag"] = true;
  doc["none"] = JsonValue();
  doc["text"] = "line\n\"quoted\"\tend";
  JsonValue& arr = doc["arr"];
  arr = JsonValue::array();
  for (int i = 0; i < 3; ++i) arr.push_back(i);
  doc["nested"]["deep"] = "value";

  for (const int indent : {0, 2}) {
    const std::string text = doc.dump(indent);
    const auto parsed = JsonValue::parse(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_EQ(parsed->find("int")->as_int(), -42);
    EXPECT_EQ(parsed->find("big")->as_uint(), 18446744073709551615ull);
    EXPECT_DOUBLE_EQ(parsed->find("pi")->as_double(), 3.14159);
    EXPECT_TRUE(parsed->find("flag")->as_bool());
    EXPECT_TRUE(parsed->find("none")->is_null());
    EXPECT_EQ(parsed->find("text")->as_string(), "line\n\"quoted\"\tend");
    EXPECT_EQ(parsed->find("arr")->size(), 3u);
    EXPECT_EQ(parsed->find("arr")->at(2).as_int(), 2);
    EXPECT_EQ(parsed->find("nested")->find("deep")->as_string(), "value");
    // Stable output: dumping the parse reproduces the text exactly.
    EXPECT_EQ(parsed->dump(indent), text);
  }

  EXPECT_FALSE(JsonValue::parse("{\"unterminated\": ").has_value());
  EXPECT_FALSE(JsonValue::parse("{} trailing").has_value());
  const auto esc = JsonValue::parse("\"a\\u00e9b\"");
  ASSERT_TRUE(esc.has_value());
  EXPECT_EQ(esc->as_string(), "a\xc3\xa9" "b");
}

/// Routes 2 stacked permutations of n through an observed online run.
/// `routed_out`, when given, receives the number of non-self messages —
/// the ones that enter the engine and emit events.
OnlineRoutingResult observed_route(std::uint32_t n, EngineObserver* obs,
                                   std::uint32_t max_cycles = 0,
                                   std::uint64_t* routed_out = nullptr) {
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::universal(t, n / 4);
  Rng gen(5);
  const auto m = stacked_permutations(n, 2, gen);
  if (routed_out != nullptr) {
    *routed_out = 0;
    for (const auto& msg : m) {
      if (msg.src != msg.dst) ++*routed_out;
    }
  }
  Rng rng(6);
  OnlineRouterOptions opts;
  opts.observer = obs;
  if (max_cycles != 0) opts.max_cycles = max_cycles;
  return route_online(t, caps, m, rng, opts);
}

TEST(EngineMetricsDeathTest, RejectsGraphShapeChange) {
  EngineMetrics metrics;
  observed_route(64, &metrics);
  // Same shape again: fine, aggregates.
  observed_route(64, &metrics);
  // Different topology without reset(): checked error, not silent blending.
  EXPECT_DEATH(observed_route(128, &metrics), "different graph shape");
  metrics.reset();
  observed_route(128, &metrics);  // reset() re-arms for a new shape
  EXPECT_GT(metrics.total_delivered(), 0u);
}

TEST(TraceSink, JsonlAndEventCounts) {
  TraceSink trace;
  std::uint64_t routed = 0;
  const auto r = observed_route(64, &trace, 0, &routed);
  ASSERT_FALSE(r.gave_up);

  std::uint64_t injects = 0, attempts = 0, losses = 0, delivers = 0;
  for (const MessageEvent& e : trace.message_events()) {
    switch (e.kind) {
      case MessageEventKind::Inject: ++injects; break;
      case MessageEventKind::Attempt: ++attempts; break;
      case MessageEventKind::Loss: ++losses; break;
      case MessageEventKind::Deliver: ++delivers; break;
      default: FAIL() << "unexpected event kind";
    }
  }
  EXPECT_EQ(injects, routed);  // self messages never enter the engine
  EXPECT_EQ(delivers, routed);
  EXPECT_EQ(attempts, r.total_attempts);
  EXPECT_EQ(losses, r.total_losses);
  EXPECT_EQ(trace.cycle_records().size(), r.delivery_cycles);
  EXPECT_EQ(trace.dropped_events(), 0u);

  std::ostringstream jsonl;
  trace.write_jsonl(jsonl);
  std::istringstream lines(jsonl.str());
  std::string line;
  std::size_t cycles_seen = 0, events_seen = 0;
  while (std::getline(lines, line)) {
    const auto v = JsonValue::parse(line);
    ASSERT_TRUE(v.has_value()) << line;
    const std::string& type = v->find("type")->as_string();
    if (type == "cycle") {
      ++cycles_seen;
    } else {
      ++events_seen;
    }
  }
  EXPECT_EQ(cycles_seen, r.delivery_cycles);
  EXPECT_EQ(events_seen, trace.message_events().size());
}

TEST(TraceSink, ChromeTraceIsValidAndOrdered) {
  TraceSink trace;
  const auto r = observed_route(64, &trace);
  ASSERT_FALSE(r.gave_up);

  std::ostringstream out;
  trace.write_chrome_trace(out);
  const auto doc = JsonValue::parse(out.str());
  ASSERT_TRUE(doc.has_value());
  const JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_GT(events->size(), 0u);

  std::uint64_t last_slice_ts = 0;
  std::size_t slices = 0;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const JsonValue& e = events->at(i);
    const std::string& ph = e.find("ph")->as_string();
    ASSERT_NE(e.find("ts"), nullptr);
    if (ph == "X") {
      const std::uint64_t ts = e.find("ts")->as_uint();
      if (slices > 0) {
        EXPECT_GT(ts, last_slice_ts);  // monotonic cycles
      }
      last_slice_ts = ts;
      ++slices;
      ASSERT_NE(e.find("dur"), nullptr);
    }
  }
  EXPECT_EQ(slices, r.delivery_cycles);
}

TEST(TraceSink, GiveUpEventsCoverUndelivered) {
  TraceSink trace;
  const auto r = observed_route(64, &trace, /*max_cycles=*/1);
  ASSERT_TRUE(r.gave_up);
  const std::uint64_t delivered =
      std::accumulate(r.delivered_per_cycle.begin(),
                      r.delivered_per_cycle.end(), std::uint64_t{0});
  std::uint64_t give_ups = 0;
  for (const MessageEvent& e : trace.message_events()) {
    if (e.kind == MessageEventKind::GiveUp) {
      ++give_ups;
      EXPECT_EQ(e.cycle, r.delivery_cycles);
    }
  }
  EXPECT_EQ(give_ups, 128u - delivered);
}

TEST(TraceSink, MaxEventsCapCountsDrops) {
  TraceSink trace(TraceOptions{.max_events = 16});
  observed_route(64, &trace);
  EXPECT_EQ(trace.message_events().size(), 16u);
  EXPECT_GT(trace.dropped_events(), 0u);
}

TEST(RunReport, RoundTripThroughFile) {
  RunReport report("test_tool");
  report.params()["n"] = 64;
  JsonValue& run = report.add_run("case-a");
  run["cycles"] = 12;
  PhaseTimers timers;
  timers.add("compute", 0.5);
  timers.add("compute", 0.25);
  timers.add("io", 0.125);
  EXPECT_DOUBLE_EQ(timers.seconds("compute"), 0.75);
  EXPECT_DOUBLE_EQ(timers.seconds("never-ran"), 0.0);
  report.set_phases(timers);

  const std::string path = "test_obs_report.tmp.json";
  ASSERT_TRUE(report.write_file(path));
  const auto parsed = RunReport::read_file(path);
  std::remove(path.c_str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("schema")->as_string(), RunReport::kSchema);
  EXPECT_EQ(parsed->find("tool")->as_string(), "test_tool");
  EXPECT_EQ(parsed->find("params")->find("n")->as_uint(), 64u);
  const JsonValue* runs = parsed->find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->size(), 1u);
  EXPECT_EQ(runs->at(0).find("name")->as_string(), "case-a");
  EXPECT_EQ(runs->at(0).find("cycles")->as_uint(), 12u);
  EXPECT_DOUBLE_EQ(parsed->find("phases")->find("compute")->as_double(),
                   0.75);
  ASSERT_NE(parsed->find("git_sha"), nullptr);
  ASSERT_NE(parsed->find("timestamp"), nullptr);
  ASSERT_NE(parsed->find("host"), nullptr);
}

// Byte pins for the EngineMetrics report section and the telemetry
// config block. Channel flaps plus exponential backoff make the fault,
// backoff and peak-channels-down fields nonzero, so any rewrite of either
// type that moves a byte of their reports fails here.
TEST(EngineMetrics, ReportBytesPinnedUnderFlapsAndBackoff) {
  const std::uint32_t n = 64;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::universal(t, n / 4);
  Rng gen(5);
  const auto m = stacked_permutations(n, 2, gen);
  FaultPlan plan(7);
  plan.set_flaps({0.01, 0.3});
  EngineMetrics metrics;
  TelemetryProbe probe;
  ObserverFanout fanout;
  fanout.add(&metrics);
  fanout.add(&probe);
  OnlineRouterOptions opts;
  opts.observer = &fanout;
  opts.fault_plan = &plan;
  opts.retry.exponential_backoff = true;
  Rng rng(6);
  const auto r = route_online(t, caps, m, rng, opts);
  ASSERT_FALSE(r.gave_up);
  EXPECT_GT(metrics.fault_down_events(), 0u);
  EXPECT_GT(metrics.fault_up_events(), 0u);
  EXPECT_GT(metrics.total_backoffs(), 0u);
  EXPECT_GT(metrics.degraded_channel_cycles(), 0u);
  EXPECT_GT(metrics.peak_channels_down(), 0u);

  EXPECT_EQ(metrics.to_json().dump(0),
            R"({"counters":{"engine.attempts":422,"engine.losses":299,)"
            R"("engine.delivered":123,"engine.fault_down_events":314,)"
            R"("engine.fault_up_events":308,"engine.subtree_kill_events":0,)"
            R"("engine.backoffs":201,"engine.messages_given_up":0,)"
            R"("engine.degraded_channel_cycles":1018},)"
            R"("gauges":{"engine.peak_queue_depth":0,)"
            R"("engine.peak_channels_down":15},)"
            R"("histograms":{"engine.channel_utilization":{"lo":0,"hi":1,)"
            R"("bins":[31230,11,32,70,5,170,42,26,16,654],)"
            R"("underflow":0,"overflow":0}},)"
            R"("cycles":128,"loss_rate":0.7085308056872038,)"
            R"("availability":0.9686884842519685,)"
            R"("level_utilization":[0,0.031427556818181816,)"
            R"(0.03724888392857143,0.0362548828125,0.028238932291666668,)"
            R"(0.02410888671875,0.0240478515625]})");
  EXPECT_EQ(probe.to_json().find("config")->dump(0),
            R"({"every_k":4,"ring_capacity":256,"top_k":16,"latency":true})");

  // Lossy runs leave the queue gauge at 0; a FIFO run pins it too.
  const auto net = build_hypercube(5);
  Rng traffic(41);
  const auto routes =
      route_all_bfs(net, random_permutation_traffic(32, traffic));
  EngineMetrics fifo;
  StoreForwardOptions sf;
  sf.observer = &fifo;
  simulate_store_forward(net, routes, sf);
  EXPECT_GT(fifo.peak_queue_depth(), 0u);
  EXPECT_EQ(fifo.to_json().dump(0),
            R"({"counters":{"engine.attempts":76,"engine.losses":0,)"
            R"("engine.delivered":31,"engine.fault_down_events":0,)"
            R"("engine.fault_up_events":0,"engine.subtree_kill_events":0,)"
            R"("engine.backoffs":0,"engine.messages_given_up":0,)"
            R"("engine.degraded_channel_cycles":0},)"
            R"("gauges":{"engine.peak_queue_depth":1,)"
            R"("engine.peak_channels_down":0},)"
            R"("histograms":{"engine.channel_utilization":{"lo":0,"hi":1,)"
            R"("bins":[724,0,0,0,0,0,0,0,0,76],"underflow":0,"overflow":0}},)"
            R"("cycles":5,"loss_rate":0,"availability":1,)"
            R"("level_utilization":[0.095]})");
}

TEST(ObserverFanout, ForwardsSelectively) {
  EngineMetrics metrics;  // does not want message events
  TraceSink trace;        // does
  ObserverFanout fanout;
  fanout.add(&metrics);
  fanout.add(&trace);
  fanout.add(nullptr);  // ignored
  EXPECT_TRUE(fanout.wants_message_events());

  const auto r = observed_route(64, &fanout);
  EXPECT_EQ(metrics.cycles(), r.delivery_cycles);
  EXPECT_EQ(metrics.total_attempts(), r.total_attempts);
  EXPECT_FALSE(trace.message_events().empty());
}

}  // namespace
}  // namespace ft
