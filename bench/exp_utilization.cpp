// E15 — Section VII's effectiveness claim: "build the biggest fat-tree
// one can afford, and the architecture automatically ensures that
// communication bandwidth is effectively utilized."
//
// Measures schedule utilization (used wire-slots / paid-for wire-slots)
// as the tree is sized up and down against fixed traffic, plus the
// per-level utilization profile, plus a time-domain telemetry gate: under
// a root-bound (complement) permutation routed on-line, the congestion
// observatory's hottest channels must be confined to the top levels of
// the universal tree. Exits nonzero when the gate is violated.
#include <algorithm>
#include <fstream>
#include <iostream>

#include "core/online_router.hpp"
#include "core/schedule_stats.hpp"
#include "core/traffic.hpp"
#include "obs/run_report.hpp"
#include "obs/telemetry.hpp"
#include "sim/experiment.hpp"
#include "util/prng.hpp"
#include "util/table.hpp"

int main() {
  ft::print_experiment_header(
      "E15", "Section VII bandwidth-effectiveness claim",
      "sizing the tree down raises utilization of the remaining hardware; "
      "traffic locality shows up as idle trunks, not idle leaves");

  const std::uint32_t n = 256;
  ft::FatTreeTopology topo(n);
  ft::Rng rng(1);

  ft::RunReport report("exp_utilization");
  report.params()["n"] = n;
  ft::PhaseTimers timers;

  {
    auto phase = timers.scope("tree_size_sweep");
    ft::Table table({"workload", "w", "cycles", "mean util", "root util",
                     "throughput msg/cycle"});
    for (const char* name : {"random-perm", "fem-halo", "complement"}) {
      ft::MessageSet m;
      ft::Rng wl_rng(7);
      for (auto& wl : ft::standard_workloads(n, wl_rng)) {
        if (wl.name == name) m = wl.messages;
      }
      for (std::uint64_t w : {256ull, 64ull, 16ull}) {
        const auto caps = ft::CapacityProfile::universal(topo, w);
        const auto s = ft::schedule_offline(topo, caps, m);
        const auto stats = ft::analyze_schedule(topo, caps, s);
        table.row()
            .add(name)
            .add(w)
            .add(stats.cycles)
            .add(stats.mean_utilization, 3)
            .add(stats.root_utilization, 3)
            .add(stats.throughput, 1);

        ft::JsonValue& run = report.add_run(std::string(name) +
                                            "/w=" + std::to_string(w));
        run["workload"] = name;
        run["w"] = w;
        run["cycles"] = static_cast<std::uint64_t>(stats.cycles);
        run["mean_utilization"] = stats.mean_utilization;
        run["root_utilization"] = stats.root_utilization;
        run["throughput"] = stats.throughput;
      }
    }
    table.print(std::cout, "utilization vs tree size, n = 256");
    std::cout << "\nShrinking w raises both mean and root utilization on "
                 "every workload: smaller\ntrees waste less of what they "
                 "own — the robustness thesis quantified.\n\n";
  }

  {
    auto phase = timers.scope("per_level_profile");
    const auto caps = ft::CapacityProfile::universal(topo, 64);
    ft::Table table({"level", "util (random-perm)", "util (fem-halo)",
                     "util (complement)"});
    std::vector<std::vector<double>> per;
    for (const char* name : {"random-perm", "fem-halo", "complement"}) {
      ft::MessageSet m;
      ft::Rng wl_rng(7);
      for (auto& wl : ft::standard_workloads(n, wl_rng)) {
        if (wl.name == name) m = wl.messages;
      }
      const auto s = ft::schedule_offline(topo, caps, m);
      per.push_back(ft::analyze_schedule(topo, caps, s).level_utilization);

      ft::JsonValue& run =
          report.add_run(std::string("per_level/") + name + "/w=64");
      run["workload"] = name;
      run["w"] = 64;
      ft::JsonValue& levels = run["level_utilization"];
      levels = ft::JsonValue::array();
      for (const double u : per.back()) levels.push_back(u);
    }
    for (std::uint32_t k = 0; k <= topo.height(); ++k) {
      table.row().add(k).add(per[0][k], 3).add(per[1][k], 3).add(per[2][k],
                                                                 3);
    }
    table.print(std::cout, "per-level utilization, w = 64");
    std::cout << "\nLocal traffic (fem-halo) idles the trunks; bisection "
                 "traffic (complement)\nworks them hardest — matching the "
                 "telephone-exchange picture of Section II.\n";
  }

  // Time-domain hotspot gate (congestion observatory). Complement traffic
  // is pure bisection load: every message crosses the root, so when the
  // permutation is routed on-line the channels the telemetry sketch ranks
  // hottest — and the level whose time-averaged utilization peaks — must
  // sit in the top half of the tree. A hotspot at the leaves would mean
  // the observatory (or the router) is mislocating congestion.
  bool hotspot_ok = true;
  {
    auto phase = timers.scope("telemetry_hotspot_gate");
    ft::MessageSet m;
    ft::Rng wl_rng(7);
    for (auto& wl : ft::standard_workloads(n, wl_rng)) {
      if (wl.name == "complement") m = wl.messages;
    }
    const auto caps = ft::CapacityProfile::universal(topo, 64);

    ft::TelemetryOptions topts;
    topts.every_k = 1;  // full resolution: the gate reads the time domain
    ft::TelemetryProbe probe(topts);
    ft::OnlineRouterOptions opts;
    opts.observer = &probe;
    opts.time_phases = true;
    ft::Rng rng(11);
    const auto res = ft::route_online(topo, caps, m, rng, opts);
    probe.finalize();

    // Level 0 is the root's external interface (never carries internal
    // traffic); level `height` is the leaves. "Top levels" = the root
    // half of the span in between.
    const std::uint32_t top_cutoff = 1 + topo.height() / 2;

    double best_util = -1.0;
    std::uint32_t best_level = 0;
    ft::Table table({"level", "mean util", "peak window util"});
    for (std::uint32_t lvl = 1; lvl < probe.num_levels(); ++lvl) {
      const ft::TelemetryRing& ring = probe.level_series(lvl);
      const double cap = static_cast<double>(probe.level_capacity(lvl));
      const double mean =
          cap > 0.0 && ring.total_count() > 0
              ? static_cast<double>(ring.total_value()) /
                    (cap * static_cast<double>(ring.total_count()))
              : 0.0;
      double peak = 0.0;
      for (const ft::TelemetrySample& s : ring.samples()) {
        if (s.count == 0 || cap <= 0.0) continue;
        peak = std::max(peak, static_cast<double>(s.value) /
                                  (cap * static_cast<double>(s.count)));
      }
      table.row().add(lvl).add(mean, 3).add(peak, 3);
      if (mean > best_util) {
        best_util = mean;
        best_level = lvl;
      }
    }
    table.print(std::cout, "\ntime-domain utilization, complement, online");

    if (res.gave_up || res.messages_given_up != 0) {
      std::cout << "GATE FAIL: online complement routing did not complete\n";
      hotspot_ok = false;
    }
    if (best_level > top_cutoff) {
      std::cout << "GATE FAIL: hottest level " << best_level
                << " is below the top-level cutoff " << top_cutoff << '\n';
      hotspot_ok = false;
    }
    // Every sketch entry carrying a substantial share of the hot traffic
    // (>= half the leader's count) must be a top-level channel.
    const auto top = probe.top_channels().top();
    const std::uint64_t lead = top.empty() ? 0 : top.front().count;
    for (const auto& e : top) {
      if (e.count * 2 < lead) break;  // sorted descending
      if (e.tag > top_cutoff) {
        std::cout << "GATE FAIL: hot channel " << e.key << " (count "
                  << e.count << ") sits at level " << e.tag
                  << ", below the top-level cutoff " << top_cutoff << '\n';
        hotspot_ok = false;
      }
    }
    std::cout << "hotspot gate: hottest level " << best_level
              << " (mean util " << best_util << "), "
              << "cutoff " << top_cutoff << " — "
              << (hotspot_ok ? "confined to top levels\n" : "VIOLATED\n");

    ft::JsonValue& run = report.add_run("telemetry_hotspot/complement/w=64");
    run["workload"] = "complement";
    run["w"] = 64;
    run["cycles"] = res.delivery_cycles;
    run["hottest_level"] = best_level;
    run["top_cutoff"] = top_cutoff;
    run["gate_passed"] = hotspot_ok;
    run["telemetry"] = probe.to_json();
    run["amdahl"] = ft::phase_profile_json(res.phases);

    std::ofstream heat("telemetry_exp_utilization.csv");
    if (heat) {
      probe.write_heatmap_csv(heat);
      std::cout << "wrote telemetry_exp_utilization.csv\n";
    }
  }

  report.set_phases(timers);
  const char* path = "report_exp_utilization.json";
  if (report.write_file(path)) std::cout << "\nwrote " << path << '\n';
  if (!hotspot_ok) {
    std::cout << "\nHOTSPOT GATE FAILED\n";
    return 1;
  }
  return 0;
}
