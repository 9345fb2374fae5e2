// E18 — the routing-discipline race: every policy in the zoo against
// every adversarial traffic class (ROADMAP: "Routing-discipline zoo").
//
// The paper's delivery guarantee (Section VI / Greenberg-Leiserson) is
// proved for the *oblivious* randomized lottery: each contended channel
// admits a uniform random capacity-subset, independent of history. The
// zoo (engine/engine.hpp, RoutingPolicy) adds three disciplines on the
// same engine: a deterministic d-mod-k-style wire map (dmod), a
// randomized load-balanced wire map (rlb, after Wang et al.,
// arXiv:1708.09135), and an occupancy-feedback adaptive discipline
// (adaptive, after Rocher-Gonzalez et al., arXiv:2502.00597) that parks
// repeat losers at persistently hot channels with desynchronized retry
// delays.
//
// The race runs all four policies over five traffic classes
// (core/traffic.hpp): a persistent hotspot with uniform background, an
// incast, an elephant/mice mix, an adversarial residue pattern aimed at
// static wire maps, and a uniform baseline. Per cell it reports delivery
// cycles, exact p99 latency stretch (per-delivery samples via
// wants_latency_samples(), not a digest), and arbitration losses.
//
// Gates (CI runs --quick; any failure exits nonzero):
//   G1 conservation — every cell delivers all messages, no give-ups;
//   G2 tail stretch — adaptive strictly reduces the background's p99
//      delivery stretch vs oblivious under a persistent hotspot on the
//      unit-capacity tree. The background is local traffic (radius 4), so
//      no globally shared channel throughput-binds the tail; what
//      stretches it is pure collateral — hot-flow retry zombies stealing
//      arbitration wins on the channels they climb through every cycle.
//      Occupancy feedback must pay for itself exactly there.
//   G3 losses — adaptive also strictly reduces total arbitration losses
//      in that cell (the mechanism behind G2, pinned separately so a
//      p99 win by luck cannot mask a loss regression).
#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/capacity.hpp"
#include "core/online_router.hpp"
#include "core/topology.hpp"
#include "core/traffic.hpp"
#include "engine/engine.hpp"
#include "engine/observer.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
#include "sim/experiment.hpp"
#include "util/prng.hpp"
#include "util/table.hpp"

namespace {

/// Collects every delivery's exact stretch (latency / ideal); the race
/// gates on the exact p99, so no digest approximation.
class LatencyCollector final : public ft::EngineObserver {
 public:
  void on_cycle(const ft::CycleSnapshot& s) override {
    if (s.latencies == nullptr) return;
    for (const ft::LatencySample& l : *s.latencies) {
      stretches_.push_back(static_cast<double>(l.latency) /
                           static_cast<double>(std::max(1u, l.ideal)));
    }
  }
  bool wants_latency_samples() const override { return true; }
  bool wants_channel_state(std::uint32_t) const override { return false; }

  double p99() {
    if (stretches_.empty()) return 0.0;
    std::sort(stretches_.begin(), stretches_.end());
    const std::size_t idx =
        (stretches_.size() * 99 + 99) / 100;  // ceil(0.99 n), 1-based
    return stretches_[std::min(idx, stretches_.size()) - 1];
  }
  std::size_t samples() const { return stretches_.size(); }

 private:
  std::vector<double> stretches_;
};

std::uint64_t sum_u32(const std::vector<std::uint32_t>& v) {
  std::uint64_t s = 0;
  for (const std::uint32_t x : v) s += x;
  return s;
}

struct CellResult {
  std::uint64_t cycles = 0;
  std::uint64_t losses = 0;
  std::uint64_t attempts = 0;
  double p99 = 0.0;
  bool conserved = false;
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  ft::print_experiment_header(
      "E18", "routing-discipline race over the adversarial traffic zoo",
      "all disciplines conserve messages; occupancy feedback strictly "
      "beats the oblivious lottery on tail stretch and losses under a "
      "persistent hotspot");

  const std::uint32_t n = quick ? 64 : 256;
  const std::uint32_t w = n / 4;
  const ft::FatTreeTopology topo(n);
  const auto universal = ft::CapacityProfile::universal(topo, w);
  const auto unit = ft::CapacityProfile::constant(topo, 1);

  // The zoo. The persistent hotspot keeps its hot flows under 1% of the
  // population so the p99 stretch measures *collateral* damage — how much
  // the background is starved by hot-flow retry zombies — rather than the
  // hot flows' own (inevitably serialized) drain.
  struct TrafficClass {
    std::string name;
    ft::MessageSet messages;
    const ft::CapacityProfile* caps;
  };
  std::vector<TrafficClass> zoo;
  const std::size_t hot_count = quick ? 12 : 32;
  const std::size_t background = quick ? 1536 : 4096;
  {
    ft::Rng rng(101);
    zoo.push_back({"hotspot/unit",
                   ft::persistent_hotspot_traffic(n, n / 3, hot_count,
                                                  background, rng),
                   &unit});
  }
  {
    ft::Rng rng(102);
    zoo.push_back(
        {"incast", ft::incast_traffic(n, std::size_t{2} * n, n / 2, rng),
         &universal});
  }
  {
    ft::Rng rng(103);
    zoo.push_back({"elephant-mice",
                   ft::elephant_mice_traffic(n, /*elephants=*/8,
                                             /*elephant_size=*/quick ? 24 : 48,
                                             /*mice=*/quick ? 512 : 2048, rng),
                   &universal});
  }
  {
    ft::Rng rng(104);
    zoo.push_back({"residue-adversary",
                   ft::adversarial_residue_traffic(n, /*modulus=*/8, rng),
                   &universal});
  }
  {
    ft::Rng rng(105);
    zoo.push_back({"uniform",
                   ft::uniform_random_traffic(n, std::size_t{4} * n, rng),
                   &universal});
  }

  ft::RunReport run_report("exp_routing_race");
  {
    ft::JsonValue& params = run_report.params();
    params["n"] = n;
    params["w"] = w;
    params["hot_count"] = hot_count;
    params["background"] = background;
    params["quick"] = quick;
  }
  ft::PhaseTimers timers;
  bool all_ok = true;

  // ---- The race: every policy through every traffic class. ------------
  // One shared router seed per class: every policy sees the identical
  // message set and the identical engine seed, so differences are pure
  // discipline, not luck of the draw.
  std::vector<std::vector<CellResult>> results(zoo.size());
  {
    auto phase = timers.scope("race");
    ft::Table table({"traffic", "policy", "msgs", "cycles", "losses",
                     "p99 stretch", "conserved"});
    for (std::size_t t = 0; t < zoo.size(); ++t) {
      const TrafficClass& tc = zoo[t];
      for (const ft::RoutingPolicyName& pe : ft::kRoutingPolicies) {
        LatencyCollector lat;
        ft::OnlineRouterOptions opts;
        opts.policy = pe.policy;
        opts.observer = &lat;
        ft::Rng rng(1234567);  // same seed across policies, per class
        const auto res =
            ft::route_online(topo, *tc.caps, tc.messages, rng, opts);

        CellResult cell;
        cell.cycles = res.delivery_cycles;
        cell.losses = res.total_losses;
        cell.attempts = res.total_attempts;
        cell.p99 = lat.p99();
        cell.conserved = !res.gave_up && res.messages_given_up == 0 &&
                         sum_u32(res.delivered_per_cycle) ==
                             tc.messages.size();
        results[t].push_back(cell);

        table.row()
            .add(tc.name)
            .add(pe.name)
            .add(tc.messages.size())
            .add(cell.cycles)
            .add(cell.losses)
            .add(cell.p99, 2)
            .add(cell.conserved ? "yes" : "NO");
        if (!cell.conserved) {
          std::cout << "G1 CONSERVATION VIOLATED: traffic=" << tc.name
                    << " policy=" << pe.name << "\n";
          all_ok = false;
        }

        ft::JsonValue& run =
            run_report.add_run("race/" + tc.name + "/" + pe.name);
        run["traffic"] = tc.name;
        run["policy"] = pe.name;
        run["messages"] = tc.messages.size();
        run["cycles"] = cell.cycles;
        run["total_attempts"] = cell.attempts;
        run["total_losses"] = cell.losses;
        run["p99_stretch"] = cell.p99;
        run["latency_samples"] = lat.samples();
        run["conserved"] = cell.conserved;
      }
    }
    table.print(std::cout,
                "routing-discipline race, n = " + std::to_string(n) +
                    ", shared engine seed per traffic class");
  }

  // ---- Gates G2/G3: occupancy feedback must pay for itself. -----------
  // A dedicated hotspot cell on the unit-capacity tree: hot flows first
  // (ids 0..hot-1 in the engine's injection order), then a stack of local
  // permutations as background. Local traffic keeps every background path
  // short and spread over the tree, so no single channel throughput-binds
  // the tail; the background's p99 deliver cycle then measures exactly
  // how long hot-flow zombies starve bystanders. Per-message deliver
  // cycles come from the trace stream (all messages are injected in cycle
  // 1, so deliver cycle == latency == stretch for the unit ideal).
  bool gates_ok = true;
  {
    auto phase = timers.scope("hotspot_gate");
    const std::size_t gate_hot = quick ? 64 : 128;
    const std::uint32_t gate_stack = quick ? 4 : 6;
    const ft::Leaf gate_sink = n / 3;
    ft::MessageSet gm;
    {
      ft::Rng rng(201);
      gm = ft::persistent_hotspot_traffic(n, gate_sink, gate_hot, 0, rng);
      for (std::uint32_t s = 0; s < gate_stack; ++s) {
        const auto local = ft::local_traffic(n, 4, rng);
        gm.insert(gm.end(), local.begin(), local.end());
      }
    }
    // Engine ids count only non-self messages (self messages are local
    // deliveries and never enter the engine); hot flows never self-send,
    // so they keep ids 0..gate_hot-1 and everything at or past gate_hot
    // is background.
    std::size_t nonself = 0;
    for (const ft::Message& msg : gm) nonself += msg.src != msg.dst;

    const auto run_traced = [&](ft::RoutingPolicy pol,
                                std::vector<double>& bg, std::uint64_t& losses,
                                bool& conserved) {
      ft::TraceSink trace;
      ft::OnlineRouterOptions opts;
      opts.policy = pol;
      opts.observer = &trace;
      ft::Rng rng(7654321);
      const auto res = ft::route_online(topo, unit, gm, rng, opts);
      losses = res.total_losses;
      conserved = !res.gave_up && res.messages_given_up == 0 &&
                  sum_u32(res.delivered_per_cycle) == gm.size();
      bg.clear();
      for (const ft::MessageEvent& e : trace.message_events()) {
        if (e.kind == ft::MessageEventKind::Deliver &&
            e.message != ft::kNoMessage && e.message >= gate_hot) {
          bg.push_back(e.cycle);
        }
      }
      std::sort(bg.begin(), bg.end());
    };
    const auto p99_of = [](const std::vector<double>& v) {
      if (v.empty()) return 0.0;
      const std::size_t idx = (v.size() * 99 + 99) / 100;
      return v[std::min(idx, v.size()) - 1];
    };

    ft::Table table({"policy", "bg msgs", "bg p99 stretch", "losses",
                     "conserved"});
    double obl_p99 = 0, ada_p99 = 0;
    std::uint64_t obl_losses = 0, ada_losses = 0;
    for (const ft::RoutingPolicyName& pe : ft::kRoutingPolicies) {
      std::vector<double> bg;
      std::uint64_t losses = 0;
      bool conserved = false;
      run_traced(pe.policy, bg, losses, conserved);
      if (bg.size() != nonself - gate_hot) conserved = false;
      const double p99 = p99_of(bg);
      table.row()
          .add(pe.name)
          .add(bg.size())
          .add(p99, 2)
          .add(losses)
          .add(conserved ? "yes" : "NO");
      if (!conserved) {
        std::cout << "G1 CONSERVATION VIOLATED in the hotspot gate cell: "
                  << "policy=" << pe.name << "\n";
        all_ok = false;
      }
      if (pe.policy == ft::RoutingPolicy::ObliviousRandom) {
        obl_p99 = p99;
        obl_losses = losses;
      }
      if (pe.policy == ft::RoutingPolicy::AdaptiveOccupancy) {
        ada_p99 = p99;
        ada_losses = losses;
      }
      ft::JsonValue& run = run_report.add_run("gate/hotspot/" +
                                              std::string(pe.name));
      run["policy"] = pe.name;
      run["background_messages"] = bg.size();
      run["background_p99_stretch"] = p99;
      run["total_losses"] = losses;
      run["conserved"] = conserved;
    }
    table.print(std::cout,
                "G2/G3 cell: " + std::to_string(gate_hot) +
                    " hot flows into leaf " + std::to_string(gate_sink) +
                    " + " + std::to_string(gate_stack) +
                    " local perms, unit capacities");

    std::cout << "\nbackground tail: oblivious p99 = " << obl_p99
              << ", adaptive p99 = " << ada_p99
              << "  |  losses: " << obl_losses << " vs " << ada_losses
              << "\n";
    if (!(ada_p99 < obl_p99)) {
      std::cout << "G2 TAIL-STRETCH GATE FAILED: adaptive background p99 "
                << ada_p99 << " does not strictly beat oblivious " << obl_p99
                << " under the persistent hotspot\n";
      gates_ok = false;
    }
    if (!(ada_losses < obl_losses)) {
      std::cout << "G3 LOSS GATE FAILED: adaptive losses " << ada_losses
                << " do not strictly beat oblivious losses " << obl_losses
                << "\n";
      gates_ok = false;
    }
    ft::JsonValue& gate = run_report.add_run("gates/hotspot");
    gate["oblivious_p99"] = obl_p99;
    gate["adaptive_p99"] = ada_p99;
    gate["oblivious_losses"] = obl_losses;
    gate["adaptive_losses"] = ada_losses;
    gate["tail_gate_ok"] = ada_p99 < obl_p99;
    gate["loss_gate_ok"] = ada_losses < obl_losses;
  }
  all_ok = all_ok && gates_ok;

  std::cout << (all_ok
                    ? "\nEvery discipline conserves messages; the adaptive "
                      "policy's desynchronized\nparking thins the retry "
                      "zombies at the hot channel, so the background's\n"
                      "tail stretch and the total loss count both drop.\n"
                    : "\nROUTING RACE GATES FAILED\n");

  run_report.set_phases(timers);
  const char* path = "report_exp_routing_race.json";
  if (!run_report.write_file(path)) {
    std::cout << "\nFAILED TO WRITE " << path << '\n';
    return 1;
  }
  std::cout << "\nwrote " << path << '\n';
  const auto parsed = ft::RunReport::read_file(path);
  if (!parsed.has_value()) {
    std::cout << "REPORT DID NOT PARSE BACK\n";
    return 1;
  }
  return all_ok ? 0 : 1;
}
