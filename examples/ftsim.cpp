// ftsim — command-line driver for the library: pick a machine size, root
// capacity, workload, and scheduler, get the delivery-cycle report. The
// fifth example; the one a user scripts parameter sweeps with.
//
//   ./example_ftsim --n 512 --w 128 --workload transpose
//                   --scheduler offline --seed 1 [--faults 0.1] [--csv]
//                   [--trace trace.json] [--report report.json]
//                   [--telemetry[=K] --telemetry-out base]
//
// --trace writes a Chrome trace_event file (open in chrome://tracing or
// ui.perfetto.dev), --jsonl a raw event log, --report a schema-versioned
// RunReport JSON (see DESIGN.md, "Observability"). --telemetry attaches
// the congestion observatory (obs/telemetry.hpp): per-level occupancy
// series sampled every K cycles, hottest-channel tracker, latency
// digests, and the measured Amdahl phase split, exported as
// <base>.csv/.jsonl heatmaps plus a "telemetry" section of the report.
// Offline schedulers are traced by replaying the compiled schedule on the
// engine; the online scheduler is traced live. Transient faults, retry
// policies, and correlated subtree kills all compose with any of the
// above (see the flag list in usage()).
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "core/faults.hpp"
#include "core/load.hpp"
#include "core/offline_scheduler.hpp"
#include "core/online_router.hpp"
#include "core/replay.hpp"
#include "core/reuse_scheduler.hpp"
#include "core/traffic.hpp"
#include "engine/fat_tree_model.hpp"
#include "engine/fault_plan.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "util/bits.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

namespace {

void usage() {
  std::printf(
      "usage: example_ftsim [options]\n"
      "  --n N          processors, power of two (default 256)\n"
      "  --w W          root capacity (default n/4)\n"
      "  --workload X   random-perm | bit-reversal | transpose | shuffle |\n"
      "                 complement | hotspot-10%% | local-r4 | fem-halo |\n"
      "                 tornado | all (default random-perm)\n"
      "  --scheduler X  offline | packed | greedy | reuse | online\n"
      "                 (default offline)\n"
      "  --stack K      stack K copies of the workload (default 1)\n"
      "  --faults P     wire failure probability (default 0, static)\n"
      "  --flap PD:PU   transient channel flaps: per-cycle P(down):P(up)\n"
      "  --brownout F:U:C  capacity brownout over cycles [F, U) (U=0 =\n"
      "                 forever), limits scaled by factor C\n"
      "  --burst AT:DUR:K  kill K random channels at cycle AT for DUR\n"
      "                 cycles\n"
      "  --subtree-kill V:AT:DUR  kill every channel in the subtree rooted\n"
      "                 at heap node V at cycle AT for DUR cycles\n"
      "  --subtree-storm P:LVL  strike each level-LVL subtree with\n"
      "                 per-cycle probability P (outage 1..8 cycles)\n"
      "  --retry K      give a message up after K contested cycles\n"
      "  --backoff      exponential retry backoff (skip-k-cycles)\n"
      "  --deadline C   give up messages whose retry would pass cycle C\n"
      "  --policy X     online scheduler routing discipline: oblivious |\n"
      "                 dmod | rlb | adaptive (default oblivious; see\n"
      "                 DESIGN.md 'Routing disciplines')\n"
      "  --parallel[=T] online scheduler: run the subtree-sharded engine on\n"
      "                 a T-thread pool (T <= 1024; T=0 or omitted =\n"
      "                 hardware concurrency); results are identical to\n"
      "                 serial runs\n"
      "  --shard-level=K  subtree shard depth for --parallel (2^K shards;\n"
      "                 0 = serial). Without it, an auto heuristic picks\n"
      "                 ~2 shards per worker\n"
      "  --seed S       RNG seed (default 1)\n"
      "  --csv          emit CSV instead of an aligned table\n"
      "  --trace F      write Chrome trace JSON (chrome://tracing, Perfetto)\n"
      "  --jsonl F      write raw per-message event log (one JSON per line)\n"
      "  --report F     write schema-versioned RunReport JSON\n"
      "                 (ft.run_report/2; includes telemetry + amdahl\n"
      "                 sections when --telemetry is on)\n"
      "  --telemetry[=K]  congestion observatory: sample per-level channel\n"
      "                 state every K cycles (default 4; 1 = every cycle)\n"
      "                 into bounded rings, track hottest channels, digest\n"
      "                 delivery latencies, and time the Amdahl phase split\n"
      "  --telemetry-out B  heatmap output base path (default 'telemetry');\n"
      "                 writes B.csv and B.jsonl per workload\n"
      "  -h, --help     print this help and exit\n");
}

struct Options {
  std::uint32_t n = 256;
  std::uint64_t w = 0;
  std::string workload = "random-perm";
  std::string scheduler = "offline";
  std::uint32_t stack = 1;
  double faults = 0.0;
  // Transient faults (engine/fault_plan.hpp); zero/empty = off.
  double flap_down = 0.0;
  double flap_up = 0.0;
  bool has_brownout = false;
  std::uint32_t brown_from = 1;
  std::uint32_t brown_until = 0;
  double brown_factor = 0.5;
  bool has_burst = false;
  std::uint32_t burst_at = 1;
  std::uint32_t burst_dur = 1;
  std::uint32_t burst_count = 1;
  bool has_subtree_kill = false;
  std::uint32_t sk_node = 2;
  std::uint32_t sk_at = 1;
  std::uint32_t sk_dur = 1;
  double storm_prob = 0.0;
  std::uint32_t storm_level = 1;
  ft::RetryPolicy retry;
  ft::RoutingPolicy policy = ft::RoutingPolicy::ObliviousRandom;
  std::string policy_name = "oblivious";
  bool parallel = false;
  std::size_t threads = 0;
  std::uint32_t shard_level = ft::kShardLevelAuto;
  std::uint64_t seed = 1;
  bool csv = false;
  std::string trace_path;
  std::string jsonl_path;
  std::string report_path;
  bool telemetry = false;
  std::uint32_t telemetry_every = 4;  // TelemetryOptions default
  std::string telemetry_out = "telemetry";
  bool help = false;
};

// Checked flag parsing (util/parse.hpp, shared with the ftd daemon and
// its load generator). Every numeric flag value must consume its whole
// token — "4x", "abc", "-3", an empty field or trailing garbage after a
// compound flag all fail loudly (usage + exit 2) instead of silently
// strtoul-ing to something else.
using ft::parse_double;
using ft::parse_threads;
using ft::parse_u32;
using ft::parse_u64;
using ft::split_fields;

bool parse(int argc, char** argv, Options& opt) {
  // On any failure: name the offending flag on stderr, then let main()
  // print usage() and exit nonzero.
  const char* flag = "";
  auto bad = [&flag]() {
    std::fprintf(stderr, "ftsim: invalid or missing value for %s\n", flag);
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--help" || arg == "-h") {
      opt.help = true;
      return true;
    } else if (arg == "--n") {
      if (!parse_u32(next(), opt.n)) return bad();
    } else if (arg == "--w") {
      if (!parse_u64(next(), opt.w)) return bad();
    } else if (arg == "--workload") {
      const char* v = next();
      if (!v) return bad();
      opt.workload = v;
    } else if (arg == "--scheduler") {
      const char* v = next();
      if (!v) return bad();
      opt.scheduler = v;
    } else if (arg == "--stack") {
      if (!parse_u32(next(), opt.stack)) return bad();
    } else if (arg == "--faults") {
      if (!parse_double(next(), opt.faults)) return bad();
    } else if (arg == "--flap") {
      std::string f[2];
      if (!split_fields(next(), 2, f) ||
          !parse_double(f[0].c_str(), opt.flap_down) ||
          !parse_double(f[1].c_str(), opt.flap_up)) {
        return bad();
      }
    } else if (arg == "--brownout") {
      std::string f[3];
      if (!split_fields(next(), 3, f) ||
          !parse_u32(f[0].c_str(), opt.brown_from) ||
          !parse_u32(f[1].c_str(), opt.brown_until) ||
          !parse_double(f[2].c_str(), opt.brown_factor)) {
        return bad();
      }
      opt.has_brownout = true;
    } else if (arg == "--burst") {
      std::string f[3];
      if (!split_fields(next(), 3, f) ||
          !parse_u32(f[0].c_str(), opt.burst_at) ||
          !parse_u32(f[1].c_str(), opt.burst_dur) ||
          !parse_u32(f[2].c_str(), opt.burst_count)) {
        return bad();
      }
      opt.has_burst = true;
    } else if (arg == "--subtree-kill") {
      std::string f[3];
      if (!split_fields(next(), 3, f) ||
          !parse_u32(f[0].c_str(), opt.sk_node) ||
          !parse_u32(f[1].c_str(), opt.sk_at) ||
          !parse_u32(f[2].c_str(), opt.sk_dur)) {
        return bad();
      }
      opt.has_subtree_kill = true;
    } else if (arg == "--subtree-storm") {
      std::string f[2];
      if (!split_fields(next(), 2, f) ||
          !parse_double(f[0].c_str(), opt.storm_prob) ||
          !parse_u32(f[1].c_str(), opt.storm_level)) {
        return bad();
      }
    } else if (arg == "--retry") {
      if (!parse_u32(next(), opt.retry.max_attempts)) return bad();
    } else if (arg == "--backoff") {
      opt.retry.exponential_backoff = true;
    } else if (arg == "--deadline") {
      if (!parse_u32(next(), opt.retry.deadline_cycles)) return bad();
    } else if (arg == "--policy") {
      const char* v = next();
      if (v == nullptr || !ft::parse_routing_policy(v, opt.policy)) {
        return bad();
      }
      opt.policy_name = v;
    } else if (arg == "--parallel") {
      opt.parallel = true;
    } else if (arg.rfind("--parallel=", 0) == 0) {
      opt.parallel = true;
      if (!parse_threads(arg.c_str() + 11, opt.threads)) return bad();
    } else if (arg.rfind("--shard-level=", 0) == 0) {
      if (!parse_u32(arg.c_str() + 14, opt.shard_level)) return bad();
    } else if (arg == "--shard-level") {
      if (!parse_u32(next(), opt.shard_level)) return bad();
    } else if (arg == "--seed") {
      if (!parse_u64(next(), opt.seed)) return bad();
    } else if (arg == "--csv") {
      opt.csv = true;
    } else if (arg == "--trace") {
      const char* v = next();
      if (!v) return bad();
      opt.trace_path = v;
    } else if (arg == "--jsonl") {
      const char* v = next();
      if (!v) return bad();
      opt.jsonl_path = v;
    } else if (arg == "--report") {
      const char* v = next();
      if (!v) return bad();
      opt.report_path = v;
    } else if (arg == "--telemetry") {
      opt.telemetry = true;
    } else if (arg.rfind("--telemetry=", 0) == 0) {
      opt.telemetry = true;
      if (!parse_u32(arg.c_str() + 12, opt.telemetry_every) ||
          opt.telemetry_every == 0) {
        return bad();
      }
    } else if (arg == "--telemetry-out") {
      const char* v = next();
      if (!v) return bad();
      opt.telemetry_out = v;
    } else {
      std::fprintf(stderr, "ftsim: unknown flag %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

struct RunResult {
  double lambda = 0.0;
  std::size_t cycles = 0;
  bool verified = false;
  bool gave_up = false;
  std::uint64_t messages_given_up = 0;
  std::uint64_t total_backoffs = 0;
  std::uint64_t fault_down_events = 0;
  std::uint64_t fault_up_events = 0;
  std::uint64_t subtree_kill_events = 0;
  std::uint64_t degraded_channel_cycles = 0;
  ft::EnginePhaseProfile phases;
};

/// Runs one workload under the selected scheduler. When `observer` is
/// non-null the delivery cycles are observed on the engine: online runs
/// live, offline schedules via a Tally replay of the compiled schedule.
/// `plan` (nullable) injects transient faults into whichever engine run
/// executes the delivery cycles.
RunResult run_one(const ft::FatTreeTopology& topo,
                  const ft::CapacityProfile& caps, const ft::MessageSet& m,
                  const Options& opt, const ft::FaultPlan* plan,
                  ft::EngineObserver* observer, ft::PhaseTimers& timers) {
  RunResult r;
  {
    auto t = timers.scope("load_factor");
    r.lambda = ft::load_factor(topo, caps, m);
  }
  ft::Schedule schedule;
  bool offline = true;
  if (opt.scheduler == "offline") {
    auto t = timers.scope("schedule");
    schedule = ft::schedule_offline(topo, caps, m);
  } else if (opt.scheduler == "packed") {
    auto t = timers.scope("schedule");
    schedule = ft::schedule_offline_packed(topo, caps, m);
  } else if (opt.scheduler == "greedy") {
    auto t = timers.scope("schedule");
    schedule = ft::schedule_greedy(topo, caps, m);
  } else if (opt.scheduler == "reuse") {
    auto t = timers.scope("schedule");
    schedule = ft::schedule_reuse(topo, caps, m).schedule;
  } else if (opt.scheduler == "online") {
    offline = false;
    ft::Rng rng(opt.seed ^ 0x0511e5);
    ft::OnlineRouterOptions opts;
    opts.observer = observer;
    opts.fault_plan = plan;
    opts.policy = opt.policy;
    opts.retry = opt.retry;
    opts.parallel = opt.parallel;
    opts.threads = opt.threads;
    opts.shard_level = opt.shard_level;
    opts.time_phases = opt.telemetry;
    auto t = timers.scope("route");
    const auto res = ft::route_online(topo, caps, m, rng, opts);
    r.cycles = res.delivery_cycles;
    r.gave_up = res.gave_up;
    r.messages_given_up = res.messages_given_up;
    r.total_backoffs = res.total_backoffs;
    r.fault_down_events = res.fault_down_events;
    r.fault_up_events = res.fault_up_events;
    r.subtree_kill_events = res.subtree_kill_events;
    r.degraded_channel_cycles = res.degraded_channel_cycles;
    r.phases = res.phases;
    // Complete unless the router hit its cycle cap and gave up, or per-
    // message retry policies ran out.
    r.verified = !res.gave_up && res.messages_given_up == 0;
  } else {
    std::fprintf(stderr, "unknown scheduler '%s'\n", opt.scheduler.c_str());
    std::exit(2);
  }
  if (offline) {
    r.cycles = schedule.num_cycles();
    {
      auto t = timers.scope("verify");
      r.verified = ft::verify_schedule(topo, caps, m, schedule);
    }
    if (observer != nullptr || plan != nullptr) {
      auto t = timers.scope("replay");
      ft::ReplayOptions ropts;
      ropts.fault_plan = plan;
      ropts.retry = opt.retry;
      ropts.time_phases = opt.telemetry;
      const auto res = ft::replay_schedule(topo, caps, schedule, ropts,
                                           observer);
      r.phases = res.phases;
      if (plan != nullptr) {
        // Under churn the schedule's cycle count is the healthy baseline;
        // report what the faulted replay actually took.
        r.cycles = res.cycles;
        r.messages_given_up = res.messages_given_up;
        r.fault_down_events = res.fault_down_events;
        r.fault_up_events = res.fault_up_events;
        r.subtree_kill_events = res.subtree_kill_events;
        r.verified = r.verified && res.messages_given_up == 0 &&
                     res.delivered == schedule.total_messages();
      }
    }
  }
  return r;
}

/// out.json -> out.<workload>.json when several workloads share one run.
std::string derived_path(const std::string& path, const std::string& name,
                         bool single) {
  if (single) return path;
  const std::size_t dot = path.rfind('.');
  if (dot == std::string::npos || path.find('/', dot) != std::string::npos) {
    return path + "." + name;
  }
  return path.substr(0, dot) + "." + name + path.substr(dot);
}

void write_sink_file(const ft::TraceSink& sink, const std::string& path,
                     bool chrome) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  if (chrome) {
    sink.write_chrome_trace(out);
  } else {
    sink.write_jsonl(out);
  }
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage();
    return 2;
  }
  if (opt.help) {
    usage();
    return 0;
  }
  if (!ft::is_pow2(opt.n) || opt.n < 2) {
    std::fprintf(stderr, "--n must be a power of two >= 2\n");
    return 2;
  }
  if (opt.w == 0) opt.w = opt.n / 4 ? opt.n / 4 : 1;

  ft::FatTreeTopology topo(opt.n);
  auto caps = ft::CapacityProfile::universal(topo, opt.w);
  if (opt.faults > 0.0) {
    ft::Rng frng(opt.seed ^ 0xfa017);
    caps = ft::inject_wire_faults(topo, caps, opt.faults, frng);
  }

  // Transient faults ride the delivery-cycle engine itself (the static
  // --faults damage above degrades capacities before the run).
  ft::FaultPlan plan(opt.seed ^ 0xd1fa);
  if (opt.flap_down > 0.0) plan.set_flaps({opt.flap_down, opt.flap_up});
  if (opt.has_brownout) {
    plan.add_brownout({opt.brown_from, opt.brown_until, opt.brown_factor,
                       ft::kAllLevels});
  }
  if (opt.has_burst) {
    plan.add_burst({opt.burst_at, opt.burst_dur, opt.burst_count});
  }
  if (opt.has_subtree_kill || opt.storm_prob > 0.0) {
    std::vector<ft::FaultDomain> domains;
    if (opt.storm_prob > 0.0) {
      domains = ft::fat_tree_subtree_domains(topo, opt.storm_level);
    }
    bool have_kill_root = false;
    for (const ft::FaultDomain& d : domains) {
      have_kill_root |= d.node == opt.sk_node;
    }
    if (opt.has_subtree_kill && !have_kill_root) {
      domains.push_back(ft::fat_tree_subtree_domain(topo, opt.sk_node));
    }
    plan.set_domains(std::move(domains));
    if (opt.has_subtree_kill) {
      plan.add_subtree_kill({opt.sk_node, opt.sk_at, opt.sk_dur});
    }
    if (opt.storm_prob > 0.0) plan.set_storm({opt.storm_prob, 1, 8});
  }
  const ft::FaultPlan* active_plan = plan.empty() ? nullptr : &plan;

  const bool want_trace = !opt.trace_path.empty() || !opt.jsonl_path.empty();
  const bool want_report = !opt.report_path.empty();

  ft::RunReport report("ftsim");
  if (want_report) {
    ft::JsonValue& params = report.params();
    params["n"] = opt.n;
    params["w"] = opt.w;
    params["workload"] = opt.workload;
    params["scheduler"] = opt.scheduler;
    params["policy"] = opt.policy_name;
    params["stack"] = opt.stack;
    params["faults"] = opt.faults;
    params["seed"] = opt.seed;
    if (active_plan != nullptr) {
      ft::JsonValue& f = params["fault_plan"];
      if (opt.flap_down > 0.0) {
        f["flap_down"] = opt.flap_down;
        f["flap_up"] = opt.flap_up;
      }
      if (opt.has_brownout) {
        f["brownout_from"] = opt.brown_from;
        f["brownout_until"] = opt.brown_until;
        f["brownout_factor"] = opt.brown_factor;
      }
      if (opt.has_burst) {
        f["burst_at"] = opt.burst_at;
        f["burst_duration"] = opt.burst_dur;
        f["burst_count"] = opt.burst_count;
      }
      if (opt.has_subtree_kill) {
        f["subtree_kill_node"] = opt.sk_node;
        f["subtree_kill_at"] = opt.sk_at;
        f["subtree_kill_duration"] = opt.sk_dur;
      }
      if (opt.storm_prob > 0.0) {
        f["subtree_storm_prob"] = opt.storm_prob;
        f["subtree_storm_level"] = opt.storm_level;
      }
    }
    if (opt.retry.enabled()) {
      ft::JsonValue& rp = params["retry"];
      rp["max_attempts"] = opt.retry.max_attempts;
      rp["exponential_backoff"] = opt.retry.exponential_backoff;
      rp["deadline_cycles"] = opt.retry.deadline_cycles;
    }
  }

  ft::Rng rng(opt.seed);
  auto workloads = ft::standard_workloads(opt.n, rng);
  const bool single = opt.workload != "all";
  ft::Table table({"workload", "messages", "lambda", "scheduler", "cycles",
                   "verified"});
  bool matched = false;
  for (const auto& wl : workloads) {
    if (single && wl.name != opt.workload) continue;
    matched = true;
    ft::MessageSet m = wl.messages;
    for (std::uint32_t k = 1; k < opt.stack; ++k) {
      m.insert(m.end(), wl.messages.begin(), wl.messages.end());
    }

    // Observation is opt-in: without --trace/--report/--telemetry the run
    // is exactly the old unobserved path.
    ft::EngineMetrics metrics;
    ft::TraceSink trace;
    ft::TelemetryOptions topts;
    topts.every_k = opt.telemetry_every;
    ft::TelemetryProbe probe(topts);
    ft::ObserverFanout fanout;
    if (want_report) fanout.add(&metrics);
    if (want_trace) fanout.add(&trace);
    if (opt.telemetry) fanout.add(&probe);
    ft::EngineObserver* observer =
        (want_report || want_trace || opt.telemetry) ? &fanout : nullptr;

    ft::PhaseTimers timers;
    const auto r = run_one(topo, caps, m, opt, active_plan, observer, timers);
    table.row()
        .add(wl.name)
        .add(m.size())
        .add(r.lambda, 2)
        .add(opt.scheduler)
        .add(r.cycles)
        .add(r.verified ? "yes" : "NO");

    if (!opt.trace_path.empty()) {
      write_sink_file(trace, derived_path(opt.trace_path, wl.name, single),
                      /*chrome=*/true);
    }
    if (!opt.jsonl_path.empty()) {
      write_sink_file(trace, derived_path(opt.jsonl_path, wl.name, single),
                      /*chrome=*/false);
    }
    if (opt.telemetry) {
      const std::string csv_path =
          derived_path(opt.telemetry_out + ".csv", wl.name, single);
      std::ofstream csv(csv_path);
      if (csv) {
        probe.write_heatmap_csv(csv);
        std::fprintf(stderr, "wrote %s\n", csv_path.c_str());
      } else {
        std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
      }
      const std::string jsonl_path =
          derived_path(opt.telemetry_out + ".jsonl", wl.name, single);
      std::ofstream jsonl(jsonl_path);
      if (jsonl) {
        probe.write_heatmap_jsonl(jsonl);
        std::fprintf(stderr, "wrote %s\n", jsonl_path.c_str());
      } else {
        std::fprintf(stderr, "cannot write %s\n", jsonl_path.c_str());
      }
    }
    if (want_report) {
      ft::JsonValue& run = report.add_run(wl.name);
      run["messages"] = static_cast<std::uint64_t>(m.size());
      run["lambda"] = r.lambda;
      run["scheduler"] = opt.scheduler;
      run["cycles"] = static_cast<std::uint64_t>(r.cycles);
      run["verified"] = r.verified;
      run["gave_up"] = r.gave_up;
      if (active_plan != nullptr || opt.retry.enabled()) {
        ft::JsonValue& f = run["faults"];
        f["fault_down_events"] = r.fault_down_events;
        f["fault_up_events"] = r.fault_up_events;
        f["subtree_kill_events"] = r.subtree_kill_events;
        f["degraded_channel_cycles"] = r.degraded_channel_cycles;
        f["backoffs"] = r.total_backoffs;
        f["messages_given_up"] = r.messages_given_up;
        f["availability"] = metrics.availability();
      }
      run["engine"] = metrics.to_json();
      run["phases"] = timers.to_json();
      if (opt.telemetry) {
        run["telemetry"] = probe.to_json();
        run["amdahl"] = ft::phase_profile_json(r.phases);
      }
    }
  }
  if (!matched) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    usage();
    return 2;
  }
  if (opt.csv) {
    table.write_csv(std::cout);
  } else {
    table.print(std::cout,
                "ftsim: n=" + std::to_string(opt.n) +
                    " w=" + std::to_string(opt.w) +
                    (opt.faults > 0 ? " faults=" + ft::format_double(
                                                       opt.faults, 2)
                                    : ""));
  }
  if (want_report && report.write_file(opt.report_path)) {
    std::fprintf(stderr, "wrote %s\n", opt.report_path.c_str());
  }
  return 0;
}
