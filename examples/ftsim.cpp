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
//
// Each selected workload is one job (core/job.hpp): argv fills a JobSpec,
// run_job routes it, and this file prints the table and writes the files.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/job.hpp"
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
  ft::JobSpec job;  ///< every field but `messages` and `max_cycles`
  // Transient faults (engine/fault_plan.hpp); zero/unset = off.
  ft::ChannelFlapModel flap;
  std::optional<ft::BrownoutWindow> brownout;
  std::optional<ft::BurstKill> burst;
  std::optional<ft::SubtreeKill> subtree_kill;
  ft::SubtreeStormModel storm;
  std::uint32_t storm_level = 1;
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
// strtoul-ing to something else — and lie in the range the fault plan
// accepts, so no accepted value reaches an FT_CHECK abort.
using ft::parse_double;
using ft::parse_threads;
using ft::parse_u32;
using ft::parse_u64;
using ft::split_fields;

/// Probabilities and capacity factors lie in [0, 1] (NaN does not).
bool unit_interval(double v) { return v >= 0.0 && v <= 1.0; }

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
      if (!parse_u32(next(), opt.job.n)) return bad();
    } else if (arg == "--w") {
      if (!parse_u64(next(), opt.job.w)) return bad();
    } else if (arg == "--workload") {
      const char* v = next();
      if (!v) return bad();
      opt.job.workload = v;
    } else if (arg == "--scheduler") {
      const char* v = next();
      if (!v) return bad();
      opt.job.scheduler = v;
    } else if (arg == "--stack") {
      if (!parse_u32(next(), opt.job.stack)) return bad();
    } else if (arg == "--faults") {
      if (!parse_double(next(), opt.job.faults) ||
          !unit_interval(opt.job.faults)) {
        return bad();
      }
    } else if (arg == "--flap") {
      std::string f[2];
      if (!split_fields(next(), 2, f) ||
          !parse_double(f[0].c_str(), opt.flap.down_prob) ||
          !parse_double(f[1].c_str(), opt.flap.up_prob) ||
          !unit_interval(opt.flap.down_prob) ||
          !unit_interval(opt.flap.up_prob)) {
        return bad();
      }
    } else if (arg == "--brownout") {
      std::string f[3];
      ft::BrownoutWindow& b = opt.brownout.emplace();
      if (!split_fields(next(), 3, f) ||
          !parse_u32(f[0].c_str(), b.from_cycle) ||
          !parse_u32(f[1].c_str(), b.until_cycle) ||
          !parse_double(f[2].c_str(), b.capacity_factor) ||
          !unit_interval(b.capacity_factor)) {
        return bad();
      }
    } else if (arg == "--burst") {
      std::string f[3];
      ft::BurstKill& b = opt.burst.emplace();
      if (!split_fields(next(), 3, f) ||
          !parse_u32(f[0].c_str(), b.at_cycle) ||
          !parse_u32(f[1].c_str(), b.duration) ||
          !parse_u32(f[2].c_str(), b.count) || b.at_cycle == 0) {
        return bad();
      }
    } else if (arg == "--subtree-kill") {
      std::string f[3];
      ft::SubtreeKill& k = opt.subtree_kill.emplace();
      if (!split_fields(next(), 3, f) ||
          !parse_u32(f[0].c_str(), k.node) ||
          !parse_u32(f[1].c_str(), k.at_cycle) ||
          !parse_u32(f[2].c_str(), k.duration) || k.at_cycle == 0 ||
          k.duration == 0) {
        return bad();
      }
    } else if (arg == "--subtree-storm") {
      std::string f[2];
      if (!split_fields(next(), 2, f) ||
          !parse_double(f[0].c_str(), opt.storm.kill_prob) ||
          !parse_u32(f[1].c_str(), opt.storm_level) ||
          !unit_interval(opt.storm.kill_prob)) {
        return bad();
      }
    } else if (arg == "--retry") {
      if (!parse_u32(next(), opt.job.retry.max_attempts)) return bad();
    } else if (arg == "--backoff") {
      opt.job.retry.exponential_backoff = true;
    } else if (arg == "--deadline") {
      if (!parse_u32(next(), opt.job.retry.deadline_cycles)) return bad();
    } else if (arg == "--policy") {
      const char* v = next();
      if (v == nullptr || !ft::parse_routing_policy(v, opt.job.policy)) {
        return bad();
      }
      opt.job.policy_name = v;
    } else if (arg == "--parallel") {
      opt.job.parallel = true;
    } else if (arg.rfind("--parallel=", 0) == 0) {
      opt.job.parallel = true;
      if (!parse_threads(arg.c_str() + 11, opt.job.threads)) return bad();
    } else if (arg.rfind("--shard-level=", 0) == 0) {
      if (!parse_u32(arg.c_str() + 14, opt.job.shard_level)) return bad();
    } else if (arg == "--shard-level") {
      if (!parse_u32(next(), opt.job.shard_level)) return bad();
    } else if (arg == "--seed") {
      if (!parse_u64(next(), opt.job.seed)) return bad();
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

/// Opens `path` and hands the stream to `write`, reporting on stderr.
template <typename Write>
void write_file(const std::string& path, Write&& write) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  write(out);
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
  ft::JobSpec& job = opt.job;
  if (!ft::is_pow2(job.n) || job.n < 2) {
    std::fprintf(stderr, "--n must be a power of two >= 2\n");
    return 2;
  }
  if (job.w == 0) job.w = ft::default_root_capacity(job.n);
  // ftsim runs the nine standard workloads, one or all of them.
  const bool single = job.workload != "all";
  const ft::WorkloadEntry* selected = ft::find_workload(job.workload);
  if (single && (selected == nullptr ||
                 selected->cls == ft::WorkloadClass::Volume)) {
    std::fprintf(stderr, "unknown workload '%s'\n", job.workload.c_str());
    usage();
    return 2;
  }
  if (!ft::known_scheduler(job.scheduler)) {
    std::fprintf(stderr, "unknown scheduler '%s'\n", job.scheduler.c_str());
    return 2;
  }
  // The fault flags whose range depends on n (parse() checks the rest).
  const char* bad_flag = nullptr;
  if (opt.subtree_kill && (opt.subtree_kill->node == 0 ||
                           opt.subtree_kill->node / 2 >= job.n)) {
    bad_flag = "--subtree-kill";
  } else if (opt.storm_level > ft::floor_log2(job.n)) {
    bad_flag = "--subtree-storm";
  }
  if (bad_flag != nullptr) {
    std::fprintf(stderr, "ftsim: invalid or missing value for %s\n",
                 bad_flag);
    usage();
    return 2;
  }

  // Transient faults ride the delivery-cycle engine itself (the static
  // --faults damage degrades capacities before the run).
  ft::FaultPlan plan(job.seed ^ ft::kFaultPlanSeedMix);
  if (opt.flap.down_prob > 0.0) plan.set_flaps(opt.flap);
  if (opt.brownout) plan.add_brownout(*opt.brownout);
  if (opt.burst) plan.add_burst(*opt.burst);
  if (opt.subtree_kill || opt.storm.kill_prob > 0.0) {
    const ft::FatTreeTopology topo(job.n);
    std::vector<ft::FaultDomain> domains;
    if (opt.storm.kill_prob > 0.0) {
      domains = ft::fat_tree_subtree_domains(topo, opt.storm_level);
    }
    bool have_kill_root = false;
    for (const ft::FaultDomain& d : domains) {
      have_kill_root |= opt.subtree_kill && d.node == opt.subtree_kill->node;
    }
    if (opt.subtree_kill && !have_kill_root) {
      domains.push_back(
          ft::fat_tree_subtree_domain(topo, opt.subtree_kill->node));
    }
    plan.set_domains(std::move(domains));
    if (opt.subtree_kill) plan.add_subtree_kill(*opt.subtree_kill);
    if (opt.storm.kill_prob > 0.0) plan.set_storm(opt.storm);
  }
  const ft::FaultPlan* active_plan = plan.empty() ? nullptr : &plan;

  const bool want_trace = !opt.trace_path.empty() || !opt.jsonl_path.empty();
  const bool want_report = !opt.report_path.empty();

  ft::RunReport report("ftsim");
  if (want_report) {
    ft::JsonValue& params = report.params();
    params["n"] = job.n;
    params["w"] = job.w;
    params["workload"] = job.workload;
    params["scheduler"] = job.scheduler;
    params["policy"] = job.policy_name;
    params["stack"] = job.stack;
    params["faults"] = job.faults;
    params["seed"] = job.seed;
    if (active_plan != nullptr) {
      ft::JsonValue& f = params["fault_plan"];
      if (opt.flap.down_prob > 0.0) {
        f["flap_down"] = opt.flap.down_prob;
        f["flap_up"] = opt.flap.up_prob;
      }
      if (opt.brownout) {
        f["brownout_from"] = opt.brownout->from_cycle;
        f["brownout_until"] = opt.brownout->until_cycle;
        f["brownout_factor"] = opt.brownout->capacity_factor;
      }
      if (opt.burst) {
        f["burst_at"] = opt.burst->at_cycle;
        f["burst_duration"] = opt.burst->duration;
        f["burst_count"] = opt.burst->count;
      }
      if (opt.subtree_kill) {
        f["subtree_kill_node"] = opt.subtree_kill->node;
        f["subtree_kill_at"] = opt.subtree_kill->at_cycle;
        f["subtree_kill_duration"] = opt.subtree_kill->duration;
      }
      if (opt.storm.kill_prob > 0.0) {
        f["subtree_storm_prob"] = opt.storm.kill_prob;
        f["subtree_storm_level"] = opt.storm_level;
      }
    }
    if (job.retry.enabled()) {
      ft::JsonValue& rp = params["retry"];
      rp["max_attempts"] = job.retry.max_attempts;
      rp["exponential_backoff"] = job.retry.exponential_backoff;
      rp["deadline_cycles"] = job.retry.deadline_cycles;
    }
  }

  ft::Table table({"workload", "messages", "lambda", "scheduler", "cycles",
                   "verified"});
  for (const ft::WorkloadEntry& wl : ft::workload_table()) {
    if (single ? &wl != selected : wl.cls == ft::WorkloadClass::Volume) {
      continue;
    }
    job.workload = wl.name;

    // Observation is opt-in: without --trace/--report/--telemetry the run
    // is exactly the unobserved path.
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
    const ft::JobResult r =
        ft::run_job(job, {.observer = observer, .fault_plan = active_plan,
                          .timers = &timers, .time_phases = opt.telemetry});
    table.row()
        .add(wl.name)
        .add(r.messages)
        .add(r.lambda, 2)
        .add(job.scheduler)
        .add(r.delivery_cycles)
        .add(r.verified ? "yes" : "NO");

    const auto path = [&](const std::string& base) {
      return derived_path(base, wl.name, single);
    };
    if (!opt.trace_path.empty()) {
      write_file(path(opt.trace_path),
                 [&](std::ostream& os) { trace.write_chrome_trace(os); });
    }
    if (!opt.jsonl_path.empty()) {
      write_file(path(opt.jsonl_path),
                 [&](std::ostream& os) { trace.write_jsonl(os); });
    }
    if (opt.telemetry) {
      write_file(path(opt.telemetry_out + ".csv"),
                 [&](std::ostream& os) { probe.write_heatmap_csv(os); });
      write_file(path(opt.telemetry_out + ".jsonl"),
                 [&](std::ostream& os) { probe.write_heatmap_jsonl(os); });
    }
    if (want_report) {
      ft::JsonValue& run = report.add_run(wl.name);
      run["messages"] = r.messages;
      run["lambda"] = r.lambda;
      run["scheduler"] = job.scheduler;
      run["cycles"] = r.delivery_cycles;
      run["verified"] = r.verified;
      run["gave_up"] = r.gave_up;
      if (active_plan != nullptr || job.retry.enabled()) {
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
  if (opt.csv) {
    table.write_csv(std::cout);
  } else {
    table.print(std::cout,
                "ftsim: n=" + std::to_string(job.n) +
                    " w=" + std::to_string(job.w) +
                    (job.faults > 0 ? " faults=" + ft::format_double(
                                                       job.faults, 2)
                                    : ""));
  }
  if (want_report && report.write_file(opt.report_path)) {
    std::fprintf(stderr, "wrote %s\n", opt.report_path.c_str());
  }
  return 0;
}
