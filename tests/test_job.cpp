// The one job path (core/job.hpp). ftsim and ftd both run every job
// through run_job, so for every job the two front-ends share — the six
// shared workloads, on-line under the four routing policies and off-line
// under the three schedulers ftd offers, at stack 1 and 2 — the ftsim
// binary's report and the in-process ftd payload must agree on messages,
// lambda, cycles and verified. The binary's path arrives via the
// FT_FTSIM_PATH compile definition, as in test_ftsim_cli.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "core/job.hpp"
#include "engine/fault_plan.hpp"
#include "ftd/protocol.hpp"
#include "obs/json.hpp"
#include "obs/run_report.hpp"

namespace ft {
namespace {

const char* const kSharedWorkloads[] = {"random-perm", "bit-reversal",
                                        "transpose",   "shuffle",
                                        "complement",  "tornado"};

/// Runs ftsim with `args` and --report, and returns the report's one run
/// (nullopt when ftsim fails or the report is not one run).
std::optional<JsonValue> ftsim_run(const std::string& args) {
  const std::string path = ::testing::TempDir() + "test_job_" +
                           std::to_string(::getpid()) + ".json";
  const std::string cmd = std::string(FT_FTSIM_PATH) + " " + args +
                          " --report " + path + " >/dev/null 2>&1";
  if (std::system(cmd.c_str()) != 0) return std::nullopt;
  const auto doc = RunReport::read_file(path);
  std::remove(path.c_str());
  if (!doc) return std::nullopt;
  const JsonValue* runs = doc->find("runs");
  if (runs == nullptr || runs->size() != 1) return std::nullopt;
  return runs->at(0);
}

JsonValue ftd_run(const std::string& job_body) {
  ftd::RequestError err;
  const auto req =
      ftd::parse_request("{\"id\":\"j\",\"job\":" + job_body + "}", err);
  EXPECT_TRUE(req.has_value()) << job_body << " -> " << err.message;
  return req ? ftd::run_job(*req) : JsonValue::object();
}

void expect_same_job(const std::string& ftsim_args,
                     const std::string& job_body) {
  const auto sim = ftsim_run(ftsim_args);
  ASSERT_TRUE(sim.has_value()) << ftsim_args;
  const JsonValue ftd = ftd_run(job_body);
  for (const char* key : {"messages", "lambda", "cycles", "verified"}) {
    const JsonValue* a = sim->find(key);
    const JsonValue* b = ftd.find(key);
    ASSERT_NE(a, nullptr) << ftsim_args << ": " << key;
    ASSERT_NE(b, nullptr) << job_body << ": " << key;
    EXPECT_EQ(a->dump(0), b->dump(0)) << key << "\n  ftsim " << ftsim_args
                                      << "\n  ftd   " << job_body;
  }
}

TEST(JobParity, FtsimReportsMatchFtdPayloads) {
  for (const int stack : {1, 2}) {
    for (const char* workload : kSharedWorkloads) {
      const std::string common = "--n 64 --seed 7 --workload " +
                                 std::string(workload) +
                                 " --stack " + std::to_string(stack);
      const std::string fields = "\"n\":64,\"seed\":7,\"workload\":\"" +
                                 std::string(workload) +
                                 "\",\"stack\":" + std::to_string(stack);
      for (const char* policy : {"oblivious", "dmod", "rlb", "adaptive"}) {
        expect_same_job(
            common + " --scheduler online --policy " + policy,
            "{\"kind\":\"route_online\"," + fields + ",\"policy\":\"" +
                policy + "\"}");
      }
      for (const char* sched : {"offline", "packed", "greedy"}) {
        expect_same_job(common + " --scheduler " + sched,
                        "{\"kind\":\"replay_offline\"," + fields +
                            ",\"scheduler\":\"" + sched + "\"}");
      }
    }
  }
}

TEST(Job, OfflineReplaysOnceUnlessAFaultPlanIsAttached) {
  JobSpec spec;
  spec.n = 64;
  spec.workload = "transpose";
  spec.scheduler = "packed";
  PhaseTimers healthy_timers;
  JobHooks hooks;
  hooks.timers = &healthy_timers;
  const JobResult healthy = run_job(spec, hooks);
  EXPECT_TRUE(healthy.verified);
  EXPECT_EQ(healthy.delivered, healthy.messages);
  EXPECT_EQ(healthy.capacity_violations, 0u);
  // The one replay both delivers and verifies: no separate verify pass.
  EXPECT_EQ(healthy_timers.to_json().find("verify"), nullptr);
  EXPECT_NE(healthy_timers.to_json().find("replay"), nullptr);

  // Under churn the healthy replay verifies the schedule and the faulted
  // one delivers it.
  FaultPlan plan(spec.seed ^ kFaultPlanSeedMix);
  plan.set_flaps({0.05, 0.3});
  PhaseTimers faulted_timers;
  hooks.timers = &faulted_timers;
  hooks.fault_plan = &plan;
  const JobResult faulted = run_job(spec, hooks);
  EXPECT_NE(faulted_timers.to_json().find("verify"), nullptr);
  EXPECT_NE(faulted_timers.to_json().find("replay"), nullptr);
  EXPECT_GE(faulted.delivery_cycles, healthy.delivery_cycles);
  EXPECT_GT(faulted.fault_down_events, 0u);
}

}  // namespace
}  // namespace ft
