// ftd determinism parity: the same job submitted through the daemon
// (over a real loopback socket) and executed in-process must produce a
// byte-identical deterministic "run" section — identity and timing
// excluded by construction (they live in the sibling "timing" object).
// Covered across every routing policy, both job kinds, and all three
// offline schedulers; plus a field-level cross-check against direct
// route_online()/replay_schedule() calls so the shared run_job() path
// cannot drift from the engine itself.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/capacity.hpp"
#include "core/job.hpp"
#include "core/load.hpp"
#include "core/offline_scheduler.hpp"
#include "core/online_router.hpp"
#include "core/replay.hpp"
#include "core/topology.hpp"
#include "core/traffic.hpp"
#include "ftd/client.hpp"
#include "ftd/protocol.hpp"
#include "ftd/server.hpp"
#include "obs/json.hpp"
#include "util/prng.hpp"

namespace ft::ftd {
namespace {

class ParityFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string err;
    ASSERT_TRUE(server_.start(&err)) << err;
    thread_ = std::thread([this]() { server_.run(); });
    ASSERT_TRUE(client_.connect(server_.port(), &err)) << err;
    std::string line;
    ASSERT_TRUE(client_.read_line(line, 10000));  // hello banner
  }

  void TearDown() override {
    client_.close();
    server_.request_drain();
    thread_.join();
  }

  /// Sends `job_body` through the daemon and returns the canonical dump
  /// of the response's "run" section.
  std::string daemon_run(const std::string& job_body) {
    const std::string id = "parity-" + std::to_string(next_id_++);
    EXPECT_TRUE(
        client_.send_line("{\"id\":\"" + id + "\",\"job\":" + job_body + "}"));
    std::string line;
    if (!client_.read_line(line, 60000)) {
      ADD_FAILURE() << "daemon response timed out for " << job_body;
      return "<timeout>";
    }
    const auto doc = JsonValue::parse(line);
    if (!doc || doc->find("type") == nullptr ||
        doc->find("type")->as_string() != "result" ||
        doc->find("id")->as_string() != id) {
      ADD_FAILURE() << "bad daemon response: " << line;
      return "<bad-response>";
    }
    return doc->find("run")->dump(0);
  }

  /// Executes the same job in-process via the shared run_job() path.
  static std::string local_run(const std::string& job_body) {
    RequestError err;
    const auto req =
        parse_request("{\"id\":\"local\",\"job\":" + job_body + "}", err);
    EXPECT_TRUE(req.has_value()) << job_body << " -> " << err.message;
    if (!req) return "<parse-failure>";
    return run_job(*req).dump(0);
  }

  Server server_;
  Client client_;
  std::thread thread_;
  int next_id_ = 0;
};

TEST_F(ParityFixture, RouteOnlineAcrossPoliciesWorkloadsAndSeeds) {
  for (const char* policy : {"oblivious", "dmod", "rlb", "adaptive"}) {
    for (const char* workload : {"transpose", "random-perm"}) {
      for (int seed : {1, 2}) {
        const std::string body =
            std::string("{\"kind\":\"route_online\",\"n\":64,\"workload\":\"") +
            workload + "\",\"policy\":\"" + policy +
            "\",\"seed\":" + std::to_string(seed) + "}";
        EXPECT_EQ(daemon_run(body), local_run(body)) << body;
      }
    }
  }
}

TEST_F(ParityFixture, RouteOnlineWithRetryAndStack) {
  const std::string body =
      "{\"kind\":\"route_online\",\"n\":128,\"w\":8,\"workload\":\"uniform\","
      "\"messages\":512,\"seed\":11,\"policy\":\"adaptive\",\"stack\":2,"
      "\"retry\":{\"max_attempts\":6,\"exponential_backoff\":true}}";
  EXPECT_EQ(daemon_run(body), local_run(body));
}

TEST_F(ParityFixture, ReplayOfflineAcrossSchedulers) {
  for (const char* sched : {"offline", "packed", "greedy"}) {
    for (const char* workload : {"transpose", "random-perm"}) {
      const std::string body =
          std::string("{\"kind\":\"replay_offline\",\"n\":64,\"workload\":\"") +
          workload + "\",\"scheduler\":\"" + sched + "\",\"seed\":3}";
      EXPECT_EQ(daemon_run(body), local_run(body)) << body;
    }
  }
}

TEST_F(ParityFixture, ResubmissionIsBitStable) {
  // The same job twice through the daemon: byte-identical runs (the
  // nondeterministic parts — timing — live outside "run").
  const std::string body =
      "{\"kind\":\"route_online\",\"n\":64,\"workload\":\"random-perm\","
      "\"seed\":42,\"policy\":\"rlb\"}";
  const std::string first = daemon_run(body);
  EXPECT_EQ(first, daemon_run(body));
  EXPECT_EQ(first, local_run(body));
}

TEST_F(ParityFixture, RouteOnlineFieldsMatchDirectEngineCall) {
  // Bypass run_job() entirely: call route_online() with the documented
  // seed discipline (workload Rng(seed), router Rng(seed ^
  // kRouterSeedMix), core/job.hpp) and compare field-by-field with the
  // daemon's answer.
  const std::uint32_t n = 64;
  const std::uint64_t seed = 7;
  const FatTreeTopology topo(n);
  const auto caps = CapacityProfile::universal(topo, n / 4);
  Rng workload_rng(seed);
  const MessageSet m = random_permutation_traffic(n, workload_rng);
  Rng router_rng(seed ^ kRouterSeedMix);
  OnlineRouterOptions opts;
  opts.policy = RoutingPolicy::AdaptiveOccupancy;
  const auto res = route_online(topo, caps, m, router_rng, opts);

  const auto doc = JsonValue::parse(daemon_run(
      "{\"kind\":\"route_online\",\"n\":64,\"workload\":\"random-perm\","
      "\"seed\":7,\"policy\":\"adaptive\"}"));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("cycles")->as_uint(), res.delivery_cycles);
  EXPECT_EQ(doc->find("attempts")->as_uint(), res.total_attempts);
  EXPECT_EQ(doc->find("losses")->as_uint(), res.total_losses);
  EXPECT_EQ(doc->find("messages")->as_uint(), m.size());
  EXPECT_DOUBLE_EQ(doc->find("lambda")->as_double(),
                   load_factor(topo, caps, m));
}

TEST_F(ParityFixture, ReplayOfflineFieldsMatchDirectScheduleCall) {
  const std::uint32_t n = 64;
  const FatTreeTopology topo(n);
  const auto caps = CapacityProfile::universal(topo, n / 4);
  const MessageSet m = transpose_traffic(n);
  const Schedule schedule = schedule_offline_packed(topo, caps, m);
  const bool verified = verify_schedule(topo, caps, m, schedule);
  const auto replay = replay_schedule(topo, caps, schedule);

  const auto doc = JsonValue::parse(daemon_run(
      "{\"kind\":\"replay_offline\",\"n\":64,\"workload\":\"transpose\","
      "\"scheduler\":\"packed\"}"));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("cycles")->as_uint(), replay.cycles);
  EXPECT_EQ(doc->find("delivered")->as_uint(), replay.delivered);
  EXPECT_EQ(doc->find("capacity_violations")->as_uint(),
            replay.capacity_violations);
  EXPECT_EQ(doc->find("verified")->as_bool(), verified);
}

}  // namespace
}  // namespace ft::ftd
