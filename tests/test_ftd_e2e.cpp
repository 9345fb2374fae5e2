// ftd end-to-end tests over real loopback sockets: an in-process Server
// on its own thread, driven by the blocking Client. Covers the contracts
// the codec tests cannot: concurrent client isolation, queue-full
// backpressure (a structured rejection, never a hang), mid-job
// disconnect reaping, graceful drain, and per-connection poisoning.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "ftd/client.hpp"
#include "ftd/protocol.hpp"
#include "ftd/server.hpp"
#include "obs/json.hpp"

namespace ft::ftd {
namespace {

/// Server on a dedicated thread; stop() drains and joins.
class ServerFixture {
 public:
  explicit ServerFixture(ServerOptions opts = {}) : server_(opts) {}
  ~ServerFixture() { stop(); }

  bool start() {
    std::string err;
    if (!server_.start(&err)) {
      ADD_FAILURE() << "server start failed: " << err;
      return false;
    }
    thread_ = std::thread([this]() { server_.run(); });
    return true;
  }

  void stop() {
    if (thread_.joinable()) {
      server_.request_drain();
      thread_.join();
    }
  }

  std::uint16_t port() const { return server_.port(); }
  Server& server() { return server_; }

 private:
  Server server_;
  std::thread thread_;
};

/// Connects and consumes the hello banner (returned for inspection).
bool connect_client(Client& c, std::uint16_t port, JsonValue* hello = nullptr) {
  std::string err;
  if (!c.connect(port, &err)) {
    ADD_FAILURE() << "connect failed: " << err;
    return false;
  }
  std::string line;
  if (!c.read_line(line, 10000)) {
    ADD_FAILURE() << "no hello banner";
    return false;
  }
  auto doc = JsonValue::parse(line);
  if (!doc || doc->find("type") == nullptr ||
      doc->find("type")->as_string() != "hello") {
    ADD_FAILURE() << "bad hello: " << line;
    return false;
  }
  if (hello != nullptr) *hello = std::move(*doc);
  return true;
}

JsonValue read_record(Client& c, int timeout_ms = 30000) {
  std::string line;
  if (!c.read_line(line, timeout_ms)) {
    ADD_FAILURE() << "read_line timed out or hit EOF";
    return JsonValue::object();
  }
  auto doc = JsonValue::parse(line);
  if (!doc) {
    ADD_FAILURE() << "unparseable record: " << line;
    return JsonValue::object();
  }
  return std::move(*doc);
}

std::string field(const JsonValue& doc, const char* key) {
  const JsonValue* v = doc.find(key);
  return v != nullptr && v->is_string() ? v->as_string() : std::string();
}

TEST(FtdE2e, HelloBannerAndPing) {
  ServerOptions opts;
  opts.queue_capacity = 77;
  opts.client_quota = 33;
  ServerFixture fx(opts);
  ASSERT_TRUE(fx.start());

  Client c;
  JsonValue hello;
  ASSERT_TRUE(connect_client(c, fx.port(), &hello));
  EXPECT_EQ(hello.find("queue_capacity")->as_uint(), 77u);
  EXPECT_EQ(hello.find("client_quota")->as_uint(), 33u);

  ASSERT_TRUE(c.send_line("{\"id\":\"p1\",\"job\":{\"kind\":\"ping\"}}"));
  const JsonValue rec = read_record(c);
  EXPECT_EQ(field(rec, "type"), "result");
  EXPECT_EQ(field(rec, "id"), "p1");
  EXPECT_TRUE(rec.find("run")->find("pong")->as_bool());
}

// A server that is started but never run() still owns its workers.
// Destroying it joins them, whether they have parked on the empty queue
// yet or not.
TEST(FtdE2e, ServerThatNeverRanJoinsItsIdleWorkers) {
  for (const int idle_ms : {0, 20}) {
    ServerOptions opts;
    opts.workers = 4;
    Server server(opts);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    std::this_thread::sleep_for(std::chrono::milliseconds(idle_ms));
    EXPECT_EQ(server.stats().jobs_admitted, 0u);
  }
}

TEST(FtdE2e, ConcurrentClientsGetTheirOwnResults) {
  ServerFixture fx;
  ASSERT_TRUE(fx.start());

  // Four clients submit jobs with different seeds concurrently; each
  // must get back exactly its own deterministic result.
  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&fx, t]() {
      Client c;
      ASSERT_TRUE(connect_client(c, fx.port()));
      const std::string job =
          "{\"kind\":\"route_online\",\"n\":64,\"workload\":\"random-perm\","
          "\"seed\":" + std::to_string(100 + t) + "}";
      const std::string id = "client-" + std::to_string(t);
      ASSERT_TRUE(c.send_line("{\"id\":\"" + id + "\",\"job\":" + job + "}"));
      const JsonValue rec = read_record(c);
      EXPECT_EQ(field(rec, "type"), "result");
      EXPECT_EQ(field(rec, "id"), id);

      // Byte-identical to the in-process execution of the same job.
      RequestError err;
      const auto req =
          parse_request("{\"id\":\"" + id + "\",\"job\":" + job + "}", err);
      ASSERT_TRUE(req.has_value());
      EXPECT_EQ(rec.find("run")->dump(0), run_job(*req).dump(0));
    });
  }
  for (auto& th : threads) th.join();
}

TEST(FtdE2e, QueueFullYieldsStructuredRejectionNotAHang) {
  ServerOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 2;
  ServerFixture fx(opts);
  ASSERT_TRUE(fx.start());

  Client c;
  ASSERT_TRUE(connect_client(c, fx.port()));
  // Blast 8 sleep jobs; capacity 2 means most are rejected immediately.
  constexpr int kJobs = 8;
  for (int k = 0; k < kJobs; ++k) {
    ASSERT_TRUE(c.send_line("{\"id\":\"s" + std::to_string(k) +
                            "\",\"job\":{\"kind\":\"sleep\",\"sleep_ms\":"
                            "100}}"));
  }
  int results = 0;
  int rejections = 0;
  for (int k = 0; k < kJobs; ++k) {
    const JsonValue rec = read_record(c);  // a hang fails here via timeout
    const std::string type = field(rec, "type");
    if (type == "result") {
      ++results;
    } else if (type == "rejected") {
      ++rejections;
      EXPECT_EQ(field(rec, "code"), "queue_full");
      ASSERT_NE(rec.find("queue_depth"), nullptr);
      EXPECT_LE(rec.find("queue_depth")->as_uint(), 2u);
    } else {
      ADD_FAILURE() << "unexpected record type " << type;
    }
  }
  EXPECT_EQ(results + rejections, kJobs);
  EXPECT_GE(rejections, 1);
  EXPECT_GE(results, 2);  // everything admitted completed
  EXPECT_GE(fx.server().stats().jobs_rejected, 1u);
}

TEST(FtdE2e, ClientQuotaIsolatesGreedyClients) {
  ServerOptions opts;
  opts.workers = 1;
  opts.client_quota = 1;
  ServerFixture fx(opts);
  ASSERT_TRUE(fx.start());

  Client greedy;
  ASSERT_TRUE(connect_client(greedy, fx.port()));
  for (int k = 0; k < 4; ++k) {
    ASSERT_TRUE(greedy.send_line("{\"id\":\"g" + std::to_string(k) +
                                 "\",\"job\":{\"kind\":\"sleep\",\"sleep_ms\":"
                                 "100}}"));
  }
  int results = 0;
  int quota_rejections = 0;
  for (int k = 0; k < 4; ++k) {
    const JsonValue rec = read_record(greedy);
    if (field(rec, "type") == "result") {
      ++results;
    } else {
      ++quota_rejections;
      EXPECT_EQ(field(rec, "code"), "client_quota");
    }
  }
  EXPECT_GE(quota_rejections, 1);
  EXPECT_GE(results, 1);

  // A polite client on a second connection is untouched by the greedy
  // one's quota.
  Client polite;
  ASSERT_TRUE(connect_client(polite, fx.port()));
  ASSERT_TRUE(polite.send_line("{\"id\":\"p\",\"job\":{\"kind\":\"ping\"}}"));
  EXPECT_EQ(field(read_record(polite), "type"), "result");
}

TEST(FtdE2e, MidJobDisconnectIsReapedWithoutLeakingTheWorker) {
  ServerOptions opts;
  opts.workers = 1;
  ServerFixture fx(opts);
  ASSERT_TRUE(fx.start());

  {
    Client doomed;
    ASSERT_TRUE(connect_client(doomed, fx.port()));
    ASSERT_TRUE(doomed.send_line(
        "{\"id\":\"gone\",\"job\":{\"kind\":\"sleep\",\"sleep_ms\":150}}"));
    // Give the loop time to admit the job, then vanish mid-run.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }  // ~Client closes the socket

  // The worker finishes the orphaned job and its response is dropped,
  // not delivered to a stale fd and not leaked.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fx.server().stats().responses_dropped == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(fx.server().stats().responses_dropped, 1u);

  // The server remains fully healthy for new clients.
  Client alive;
  ASSERT_TRUE(connect_client(alive, fx.port()));
  ASSERT_TRUE(alive.send_line(
      "{\"id\":\"ok\",\"job\":{\"kind\":\"route_online\",\"n\":32}}"));
  const JsonValue rec = read_record(alive);
  EXPECT_EQ(field(rec, "type"), "result");
  EXPECT_EQ(field(rec, "id"), "ok");
}

TEST(FtdE2e, DrainFinishesInflightJobsThenClosesCleanly) {
  ServerOptions opts;
  opts.workers = 1;
  ServerFixture fx(opts);
  ASSERT_TRUE(fx.start());

  Client c;
  ASSERT_TRUE(connect_client(c, fx.port()));
  constexpr int kJobs = 3;
  for (int k = 0; k < kJobs; ++k) {
    ASSERT_TRUE(c.send_line("{\"id\":\"d" + std::to_string(k) +
                            "\",\"job\":{\"kind\":\"sleep\",\"sleep_ms\":"
                            "100}}"));
  }
  // Let the loop admit the batch, then drain mid-flight (what SIGTERM
  // does in the ftd binary).
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  fx.server().request_drain();

  // Every admitted job's result still arrives, then a clean EOF.
  for (int k = 0; k < kJobs; ++k) {
    const JsonValue rec = read_record(c);
    EXPECT_EQ(field(rec, "type"), "result");
    EXPECT_EQ(field(rec, "id"), "d" + std::to_string(k));
  }
  std::string line;
  EXPECT_FALSE(c.read_line(line, 10000));
  EXPECT_TRUE(c.eof());
  fx.stop();

  // New work is rejected at the socket level once drained.
  Client late;
  std::string err;
  EXPECT_FALSE(late.connect(fx.port(), &err));
}

TEST(FtdE2e, DrainRejectsNewJobsWithStructuredRecord) {
  ServerOptions opts;
  opts.workers = 1;
  ServerFixture fx(opts);
  ASSERT_TRUE(fx.start());

  Client c;
  ASSERT_TRUE(connect_client(c, fx.port()));
  ASSERT_TRUE(c.send_line(
      "{\"id\":\"hold\",\"job\":{\"kind\":\"sleep\",\"sleep_ms\":200}}"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  fx.server().request_drain();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Submitted after the drain began: structured rejection, not silence.
  ASSERT_TRUE(c.send_line(
      "{\"id\":\"late\",\"job\":{\"kind\":\"sleep\",\"sleep_ms\":1}}"));

  bool saw_hold = false;
  bool saw_late_rejected = false;
  for (int k = 0; k < 2; ++k) {
    const JsonValue rec = read_record(c);
    if (field(rec, "id") == "hold") {
      EXPECT_EQ(field(rec, "type"), "result");
      saw_hold = true;
    } else if (field(rec, "id") == "late") {
      EXPECT_EQ(field(rec, "type"), "rejected");
      EXPECT_EQ(field(rec, "code"), "draining");
      saw_late_rejected = true;
    }
  }
  EXPECT_TRUE(saw_hold);
  EXPECT_TRUE(saw_late_rejected);
}

TEST(FtdE2e, OversizedFramePoisonsOnlyThatConnection) {
  ServerOptions opts;
  opts.max_frame_bytes = 256;
  ServerFixture fx(opts);
  ASSERT_TRUE(fx.start());

  Client bad;
  ASSERT_TRUE(connect_client(bad, fx.port()));
  ASSERT_TRUE(bad.send_line(std::string(1024, 'x')));
  const JsonValue rec = read_record(bad);
  EXPECT_EQ(field(rec, "type"), "error");
  EXPECT_EQ(field(rec, "code"), "oversized_frame");
  std::string line;
  EXPECT_FALSE(bad.read_line(line, 10000));  // connection closed
  EXPECT_TRUE(bad.eof());
  EXPECT_EQ(fx.server().stats().frames_oversized, 1u);

  // Other connections are unaffected.
  Client good;
  ASSERT_TRUE(connect_client(good, fx.port()));
  ASSERT_TRUE(good.send_line("{\"id\":\"ok\",\"job\":{\"kind\":\"ping\"}}"));
  EXPECT_EQ(field(read_record(good), "type"), "result");
}

TEST(FtdE2e, MalformedJsonGetsErrorAndConnectionStaysUsable) {
  ServerFixture fx;
  ASSERT_TRUE(fx.start());

  Client c;
  ASSERT_TRUE(connect_client(c, fx.port()));
  ASSERT_TRUE(c.send_line("this is not json"));
  const JsonValue err_rec = read_record(c);
  EXPECT_EQ(field(err_rec, "type"), "error");
  EXPECT_EQ(field(err_rec, "code"), "parse_error");

  // A validation failure names the field and carries the request id.
  ASSERT_TRUE(c.send_line(
      "{\"id\":\"v\",\"job\":{\"kind\":\"route_online\",\"n\":63}}"));
  const JsonValue val_rec = read_record(c);
  EXPECT_EQ(field(val_rec, "type"), "error");
  EXPECT_EQ(field(val_rec, "id"), "v");
  EXPECT_EQ(field(val_rec, "code"), "bad_value");

  // And the same connection still executes valid work afterwards.
  ASSERT_TRUE(c.send_line("{\"id\":\"w\",\"job\":{\"kind\":\"ping\"}}"));
  EXPECT_EQ(field(read_record(c), "type"), "result");
}

TEST(FtdE2e, PipelinedJobsOnOneConnectionAllComeBack) {
  ServerFixture fx;
  ASSERT_TRUE(fx.start());

  Client c;
  ASSERT_TRUE(connect_client(c, fx.port()));
  constexpr int kJobs = 32;
  for (int k = 0; k < kJobs; ++k) {
    ASSERT_TRUE(c.send_line(
        "{\"id\":\"pipe" + std::to_string(k) +
        "\",\"job\":{\"kind\":\"route_online\",\"n\":32,\"seed\":" +
        std::to_string(k + 1) + "}}"));
  }
  // Responses may arrive in any completion order; all ids must appear
  // exactly once.
  std::vector<bool> seen(kJobs, false);
  for (int k = 0; k < kJobs; ++k) {
    const JsonValue rec = read_record(c);
    ASSERT_EQ(field(rec, "type"), "result");
    const std::string id = field(rec, "id");
    ASSERT_EQ(id.rfind("pipe", 0), 0u);
    const int idx = std::stoi(id.substr(4));
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, kJobs);
    EXPECT_FALSE(seen[idx]) << "duplicate response for " << id;
    seen[idx] = true;
  }
}

}  // namespace
}  // namespace ft::ftd
