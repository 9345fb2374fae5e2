// ftd codec tests: framing, request validation, the deterministic
// run_job() executor, and the response record builders — entirely
// in-process, no sockets. The socket-level behavior of the same codec is
// covered by test_ftd_e2e; byte-parity with the engine by
// test_ftd_parity and the ftd_loadgen gate.
#include <gtest/gtest.h>

#include <string>

#include "ftd/protocol.hpp"
#include "obs/json.hpp"

namespace ft::ftd {
namespace {

// ---------------------------------------------------------------------------
// FrameReader

TEST(FrameReader, SplitsMultipleLinesFromOneAppend) {
  FrameReader r;
  const std::string bytes = "one\ntwo\nthree\n";
  r.append(bytes.data(), bytes.size());
  std::string line;
  ASSERT_EQ(r.next(line), FrameReader::Status::Line);
  EXPECT_EQ(line, "one");
  ASSERT_EQ(r.next(line), FrameReader::Status::Line);
  EXPECT_EQ(line, "two");
  ASSERT_EQ(r.next(line), FrameReader::Status::Line);
  EXPECT_EQ(line, "three");
  EXPECT_EQ(r.next(line), FrameReader::Status::NeedMore);
}

TEST(FrameReader, ReassemblesFrameSplitAcrossAppends) {
  FrameReader r;
  std::string line;
  r.append("{\"id\":\"a", 8);
  EXPECT_EQ(r.next(line), FrameReader::Status::NeedMore);
  r.append("bc\"}", 4);
  EXPECT_EQ(r.next(line), FrameReader::Status::NeedMore);
  r.append("\n", 1);
  ASSERT_EQ(r.next(line), FrameReader::Status::Line);
  EXPECT_EQ(line, "{\"id\":\"abc\"}");
}

TEST(FrameReader, ToleratesCrlfAndEmptyLines) {
  FrameReader r;
  const std::string bytes = "alpha\r\n\nbeta\r\n";
  r.append(bytes.data(), bytes.size());
  std::string line;
  ASSERT_EQ(r.next(line), FrameReader::Status::Line);
  EXPECT_EQ(line, "alpha");
  ASSERT_EQ(r.next(line), FrameReader::Status::Line);
  EXPECT_EQ(line, "");  // blank frame; the server skips these
  ASSERT_EQ(r.next(line), FrameReader::Status::Line);
  EXPECT_EQ(line, "beta");
}

TEST(FrameReader, OversizedCompleteFramePoisons) {
  FrameReader r(/*max_frame_bytes=*/16);
  const std::string big(32, 'x');
  r.append(big.data(), big.size());
  r.append("\n", 1);
  std::string line;
  EXPECT_EQ(r.next(line), FrameReader::Status::Overflow);
  // Poisoned forever: even a subsequent well-formed frame is rejected —
  // there is no way to know where the oversized garbage ended.
  r.append("ok\n", 3);
  EXPECT_EQ(r.next(line), FrameReader::Status::Overflow);
}

TEST(FrameReader, OversizedPartialFramePoisonsWithoutNewline) {
  FrameReader r(/*max_frame_bytes=*/16);
  const std::string big(40, 'y');  // no newline at all
  r.append(big.data(), big.size());
  std::string line;
  EXPECT_EQ(r.next(line), FrameReader::Status::Overflow);
}

TEST(FrameReader, FrameAtExactlyTheCapPasses) {
  FrameReader r(/*max_frame_bytes=*/8);
  const std::string frame = "12345678\n";  // 8 bytes + newline
  r.append(frame.data(), frame.size());
  std::string line;
  ASSERT_EQ(r.next(line), FrameReader::Status::Line);
  EXPECT_EQ(line, "12345678");
}

// ---------------------------------------------------------------------------
// parse_request: validation table

std::string expect_error(const std::string& line, const std::string& code) {
  RequestError err;
  const auto req = parse_request(line, err);
  EXPECT_FALSE(req.has_value()) << line;
  EXPECT_EQ(err.code, code) << line << " -> " << err.message;
  return err.message;
}

JobRequest expect_ok(const std::string& line) {
  RequestError err;
  const auto req = parse_request(line, err);
  EXPECT_TRUE(req.has_value()) << line << " -> " << err.code << ": "
                               << err.message;
  return req.value_or(JobRequest{});
}

TEST(ParseRequest, MalformedJson) {
  expect_error("{\"id\":\"a\",", "parse_error");
  expect_error("not json at all", "parse_error");
  expect_error("", "parse_error");
}

TEST(ParseRequest, NonObjectRequest) {
  expect_error("[1,2,3]", "bad_request");
  expect_error("42", "bad_request");
}

TEST(ParseRequest, IdRequiredAndValidated) {
  expect_error("{\"job\":{\"kind\":\"ping\"}}", "bad_request");
  expect_error("{\"id\":\"\",\"job\":{\"kind\":\"ping\"}}", "bad_field");
  expect_error("{\"id\":7,\"job\":{\"kind\":\"ping\"}}", "bad_field");
  expect_error("{\"id\":\"a\\nb\",\"job\":{\"kind\":\"ping\"}}", "bad_field");
  const std::string long_id(kMaxIdBytes + 1, 'x');
  expect_error("{\"id\":\"" + long_id + "\",\"job\":{\"kind\":\"ping\"}}",
               "bad_field");
}

TEST(ParseRequest, SchemaCheckedWhenPresent) {
  expect_ok(std::string("{\"schema\":\"") + kSchema +
            "\",\"id\":\"a\",\"job\":{\"kind\":\"ping\"}}");
  expect_error("{\"schema\":\"ft.ftd/999\",\"id\":\"a\",\"job\":{\"kind\":"
               "\"ping\"}}",
               "bad_schema");
  expect_error("{\"schema\":1,\"id\":\"a\",\"job\":{\"kind\":\"ping\"}}",
               "bad_schema");
}

TEST(ParseRequest, UnknownFieldsRejectedAtEveryLevel) {
  EXPECT_EQ(expect_error(
                "{\"id\":\"a\",\"job\":{\"kind\":\"ping\"},\"extra\":1}",
                "unknown_field"),
            "extra");
  EXPECT_EQ(expect_error("{\"id\":\"a\",\"job\":{\"kind\":\"ping\","
                         "\"frobnicate\":1}}",
                         "unknown_field"),
            "job.frobnicate");
  EXPECT_EQ(expect_error("{\"id\":\"a\",\"job\":{\"kind\":\"route_online\","
                         "\"retry\":{\"attempts\":3}}}",
                         "unknown_field"),
            "retry.attempts");
}

TEST(ParseRequest, JobRequiredAndMustBeObject) {
  expect_error("{\"id\":\"a\"}", "bad_request");
  expect_error("{\"id\":\"a\",\"job\":[]}", "bad_field");
  expect_error("{\"id\":\"a\",\"job\":{}}", "bad_request");  // kind missing
}

TEST(ParseRequest, KindValidated) {
  expect_error("{\"id\":\"a\",\"job\":{\"kind\":\"frobnicate\"}}",
               "bad_value");
  expect_error("{\"id\":\"a\",\"job\":{\"kind\":3}}", "bad_field");
}

TEST(ParseRequest, NumericFieldsRejectFractionalAndNegative) {
  expect_error("{\"id\":\"a\",\"job\":{\"kind\":\"route_online\",\"n\":2.5}}",
               "bad_value");
  expect_error("{\"id\":\"a\",\"job\":{\"kind\":\"route_online\",\"n\":-64}}",
               "bad_value");
  expect_error(
      "{\"id\":\"a\",\"job\":{\"kind\":\"route_online\",\"seed\":-1}}",
      "bad_value");
  expect_error(
      "{\"id\":\"a\",\"job\":{\"kind\":\"route_online\",\"seed\":\"7\"}}",
      "bad_value");
}

TEST(ParseRequest, RangeAndCrossFieldRules) {
  // n must be a power of two within the cost ceiling.
  expect_error("{\"id\":\"a\",\"job\":{\"kind\":\"route_online\",\"n\":63}}",
               "bad_value");
  expect_error(
      "{\"id\":\"a\",\"job\":{\"kind\":\"route_online\",\"n\":131072}}",
      "bad_value");
  // w bounded by n.
  expect_error("{\"id\":\"a\",\"job\":{\"kind\":\"route_online\",\"n\":64,"
               "\"w\":65}}",
               "bad_value");
  // stack in [1, 64].
  expect_error("{\"id\":\"a\",\"job\":{\"kind\":\"route_online\",\"stack\":"
               "0}}",
               "bad_value");
  expect_error("{\"id\":\"a\",\"job\":{\"kind\":\"route_online\",\"stack\":"
               "65}}",
               "bad_value");
  // messages only for volume workloads.
  expect_error("{\"id\":\"a\",\"job\":{\"kind\":\"route_online\",\"workload\":"
               "\"transpose\",\"messages\":100}}",
               "bad_value");
  expect_ok("{\"id\":\"a\",\"job\":{\"kind\":\"route_online\",\"workload\":"
            "\"uniform\",\"messages\":100}}");
  // The stacked total (messages, default n) x stack is capped at 2^22.
  expect_error("{\"id\":\"a\",\"job\":{\"kind\":\"route_online\",\"workload\":"
               "\"uniform\",\"messages\":4194304,\"stack\":2}}",
               "bad_value");
  expect_ok("{\"id\":\"a\",\"job\":{\"kind\":\"route_online\",\"workload\":"
            "\"uniform\",\"messages\":2097152,\"stack\":2}}");
  // sleep_ms only for sleep jobs; retry only for route_online.
  expect_error("{\"id\":\"a\",\"job\":{\"kind\":\"route_online\",\"sleep_ms\":"
               "10}}",
               "bad_value");
  expect_error("{\"id\":\"a\",\"job\":{\"kind\":\"sleep\",\"sleep_ms\":"
               "6000}}",
               "bad_value");
  expect_error("{\"id\":\"a\",\"job\":{\"kind\":\"replay_offline\",\"retry\":"
               "{\"max_attempts\":3}}}",
               "bad_value");
  // unknown workload / policy / scheduler names.
  expect_error("{\"id\":\"a\",\"job\":{\"kind\":\"route_online\",\"workload\":"
               "\"nope\"}}",
               "bad_value");
  expect_error("{\"id\":\"a\",\"job\":{\"kind\":\"route_online\",\"policy\":"
               "\"nope\"}}",
               "bad_value");
  expect_error("{\"id\":\"a\",\"job\":{\"kind\":\"replay_offline\","
               "\"scheduler\":\"nope\"}}",
               "bad_value");
}

TEST(ParseRequest, ErrorCarriesIdOnceEnvelopeParsed) {
  RequestError err;
  const auto req = parse_request(
      "{\"id\":\"job-42\",\"job\":{\"kind\":\"route_online\",\"n\":63}}", err);
  EXPECT_FALSE(req.has_value());
  EXPECT_EQ(err.code, "bad_value");
  // The daemon uses this to emit a correlatable error record.
  EXPECT_EQ(err.id, "job-42");
}

TEST(ParseRequest, DefaultsApplied) {
  const JobRequest req = expect_ok(
      "{\"id\":\"a\",\"job\":{\"kind\":\"route_online\",\"n\":64}}");
  EXPECT_EQ(req.id, "a");
  EXPECT_EQ(req.kind, JobKind::RouteOnline);
  EXPECT_EQ(req.n, 64u);
  EXPECT_EQ(req.w, 16u);  // w = n/4 default
  EXPECT_EQ(req.workload, "transpose");
  EXPECT_EQ(req.seed, 1u);
  EXPECT_EQ(req.policy, RoutingPolicy::ObliviousRandom);
  EXPECT_EQ(req.stack, 1u);
  EXPECT_FALSE(req.retry.enabled());
}

TEST(ParseRequest, FullRequestRoundTrip) {
  const JobRequest req = expect_ok(
      std::string("{\"schema\":\"") + kSchema +
      "\",\"id\":\"j\",\"job\":{\"kind\":\"route_online\",\"n\":128,\"w\":32,"
      "\"workload\":\"random-perm\",\"seed\":9,\"policy\":\"adaptive\","
      "\"stack\":2,\"max_cycles\":500,\"retry\":{\"max_attempts\":4,"
      "\"exponential_backoff\":true,\"max_backoff\":16,\"deadline_cycles\":"
      "100}}}");
  EXPECT_EQ(req.n, 128u);
  EXPECT_EQ(req.w, 32u);
  EXPECT_EQ(req.workload, "random-perm");
  EXPECT_EQ(req.seed, 9u);
  EXPECT_EQ(req.policy, RoutingPolicy::AdaptiveOccupancy);
  EXPECT_EQ(req.policy_name, "adaptive");
  EXPECT_EQ(req.stack, 2u);
  EXPECT_EQ(req.max_cycles, 500u);
  EXPECT_EQ(req.retry.max_attempts, 4u);
  EXPECT_TRUE(req.retry.exponential_backoff);
  EXPECT_EQ(req.retry.max_backoff, 16u);
  EXPECT_EQ(req.retry.deadline_cycles, 100u);
}

// ---------------------------------------------------------------------------
// run_job: the deterministic executor

TEST(RunJob, PingAndSleepShapes) {
  JobRequest ping;
  ping.kind = JobKind::Ping;
  const JsonValue run = run_job(ping);
  EXPECT_EQ(run.dump(0), "{\"kind\":\"ping\",\"pong\":true}");

  JobRequest sleep_req;
  sleep_req.kind = JobKind::Sleep;
  sleep_req.sleep_ms = 1;
  const JsonValue srun = run_job(sleep_req);
  EXPECT_EQ(srun.dump(0), "{\"kind\":\"sleep\",\"ms\":1,\"slept\":true}");
}

TEST(RunJob, RouteOnlineIsDeterministic) {
  const JobRequest req = expect_ok(
      "{\"id\":\"a\",\"job\":{\"kind\":\"route_online\",\"n\":64,\"workload\":"
      "\"random-perm\",\"seed\":7,\"policy\":\"adaptive\"}}");
  const std::string first = run_job(req).dump(0);
  const std::string second = run_job(req).dump(0);
  EXPECT_EQ(first, second);

  const auto doc = JsonValue::parse(first);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("kind")->as_string(), "route_online");
  EXPECT_EQ(doc->find("n")->as_uint(), 64u);
  EXPECT_EQ(doc->find("messages")->as_uint(), 64u);
  EXPECT_TRUE(doc->find("verified")->as_bool());
  EXPECT_GE(doc->find("cycles")->as_uint(), 1u);
  EXPECT_GE(doc->find("attempts")->as_uint(),
            doc->find("messages")->as_uint());
}

TEST(RunJob, SeedChangesTheRun) {
  JobRequest a = expect_ok(
      "{\"id\":\"a\",\"job\":{\"kind\":\"route_online\",\"n\":64,\"workload\":"
      "\"random-perm\",\"seed\":1}}");
  JobRequest b = a;
  b.seed = 2;
  EXPECT_NE(run_job(a).dump(0), run_job(b).dump(0));
}

TEST(RunJob, ReplayOfflineVerifies) {
  for (const char* sched : {"offline", "packed", "greedy"}) {
    const JobRequest req = expect_ok(
        std::string("{\"id\":\"a\",\"job\":{\"kind\":\"replay_offline\",\"n\":"
                    "64,\"scheduler\":\"") +
        sched + "\"}}");
    const auto doc = JsonValue::parse(run_job(req).dump(0));
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("scheduler")->as_string(), sched);
    EXPECT_TRUE(doc->find("verified")->as_bool()) << sched;
    EXPECT_EQ(doc->find("capacity_violations")->as_uint(), 0u) << sched;
    EXPECT_EQ(doc->find("delivered")->as_uint(),
              doc->find("messages")->as_uint())
        << sched;
  }
}

// ---------------------------------------------------------------------------
// Response records

TEST(Records, AllRecordsAreSingleParseableLines) {
  for (const std::string& rec :
       {hello_record(4096, 1024, 1 << 20),
        result_record("id-1", run_job(JobRequest{}), 0.001, 0.002),
        error_record("id-2", "bad_value", "n: want a power of two >= 2"),
        rejected_record("id-3", "queue_full", "job queue at capacity", 17)}) {
    ASSERT_FALSE(rec.empty());
    EXPECT_EQ(rec.back(), '\n');
    EXPECT_EQ(rec.find('\n'), rec.size() - 1) << rec;  // exactly one newline
    const auto doc = JsonValue::parse(rec);
    ASSERT_TRUE(doc.has_value()) << rec;
    EXPECT_EQ(doc->find("schema")->as_string(), kSchema);
  }
}

TEST(Records, GoldenRequestToReportRoundTrip) {
  // The full codec path a daemon request takes, with no sockets: parse
  // the request line, execute, build the result record, parse it back,
  // and check the run payload round-trips byte-identically.
  RequestError err;
  const auto req = parse_request(
      "{\"id\":\"golden\",\"job\":{\"kind\":\"route_online\",\"n\":64,"
      "\"workload\":\"transpose\",\"seed\":7}}",
      err);
  ASSERT_TRUE(req.has_value()) << err.message;
  const JsonValue run = run_job(*req);
  const std::string record = result_record(req->id, run, 0.5, 1.5);

  const auto doc = JsonValue::parse(record);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("type")->as_string(), "result");
  EXPECT_EQ(doc->find("id")->as_string(), "golden");
  const JsonValue* parsed_run = doc->find("run");
  ASSERT_NE(parsed_run, nullptr);
  EXPECT_EQ(parsed_run->dump(0), run.dump(0));
  // Timing rides in a sibling object, outside the deterministic payload.
  const JsonValue* timing = doc->find("timing");
  ASSERT_NE(timing, nullptr);
  EXPECT_DOUBLE_EQ(timing->find("queue_seconds")->as_double(), 0.5);
  EXPECT_DOUBLE_EQ(timing->find("run_seconds")->as_double(), 1.5);
}

TEST(Records, ErrorAndRejectedCarryStructure) {
  const auto err_doc =
      JsonValue::parse(error_record("x", "parse_error", "bad \"json\""));
  ASSERT_TRUE(err_doc.has_value());
  EXPECT_EQ(err_doc->find("type")->as_string(), "error");
  EXPECT_EQ(err_doc->find("code")->as_string(), "parse_error");
  EXPECT_EQ(err_doc->find("message")->as_string(), "bad \"json\"");

  const auto rej_doc = JsonValue::parse(
      rejected_record("y", "queue_full", "job queue at capacity", 4096));
  ASSERT_TRUE(rej_doc.has_value());
  EXPECT_EQ(rej_doc->find("type")->as_string(), "rejected");
  EXPECT_EQ(rej_doc->find("code")->as_string(), "queue_full");
  EXPECT_EQ(rej_doc->find("queue_depth")->as_uint(), 4096u);
}

}  // namespace
}  // namespace ft::ftd
