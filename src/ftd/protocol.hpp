// ftd wire protocol (schema ft.ftd/1): the codec layer of the job
// service, fully testable without a socket in sight.
//
// Transport framing is newline-delimited JSON both ways. A client sends
// one request object per line:
//
//   {"schema":"ft.ftd/1","id":"job-1","job":{"kind":"route_online",
//    "n":64,"w":16,"workload":"transpose","seed":7,"policy":"adaptive"}}
//
// and receives one JSONL record per line: a "hello" banner on connect,
// then exactly one "result" / "error" / "rejected" record per request,
// in completion order (responses carry the request id — concurrent jobs
// on one connection complete out of order by design).
//
// The deterministic payload of a result lives under its "run" key and is
// produced by run_job(), the same function the in-process parity tests
// call. It runs the request through the library's job path (core/
// job.hpp), as ftsim runs each of its workloads, so daemon output equals
// the direct route_online/replay_schedule calls and ftsim's report for
// the same fields. Identity and timing data (queue wait, run wall time)
// ride in a sibling "timing" object that parity comparisons exclude.
//
// Request validation follows the hardened ftsim discipline (util/
// parse.hpp): every field type-checked, every range enforced, unknown
// fields rejected — a malformed request yields a structured "error"
// record naming the offending field, never a misparsed run.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/job.hpp"
#include "obs/json.hpp"

namespace ft::ftd {

inline constexpr const char* kSchema = "ft.ftd/1";

/// Frames larger than this are a protocol violation: the connection gets
/// one "oversized_frame" error record and is closed (there is no way to
/// resynchronize inside a partially-read oversized line).
inline constexpr std::size_t kDefaultMaxFrameBytes = 1u << 20;

/// Hard ceilings on a job's size, so one request cannot exhaust the
/// daemon's memory. kMaxMessages bounds the stacked total a job builds,
/// (messages, default n) × stack, as well as `messages` itself. They
/// bound memory, not time: a 2^22-message incast still runs for about
/// 2^22 cycles.
inline constexpr std::uint32_t kMaxN = 1u << 16;
inline constexpr std::uint32_t kMaxStack = 64;
inline constexpr std::uint64_t kMaxMessages = 1u << 22;
inline constexpr std::uint32_t kMaxSleepMs = 5000;
inline constexpr std::size_t kMaxIdBytes = 128;

enum class JobKind : std::uint8_t {
  /// Liveness probe; returns immediately without touching the job queue.
  Ping,
  /// Occupies a worker for `sleep_ms` — the load-test harness's knob for
  /// pinning jobs in the queue (surge and saturation phases).
  Sleep,
  /// route_online on a universal fat-tree (the paper's on-line router).
  RouteOnline,
  /// schedule_offline/packed/greedy + verify + engine replay.
  ReplayOffline,
};

/// A job request: the JobSpec run_job executes (core/job.hpp), with
/// ftd's defaults (n = 64, transpose), plus the envelope's id and the
/// kind. parse_request sets `scheduler` to "online" for route_online;
/// replay_offline takes offline | packed | greedy.
struct JobRequest : JobSpec {
  JobRequest() {
    n = 64;
    workload = "transpose";
  }

  std::string id;
  JobKind kind = JobKind::Ping;
  std::uint32_t sleep_ms = 0;  ///< sleep jobs only
};

struct RequestError {
  std::string code;     ///< stable machine-readable reason
  std::string message;  ///< human-readable detail
  /// The request id, when it parsed before the failure — so error
  /// records can still be correlated by the client.
  std::string id;
};

/// Parses and validates one request line. On failure returns nullopt
/// with `err` filled; `err.code` is one of: parse_error, bad_request,
/// bad_schema, bad_field, unknown_field, bad_value.
std::optional<JobRequest> parse_request(std::string_view line,
                                        RequestError& err);

/// Executes a validated job and returns the deterministic "run" object:
/// everything in it is a pure function of the request (workload, seeds,
/// engine results) — no timestamps, hostnames, or wall-clock anywhere.
/// Shared by the daemon workers and the in-process parity tests.
JsonValue run_job(const JobRequest& req);

// Response records. Each is a single line (single-line JSON + '\n').
std::string hello_record(std::uint64_t queue_capacity,
                         std::uint64_t client_quota,
                         std::uint64_t max_frame_bytes);
std::string result_record(const std::string& id, const JsonValue& run,
                          double queue_seconds, double run_seconds);
std::string error_record(const std::string& id, std::string_view code,
                         std::string_view message);
std::string rejected_record(const std::string& id, std::string_view code,
                            std::string_view message,
                            std::uint64_t queue_depth);

/// Splits a byte stream into newline-terminated frames with an explicit
/// size cap. Feed bytes with append(); pop frames with next(). Once the
/// cap is exceeded the reader is poisoned: next() returns Overflow
/// forever (the connection must be torn down).
class FrameReader {
 public:
  explicit FrameReader(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_(max_frame_bytes) {}

  enum class Status : std::uint8_t {
    Line,      ///< `out` holds one complete frame (newline stripped)
    NeedMore,  ///< no complete frame buffered
    Overflow,  ///< frame exceeded the cap; reader is poisoned
  };

  void append(const char* data, std::size_t len);
  Status next(std::string& out);

  std::size_t buffered_bytes() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  std::size_t pos_ = 0;
  std::size_t max_;
  bool poisoned_ = false;
};

}  // namespace ft::ftd
