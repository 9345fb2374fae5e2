#include "ftd/protocol.hpp"

#include <chrono>
#include <cmath>
#include <sstream>
#include <thread>

#include "core/traffic.hpp"
#include "util/bits.hpp"

namespace ft::ftd {

namespace {

/// Strict unsigned-integer field read: the value must be a JSON number
/// with no fractional part and no sign. (The repo's parser stores
/// non-negative integrals as Uint, so a Double or negative Int here
/// means the client sent 2.5 or -3.)
bool get_uint_field(const JsonValue& v, std::uint64_t& out) {
  if (!v.is_number()) return false;
  const double d = v.as_double();
  if (d < 0.0 || std::floor(d) != d) return false;
  out = v.as_uint();
  return true;
}

bool valid_id(const std::string& id) {
  if (id.empty() || id.size() > kMaxIdBytes) return false;
  for (const char c : id) {
    const auto u = static_cast<unsigned char>(c);
    if (u < 0x20 || u == 0x7f) return false;  // no control chars/newlines
  }
  return true;
}

bool fail(RequestError& err, std::string_view code, std::string message) {
  err.code = std::string(code);
  err.message = std::move(message);
  return false;
}

/// Parses the "job" object into `req`. Every member must be a known
/// field of the right type; ranges are checked after all fields land so
/// cross-field rules (w <= n, messages only for volume workloads) see
/// the final values.
bool parse_job(const JsonValue& job, JobRequest& req, RequestError& err) {
  std::string kind_name;
  bool saw_kind = false;
  bool saw_messages = false;
  bool saw_sleep_ms = false;
  bool saw_retry = false;
  for (const auto& [key, value] : job.members()) {
    if (key == "kind") {
      if (!value.is_string()) return fail(err, "bad_field", "kind: not a string");
      kind_name = value.as_string();
      saw_kind = true;
    } else if (key == "n") {
      std::uint64_t v = 0;
      if (!get_uint_field(value, v) || v > kMaxN) {
        return fail(err, "bad_value", "n: want an integer in [2, 65536]");
      }
      req.n = static_cast<std::uint32_t>(v);
    } else if (key == "w") {
      if (!get_uint_field(value, req.w)) {
        return fail(err, "bad_value", "w: want a non-negative integer");
      }
    } else if (key == "workload") {
      if (!value.is_string()) {
        return fail(err, "bad_field", "workload: not a string");
      }
      req.workload = value.as_string();
    } else if (key == "seed") {
      if (!get_uint_field(value, req.seed)) {
        return fail(err, "bad_value", "seed: want a non-negative integer");
      }
    } else if (key == "policy") {
      if (!value.is_string() ||
          !parse_routing_policy(value.as_string(), req.policy)) {
        return fail(err, "bad_value",
                    "policy: want oblivious | dmod | rlb | adaptive");
      }
      req.policy_name = value.as_string();
    } else if (key == "scheduler") {
      if (!value.is_string()) {
        return fail(err, "bad_field", "scheduler: not a string");
      }
      req.scheduler = value.as_string();
    } else if (key == "stack") {
      std::uint64_t v = 0;
      if (!get_uint_field(value, v) || v < 1 || v > kMaxStack) {
        return fail(err, "bad_value", "stack: want an integer in [1, 64]");
      }
      req.stack = static_cast<std::uint32_t>(v);
    } else if (key == "max_cycles") {
      std::uint64_t v = 0;
      if (!get_uint_field(value, v) || v > 0xffffffffull) {
        return fail(err, "bad_value", "max_cycles: want a u32");
      }
      req.max_cycles = static_cast<std::uint32_t>(v);
    } else if (key == "messages") {
      if (!get_uint_field(value, req.messages) ||
          req.messages > kMaxMessages) {
        return fail(err, "bad_value", "messages: want an integer <= 2^22");
      }
      saw_messages = true;
    } else if (key == "sleep_ms") {
      std::uint64_t v = 0;
      if (!get_uint_field(value, v) || v > kMaxSleepMs) {
        return fail(err, "bad_value", "sleep_ms: want an integer <= 5000");
      }
      req.sleep_ms = static_cast<std::uint32_t>(v);
      saw_sleep_ms = true;
    } else if (key == "retry") {
      if (!value.is_object()) {
        return fail(err, "bad_field", "retry: not an object");
      }
      for (const auto& [rkey, rvalue] : value.members()) {
        std::uint64_t v = 0;
        if (rkey == "max_attempts") {
          if (!get_uint_field(rvalue, v) || v > 0xffffffffull) {
            return fail(err, "bad_value", "retry.max_attempts: want a u32");
          }
          req.retry.max_attempts = static_cast<std::uint32_t>(v);
        } else if (rkey == "exponential_backoff") {
          if (!rvalue.is_bool()) {
            return fail(err, "bad_field",
                        "retry.exponential_backoff: not a bool");
          }
          req.retry.exponential_backoff = rvalue.as_bool();
        } else if (rkey == "max_backoff") {
          if (!get_uint_field(rvalue, v) || v == 0 || v > 0xffffffffull) {
            return fail(err, "bad_value",
                        "retry.max_backoff: want a nonzero u32");
          }
          req.retry.max_backoff = static_cast<std::uint32_t>(v);
        } else if (rkey == "deadline_cycles") {
          if (!get_uint_field(rvalue, v) || v > 0xffffffffull) {
            return fail(err, "bad_value", "retry.deadline_cycles: want a u32");
          }
          req.retry.deadline_cycles = static_cast<std::uint32_t>(v);
        } else {
          return fail(err, "unknown_field", "retry." + rkey);
        }
      }
      saw_retry = true;
    } else {
      return fail(err, "unknown_field", "job." + key);
    }
  }

  if (!saw_kind) return fail(err, "bad_request", "job.kind is required");
  if (kind_name == "ping") {
    req.kind = JobKind::Ping;
  } else if (kind_name == "sleep") {
    req.kind = JobKind::Sleep;
  } else if (kind_name == "route_online") {
    req.kind = JobKind::RouteOnline;
  } else if (kind_name == "replay_offline") {
    req.kind = JobKind::ReplayOffline;
  } else {
    return fail(err, "bad_value", "kind: want ping | sleep | route_online | replay_offline");
  }

  // Cross-field validation.
  if (req.kind == JobKind::RouteOnline || req.kind == JobKind::ReplayOffline) {
    if (!is_pow2(req.n) || req.n < 2) {
      return fail(err, "bad_value", "n: want a power of two >= 2");
    }
    if (req.w > req.n) return fail(err, "bad_value", "w: want w <= n");
    if (req.w == 0) req.w = default_root_capacity(req.n);
    // ftd runs the permutations and the volume workloads.
    const WorkloadEntry* w = find_workload(req.workload);
    if (w == nullptr || w->cls == WorkloadClass::Pattern) {
      return fail(err, "bad_value", "workload: unknown name");
    }
    if (saw_messages && w->cls != WorkloadClass::Volume) {
      return fail(err, "bad_value",
                  "messages: only valid for uniform | incast workloads");
    }
    // run_job materializes every stacked copy.
    const std::uint64_t total =
        (req.messages != 0 ? req.messages : req.n) * req.stack;
    if (total > kMaxMessages) {
      return fail(err, "bad_value",
                  "messages * stack: want a total <= 2^22");
    }
  }
  if (req.kind == JobKind::ReplayOffline) {
    if (req.scheduler != "offline" && req.scheduler != "packed" &&
        req.scheduler != "greedy") {
      return fail(err, "bad_value",
                  "scheduler: want offline | packed | greedy");
    }
    if (req.retry.enabled()) {
      return fail(err, "bad_value", "retry: not supported for replay_offline");
    }
  } else if (req.kind == JobKind::RouteOnline) {
    req.scheduler = "online";
  }
  if (saw_sleep_ms && req.kind != JobKind::Sleep) {
    return fail(err, "bad_value", "sleep_ms: only valid for sleep jobs");
  }
  if (saw_retry && req.kind != JobKind::RouteOnline) {
    return fail(err, "bad_value", "retry: only valid for route_online jobs");
  }
  return true;
}

/// The "run" payload of a route_online or replay_offline job: the
/// request fields that define the run, in a fixed key order, then its
/// results, so two identical requests give byte-identical runs.
JsonValue run_payload(const JobRequest& req) {
  const JobResult r = ft::run_job(req);
  const bool online = req.kind == JobKind::RouteOnline;
  JsonValue run = JsonValue::object();
  run["kind"] = online ? "route_online" : "replay_offline";
  run["n"] = req.n;
  run["w"] = req.w;
  run["workload"] = req.workload;
  run["seed"] = req.seed;
  run["stack"] = req.stack;
  if (online) {
    run["policy"] = req.policy_name;
  } else {
    run["scheduler"] = req.scheduler;
  }
  run["messages"] = r.messages;
  run["lambda"] = r.lambda;
  run["cycles"] = r.delivery_cycles;
  if (online) {
    run["attempts"] = r.total_attempts;
    run["losses"] = r.total_losses;
    run["gave_up"] = r.gave_up;
    run["messages_given_up"] = r.messages_given_up;
    run["backoffs"] = r.total_backoffs;
  } else {
    run["delivered"] = r.delivered;
    run["capacity_violations"] = r.capacity_violations;
  }
  run["verified"] = r.verified;
  return run;
}

void append_envelope(std::ostringstream& os, std::string_view type,
                     const std::string& id) {
  os << "{\"schema\":\"" << kSchema << "\",\"type\":\"" << type << '"';
  if (!id.empty()) {
    JsonValue idv(id);
    os << ",\"id\":";
    idv.write(os, 0);
  }
}

}  // namespace

std::optional<JobRequest> parse_request(std::string_view line,
                                        RequestError& err) {
  const auto doc = JsonValue::parse(line);
  if (!doc) {
    fail(err, "parse_error", "request is not valid JSON");
    return std::nullopt;
  }
  if (!doc->is_object()) {
    fail(err, "bad_request", "request is not a JSON object");
    return std::nullopt;
  }

  JobRequest req;
  const JsonValue* job = nullptr;
  for (const auto& [key, value] : doc->members()) {
    if (key == "schema") {
      if (!value.is_string() || value.as_string() != kSchema) {
        fail(err, "bad_schema",
             std::string("schema: want \"") + kSchema + '"');
        return std::nullopt;
      }
    } else if (key == "id") {
      if (!value.is_string() || !valid_id(value.as_string())) {
        fail(err, "bad_field",
             "id: want a printable string of <= 128 bytes");
        return std::nullopt;
      }
      req.id = value.as_string();
    } else if (key == "job") {
      if (!value.is_object()) {
        fail(err, "bad_field", "job: not an object");
        return std::nullopt;
      }
      job = &value;
    } else {
      fail(err, "unknown_field", key);
      return std::nullopt;
    }
  }
  if (req.id.empty()) {
    fail(err, "bad_request", "id is required");
    return std::nullopt;
  }
  if (job == nullptr) {
    fail(err, "bad_request", "job is required");
    return std::nullopt;
  }
  err.id = req.id;
  if (!parse_job(*job, req, err)) return std::nullopt;
  return req;
}

JsonValue run_job(const JobRequest& req) {
  switch (req.kind) {
    case JobKind::Ping: {
      JsonValue run = JsonValue::object();
      run["kind"] = "ping";
      run["pong"] = true;
      return run;
    }
    case JobKind::Sleep: {
      if (req.sleep_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(req.sleep_ms));
      }
      JsonValue run = JsonValue::object();
      run["kind"] = "sleep";
      run["ms"] = req.sleep_ms;
      run["slept"] = true;
      return run;
    }
    case JobKind::RouteOnline:
    case JobKind::ReplayOffline:
      return run_payload(req);
  }
  JsonValue run = JsonValue::object();  // unreachable
  return run;
}

std::string hello_record(std::uint64_t queue_capacity,
                         std::uint64_t client_quota,
                         std::uint64_t max_frame_bytes) {
  std::ostringstream os;
  append_envelope(os, "hello", "");
  os << ",\"server\":\"ftd\",\"queue_capacity\":" << queue_capacity
     << ",\"client_quota\":" << client_quota
     << ",\"max_frame_bytes\":" << max_frame_bytes << "}\n";
  return os.str();
}

std::string result_record(const std::string& id, const JsonValue& run,
                          double queue_seconds, double run_seconds) {
  std::ostringstream os;
  append_envelope(os, "result", id);
  os << ",\"run\":";
  run.write(os, 0);
  os << ",\"timing\":{\"queue_seconds\":";
  JsonValue(queue_seconds).write(os, 0);
  os << ",\"run_seconds\":";
  JsonValue(run_seconds).write(os, 0);
  os << "}}\n";
  return os.str();
}

std::string error_record(const std::string& id, std::string_view code,
                         std::string_view message) {
  std::ostringstream os;
  append_envelope(os, "error", id);
  os << ",\"code\":";
  JsonValue(std::string(code)).write(os, 0);
  os << ",\"message\":";
  JsonValue(std::string(message)).write(os, 0);
  os << "}\n";
  return os.str();
}

std::string rejected_record(const std::string& id, std::string_view code,
                            std::string_view message,
                            std::uint64_t queue_depth) {
  std::ostringstream os;
  append_envelope(os, "rejected", id);
  os << ",\"code\":";
  JsonValue(std::string(code)).write(os, 0);
  os << ",\"message\":";
  JsonValue(std::string(message)).write(os, 0);
  os << ",\"queue_depth\":" << queue_depth << "}\n";
  return os.str();
}

void FrameReader::append(const char* data, std::size_t len) {
  if (poisoned_) return;
  // Compact consumed bytes before growing (bounded memory per client).
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, len);
}

FrameReader::Status FrameReader::next(std::string& out) {
  if (poisoned_) return Status::Overflow;
  const std::size_t nl = buf_.find('\n', pos_);
  if (nl == std::string::npos) {
    if (buf_.size() - pos_ > max_) {
      poisoned_ = true;
      return Status::Overflow;
    }
    return Status::NeedMore;
  }
  if (nl - pos_ > max_) {
    poisoned_ = true;
    return Status::Overflow;
  }
  out.assign(buf_, pos_, nl - pos_);
  if (!out.empty() && out.back() == '\r') out.pop_back();  // tolerate CRLF
  pos_ = nl + 1;
  return Status::Line;
}

}  // namespace ft::ftd
