// ftd_small: the ftd daemon, spawned with two workers and driven over
// loopback by a closed loop of kConnections connections, each keeping
// kWindow requests in flight. One unit of work is one job; every result's
// "run" payload is byte-compared against an in-process run_job() of the
// same request, computed before the daemon starts.
//
// Traced runs add the protocol layer measured in-process (parse_request,
// run_job, result_record per request line of the mix) and split each
// job's client latency with its result's timing object into queue wait,
// server run and transport (the remainder).
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "ftd/client.hpp"
#include "ftd/protocol.hpp"
#include "obs/json.hpp"
#include "workloads.hpp"

namespace ftbench {
namespace {

constexpr std::size_t kConnections = kFtdConnections;
constexpr std::size_t kWindow = 16;  ///< requests in flight per connection
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kSetupReps = 10;
/// Throughput and median latency come from the busiest of kWindows equal
/// time windows of the load (at least kMinWindowSeconds each): other load
/// on the host only ever slows the loop, and it swings by tens of percent
/// over tens of seconds, so the least-disturbed window is the steadiest
/// estimate of the daemon's own capacity (README.md, "Steadiness").
constexpr std::size_t kWindows = 20;
constexpr double kMinWindowSeconds = 0.5;
constexpr int kTimeoutMs = 10000;
/// Distinct request lines in the mix: the six templates x 16 seeds.
constexpr std::size_t kMixSize = 96;

/// ftd_loadgen's throughput-phase templates (n <= 64): four routing
/// policies, one packed offline replay, one uniform workload.
std::string small_job_body(std::uint64_t seed, std::size_t variant) {
  const std::string s = std::to_string(seed);
  switch (variant % 6) {
    case 0:
      return "{\"kind\":\"route_online\",\"n\":32,\"workload\":\"transpose\","
             "\"seed\":" + s + "}";
    case 1:
      return "{\"kind\":\"route_online\",\"n\":32,\"workload\":\"random-perm\","
             "\"policy\":\"adaptive\",\"seed\":" + s + "}";
    case 2:
      return "{\"kind\":\"route_online\",\"n\":64,\"workload\":\"bit-reversal\","
             "\"policy\":\"rlb\",\"seed\":" + s + "}";
    case 3:
      return "{\"kind\":\"route_online\",\"n\":16,\"workload\":\"tornado\","
             "\"policy\":\"dmod\",\"seed\":" + s + "}";
    case 4:
      return "{\"kind\":\"replay_offline\",\"n\":64,\"workload\":\"transpose\","
             "\"scheduler\":\"packed\",\"seed\":" + s + "}";
    default:
      return "{\"kind\":\"route_online\",\"n\":64,\"workload\":\"uniform\","
             "\"messages\":256,\"seed\":" + s + "}";
  }
}

std::string request_line(const std::string& id, const std::string& body) {
  return "{\"id\":\"" + id + "\",\"job\":" + body + "}";
}

struct Job {
  std::string body;
  std::string expected_run;  ///< run_job(...).dump(0)
  std::uint64_t messages = 0;
};

/// The mix and its expected payloads; false (with `why`) when a template
/// does not parse or its in-process run is not verified.
bool build_mix(std::uint64_t seed, std::vector<Job>& mix, std::string* why) {
  for (std::size_t i = 0; i < kMixSize; ++i) {
    Job j;
    j.body = small_job_body(seed + i / 6, i % 6);
    ft::ftd::RequestError err;
    const auto req = ft::ftd::parse_request(request_line("x", j.body), err);
    if (!req) {
      *why = "mix template does not parse: " + err.message;
      return false;
    }
    const ft::JsonValue run = ft::ftd::run_job(*req);
    const ft::JsonValue* msgs = run.find("messages");
    const ft::JsonValue* ok = run.find("verified");
    if (msgs == nullptr || ok == nullptr || !ok->as_bool()) {
      *why = "mix job is not a verified run: " + j.body;
      return false;
    }
    j.messages = msgs->as_uint();
    j.expected_run = run.dump(0);
    mix.push_back(std::move(j));
  }
  return true;
}

// ---------------------------------------------------------------------------
// Daemon lifecycle.

struct Daemon {
  pid_t pid = -1;
  int err_fd = -1;  ///< read end of the daemon's stderr
  bool err_eof = false;
  std::string err_buf;
  std::uint16_t port = 0;
};

/// Reads one '\n'-terminated line from the daemon's stderr, waiting on
/// poll() (no fixed-interval sleep). False on EOF or timeout.
bool read_err_line(Daemon& d, std::string& line, int timeout_ms) {
  for (;;) {
    const std::size_t nl = d.err_buf.find('\n');
    if (nl != std::string::npos) {
      line = d.err_buf.substr(0, nl);
      d.err_buf.erase(0, nl + 1);
      return true;
    }
    pollfd p{d.err_fd, POLLIN, 0};
    if (::poll(&p, 1, timeout_ms) <= 0) return false;
    char buf[512];
    const ssize_t n = ::read(d.err_fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      d.err_eof = n == 0;
      return false;
    }
    d.err_buf.append(buf, static_cast<std::size_t>(n));
  }
}

/// Spawns `ftd --port 0 --workers 2` and reads the bound port from its
/// startup banner.
bool spawn_daemon(const std::string& path, Daemon& d, std::string* why) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    *why = std::string("pipe2: ") + std::strerror(errno);
    return false;
  }
  const std::string workers = std::to_string(kWorkers);
  const pid_t pid = ::fork();
  if (pid < 0) {
    *why = std::string("fork: ") + std::strerror(errno);
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  if (pid == 0) {
    // The daemon must not outlive the benchmark, even one killed by a
    // timeout.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(fds[1], STDERR_FILENO);
    const int devnull = ::open("/dev/null", O_WRONLY | O_CLOEXEC);
    if (devnull >= 0) ::dup2(devnull, STDOUT_FILENO);
    ::execl(path.c_str(), path.c_str(), "--port", "0", "--workers",
            workers.c_str(), static_cast<char*>(nullptr));
    std::_Exit(127);
  }
  ::close(fds[1]);
  d.pid = pid;
  d.err_fd = fds[0];
  std::string line;
  if (!read_err_line(d, line, kTimeoutMs)) {
    *why = "ftd printed no startup banner";
    return false;
  }
  const std::size_t at = line.find("127.0.0.1:");
  if (at == std::string::npos) {
    *why = "unexpected ftd banner: " + line;
    return false;
  }
  d.port = static_cast<std::uint16_t>(std::strtoul(line.c_str() + at + 10,
                                                   nullptr, 10));
  return d.port != 0;
}

bool read_hello(ft::ftd::Client& c) {
  std::string line;
  if (!c.read_line(line, kTimeoutMs)) return false;
  const auto doc = ft::JsonValue::parse(line);
  const ft::JsonValue* type = doc ? doc->find("type") : nullptr;
  return type != nullptr && type->is_string() && type->as_string() == "hello";
}

/// SIGTERM, then wait for the drain: the daemon's stderr reaching EOF
/// means it is exiting. Returns its peak RSS in KiB (0 when unknown) and
/// fills `drain_line` with its final stats banner.
long terminate_daemon(Daemon& d, std::string* drain_line, bool* clean) {
  *clean = false;
  if (d.pid < 0) return 0;
  ::kill(d.pid, SIGTERM);
  std::string line;
  while (read_err_line(d, line, kTimeoutMs)) {
    if (line.find("drained") != std::string::npos && drain_line != nullptr) {
      *drain_line = line;
    }
  }
  // No EOF within the timeout: the drain hung.
  if (!d.err_eof) ::kill(d.pid, SIGKILL);
  int status = 0;
  rusage ru{};
  ::wait4(d.pid, &status, 0, &ru);
  ::close(d.err_fd);
  *clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  d = Daemon{};
  return ru.ru_maxrss;
}

// ---------------------------------------------------------------------------
// The closed loop. One thread multiplexes every connection with poll(), so
// the load adds one thread to the daemon's three (event loop, 2 workers).

struct LoadResult {
  std::uint64_t sent = 0, verified = 0, failed = 0, rejected = 0;
  // The busiest window's rates and median client latency.
  double jobs_per_s = 0.0;
  double msgs_per_s = 0.0;
  double p50_ms = 0.0;
  double wall = 0.0;  ///< start to the last verified result
  std::vector<double> latency_ms;
  // Traced only: each verified job's timing object.
  std::vector<double> queue_ms, run_ms, transport_ms;
  double run_seconds_sum = 0.0;
  std::string first_error;

  void fail(const std::string& what, std::uint64_t jobs) {
    failed += jobs;
    if (first_error.empty()) first_error = what;
  }
};

struct Connection {
  struct Pending {
    std::size_t job;
    Clock::time_point sent;
  };
  ft::ftd::Client client;
  std::size_t offset = 0;  ///< where this connection starts in the mix
  std::uint64_t next_seq = 0;
  std::unordered_map<std::uint64_t, Pending> pending;
  bool dead = false;
};

double number_field(const ft::JsonValue& obj, const char* key) {
  const ft::JsonValue* v = obj.find(key);
  return v != nullptr && v->is_number() ? v->as_double() : -1.0;
}

/// Runs the closed loop for `seconds` against the daemon on `port`.
LoadResult run_load(std::uint16_t port, const std::vector<Job>& mix,
                    double seconds, bool traced, Outcome& out) {
  LoadResult lr;
  std::vector<Connection> conns(kConnections);
  for (std::size_t k = 0; k < kConnections; ++k) {
    std::string err;
    if (!conns[k].client.connect(port, &err) || !read_hello(conns[k].client)) {
      out.check_failed("cannot connect to ftd: " + err);
      return lr;
    }
    // Each connection walks the whole mix from its own offset.
    conns[k].offset = k * (mix.size() / kConnections);
  }
  const auto start = Clock::now();
  const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
  const double window = std::max(kMinWindowSeconds, seconds / kWindows);
  const auto windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(seconds / window + 1e-9));
  std::vector<std::uint64_t> window_msgs(windows, 0);
  std::vector<std::vector<double>> window_latency_ms(windows);
  Clock::time_point last = start;

  auto kill = [&lr](Connection& c, const std::string& why) {
    lr.fail(why, c.pending.size());
    c.pending.clear();
    c.dead = true;
  };
  auto send_one = [&lr, &mix, &kill](Connection& c) {
    const std::size_t job = (c.offset + c.next_seq) % mix.size();
    const std::uint64_t id = c.next_seq++;
    c.pending.emplace(id, Connection::Pending{job, Clock::now()});
    ++lr.sent;
    if (!c.client.send_line(request_line(std::to_string(id), mix[job].body))) {
      kill(c, "send failed");
    }
  };
  auto handle = [&](Connection& c, const std::string& line) {
    const auto now = Clock::now();
    const auto doc = ft::JsonValue::parse(line);
    const ft::JsonValue* type = doc ? doc->find("type") : nullptr;
    const ft::JsonValue* idv = doc ? doc->find("id") : nullptr;
    if (type == nullptr || !type->is_string() || idv == nullptr ||
        !idv->is_string()) {
      kill(c, "malformed response: " + line.substr(0, 160));
      return;
    }
    const auto it =
        c.pending.find(std::strtoull(idv->as_string().c_str(), nullptr, 10));
    if (it == c.pending.end()) {
      lr.fail("response for an unknown id: " + line.substr(0, 160), 1);
      return;
    }
    const Job& job = mix[it->second.job];
    const double latency = seconds_between(it->second.sent, now);
    c.pending.erase(it);
    const ft::JsonValue* run = doc->find("run");
    if (type->as_string() != "result" || run == nullptr) {
      if (type->as_string() == "rejected") ++lr.rejected;
      lr.fail("not a result: " + line.substr(0, 160), 1);
    } else if (run->dump(0) != job.expected_run) {
      lr.fail("payload mismatch for " + job.body + ": " + run->dump(0), 1);
    } else {
      ++lr.verified;
      lr.latency_ms.push_back(latency * 1e3);
      last = now;
      const auto w =
          static_cast<std::size_t>(seconds_between(start, now) / window);
      if (w < windows) {
        window_msgs[w] += job.messages;
        window_latency_ms[w].push_back(latency * 1e3);
      }
      if (traced) {
        const ft::JsonValue* timing = doc->find("timing");
        const double q = timing ? number_field(*timing, "queue_seconds") : -1;
        const double r = timing ? number_field(*timing, "run_seconds") : -1;
        if (q < 0 || r < 0) {
          lr.fail("result without a timing object", 1);
        } else {
          lr.queue_ms.push_back(q * 1e3);
          lr.run_ms.push_back(r * 1e3);
          lr.transport_ms.push_back((latency - q - r) * 1e3);
          lr.run_seconds_sum += r;
        }
      }
    }
    if (now < stop && !c.dead) send_one(c);
  };

  for (Connection& c : conns) {
    for (std::size_t k = 0; k < kWindow && !c.dead; ++k) send_one(c);
  }
  std::vector<pollfd> fds(kConnections);
  std::string line;
  for (;;) {
    std::size_t waiting = 0;
    for (std::size_t k = 0; k < kConnections; ++k) {
      Connection& c = conns[k];
      if (c.pending.empty()) c.dead = true;  // past `stop` and drained
      fds[k] = {c.dead ? -1 : c.client.fd(), POLLIN, 0};
      waiting += c.pending.size();
    }
    if (waiting == 0) break;
    if (::poll(fds.data(), fds.size(), kTimeoutMs) <= 0) {
      for (Connection& c : conns) kill(c, "read timed out");
      break;
    }
    for (std::size_t k = 0; k < kConnections; ++k) {
      Connection& c = conns[k];
      if (c.dead || fds[k].revents == 0) continue;
      if (fds[k].revents & (POLLERR | POLLNVAL)) {
        kill(c, "socket error");
        continue;
      }
      // Drain every complete line the socket has ready.
      while (!c.dead && c.client.read_line(line, 0)) handle(c, line);
      if (!c.dead && c.client.eof()) kill(c, "ftd closed the connection");
    }
  }
  std::size_t best = 0;
  for (std::size_t w = 1; w < windows; ++w) {
    if (window_latency_ms[w].size() > window_latency_ms[best].size()) best = w;
  }
  lr.jobs_per_s = static_cast<double>(window_latency_ms[best].size()) / window;
  lr.msgs_per_s = static_cast<double>(window_msgs[best]) / window;
  lr.p50_ms = median(window_latency_ms[best]);
  std::printf("  load %.1f s: busiest of %zu windows of %.2f s holds %zu jobs\n",
              seconds, windows, window, window_latency_ms[best].size());
  lr.wall = seconds_between(start, last);
  out.attempted += lr.sent;
  if (!lr.first_error.empty()) {
    out.ops_failed(lr.failed, "ftd_small: " + lr.first_error);
  }
  return lr;
}

void print_summary(const char* what, const Summary& s) {
  std::printf("  %-10s n=%zu p50=%.4f ms", what, s.count, s.p50);
  if (s.tail_pct > 0) std::printf(" p%g=%.4f ms", s.tail_pct, s.tail);
  std::printf("\n");
}

/// In-process protocol layer over the mix: median over rounds of the mean
/// microseconds per request line in each call.
struct ProtocolCost {
  double parse_us = 0.0, run_job_us = 0.0, serialize_us = 0.0;
};

ProtocolCost measure_protocol(const std::vector<Job>& mix, Outcome& out) {
  constexpr std::size_t kMinRounds = 5;
  constexpr double kBudget = 0.3;
  std::vector<double> parse, run, ser;
  const auto t_begin = Clock::now();
  while (parse.size() < kMinRounds || seconds_since(t_begin) < kBudget) {
    double p = 0, r = 0, s = 0;
    for (const Job& j : mix) {
      const std::string line = request_line("inproc", j.body);
      const auto t0 = Clock::now();
      ft::ftd::RequestError err;
      const auto req = ft::ftd::parse_request(line, err);
      const auto t1 = Clock::now();
      if (!req) {
        out.check_failed("in-process parse failed: " + err.message);
        return {};
      }
      const ft::JsonValue payload = ft::ftd::run_job(*req);
      const auto t2 = Clock::now();
      const std::string rec = ft::ftd::result_record(req->id, payload, 0, 0);
      const auto t3 = Clock::now();
      if (payload.dump(0) != j.expected_run || rec.empty()) {
        out.check_failed("in-process run_job is not deterministic: " + j.body);
      }
      p += seconds_between(t0, t1);
      r += seconds_between(t1, t2);
      s += seconds_between(t2, t3);
    }
    const double per = 1e6 / static_cast<double>(mix.size());
    parse.push_back(p * per);
    run.push_back(r * per);
    ser.push_back(s * per);
  }
  return {median(parse), median(run), median(ser)};
}

}  // namespace

Outcome run_ftd_workload(const RunArgs& args) {
  Outcome out;
  std::vector<Job> mix;
  std::string why;
  if (!build_mix(args.seed, mix, &why)) {
    out.check_failed(why);
    return out;
  }
  ProtocolCost proto;
  if (args.trace) proto = measure_protocol(mix, out);

  // Set-up: spawn until the hello banner, repeated; the last daemon
  // serves the load.
  std::vector<double> setup_times;
  Daemon d;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    ++out.attempted;
    const auto t0 = Clock::now();
    ft::ftd::Client c;
    std::string err;
    if (!spawn_daemon(args.ftd_path, d, &why) || !c.connect(d.port, &err) ||
        !read_hello(c)) {
      out.check_failed("ftd set-up failed: " + why + err);
      bool clean = false;
      terminate_daemon(d, nullptr, &clean);
      return out;
    }
    setup_times.push_back(seconds_since(t0));
    c.close();
    if (rep + 1 < kSetupReps) {
      bool clean = false;
      terminate_daemon(d, nullptr, &clean);
      if (!clean) out.check_failed("ftd did not drain cleanly after set-up");
    }
  }

  LoadResult plain;
  LoadResult traced;
  if (!args.trace) {
    plain = run_load(d.port, mix, args.seconds, false, out);
  } else {
    plain = run_load(d.port, mix, args.seconds / 2, false, out);
    traced = run_load(d.port, mix, args.seconds / 2, true, out);
  }
  std::string drain_line;
  bool clean = false;
  const long rss_kib = terminate_daemon(d, &drain_line, &clean);
  if (!clean) out.check_failed("ftd did not exit cleanly on SIGTERM");
  std::printf("ftd_small: %llu jobs sent, %llu verified, %llu failed; %s\n",
              static_cast<unsigned long long>(plain.sent + traced.sent),
              static_cast<unsigned long long>(plain.verified + traced.verified),
              static_cast<unsigned long long>(plain.failed + traced.failed),
              drain_line.c_str());

  if (!args.trace) {
    print_summary("latency", summarize(plain.latency_ms));
    out.add("msgs_per_s", plain.msgs_per_s, "messages/s");
    out.add("jobs_per_s", plain.jobs_per_s, "jobs/s");
    out.add("job_p50_ms", plain.p50_ms, "ms");
    out.add("setup_s", median(setup_times), "s");
    out.add("peak_rss_mib", static_cast<double>(rss_kib) / 1024.0, "MiB");
    return out;
  }

  std::vector<double> all_latency = plain.latency_ms;
  all_latency.insert(all_latency.end(), traced.latency_ms.begin(),
                     traced.latency_ms.end());
  const Summary job = summarize(all_latency);
  const Summary queue = summarize(traced.queue_ms);
  const Summary run = summarize(traced.run_ms);
  const Summary transport = summarize(traced.transport_ms);
  print_summary("job", job);
  print_summary("queue", queue);
  print_summary("run", run);
  print_summary("transport", transport);
  auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (const double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  out.add("job_p99_ms", job.tail_pct == 99.0 ? job.tail : 0.0, "ms");
  out.add("job_samples", static_cast<double>(job.count), "count");
  out.add("ftd.parse_us", proto.parse_us, "us");
  out.add("ftd.run_job_us", proto.run_job_us, "us");
  out.add("ftd.serialize_us", proto.serialize_us, "us");
  out.add("ftd.queue_wait_p50_ms", queue.p50, "ms");
  out.add("ftd.queue_wait_p99_ms", queue.tail_pct == 99.0 ? queue.tail : 0.0,
          "ms");
  out.add("ftd.server_run_p50_ms", run.p50, "ms");
  out.add("ftd.server_run_p99_ms", run.tail_pct == 99.0 ? run.tail : 0.0,
          "ms");
  out.add("ftd.transport_p50_ms", transport.p50, "ms");
  out.add("ftd.transport_p99_ms",
          transport.tail_pct == 99.0 ? transport.tail : 0.0, "ms");
  out.add("ftd.samples", static_cast<double>(queue.count), "count");
  out.add("ftd.worker_util",
          traced.wall > 0 ? traced.run_seconds_sum /
                                (traced.wall * static_cast<double>(kWorkers))
                          : 0.0,
          "ratio");
  out.add("ftd.rejected", static_cast<double>(plain.rejected + traced.rejected),
          "count");
  // Client latency not explained by a measured layer: framing, the event
  // loop, completion routing, flush and the sockets.
  out.add("unattributed_s",
          (mean(traced.latency_ms) - mean(traced.queue_ms) -
           mean(traced.run_ms)) * 1e-3 -
              (proto.parse_us + proto.serialize_us) * 1e-6,
          "s");
  out.add("tracing_overhead",
          traced.jobs_per_s > 0 ? plain.jobs_per_s / traced.jobs_per_s - 1.0
                                : 0.0,
          "ratio");
  return out;
}

}  // namespace ftbench
