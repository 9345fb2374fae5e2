// ftd_loadgen — the concurrent load-test harness that proves the ftd
// daemon is a real job service, not a demo. It hammers the daemon with
// thousands of concurrent small jobs plus a few elephants and verifies,
// for every response: it parses, its id matches an outstanding request,
// and its deterministic "run" payload is byte-identical to an
// in-process run_job() execution of the same request (which is itself
// pinned to route_online / replay_schedule by test_ftd_parity).
//
// Phases (all blocking failures, exit 1):
//   surge       C clients submit min_inflight sleep jobs and none reads
//               until every thread has finished writing — so at the
//               barrier the daemon provably holds >= min_inflight
//               concurrent jobs. Zero rejections allowed (the queue is
//               sized above the surge).
//   throughput  `jobs` mixed route_online/replay_offline jobs windowed
//               across the C connections, plus `elephants` big runs.
//               Per-job latency is recorded and summarized.
//   drain       (--spawn only) submit sleep jobs, SIGTERM the daemon
//               mid-flight, assert every in-flight job still returns a
//               result, then EOF, then a zero exit status while SIGTERM
//               keeps arriving every 2 ms until the daemon has exited.
//   saturation  (--spawn only) respawn with a tiny queue, blast it, and
//               assert structured queue_full rejections — never a hang —
//               with every accepted job still completing correctly.
//
//   ftd_loadgen --spawn path/to/ftd [--jobs N] [--min-inflight M]
//               [--clients C] [--elephants K] [--quick] [--seed S]
//               [--summary out.json] [--no-saturation]
//   ftd_loadgen --port P [...]   # against an externally started daemon
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ftd/client.hpp"
#include "ftd/protocol.hpp"
#include "obs/json.hpp"
#include "obs/run_report.hpp"
#include "util/parse.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string spawn_path;  // empty = use --port
  std::uint16_t port = 0;
  std::size_t jobs = 1500;
  std::size_t min_inflight = 1000;
  std::size_t clients = 32;
  std::size_t elephants = 3;
  std::uint64_t seed = 1;
  bool quick = false;
  bool no_saturation = false;
  std::string summary_path;
};

void usage() {
  std::printf(
      "usage: ftd_loadgen (--spawn FTD_PATH | --port P) [options]\n"
      "  --jobs N          throughput-phase job count (default 1500)\n"
      "  --min-inflight M  surge-phase concurrent jobs (default 1000)\n"
      "  --clients C       concurrent connections (default 32)\n"
      "  --elephants K     big jobs mixed into the load (default 3)\n"
      "  --quick           CI smoke: jobs=400 min-inflight=200 clients=8\n"
      "  --seed S          base seed for job workloads (default 1)\n"
      "  --summary F       write a ft.run_report latency summary JSON\n"
      "  --no-saturation   skip the tiny-queue saturation phase\n");
}

bool parse(int argc, char** argv, Options& opt) {
  const char* flag = "";
  auto bad = [&flag]() {
    std::fprintf(stderr, "ftd_loadgen: invalid or missing value for %s\n",
                 flag);
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--spawn") {
      const char* v = next();
      if (!v) return bad();
      opt.spawn_path = v;
    } else if (arg == "--port") {
      if (!ft::parse_u16(next(), opt.port)) return bad();
    } else if (arg == "--jobs") {
      if (!ft::parse_size(next(), opt.jobs) || opt.jobs == 0) return bad();
    } else if (arg == "--min-inflight") {
      if (!ft::parse_size(next(), opt.min_inflight) || opt.min_inflight == 0) {
        return bad();
      }
    } else if (arg == "--clients") {
      if (!ft::parse_size(next(), opt.clients) || opt.clients == 0) {
        return bad();
      }
    } else if (arg == "--elephants") {
      if (!ft::parse_size(next(), opt.elephants)) return bad();
    } else if (arg == "--seed") {
      if (!ft::parse_u64(next(), opt.seed)) return bad();
    } else if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--no-saturation") {
      opt.no_saturation = true;
    } else if (arg == "--summary") {
      const char* v = next();
      if (!v) return bad();
      opt.summary_path = v;
    } else {
      std::fprintf(stderr, "ftd_loadgen: unknown flag %s\n", arg.c_str());
      return false;
    }
  }
  if (opt.quick) {
    opt.jobs = 400;
    opt.min_inflight = 200;
    opt.clients = 8;
    opt.elephants = std::min<std::size_t>(opt.elephants, 1);
  }
  if (opt.spawn_path.empty() && opt.port == 0) {
    std::fprintf(stderr, "ftd_loadgen: need --spawn or --port\n");
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Failure accounting (shared across client threads).

std::atomic<std::uint64_t> g_mismatches{0};
std::atomic<std::uint64_t> g_protocol_errors{0};
std::atomic<std::uint64_t> g_hangs{0};
std::atomic<std::uint64_t> g_rejections{0};
std::mutex g_log_mu;
std::vector<std::string> g_failures;

void note_failure(const std::string& what) {
  std::lock_guard<std::mutex> lock(g_log_mu);
  if (g_failures.size() < 20) g_failures.push_back(what);
}

// ---------------------------------------------------------------------------
// Expected-result cache: job body JSON -> canonical run_job() dump. The
// in-process ground truth every daemon response is compared against.

std::mutex g_expected_mu;
std::unordered_map<std::string, std::string> g_expected;

std::string expected_run(const std::string& job_body) {
  {
    std::lock_guard<std::mutex> lock(g_expected_mu);
    const auto it = g_expected.find(job_body);
    if (it != g_expected.end()) return it->second;
  }
  ft::ftd::RequestError err;
  const auto req = ft::ftd::parse_request(
      std::string("{\"id\":\"expected\",\"job\":") + job_body + "}", err);
  if (!req) {
    note_failure("loadgen template failed to parse: " + err.message);
    g_protocol_errors.fetch_add(1);
    return "";
  }
  const std::string dump = ft::ftd::run_job(*req).dump(0);
  std::lock_guard<std::mutex> lock(g_expected_mu);
  g_expected.emplace(job_body, dump);
  return dump;
}

std::string request_line(const std::string& id, const std::string& job_body) {
  return "{\"id\":\"" + id + "\",\"job\":" + job_body + "}";
}

/// Reads and sanity-checks the hello banner.
bool read_hello(ft::ftd::Client& c) {
  std::string line;
  if (!c.read_line(line, 10000)) return false;
  const auto doc = ft::JsonValue::parse(line);
  if (!doc) return false;
  const auto* type = doc->find("type");
  return type != nullptr && type->is_string() && type->as_string() == "hello";
}

/// Verifies one response line against an outstanding-request map.
/// Returns the id on success (erased from `outstanding`), empty on a
/// rejection (requeued by the caller via `rejected_id`).
struct Outstanding {
  std::string job_body;
  Clock::time_point sent;
};

bool verify_response(const std::string& line,
                     std::unordered_map<std::string, Outstanding>& outstanding,
                     std::vector<double>& latencies_us,
                     std::string* rejected_id) {
  const auto doc = ft::JsonValue::parse(line);
  if (!doc || !doc->is_object()) {
    g_protocol_errors.fetch_add(1);
    note_failure("unparseable response: " + line.substr(0, 120));
    return false;
  }
  const auto* type = doc->find("type");
  const auto* id = doc->find("id");
  if (type == nullptr || !type->is_string() || id == nullptr ||
      !id->is_string()) {
    g_protocol_errors.fetch_add(1);
    note_failure("response missing type/id: " + line.substr(0, 120));
    return false;
  }
  const auto it = outstanding.find(id->as_string());
  if (it == outstanding.end()) {
    g_protocol_errors.fetch_add(1);
    note_failure("response for unknown id " + id->as_string());
    return false;
  }
  if (type->as_string() == "rejected") {
    g_rejections.fetch_add(1);
    if (rejected_id != nullptr) *rejected_id = id->as_string();
    return true;  // structurally fine; caller decides whether to resend
  }
  if (type->as_string() != "result") {
    g_protocol_errors.fetch_add(1);
    note_failure("error record for " + id->as_string() + ": " + line);
    outstanding.erase(it);
    return false;
  }
  const auto* run = doc->find("run");
  if (run == nullptr) {
    g_protocol_errors.fetch_add(1);
    note_failure("result without run: " + line.substr(0, 120));
    outstanding.erase(it);
    return false;
  }
  const std::string got = run->dump(0);
  const std::string want = expected_run(it->second.job_body);
  if (got != want) {
    g_mismatches.fetch_add(1);
    note_failure("mismatch for " + id->as_string() + "\n  want " + want +
                 "\n  got  " + got);
  }
  latencies_us.push_back(
      std::chrono::duration<double, std::micro>(Clock::now() -
                                                it->second.sent)
          .count());
  outstanding.erase(it);
  return true;
}

// ---------------------------------------------------------------------------
// Job templates.

std::string small_job_body(std::uint64_t seed, std::size_t variant) {
  switch (variant % 6) {
    case 0:
      return "{\"kind\":\"route_online\",\"n\":32,\"workload\":\"transpose\","
             "\"seed\":" + std::to_string(seed) + "}";
    case 1:
      return "{\"kind\":\"route_online\",\"n\":32,\"workload\":\"random-perm\","
             "\"policy\":\"adaptive\",\"seed\":" + std::to_string(seed) + "}";
    case 2:
      return "{\"kind\":\"route_online\",\"n\":64,\"workload\":\"bit-reversal\","
             "\"policy\":\"rlb\",\"seed\":" + std::to_string(seed) + "}";
    case 3:
      return "{\"kind\":\"route_online\",\"n\":16,\"workload\":\"tornado\","
             "\"policy\":\"dmod\",\"seed\":" + std::to_string(seed) + "}";
    case 4:
      return "{\"kind\":\"replay_offline\",\"n\":64,\"workload\":\"transpose\","
             "\"scheduler\":\"packed\",\"seed\":" + std::to_string(seed) + "}";
    default:
      return "{\"kind\":\"route_online\",\"n\":64,\"workload\":\"uniform\","
             "\"messages\":256,\"seed\":" + std::to_string(seed) + "}";
  }
}

std::string elephant_job_body(std::uint64_t seed, bool quick) {
  // A run three orders of magnitude heavier than the small jobs: tens of
  // thousands of messages through a 4096-leaf tree (1024-leaf in --quick).
  if (quick) {
    return "{\"kind\":\"route_online\",\"n\":1024,\"workload\":\"random-perm\","
           "\"stack\":4,\"seed\":" + std::to_string(seed) + "}";
  }
  return "{\"kind\":\"route_online\",\"n\":4096,\"workload\":\"random-perm\","
         "\"stack\":8,\"seed\":" + std::to_string(seed) + "}";
}

std::string sleep_job_body(std::uint32_t ms) {
  return "{\"kind\":\"sleep\",\"sleep_ms\":" + std::to_string(ms) + "}";
}

// ---------------------------------------------------------------------------
// Daemon lifecycle (--spawn).

struct Daemon {
  pid_t pid = -1;
  std::uint16_t port = 0;
};

bool spawn_daemon(const std::string& path, std::size_t queue,
                  std::size_t workers, Daemon& out) {
  const std::string port_file =
      "ftd_loadgen_port." + std::to_string(::getpid()) + "." +
      std::to_string(out.pid == -1 ? std::rand() : 0);
  ::unlink(port_file.c_str());
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    return false;
  }
  if (pid == 0) {
    const std::string queue_s = std::to_string(queue);
    const std::string workers_s = std::to_string(workers);
    ::execl(path.c_str(), path.c_str(), "--port", "0", "--port-file",
            port_file.c_str(), "--queue", queue_s.c_str(), "--workers",
            workers_s.c_str(), "--quiet", static_cast<char*>(nullptr));
    std::perror("execl");
    std::_Exit(127);
  }
  // Wait for the port file (daemon writes it after listen()).
  for (int i = 0; i < 400; ++i) {
    std::ifstream pf(port_file);
    std::uint64_t port = 0;
    if (pf >> port && port != 0) {
      out.pid = pid;
      out.port = static_cast<std::uint16_t>(port);
      ::unlink(port_file.c_str());
      return true;
    }
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      std::fprintf(stderr, "ftd_loadgen: daemon exited during startup\n");
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "ftd_loadgen: daemon never wrote its port file\n");
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  return false;
}

/// Sends SIGTERM every 2 ms until the daemon exits (at most 30 s), so
/// signals also land during its shutdown: in ~Server and after main
/// returns. Returns true iff the daemon exited with 0.
bool terminate_daemon(Daemon& d) {
  if (d.pid < 0) return true;
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (Clock::now() < deadline) {
    ::kill(d.pid, SIGTERM);  // the pid stays ours until waitpid reaps it
    int status = 0;
    const pid_t r = ::waitpid(d.pid, &status, WNOHANG);
    if (r == d.pid) {
      d.pid = -1;
      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return true;
      std::fprintf(stderr, "ftd_loadgen: daemon exit status %d\n", status);
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::fprintf(stderr, "ftd_loadgen: daemon ignored SIGTERM; killing\n");
  ::kill(d.pid, SIGKILL);
  ::waitpid(d.pid, nullptr, 0);
  d.pid = -1;
  return false;
}

// ---------------------------------------------------------------------------
// Phases.

/// Surge: all threads write their share of sleep jobs, meet at a
/// barrier (so >= min_inflight jobs are provably in the daemon at
/// once), then read everything back. Returns the surge size actually
/// reached concurrently.
std::size_t surge_phase(std::uint16_t port, const Options& opt) {
  const std::size_t per_thread =
      (opt.min_inflight + opt.clients - 1) / opt.clients;
  const std::size_t total = per_thread * opt.clients;
  std::atomic<std::size_t> writers_done{0};
  std::atomic<std::size_t> peak{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < opt.clients; ++t) {
    threads.emplace_back([&, t]() {
      ft::ftd::Client c;
      std::string err;
      if (!c.connect(port, &err) || !read_hello(c)) {
        g_hangs.fetch_add(1);
        note_failure("surge connect failed: " + err);
        writers_done.fetch_add(1);
        return;
      }
      std::unordered_map<std::string, Outstanding> outstanding;
      const std::string body = sleep_job_body(2);
      for (std::size_t k = 0; k < per_thread; ++k) {
        const std::string id =
            "surge-" + std::to_string(t) + "-" + std::to_string(k);
        outstanding.emplace(id, Outstanding{body, Clock::now()});
        if (!c.send_line(request_line(id, body))) {
          g_hangs.fetch_add(1);
          note_failure("surge send failed");
          break;
        }
      }
      // Barrier: no thread reads until every thread has written, so the
      // full surge is simultaneously in the daemon's queue.
      writers_done.fetch_add(1);
      while (writers_done.load() < opt.clients) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      std::size_t snapshot = outstanding.size();
      std::size_t prev = peak.load();
      while (prev < snapshot && !peak.compare_exchange_weak(prev, snapshot)) {
      }
      std::vector<double> lat;
      std::string line;
      while (!outstanding.empty()) {
        if (!c.read_line(line, 60000)) {
          g_hangs.fetch_add(1);
          note_failure("surge read timed out with " +
                       std::to_string(outstanding.size()) + " outstanding");
          return;
        }
        verify_response(line, outstanding, lat, nullptr);
      }
    });
  }
  for (auto& th : threads) th.join();
  // All threads wrote per_thread jobs before anyone read: the sum was in
  // flight at the barrier.
  const std::size_t concurrent = peak.load() == 0 ? 0 : total;
  return concurrent;
}

/// Throughput: `jobs` small jobs + elephants windowed over C
/// connections; every result verified against run_job(); latencies
/// recorded.
std::vector<double> throughput_phase(std::uint16_t port, const Options& opt) {
  std::vector<double> all_latencies;
  std::mutex lat_mu;
  const std::size_t per_thread = (opt.jobs + opt.clients - 1) / opt.clients;
  const std::size_t window = 64;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < opt.clients; ++t) {
    threads.emplace_back([&, t]() {
      ft::ftd::Client c;
      std::string err;
      if (!c.connect(port, &err) || !read_hello(c)) {
        g_hangs.fetch_add(1);
        note_failure("throughput connect failed: " + err);
        return;
      }
      std::vector<double> lat;
      std::unordered_map<std::string, Outstanding> outstanding;
      std::deque<std::string> todo;
      for (std::size_t k = 0; k < per_thread; ++k) {
        todo.push_back(small_job_body(opt.seed + (t * per_thread + k) % 16,
                                      t * per_thread + k));
      }
      // Elephants ride the first few connections.
      if (t < opt.elephants) {
        todo.push_back(elephant_job_body(opt.seed + t, opt.quick));
      }
      std::size_t next_id = 0;
      std::string line;
      while (!todo.empty() || !outstanding.empty()) {
        while (!todo.empty() && outstanding.size() < window) {
          const std::string id =
              "tp-" + std::to_string(t) + "-" + std::to_string(next_id++);
          const std::string body = todo.front();
          todo.pop_front();
          outstanding.emplace(id, Outstanding{body, Clock::now()});
          if (!c.send_line(request_line(id, body))) {
            g_hangs.fetch_add(1);
            note_failure("throughput send failed");
            return;
          }
        }
        if (!c.read_line(line, 120000)) {
          g_hangs.fetch_add(1);
          note_failure("throughput read timed out with " +
                       std::to_string(outstanding.size()) + " outstanding");
          return;
        }
        std::string rejected_id;
        verify_response(line, outstanding, lat, &rejected_id);
        if (!rejected_id.empty()) {
          // Main phase is sized under the queue capacity: a rejection is
          // a failure, but resend anyway so accounting still closes.
          note_failure("unexpected rejection for " + rejected_id);
          const auto it = outstanding.find(rejected_id);
          if (it != outstanding.end()) {
            todo.push_back(it->second.job_body);
            outstanding.erase(it);
          }
        }
      }
      std::lock_guard<std::mutex> lock(lat_mu);
      all_latencies.insert(all_latencies.end(), lat.begin(), lat.end());
    });
  }
  for (auto& th : threads) th.join();
  return all_latencies;
}

/// Drain: submit sleep jobs, SIGTERM mid-flight, and require every
/// admitted job's result to arrive before the clean EOF.
bool drain_phase(std::uint16_t port, Daemon& daemon) {
  ft::ftd::Client c;
  std::string err;
  if (!c.connect(port, &err) || !read_hello(c)) {
    note_failure("drain connect failed: " + err);
    return false;
  }
  const std::size_t kJobs = 8;
  std::unordered_map<std::string, Outstanding> outstanding;
  const std::string body = sleep_job_body(300);
  for (std::size_t k = 0; k < kJobs; ++k) {
    const std::string id = "drain-" + std::to_string(k);
    outstanding.emplace(id, Outstanding{body, Clock::now()});
    if (!c.send_line(request_line(id, body))) {
      note_failure("drain send failed");
      return false;
    }
  }
  // Give the event loop time to admit the batch, then pull the plug.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ::kill(daemon.pid, SIGTERM);

  std::vector<double> lat;
  std::string line;
  while (!outstanding.empty()) {
    if (!c.read_line(line, 60000)) {
      note_failure("drain dropped " + std::to_string(outstanding.size()) +
                   " in-flight jobs (read timeout/EOF)");
      g_hangs.fetch_add(1);
      terminate_daemon(daemon);
      return false;
    }
    verify_response(line, outstanding, lat, nullptr);
  }
  // After the last result the daemon must close the connection (EOF),
  // not leave it dangling.
  const bool got_eof = !c.read_line(line, 10000) && c.eof();
  if (!got_eof) note_failure("no EOF after drain");
  const bool clean_exit = terminate_daemon(daemon);  // already exiting
  return got_eof && clean_exit;
}

/// Saturation: a deliberately tiny queue must reject, structurally and
/// immediately — and every accepted job still completes correctly.
bool saturation_phase(const std::string& ftd_path) {
  Daemon d;
  if (!spawn_daemon(ftd_path, /*queue=*/16, /*workers=*/2, d)) return false;
  ft::ftd::Client c;
  std::string err;
  bool ok = true;
  if (!c.connect(d.port, &err) || !read_hello(c)) {
    note_failure("saturation connect failed: " + err);
    terminate_daemon(d);
    return false;
  }
  const std::string body = sleep_job_body(50);
  const std::size_t kBlast = 64;
  std::unordered_map<std::string, Outstanding> outstanding;
  std::deque<std::string> todo;
  std::size_t next_id = 0;
  std::uint64_t sat_rejections = 0;
  for (std::size_t k = 0; k < kBlast; ++k) todo.push_back(body);

  std::size_t completed = 0;
  std::string line;
  int waves = 0;
  while (completed < kBlast && waves < 200) {
    while (!todo.empty()) {
      const std::string id = "sat-" + std::to_string(next_id++);
      outstanding.emplace(id, Outstanding{todo.front(), Clock::now()});
      todo.pop_front();
      if (!c.send_line(request_line(id, body))) {
        note_failure("saturation send failed");
        ok = false;
        break;
      }
    }
    std::vector<double> lat;
    while (!outstanding.empty()) {
      if (!c.read_line(line, 30000)) {
        note_failure("saturation read timed out (hang under queue-full)");
        g_hangs.fetch_add(1);
        ok = false;
        break;
      }
      const std::size_t before = outstanding.size();
      std::string rejected_id;
      verify_response(line, outstanding, lat, &rejected_id);
      if (!rejected_id.empty()) {
        ++sat_rejections;
        const auto it = outstanding.find(rejected_id);
        if (it != outstanding.end()) {
          todo.push_back(it->second.job_body);
          outstanding.erase(it);
        }
      } else if (outstanding.size() < before) {
        ++completed;
      }
    }
    if (!ok) break;
    ++waves;
    if (!todo.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  if (completed < kBlast) {
    note_failure("saturation never completed: " + std::to_string(completed) +
                 "/" + std::to_string(kBlast));
    ok = false;
  }
  if (sat_rejections == 0) {
    note_failure("saturation produced zero queue_full rejections (queue=16, "
                 "blast=64 — backpressure is not engaging)");
    ok = false;
  }
  c.close();
  if (!terminate_daemon(d)) ok = false;
  std::printf("saturation: %zu jobs, %llu structured rejections, %d waves\n",
              completed, static_cast<unsigned long long>(sat_rejections),
              waves);
  return ok;
}

double percentile_us(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(v.size()) - 1.0,
                       q * static_cast<double>(v.size())));
  return v[idx];
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage();
    return 2;
  }
  ::signal(SIGPIPE, SIG_IGN);
  std::srand(static_cast<unsigned>(opt.seed));

  Daemon daemon;
  std::uint16_t port = opt.port;
  if (!opt.spawn_path.empty()) {
    // The main daemon's queue must hold the whole surge with headroom:
    // a main-phase rejection is a failure, not backpressure.
    const std::size_t queue = std::max<std::size_t>(4096, opt.min_inflight * 2);
    if (!spawn_daemon(opt.spawn_path, queue, /*workers=*/0, daemon)) return 1;
    port = daemon.port;
  }

  const auto t0 = Clock::now();
  const std::size_t surged = surge_phase(port, opt);
  const double surge_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  std::printf("surge: %zu concurrent jobs (target %zu) in %.2fs\n", surged,
              opt.min_inflight, surge_seconds);
  bool ok = surged >= opt.min_inflight;
  if (!ok) note_failure("surge concurrency below target");

  const auto t1 = Clock::now();
  auto latencies = throughput_phase(port, opt);
  const double tp_seconds =
      std::chrono::duration<double>(Clock::now() - t1).count();
  const double p50 = percentile_us(latencies, 0.50);
  const double p90 = percentile_us(latencies, 0.90);
  const double p99 = percentile_us(latencies, 0.99);
  const double pmax = latencies.empty() ? 0.0 : latencies.back();
  std::printf(
      "throughput: %zu verified jobs in %.2fs (%.0f jobs/s), latency us "
      "p50=%.0f p90=%.0f p99=%.0f max=%.0f\n",
      latencies.size(), tp_seconds,
      tp_seconds > 0 ? static_cast<double>(latencies.size()) / tp_seconds : 0,
      p50, p90, p99, pmax);

  bool drain_ok = true;
  bool saturation_ok = true;
  if (!opt.spawn_path.empty()) {
    drain_ok = drain_phase(port, daemon);
    std::printf("drain: %s\n", drain_ok ? "clean" : "FAILED");
    if (!opt.no_saturation) {
      saturation_ok = saturation_phase(opt.spawn_path);
    }
  }

  const std::uint64_t mismatches = g_mismatches.load();
  const std::uint64_t proto_errors = g_protocol_errors.load();
  const std::uint64_t hangs = g_hangs.load();
  const std::uint64_t rejections = g_rejections.load();
  ok = ok && drain_ok && saturation_ok && mismatches == 0 &&
       proto_errors == 0 && hangs == 0;

  if (!opt.summary_path.empty()) {
    ft::RunReport report("ftd_loadgen");
    ft::JsonValue& params = report.params();
    params["jobs"] = static_cast<std::uint64_t>(opt.jobs);
    params["min_inflight"] = static_cast<std::uint64_t>(opt.min_inflight);
    params["clients"] = static_cast<std::uint64_t>(opt.clients);
    params["elephants"] = static_cast<std::uint64_t>(opt.elephants);
    params["quick"] = opt.quick;
    params["seed"] = opt.seed;
    ft::JsonValue& run = report.add_run("loadgen");
    run["surge_concurrent"] = static_cast<std::uint64_t>(surged);
    run["surge_seconds"] = surge_seconds;
    run["throughput_jobs"] = static_cast<std::uint64_t>(latencies.size());
    run["throughput_seconds"] = tp_seconds;
    run["mismatches"] = mismatches;
    run["protocol_errors"] = proto_errors;
    run["hangs"] = hangs;
    run["rejections"] = rejections;
    run["drain_clean"] = drain_ok;
    run["saturation_clean"] = saturation_ok;
    ft::JsonValue& lat = run["latency_us"];
    lat["count"] = static_cast<std::uint64_t>(latencies.size());
    lat["p50"] = p50;
    lat["p90"] = p90;
    lat["p99"] = p99;
    lat["max"] = pmax;
    run["passed"] = ok;
    if (report.write_file(opt.summary_path)) {
      std::fprintf(stderr, "wrote %s\n", opt.summary_path.c_str());
    }
  }

  if (!ok) {
    std::lock_guard<std::mutex> lock(g_log_mu);
    std::fprintf(stderr,
                 "ftd_loadgen: FAILED (mismatches=%llu protocol_errors=%llu "
                 "hangs=%llu)\n",
                 static_cast<unsigned long long>(mismatches),
                 static_cast<unsigned long long>(proto_errors),
                 static_cast<unsigned long long>(hangs));
    for (const auto& f : g_failures) {
      std::fprintf(stderr, "  - %s\n", f.c_str());
    }
    if (daemon.pid >= 0) terminate_daemon(daemon);
    return 1;
  }
  std::printf("ftd_loadgen: PASS (0 mismatches over %zu verified jobs)\n",
              latencies.size());
  return 0;
}
