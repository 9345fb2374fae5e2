// ftd — the fat-tree engine as a long-running job service.
//
//   ftd [--port P] [--workers W] [--queue N] [--client-quota Q]
//       [--max-frame BYTES] [--port-file PATH] [--quiet]
//
// Accepts newline-delimited JSON job requests over loopback TCP
// (protocol: src/ftd/protocol.hpp, DESIGN.md "ftd service") and streams
// one JSONL record back per request. --port 0 binds an ephemeral port;
// --port-file writes the bound port for harnesses that spawn the daemon.
// SIGTERM/SIGINT drain gracefully: stop accepting, reject new work with
// a structured record, finish in-flight jobs, flush, exit 0.
//
// Quickstart (see README):
//   ftd --port 7471 &
//   printf '%s\n' '{"id":"j1","job":{"kind":"route_online","n":64,
//     "workload":"transpose","seed":7}}' | nc 127.0.0.1 7471
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "ftd/server.hpp"
#include "util/parse.hpp"

namespace {

ft::ftd::Server* g_server = nullptr;

void drain_handler(int) {
  if (g_server != nullptr) g_server->request_drain();
}

void usage() {
  std::printf(
      "usage: ftd [options]\n"
      "  --port P          loopback TCP port (default 7471; 0 = ephemeral)\n"
      "  --workers W       job worker threads, at most 1024 (default:\n"
      "                    hardware)\n"
      "  --queue N         max admitted-but-unfinished jobs (default 4096)\n"
      "  --client-quota Q  max in-flight jobs per connection (default 1024)\n"
      "  --max-frame B     max request frame bytes (default 1 MiB)\n"
      "  --port-file PATH  write the bound port to PATH after listening\n"
      "  --quiet           suppress the startup/drain banner\n"
      "  --help            print this help and exit\n");
}

struct Options {
  ft::ftd::ServerOptions server;
  std::string port_file;
  bool quiet = false;
  bool help = false;
};

bool parse(int argc, char** argv, Options& opt) {
  opt.server.port = 7471;
  const char* flag = "";
  auto bad = [&flag]() {
    std::fprintf(stderr, "ftd: invalid or missing value for %s\n", flag);
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--help") {
      opt.help = true;
      return true;
    } else if (arg == "--port") {
      if (!ft::parse_u16(next(), opt.server.port)) return bad();
    } else if (arg == "--workers") {
      if (!ft::parse_threads(next(), opt.server.workers)) return bad();
    } else if (arg == "--queue") {
      if (!ft::parse_size(next(), opt.server.queue_capacity) ||
          opt.server.queue_capacity == 0) {
        return bad();
      }
    } else if (arg == "--client-quota") {
      if (!ft::parse_size(next(), opt.server.client_quota) ||
          opt.server.client_quota == 0) {
        return bad();
      }
    } else if (arg == "--max-frame") {
      if (!ft::parse_size(next(), opt.server.max_frame_bytes) ||
          opt.server.max_frame_bytes < 64) {
        return bad();
      }
    } else if (arg == "--port-file") {
      const char* v = next();
      if (!v) return bad();
      opt.port_file = v;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else {
      std::fprintf(stderr, "ftd: unknown flag %s\n", arg.c_str());
      return false;
    }
  }
  return true;
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

  ft::ftd::Server server(opt.server);
  std::string err;
  if (!server.start(&err)) {
    std::fprintf(stderr, "ftd: %s\n", err.c_str());
    return 1;
  }
  if (!opt.port_file.empty()) {
    std::ofstream pf(opt.port_file);
    if (!pf) {
      std::fprintf(stderr, "ftd: cannot write %s\n", opt.port_file.c_str());
      return 1;
    }
    pf << server.port() << '\n';
  }
  if (!opt.quiet) {
    std::fprintf(stderr, "ftd: listening on 127.0.0.1:%u (queue=%zu)\n",
                 server.port(), opt.server.queue_capacity);
  }

  g_server = &server;
  struct sigaction sa{};
  sa.sa_handler = drain_handler;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  // A client that disconnects mid-write must not kill the daemon.
  ::signal(SIGPIPE, SIG_IGN);

  server.run();
  // The handler must not outlive `server`: a late SIGTERM during ~Server
  // or after main returns would call request_drain() on a dead object.
  // ~Server joins its workers, so a handler already running on one of
  // them finishes first.
  ::signal(SIGTERM, SIG_IGN);
  ::signal(SIGINT, SIG_IGN);

  const auto s = server.stats();
  if (!opt.quiet) {
    std::fprintf(stderr,
                 "ftd: drained (connections=%llu jobs=%llu rejected=%llu "
                 "errors=%llu dropped=%llu)\n",
                 static_cast<unsigned long long>(s.connections_accepted),
                 static_cast<unsigned long long>(s.jobs_completed),
                 static_cast<unsigned long long>(s.jobs_rejected),
                 static_cast<unsigned long long>(s.jobs_failed),
                 static_cast<unsigned long long>(s.responses_dropped));
  }
  return 0;
}
