// ftbench — the repository benchmark's measuring binary. perfbench/run.py
// builds it and runs it once per workload run:
//
//   ftbench --workload W --seed S --seconds T --trace 0|1 [--spans FILE]
//   ftbench --self-test
//
// It prints the host and build identity, one line per workload detail,
// and as its last line a JSON object with the keys correct, attempted,
// failed and metrics (name -> {value, unit}). Untraced runs (--trace 0)
// report the end-to-end metrics, traced runs the per-layer ones.
#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "obs/run_report.hpp"
#include "util/parse.hpp"
#include "workloads.hpp"

#ifndef FTBENCH_BUILD_TYPE
#define FTBENCH_BUILD_TYPE "unknown"
#endif
#ifndef FTBENCH_COMPILER
#define FTBENCH_COMPILER "unknown"
#endif
#ifndef FTBENCH_FTD_PATH
#define FTBENCH_FTD_PATH ""
#endif

namespace {

using ftbench::Outcome;
using ftbench::RunArgs;

void usage() {
  std::fprintf(stderr,
               "usage: ftbench --workload W --seed S --seconds T --trace 0|1 "
               "[--spans FILE]\n"
               "       ftbench --self-test\n"
               "workloads: contended_t2 stream1m_t4 hotspot_serial "
               "ftd_small\n");
}

unsigned available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return ft::host_hardware_threads();
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// Prints the identity line; numbers are comparable only from a Release
/// build without assertions on a host with enough CPUs.
void print_identity(const std::string& workload) {
  const unsigned cpus = available_cpus();
  const unsigned need = ftbench::is_route_workload(workload)
                            ? ftbench::route_workload_threads(workload)
                            : ftbench::kFtdThreads;
  const std::string build_type = FTBENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool asserts = false;
#else
  const bool asserts = true;
#endif
  std::string why;
  if (build_type != "Release") why += "build type is " + build_type + "; ";
  if (asserts) why += "assertions are on; ";
  if (cpus < need) {
    why += workload + " needs " + std::to_string(need) + " CPUs, host has " +
           std::to_string(cpus) + "; ";
  }
  std::printf(
      "identity {\"workload\":\"%s\",\"nproc\":%u,\"hardware_threads\":%u,"
      "\"cpu_model\":\"%s\",\"compiler\":\"%s\",\"build_type\":\"%s\","
      "\"git_sha\":\"%s\",\"threads_needed\":%u,\"comparable\":%s}\n",
      workload.c_str(), cpus, ft::host_hardware_threads(),
      json_escape(cpu_model()).c_str(), json_escape(FTBENCH_COMPILER).c_str(),
      build_type.c_str(), ft::build_git_sha().c_str(), need,
      why.empty() ? "true" : "false");
  if (!why.empty()) {
    std::printf("WARNING: NUMBERS NOT COMPARABLE: %s\n", why.c_str());
    std::fprintf(stderr, "perfbench: WARNING: NUMBERS NOT COMPARABLE: %s\n",
                 why.c_str());
  }
}

/// Shortest text that reads back as exactly `v`.
std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void print_result(const Outcome& out) {
  std::string line = "{\"correct\": ";
  line += out.correct && out.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Outcome::Metric& m = out.metrics[i];
    if (i > 0) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  args.ftd_path = FTBENCH_FTD_PATH;
  bool self_test = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    bool ok = true;
    if (a == "--self-test") {
      self_test = true;
      continue;
    } else if (a == "--workload" && v != nullptr) {
      args.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      ok = ft::parse_u64(v, args.seed);
    } else if (a == "--seconds") {
      ok = ft::parse_double(v, args.seconds) && args.seconds > 0.0 &&
           args.seconds <= 120.0;
    } else if (a == "--trace" && v != nullptr) {
      ok = std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0;
      args.trace = ok && v[0] == '1';
    } else if (a == "--spans" && v != nullptr) {
      args.spans_path = v;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "ftbench: bad argument %s\n", a.c_str());
      usage();
      return 2;
    }
    ++i;
  }

  std::string why;
  const bool percentiles_ok = ftbench::percentile_self_test(&why);
  if (self_test) {
    std::printf("percentile self-test: %s\n",
                percentiles_ok ? "ok" : why.c_str());
    return percentiles_ok ? 0 : 1;
  }
  if (!have_workload || (!ftbench::is_route_workload(args.workload) &&
                         args.workload != ftbench::kFtdWorkload)) {
    std::fprintf(stderr, "ftbench: unknown or missing --workload\n");
    usage();
    return 2;
  }

  print_identity(args.workload);
  std::fflush(stdout);
  Outcome out = ftbench::is_route_workload(args.workload)
                    ? ftbench::run_route_workload(args)
                    : ftbench::run_ftd_workload(args);
  if (!percentiles_ok) {
    out.check_failed(why);
  }
  for (Outcome::Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) {
      out.check_failed("metric " + m.name + " is not finite");
      m.value = 0.0;
    }
  }
  if (out.attempted == 0) out.check_failed("no operation was attempted");
  out.attempted = std::max(out.attempted, out.failed);
  print_result(out);
  return 0;
}
