#include "obs/run_report.hpp"

#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "ft_git_sha.h"  // FT_GIT_SHA, written at build time (git_sha.cmake)

namespace ft {

std::string build_git_sha() { return FT_GIT_SHA; }

std::string timestamp_utc_iso8601() {
  const std::time_t now =
      std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

unsigned host_hardware_threads() {
  return std::thread::hardware_concurrency();
}

std::uint64_t host_peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // already bytes
#else
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // kilobytes
#endif
#else
  return 0;
#endif
}

void PhaseTimers::Scope::stop() {
  if (timers_ == nullptr) return;
  const auto elapsed = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - start_);
  timers_->add(name_, elapsed.count());
  timers_ = nullptr;
}

void PhaseTimers::add(std::string_view name, double seconds) {
  for (auto& [k, s] : phases_) {
    if (k == name) {
      s += seconds;
      return;
    }
  }
  phases_.emplace_back(std::string(name), seconds);
}

double PhaseTimers::seconds(std::string_view name) const {
  for (const auto& [k, s] : phases_) {
    if (k == name) return s;
  }
  return 0.0;
}

JsonValue PhaseTimers::to_json() const {
  JsonValue out = JsonValue::object();
  for (const auto& [k, s] : phases_) out[k] = s;
  return out;
}

RunReport::RunReport(std::string tool) {
  root_["schema"] = kSchema;
  root_["tool"] = std::move(tool);
  root_["git_sha"] = build_git_sha();
  root_["timestamp"] = timestamp_utc_iso8601();
  root_["host"]["hardware_threads"] = host_hardware_threads();
}

JsonValue& RunReport::add_run(std::string_view name) {
  JsonValue run = JsonValue::object();
  run["name"] = std::string(name);
  return root_["runs"].push_back(std::move(run));
}

void RunReport::write(std::ostream& os) const {
  root_.write(os, 2);
  os << '\n';
}

bool RunReport::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "run report: cannot write %s\n", path.c_str());
    return false;
  }
  write(out);
  return static_cast<bool>(out);
}

std::optional<JsonValue> RunReport::read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return JsonValue::parse(buf.str());
}

JsonValue phase_profile_json(const EnginePhaseProfile& p) {
  JsonValue out = JsonValue::object();
  out["up_seconds"] = p.up_seconds;
  out["spine_seconds"] = p.spine_seconds;
  out["spine_parallel_seconds"] = p.spine_parallel_seconds;
  out["down_seconds"] = p.down_seconds;
  out["coord_seconds"] = p.coord_seconds;
  out["timed_cycles"] = p.timed_cycles;
  out["parallel_seconds"] = p.parallel_seconds();
  out["serial_seconds"] = p.serial_seconds();
  out["serial_fraction"] = p.serial_fraction();
  return out;
}

}  // namespace ft
