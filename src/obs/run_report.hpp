// RunReport: the one JSON schema every observability-enabled binary emits
// (ftsim, exp_online_routing, exp_utilization, exp_fault_tolerance, and
// the BENCH_engine.json metadata header). A report carries build identity
// (git sha, timestamp, host), the run parameters, per-run results, and
// wall-clock phase timings from lightweight scope timers — so the perf
// trajectory of any future PR is comparable run-to-run and machine-to-
// machine.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/phase_profile.hpp"
#include "obs/json.hpp"

namespace ft {

/// The "amdahl" section of a /2 run report: the engine's measured
/// wall-clock phase decomposition plus the derived serial fraction.
/// {"up_seconds", "spine_seconds", "down_seconds", "coord_seconds",
///  "timed_cycles", "parallel_seconds", "serial_seconds",
///  "serial_fraction"}.
JsonValue phase_profile_json(const EnginePhaseProfile& p);

/// Short git revision of the build (FT_GIT_SHA, restamped whenever a
/// build runs after a commit), "unknown" outside a git checkout.
std::string build_git_sha();

/// Current UTC wall-clock time as ISO 8601 ("2026-08-07T12:34:56Z").
std::string timestamp_utc_iso8601();

/// std::thread::hardware_concurrency(), 0 when unknown.
unsigned host_hardware_threads();

/// Peak resident set size of this process in bytes (getrusage ru_maxrss),
/// 0 when the platform cannot report it. Monotone over the process
/// lifetime — sample once per phase to attribute growth.
std::uint64_t host_peak_rss_bytes();

/// Named wall-clock phase accumulator. Scopes are cheap (one
/// steady_clock read at each end) and re-entering a name accumulates.
class PhaseTimers {
 public:
  class Scope {
   public:
    Scope(Scope&& other) noexcept
        : timers_(other.timers_), name_(std::move(other.name_)),
          start_(other.start_) {
      other.timers_ = nullptr;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope& operator=(Scope&&) = delete;
    ~Scope() { stop(); }

    /// Idempotent early stop.
    void stop();

   private:
    friend class PhaseTimers;
    Scope(PhaseTimers* timers, std::string name)
        : timers_(timers), name_(std::move(name)),
          start_(std::chrono::steady_clock::now()) {}

    PhaseTimers* timers_;
    std::string name_;
    std::chrono::steady_clock::time_point start_;
  };

  [[nodiscard]] Scope scope(std::string name) {
    return Scope(this, std::move(name));
  }
  void add(std::string_view name, double seconds);
  /// 0 when the phase never ran.
  double seconds(std::string_view name) const;

  /// {"phase": seconds, ...} in first-use order.
  JsonValue to_json() const;

 private:
  std::vector<std::pair<std::string, double>> phases_;
};

/// Schema-versioned run report. The constructor stamps schema, tool name,
/// git sha, timestamp, and host info; callers fill params() and add_run()
/// entries, then write().
class RunReport {
 public:
  /// Version history: /1 — identity + params + runs + phases;
  /// /2 — runs may additionally carry a "telemetry" section
  /// (TelemetryProbe::to_json: time series, top channels, latency
  /// quantile digests) and an "amdahl" section (EnginePhaseProfile).
  /// Purely additive, so /1 consumers can read /2 reports.
  static constexpr const char* kSchema = "ft.run_report/2";

  explicit RunReport(std::string tool);

  JsonValue& root() { return root_; }
  const JsonValue& root() const { return root_; }

  /// The "params" object (created on first use).
  JsonValue& params() { return root_["params"]; }

  /// Appends {"name": name} to the "runs" array and returns it for the
  /// caller to fill.
  JsonValue& add_run(std::string_view name);

  /// Attaches timers as root["phases"].
  void set_phases(const PhaseTimers& timers) {
    root_["phases"] = timers.to_json();
  }

  void write(std::ostream& os) const;
  /// Returns false (and prints to stderr) when the file cannot be
  /// written.
  bool write_file(const std::string& path) const;

  /// Parses a previously written report (round-trip testing, tooling).
  static std::optional<JsonValue> read_file(const std::string& path);

 private:
  JsonValue root_;
};

}  // namespace ft
