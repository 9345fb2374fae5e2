// Shared plumbing of the repository benchmark (see perfbench/README.md):
// the per-run outcome that becomes the final result line, the percentile
// helper, and the in-memory span recorder used by traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace ftbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// What one workload run reports: the operation counts and the metrics of
/// the final result line, in print order.
struct Outcome {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// `ops` operations failed a check for the reason `why` (printed once
  /// to stderr); the run is then not correct.
  void ops_failed(std::uint64_t ops, const std::string& why);
  void check_failed(const std::string& why) { ops_failed(1, why); }
};

/// A timing distribution summarized the way every latency is reported:
/// the median plus the highest percentile (at most `max_pct`) that still
/// leaves at least kTailSamples samples above it, with the sample count.
struct Summary {
  static constexpr std::size_t kTailSamples = 10;

  std::size_t count = 0;
  double p50 = 0.0;
  double tail_pct = 0.0;  ///< percentile reported as `tail`; 0 = none
  double tail = 0.0;
};

/// Nearest-rank percentile of a sorted sample: the smallest value with at
/// least ceil(pct / 100 * n) samples at or below it. `sorted` must be
/// non-empty.
double percentile_sorted(const std::vector<double>& sorted, double pct);

/// Samples strictly above the nearest-rank percentile `pct` of n samples.
std::size_t samples_beyond(std::size_t n, double pct);

/// Sorts `samples` and summarizes them; the tail is the highest of
/// {99.9, 99, 95, 90, 75} not above `max_pct` with kTailSamples beyond it.
Summary summarize(std::vector<double> samples, double max_pct = 99.0);

/// Median (nearest-rank p50) of an unsorted sample; 0 when empty.
double median(std::vector<double> samples);

/// Checks the percentile helper on fixed inputs; on failure returns false
/// with `why` filled.
bool percentile_self_test(std::string* why);

/// In-memory span recorder for traced runs. Spans nest through a stack
/// and are opened and closed on one thread (the one driving the engine),
/// so a span's parent is whichever span was open when it began. Spans
/// are only appended during a run; they are read back and written out
/// after it.
class Tracer {
 public:
  struct Span {
    std::string_view name;  ///< always a string literal
    std::uint32_t unit;     ///< the set or job this span belongs to
    std::int32_t parent;    ///< index into spans(), -1 for a root
    Clock::time_point start;
    Clock::time_point end;
  };

  class Scope {
   public:
    Scope(Tracer& t, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  /// Starts a new unit of work: later spans carry its id.
  void begin_unit(std::uint32_t id) { unit_ = id; }

  [[nodiscard]] Scope span(std::string_view name) { return Scope(*this, name); }

  /// Summed duration of the unit's spans called `name`.
  double total_seconds(std::uint32_t unit, std::string_view name) const;
  /// Summed self time (duration minus direct children) of those spans.
  double self_seconds(std::uint32_t unit, std::string_view name) const;
  /// Duration of the first span called `name` in the unit (0 if none).
  double first_seconds(std::uint32_t unit, std::string_view name) const;

  /// Chrome trace_event JSON ("X" events, microseconds from the first
  /// span), one track per unit.
  void write_chrome_trace(std::ostream& os) const;

 private:
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
  std::uint32_t unit_ = 0;
};

}  // namespace ftbench
