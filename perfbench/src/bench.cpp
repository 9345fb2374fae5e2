#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace ftbench {

void Outcome::ops_failed(std::uint64_t ops, const std::string& why) {
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
  failed += ops;
  correct = false;
}

std::size_t samples_beyond(std::size_t n, double pct) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
  return n - std::min(n, std::max<std::size_t>(rank, 1));
}

double percentile_sorted(const std::vector<double>& sorted, double pct) {
  const std::size_t n = sorted.size();
  const std::size_t rank = n - samples_beyond(n, pct);
  return sorted[rank - 1];
}

Summary summarize(std::vector<double> samples, double max_pct) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = percentile_sorted(samples, 50.0);
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (pct > max_pct) continue;
    if (samples_beyond(s.count, pct) >= Summary::kTailSamples) {
      s.tail_pct = pct;
      s.tail = percentile_sorted(samples, pct);
      break;
    }
  }
  return s;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return percentile_sorted(samples, 50.0);
}

bool percentile_self_test(std::string* why) {
  auto ramp = [](std::size_t n) {
    // 1..n in a scrambled order: the helper must sort.
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = static_cast<double>((i * 7919) % n + 1);
    }
    return v;
  };
  struct Case {
    std::size_t n;
    double p50;
    double tail_pct;
    double tail;
  };
  // 1000 samples: p99 is 990 with exactly 10 above it. 999 samples: p99
  // would leave 9 above, so the tail falls back to p95 (950, 49 above).
  // 20 samples: p50 = 10 leaves 10 above but no tail percentile does.
  const Case cases[] = {
      {1000, 500.0, 99.0, 990.0},
      {999, 500.0, 95.0, 950.0},
      {200, 100.0, 95.0, 190.0},
      {20, 10.0, 0.0, 0.0},
      {1, 1.0, 0.0, 0.0},
  };
  for (const Case& c : cases) {
    const Summary s = summarize(ramp(c.n));
    if (s.count != c.n || s.p50 != c.p50 || s.tail_pct != c.tail_pct ||
        s.tail != c.tail) {
      if (why != nullptr) {
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "percentile self-test n=%zu: got p50=%g p%g=%g, want "
                      "p50=%g p%g=%g",
                      c.n, s.p50, s.tail_pct, s.tail, c.p50, c.tail_pct,
                      c.tail);
        *why = buf;
      }
      return false;
    }
  }
  if (samples_beyond(1000, 99.0) != 10 || samples_beyond(999, 99.0) != 9 ||
      median({3.0, 1.0, 2.0}) != 2.0 || median({}) != 0.0) {
    if (why != nullptr) *why = "percentile self-test: rank arithmetic";
    return false;
  }
  // The p99.9 tail needs 10000 samples; max_pct caps it at p99.
  if (summarize(ramp(10000)).tail_pct != 99.0 ||
      summarize(ramp(10000), 99.9).tail != 9990.0) {
    if (why != nullptr) *why = "percentile self-test: p99.9 tail";
    return false;
  }
  return true;
}

Tracer::Scope::Scope(Tracer& t, std::string_view name)
    : tracer_(t), index_(t.spans_.size()) {
  const auto now = Clock::now();
  t.spans_.push_back({name, t.unit_, t.open_, now, now});
  t.open_ = static_cast<std::int32_t>(index_);
}

Tracer::Scope::~Scope() {
  Span& s = tracer_.spans_[index_];
  s.end = Clock::now();
  tracer_.open_ = s.parent;
}

double Tracer::total_seconds(std::uint32_t unit, std::string_view name) const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.unit == unit && s.name == name) sum += seconds_between(s.start, s.end);
  }
  return sum;
}

double Tracer::self_seconds(std::uint32_t unit, std::string_view name) const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.unit != unit) continue;
    if (s.name == name) sum += seconds_between(s.start, s.end);
    if (s.parent >= 0) {
      const Span& p = spans_[static_cast<std::size_t>(s.parent)];
      if (p.name == name) sum -= seconds_between(s.start, s.end);
    }
  }
  return sum;
}

double Tracer::first_seconds(std::uint32_t unit, std::string_view name) const {
  for (const Span& s : spans_) {
    if (s.unit == unit && s.name == name) {
      return seconds_between(s.start, s.end);
    }
  }
  return 0.0;
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) os << ',';
    os << "\n{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
       << s.unit << ",\"ts\":" << seconds_between(origin, s.start) * 1e6
       << ",\"dur\":" << seconds_between(s.start, s.end) * 1e6 << '}';
  }
  os << "\n]}\n";
}

}  // namespace ftbench
