// Summary statistics for experiment reporting: mean/stddev/min/max,
// percentiles, simple linear regression (used to fit measured scaling
// curves against the paper's asymptotic bounds), and histograms.
#pragma once

#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace ft {

/// Streaming accumulator (Welford) for mean and variance.
class Accumulator {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< Sample variance (n-1 denominator).
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// The q-th percentile (q in [0,100]) by linear interpolation.
/// The input vector is copied and sorted.
double percentile(std::vector<double> xs, double q);

/// Least-squares fit y = a + b*x. Returns {a, b, r2}.
struct LinearFit {
  double intercept;
  double slope;
  double r2;
};
LinearFit linear_fit(const std::vector<double>& x,
                     const std::vector<double>& y);

/// Histogram over [lo, hi] with `bins` equal-width bins. The top bin is
/// closed (x == hi lands in it); x > hi counts as overflow and x < lo as
/// underflow rather than being silently clamped — a channel carrying more
/// than its capacity (utilization > 1, possible under Tally replay of an
/// invalid schedule) is overload and must stay visible.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins)
      : lo_(lo), hi_(hi), counts_(bins, 0) {
    FT_CHECK_MSG(bins > 0 && hi > lo, "histogram needs bins > 0 and hi > lo");
  }

  /// Records `weight` observations of x.
  void observe(double x, std::uint64_t weight = 1) {
    if (x < lo_) {
      underflow_ += weight;
    } else if (x > hi_) {
      overflow_ += weight;
    } else {
      auto bin = static_cast<std::size_t>((x - lo_) / (hi_ - lo_) *
                                          static_cast<double>(counts_.size()));
      if (bin >= counts_.size()) bin = counts_.size() - 1;  // x == hi
      counts_[bin] += weight;
    }
  }

  std::size_t num_bins() const { return counts_.size(); }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  double bin_lo(std::size_t i) const {
    return lo_ + (hi_ - lo_) * static_cast<double>(i) /
                     static_cast<double>(counts_.size());
  }
  double bin_hi(std::size_t i) const { return bin_lo(i + 1); }
  std::uint64_t bin_count(std::size_t i) const { return counts_[i]; }
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }

  /// All observations, including underflow/overflow.
  std::uint64_t total() const {
    std::uint64_t t = underflow_ + overflow_;
    for (const std::uint64_t c : counts_) t += c;
    return t;
  }

  void reset() {
    underflow_ = overflow_ = 0;
    counts_.assign(counts_.size(), 0);
  }

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
};

}  // namespace ft
