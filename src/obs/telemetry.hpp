// Congestion observatory: bounded-memory time-series telemetry for the
// delivery-cycle engine. A TelemetryProbe rides the EngineObserver seam
// and samples per-cycle engine state into three signal families:
//
//   1. Per-tree-level occupancy/utilization series (plus global
//      loss/backoff/attempt/... counter series) in fixed-capacity ring
//      buffers that downsample 2x in place when full, and a top-K
//      hottest-channel tracker (space-saving sketch). A 2^20-leaf,
//      10^5-cycle run stays O(levels x ring capacity + K), never
//      O(channels x cycles).
//   2. Delivery-latency quantile digests (p50/p95/p99/p999 of latency
//      cycles and of stretch = latency / contention-free latency), fed by
//      the engine's per-delivery samples (wants_latency_samples()).
//   3. Nothing wall-clock: phase timings live in EngineResult::phases
//      (EngineOptions::time_phases), deliberately outside the probe so
//      telemetry streams stay bit-deterministic.
//
// Every sample is captured on the engine's serial coordination path, so a
// serial run and a sharded-parallel run (any shard level, with or without
// fault plans) produce identical telemetry streams — pinned by
// fingerprint() in test_telemetry. With the probe detached the engine is
// untouched; with it attached, simulation results stay bit-identical
// (observers never influence arbitration).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "engine/observer.hpp"
#include "obs/json.hpp"

namespace ft {

/// One committed window of a telemetry time series: `value` summed over
/// `count` sampled cycles inside [start_cycle, start_cycle + span).
struct TelemetrySample {
  std::uint64_t start_cycle = 0;
  std::uint32_t span = 0;
  std::uint32_t count = 0;
  std::uint64_t value = 0;
};

/// Fixed-capacity time-series ring with automatic 2x downsampling: when a
/// commit would exceed the capacity, adjacent samples merge pairwise in
/// place (halving occupancy) and the commit stride doubles, so the series
/// always covers the whole run in at most `capacity` windows. Pushed
/// windows must have non-decreasing start cycles. Invariants (pinned by
/// test_telemetry): timestamps strictly increase, windows stay contiguous
/// when pushes are contiguous, and the summed value/count over samples()
/// plus the pending partial window conserve everything ever pushed.
class TelemetryRing {
 public:
  explicit TelemetryRing(std::size_t capacity = kDefaultCapacity);

  /// Appends one base window. The ring accumulates `stride()` consecutive
  /// base windows per committed sample.
  void push(std::uint64_t start_cycle, std::uint32_t span,
            std::uint32_t sampled, std::uint64_t value);

  /// Commits the pending partial window (if any) so samples() covers
  /// every push. Call once at end of run; pushing after flush() starts a
  /// fresh pending window and stays correct.
  void flush();

  const std::vector<TelemetrySample>& samples() const { return samples_; }
  std::size_t capacity() const { return capacity_; }
  /// Base windows folded into each committed sample (doubles on every
  /// downsample).
  std::uint32_t stride() const { return stride_; }
  std::uint64_t total_value() const { return total_value_; }
  std::uint64_t total_count() const { return total_count_; }

  void clear();

 private:
  static constexpr std::size_t kDefaultCapacity = 256;

  void commit(const TelemetrySample& s);

  std::size_t capacity_;
  std::uint32_t stride_ = 1;
  std::vector<TelemetrySample> samples_;
  TelemetrySample pending_{};
  std::uint32_t pending_windows_ = 0;
  std::uint64_t total_value_ = 0;
  std::uint64_t total_count_ = 0;
};

/// Space-saving heavy-hitter sketch (Metwally et al.): at most `k`
/// tracked keys; an untracked arrival evicts the minimum-count entry and
/// inherits its count as `error`. Guarantees (pinned by test_telemetry):
/// true_count <= count, count - error <= true_count, and
/// error <= total_weight / k — so every key with true weight above
/// total/k is present. Deterministic: scans resolve ties by first
/// (lowest) slot, and top() orders by count desc then key asc.
class SpaceSavingSketch {
 public:
  struct Entry {
    std::uint64_t key = 0;
    std::uint64_t count = 0;
    std::uint64_t error = 0;
    std::uint32_t tag = 0;  ///< caller-defined (the probe stores the level)
  };

  explicit SpaceSavingSketch(std::size_t k = 16);

  void add(std::uint64_t key, std::uint64_t weight = 1, std::uint32_t tag = 0);

  /// Entries sorted by count descending, key ascending.
  std::vector<Entry> top() const;
  std::size_t capacity() const { return k_; }
  std::uint64_t total_weight() const { return total_; }

  void clear();

 private:
  std::size_t k_;
  std::vector<Entry> entries_;  ///< unordered, linear-scanned (k is small)
  std::uint64_t total_ = 0;
};

/// Bounded-memory quantile digest over unsigned values: exact below 64,
/// log-bucketed above (32 sub-buckets per octave, so quantiles carry at
/// most ~3% relative error). Reported quantiles use each bucket's upper
/// bound (conservative for tail latencies); min/max are exact.
class QuantileDigest {
 public:
  QuantileDigest();

  void add(std::uint64_t value, std::uint64_t weight = 1);

  std::uint64_t count() const { return count_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }
  double mean() const;
  /// Value at quantile q in [0, 1] (0 when empty).
  std::uint64_t quantile(double q) const;
  /// Raw bucket counts (fingerprinting, tests).
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }

  void clear();

 private:
  static constexpr std::uint32_t kLinearCutoff = 64;  ///< exact below this
  static constexpr std::uint32_t kSubBuckets = 32;    ///< per octave

  static std::uint32_t bucket_index(std::uint64_t v);
  static std::uint64_t bucket_upper(std::uint32_t idx);

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

struct TelemetryOptions {
  /// Sample channel state (per-level occupancy + top-K tracker) every
  /// k-th cycle; 1 observes every cycle. Scalar counter series always
  /// cover every cycle (accumulated into every_k-cycle windows) so their
  /// totals conserve regardless of sampling. The default of 4 is the
  /// fidelity/overhead balance point: channel-state capture is the one
  /// per-channel cost (and the engine records no channel state on
  /// unsampled cycles), and at k = 4 the measured
  /// engine-throughput overhead at n = 2^16 stays within the 5% budget
  /// (see BENCH_engine.json's telemetry_overhead section). Use 1 for
  /// full-resolution analysis runs.
  std::uint32_t every_k = 4;
};

/// The observer. Attach to any engine run (alone or in an
/// ObserverFanout); export with to_json() / write_heatmap_csv() /
/// write_heatmap_jsonl() after the run. Series
/// rings hold TelemetryRing's default 256 samples, the sketch tracks the
/// 16 hottest channels, and latency/stretch digests are always collected.
class TelemetryProbe final : public EngineObserver {
 public:
  explicit TelemetryProbe(TelemetryOptions opts = {});

  void on_cycle(const CycleSnapshot& s) override;
  bool wants_channel_state(std::uint32_t cycle) const override;
  bool wants_latency_samples() const override { return true; }

  const TelemetryOptions& options() const { return opts_; }
  std::uint64_t cycles_seen() const { return cycles_seen_; }
  std::uint32_t num_levels() const {
    return static_cast<std::uint32_t>(level_carried_.size());
  }
  /// Per-level occupancy series (sum of carried over the level's
  /// in-budget channels, one base window per sampled cycle).
  const TelemetryRing& level_series(std::uint32_t level) const;
  /// Aggregate wire capacity of the level (utilization denominator).
  std::uint64_t level_capacity(std::uint32_t level) const;
  /// Named global counter series: "attempts", "losses", "delivered",
  /// "backoffs", "gave_up", "pending", "channels_down". nullptr for an
  /// unknown name.
  const TelemetryRing* series(std::string_view name) const;
  const SpaceSavingSketch& top_channels() const { return sketch_; }
  const QuantileDigest& latency_digest() const { return latency_; }
  /// Stretch digest in milli-units (1000 = stretch 1.0).
  const QuantileDigest& stretch_digest() const { return stretch_; }

  /// Commits partial windows so the exports below cover every observed
  /// cycle. Idempotent; called implicitly by the exports.
  void finalize();

  /// Order-sensitive FNV-1a fingerprint of every deterministic signal
  /// (series samples, sketch entries, digest buckets) — the serial ==
  /// sharded-parallel parity witness.
  std::uint64_t fingerprint();

  /// The "telemetry" section of a RunReport (schema ft.run_report/2):
  /// config, per-level + global series, top channels, latency digests.
  JsonValue to_json();

  /// Level x time heatmap, one row per (level, window):
  /// level,start_cycle,span,sampled_cycles,carried,utilization.
  void write_heatmap_csv(std::ostream& os);
  /// JSONL export: one "series" line per committed window (levels and
  /// globals), then one "top_channels" line and one "latency" line.
  void write_heatmap_jsonl(std::ostream& os);

  void reset();

 private:
  void flush_window();

  TelemetryOptions opts_;
  // Graph-shape guard, same discipline as EngineMetrics.
  bool graph_seen_ = false;
  std::size_t graph_channels_ = 0;
  std::uint32_t graph_levels_ = 0;

  std::uint64_t cycles_seen_ = 0;

  // Signal family 1: per-level occupancy rings (one base window per
  // sampled cycle) + hottest-channel sketch.
  std::vector<TelemetryRing> level_carried_;
  std::vector<std::uint64_t> level_capacity_;
  SpaceSavingSketch sketch_;
  /// Per-level scratch for one sampled cycle's pass over the load list:
  /// the level occupancy sums and the argmax-carried channel per level
  /// that feeds the sketch.
  std::vector<std::uint64_t> level_sum_;
  std::vector<std::uint32_t> argmax_chan_;
  std::vector<std::uint32_t> argmax_val_;

  // Global counter series: accumulated every cycle, committed as one
  // base window per every_k cycles so totals conserve exactly.
  struct Window {
    std::uint64_t start = 0;
    std::uint32_t cycles = 0;
    std::uint64_t attempts = 0;
    std::uint64_t losses = 0;
    std::uint64_t delivered = 0;
    std::uint64_t backoffs = 0;
    std::uint64_t gave_up = 0;
    std::uint64_t pending = 0;
    std::uint64_t channels_down = 0;
  };
  Window win_;
  TelemetryRing attempts_, losses_, delivered_, backoffs_, gave_up_,
      pending_, channels_down_;

  // Signal family 2: latency digests.
  QuantileDigest latency_;
  QuantileDigest stretch_;  ///< milli-units
};

}  // namespace ft
