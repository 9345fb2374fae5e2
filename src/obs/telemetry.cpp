#include "obs/telemetry.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <ostream>

#include "util/check.hpp"

namespace ft {
namespace {

/// Order-sensitive FNV-1a over 64-bit words.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;
inline std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t mix_ring(std::uint64_t h, const TelemetryRing& ring) {
  h = fnv_mix(h, ring.samples().size());
  for (const TelemetrySample& s : ring.samples()) {
    h = fnv_mix(h, s.start_cycle);
    h = fnv_mix(h, (static_cast<std::uint64_t>(s.span) << 32) | s.count);
    h = fnv_mix(h, s.value);
  }
  return h;
}

std::uint64_t mix_digest(std::uint64_t h, const QuantileDigest& d) {
  h = fnv_mix(h, d.count());
  const auto& buckets = d.buckets();
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    h = fnv_mix(h, i);
    h = fnv_mix(h, buckets[i]);
  }
  return h;
}

JsonValue sample_json(const TelemetrySample& s) {
  JsonValue out = JsonValue::object();
  out["start"] = s.start_cycle;
  out["span"] = s.span;
  out["count"] = s.count;
  out["value"] = s.value;
  return out;
}

JsonValue digest_json(const QuantileDigest& d, double scale) {
  JsonValue out = JsonValue::object();
  out["count"] = d.count();
  out["min"] = static_cast<double>(d.min()) * scale;
  out["max"] = static_cast<double>(d.max()) * scale;
  out["mean"] = d.mean() * scale;
  out["p50"] = static_cast<double>(d.quantile(0.50)) * scale;
  out["p95"] = static_cast<double>(d.quantile(0.95)) * scale;
  out["p99"] = static_cast<double>(d.quantile(0.99)) * scale;
  out["p999"] = static_cast<double>(d.quantile(0.999)) * scale;
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// TelemetryRing

TelemetryRing::TelemetryRing(std::size_t capacity)
    : capacity_(std::max<std::size_t>(2, capacity + (capacity & 1))) {
  samples_.reserve(capacity_);
}

void TelemetryRing::commit(const TelemetrySample& s) {
  if (samples_.size() == capacity_) {
    // In-place pairwise merge: capacity is even, so this halves occupancy
    // exactly; the stride doubles so later commits cover twice the base
    // windows and the series keeps covering the whole run.
    const std::size_t half = samples_.size() / 2;
    for (std::size_t i = 0; i < half; ++i) {
      const TelemetrySample& a = samples_[2 * i];
      const TelemetrySample& b = samples_[2 * i + 1];
      samples_[i] = {a.start_cycle, a.span + b.span, a.count + b.count,
                     a.value + b.value};
    }
    samples_.resize(half);
    stride_ *= 2;
  }
  samples_.push_back(s);
}

void TelemetryRing::push(std::uint64_t start_cycle, std::uint32_t span,
                         std::uint32_t sampled, std::uint64_t value) {
  if (pending_windows_ == 0) {
    pending_ = {start_cycle, 0, 0, 0};
  }
  pending_.span += span;
  pending_.count += sampled;
  pending_.value += value;
  total_value_ += value;
  total_count_ += sampled;
  if (++pending_windows_ >= stride_) {
    commit(pending_);
    pending_windows_ = 0;
  }
}

void TelemetryRing::flush() {
  if (pending_windows_ == 0) return;
  commit(pending_);
  pending_windows_ = 0;
}

void TelemetryRing::clear() {
  samples_.clear();
  stride_ = 1;
  pending_ = {};
  pending_windows_ = 0;
  total_value_ = 0;
  total_count_ = 0;
}

// ---------------------------------------------------------------------------
// SpaceSavingSketch

SpaceSavingSketch::SpaceSavingSketch(std::size_t k)
    : k_(std::max<std::size_t>(1, k)) {
  entries_.reserve(k_);
}

void SpaceSavingSketch::add(std::uint64_t key, std::uint64_t weight,
                            std::uint32_t tag) {
  if (weight == 0) return;
  total_ += weight;
  for (Entry& e : entries_) {
    if (e.key == key) {
      e.count += weight;
      return;
    }
  }
  if (entries_.size() < k_) {
    entries_.push_back({key, weight, 0, tag});
    return;
  }
  // Evict the minimum-count entry (first such slot — deterministic); the
  // newcomer inherits its count as overestimation error.
  std::size_t min_i = 0;
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    if (entries_[i].count < entries_[min_i].count) min_i = i;
  }
  Entry& slot = entries_[min_i];
  slot.error = slot.count;
  slot.count += weight;
  slot.key = key;
  slot.tag = tag;
}

std::vector<SpaceSavingSketch::Entry> SpaceSavingSketch::top() const {
  std::vector<Entry> out = entries_;
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.key < b.key;
  });
  return out;
}

void SpaceSavingSketch::clear() {
  entries_.clear();
  total_ = 0;
}

// ---------------------------------------------------------------------------
// QuantileDigest

QuantileDigest::QuantileDigest() {
  // 64 exact buckets + 32 per octave for values in [64, 2^64).
  buckets_.assign(kLinearCutoff + (64 - 6) * kSubBuckets, 0);
}

std::uint32_t QuantileDigest::bucket_index(std::uint64_t v) {
  if (v < kLinearCutoff) return static_cast<std::uint32_t>(v);
  const auto e = static_cast<std::uint32_t>(std::bit_width(v) - 1);  // >= 6
  const auto sub = static_cast<std::uint32_t>((v >> (e - 5)) & 31u);
  return kLinearCutoff + (e - 6) * kSubBuckets + sub;
}

std::uint64_t QuantileDigest::bucket_upper(std::uint32_t idx) {
  if (idx < kLinearCutoff) return idx;
  const std::uint32_t e = 6 + (idx - kLinearCutoff) / kSubBuckets;
  const std::uint32_t sub = (idx - kLinearCutoff) % kSubBuckets;
  const std::uint64_t lo =
      (1ull << e) + (static_cast<std::uint64_t>(sub) << (e - 5));
  return lo + ((1ull << (e - 5)) - 1);
}

void QuantileDigest::add(std::uint64_t value, std::uint64_t weight) {
  if (weight == 0) return;
  buckets_[bucket_index(value)] += weight;
  if (count_ == 0 || value < min_) min_ = value;
  if (value > max_) max_ = value;
  count_ += weight;
  sum_ += value * weight;
}

double QuantileDigest::mean() const {
  return count_ == 0
             ? 0.0
             : static_cast<double>(sum_) / static_cast<double>(count_);
}

std::uint64_t QuantileDigest::quantile(double q) const {
  if (count_ == 0) return 0;
  q = std::min(1.0, std::max(0.0, q));
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  const std::uint64_t target = std::max<std::uint64_t>(1, rank);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    cum += buckets_[i];
    if (cum >= target) {
      // Clamp to the exact extremes: the top bucket's upper bound can
      // overshoot max(), and conservative rounding never needs to
      // undershoot min().
      return std::min(max_, std::max(min_, bucket_upper(
                                               static_cast<std::uint32_t>(i))));
    }
  }
  return max_;
}

void QuantileDigest::clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
}

// ---------------------------------------------------------------------------
// TelemetryProbe

TelemetryProbe::TelemetryProbe(TelemetryOptions opts) : opts_(opts) {
  opts_.every_k = std::max(1u, opts_.every_k);
}

bool TelemetryProbe::wants_channel_state(std::uint32_t cycle) const {
  return opts_.every_k <= 1 || (cycle - 1) % opts_.every_k == 0;
}

void TelemetryProbe::flush_window() {
  if (win_.cycles == 0) return;
  attempts_.push(win_.start, win_.cycles, win_.cycles, win_.attempts);
  losses_.push(win_.start, win_.cycles, win_.cycles, win_.losses);
  delivered_.push(win_.start, win_.cycles, win_.cycles, win_.delivered);
  backoffs_.push(win_.start, win_.cycles, win_.cycles, win_.backoffs);
  gave_up_.push(win_.start, win_.cycles, win_.cycles, win_.gave_up);
  pending_.push(win_.start, win_.cycles, win_.cycles, win_.pending);
  channels_down_.push(win_.start, win_.cycles, win_.cycles,
                      win_.channels_down);
  win_ = {};
}

void TelemetryProbe::on_cycle(const CycleSnapshot& s) {
  ++cycles_seen_;

  // Global counter series: every cycle folds into the current window so
  // totals conserve exactly at any sampling rate.
  if (win_.cycles == 0) win_.start = s.cycle;
  ++win_.cycles;
  win_.attempts += s.attempts;
  win_.losses += s.losses;
  win_.delivered += s.delivered;
  win_.backoffs += s.backoffs;
  win_.gave_up += s.gave_up;
  win_.pending += s.pending_before;
  win_.channels_down += s.channels_down;
  if (win_.cycles >= opts_.every_k) flush_window();

  if (s.latencies != nullptr) {
    for (const LatencySample& l : *s.latencies) {
      latency_.add(l.latency);
      // The lossy engine's ideal is always 1 (one contention-free cycle);
      // skip the rounding divide on that hot path.
      const std::uint64_t milli =
          l.ideal <= 1
              ? static_cast<std::uint64_t>(l.latency) * 1000
              : (static_cast<std::uint64_t>(l.latency) * 1000 + l.ideal / 2) /
                    l.ideal;
      stretch_.add(milli);
    }
  }

  // Channel-state family: only on sampled cycles (the engine hands
  // loads == nullptr on the rest, and a fanout partner may force it on
  // cycles we did not ask for — skip those to keep this probe's streams
  // independent of co-observers).
  if (s.graph == nullptr || s.loads == nullptr ||
      !wants_channel_state(s.cycle)) {
    return;
  }
  const ChannelGraph& g = *s.graph;
  if (graph_seen_) {
    FT_CHECK_MSG(
        g.num_channels() == graph_channels_ &&
            g.num_levels() == graph_levels_,
        "TelemetryProbe observed a different graph shape; call reset() "
        "between runs over different topologies");
  } else {
    graph_seen_ = true;
    graph_channels_ = g.num_channels();
    graph_levels_ = g.num_levels();
    level_carried_.assign(graph_levels_, TelemetryRing());
    level_capacity_ = g.budget_capacity_by_level();
  }

  // One pass over the cycle's load list: per-level occupancy sums plus
  // the per-level argmax-carried channel, which is the (deterministic)
  // candidate feed of the hottest-channel sketch — O(levels) sketch adds
  // per sample instead of O(channels). List order differs between
  // executors, so ties go to the lowest channel id.
  const std::uint32_t levels = graph_levels_;
  level_sum_.assign(levels, 0);
  argmax_chan_.assign(levels, 0);
  argmax_val_.assign(levels, 0);
  for (const ChannelLoad& l : *s.loads) {
    if (!g.in_budget(l.channel)) continue;
    const std::uint32_t lvl = g.level_of(l.channel);
    level_sum_[lvl] += l.carried;
    if (l.carried > argmax_val_[lvl] ||
        (l.carried == argmax_val_[lvl] && l.channel < argmax_chan_[lvl])) {
      argmax_val_[lvl] = l.carried;
      argmax_chan_[lvl] = l.channel;
    }
  }
  for (std::uint32_t lvl = 0; lvl < levels; ++lvl) {
    level_carried_[lvl].push(s.cycle, opts_.every_k, 1, level_sum_[lvl]);
    if (argmax_val_[lvl] > 0) {
      sketch_.add(argmax_chan_[lvl], argmax_val_[lvl], lvl);
    }
  }
}

const TelemetryRing& TelemetryProbe::level_series(std::uint32_t level) const {
  FT_CHECK_MSG(level < level_carried_.size(), "telemetry level out of range");
  return level_carried_[level];
}

std::uint64_t TelemetryProbe::level_capacity(std::uint32_t level) const {
  FT_CHECK_MSG(level < level_capacity_.size(), "telemetry level out of range");
  return level_capacity_[level];
}

const TelemetryRing* TelemetryProbe::series(std::string_view name) const {
  if (name == "attempts") return &attempts_;
  if (name == "losses") return &losses_;
  if (name == "delivered") return &delivered_;
  if (name == "backoffs") return &backoffs_;
  if (name == "gave_up") return &gave_up_;
  if (name == "pending") return &pending_;
  if (name == "channels_down") return &channels_down_;
  return nullptr;
}

void TelemetryProbe::finalize() {
  flush_window();
  for (TelemetryRing& r : level_carried_) r.flush();
  attempts_.flush();
  losses_.flush();
  delivered_.flush();
  backoffs_.flush();
  gave_up_.flush();
  pending_.flush();
  channels_down_.flush();
}

std::uint64_t TelemetryProbe::fingerprint() {
  finalize();
  std::uint64_t h = kFnvOffset;
  h = fnv_mix(h, cycles_seen_);
  h = fnv_mix(h, level_carried_.size());
  for (std::size_t lvl = 0; lvl < level_carried_.size(); ++lvl) {
    h = fnv_mix(h, level_capacity_[lvl]);
    h = mix_ring(h, level_carried_[lvl]);
  }
  for (const char* name : {"attempts", "losses", "delivered", "backoffs",
                           "gave_up", "pending", "channels_down"}) {
    h = mix_ring(h, *series(name));
  }
  h = fnv_mix(h, sketch_.total_weight());
  for (const SpaceSavingSketch::Entry& e : sketch_.top()) {
    h = fnv_mix(h, e.key);
    h = fnv_mix(h, e.count);
    h = fnv_mix(h, e.error);
    h = fnv_mix(h, e.tag);
  }
  h = mix_digest(h, latency_);
  h = mix_digest(h, stretch_);
  return h;
}

JsonValue TelemetryProbe::to_json() {
  finalize();
  JsonValue out = JsonValue::object();
  JsonValue& cfg = out["config"];
  cfg["every_k"] = opts_.every_k;
  cfg["ring_capacity"] = static_cast<std::uint64_t>(attempts_.capacity());
  cfg["top_k"] = static_cast<std::uint64_t>(sketch_.capacity());
  cfg["latency"] = true;
  out["cycles"] = cycles_seen_;
  out["fingerprint_hex"] = [this] {
    char buf[17];
    std::uint64_t h = fingerprint();
    for (int i = 15; i >= 0; --i) {
      buf[i] = "0123456789abcdef"[h & 0xf];
      h >>= 4;
    }
    buf[16] = '\0';
    return std::string(buf);
  }();

  JsonValue& levels = out["levels"];
  levels = JsonValue::array();
  for (std::uint32_t lvl = 0; lvl < num_levels(); ++lvl) {
    JsonValue entry = JsonValue::object();
    entry["level"] = lvl;
    entry["capacity"] = level_capacity_[lvl];
    entry["stride"] = level_carried_[lvl].stride();
    JsonValue& samples = entry["samples"];
    samples = JsonValue::array();
    for (const TelemetrySample& sm : level_carried_[lvl].samples()) {
      JsonValue s = sample_json(sm);
      const double denom = static_cast<double>(level_capacity_[lvl]) *
                           static_cast<double>(sm.count);
      s["utilization"] =
          denom > 0.0 ? static_cast<double>(sm.value) / denom : 0.0;
      samples.push_back(std::move(s));
    }
    levels.push_back(std::move(entry));
  }

  JsonValue& series = out["series"];
  series = JsonValue::object();
  for (const char* name : {"attempts", "losses", "delivered", "backoffs",
                           "gave_up", "pending", "channels_down"}) {
    JsonValue& arr = series[name];
    arr = JsonValue::array();
    for (const TelemetrySample& sm : this->series(name)->samples()) {
      arr.push_back(sample_json(sm));
    }
  }

  JsonValue& tops = out["top_channels"];
  tops = JsonValue::array();
  for (const SpaceSavingSketch::Entry& e : sketch_.top()) {
    JsonValue t = JsonValue::object();
    t["channel"] = e.key;
    t["level"] = e.tag;
    t["count"] = e.count;
    t["error"] = e.error;
    tops.push_back(std::move(t));
  }

  out["latency"] = digest_json(latency_, 1.0);
  out["stretch"] = digest_json(stretch_, 1e-3);
  return out;
}

void TelemetryProbe::write_heatmap_csv(std::ostream& os) {
  finalize();
  os << "level,start_cycle,span,sampled_cycles,carried,utilization\n";
  for (std::uint32_t lvl = 0; lvl < num_levels(); ++lvl) {
    for (const TelemetrySample& sm : level_carried_[lvl].samples()) {
      const double denom = static_cast<double>(level_capacity_[lvl]) *
                           static_cast<double>(sm.count);
      const double util =
          denom > 0.0 ? static_cast<double>(sm.value) / denom : 0.0;
      os << lvl << ',' << sm.start_cycle << ',' << sm.span << ',' << sm.count
         << ',' << sm.value << ',' << util << '\n';
    }
  }
}

void TelemetryProbe::write_heatmap_jsonl(std::ostream& os) {
  finalize();
  const auto write_line = [&os](JsonValue& line) {
    line.write(os, 0);
    os << '\n';
  };
  for (std::uint32_t lvl = 0; lvl < num_levels(); ++lvl) {
    for (const TelemetrySample& sm : level_carried_[lvl].samples()) {
      JsonValue line = sample_json(sm);
      line["type"] = "series";
      line["name"] = "level" + std::to_string(lvl) + ".carried";
      line["level"] = lvl;
      const double denom = static_cast<double>(level_capacity_[lvl]) *
                           static_cast<double>(sm.count);
      line["utilization"] =
          denom > 0.0 ? static_cast<double>(sm.value) / denom : 0.0;
      write_line(line);
    }
  }
  for (const char* name : {"attempts", "losses", "delivered", "backoffs",
                           "gave_up", "pending", "channels_down"}) {
    for (const TelemetrySample& sm : series(name)->samples()) {
      JsonValue line = sample_json(sm);
      line["type"] = "series";
      line["name"] = name;
      write_line(line);
    }
  }
  {
    JsonValue line = JsonValue::object();
    line["type"] = "top_channels";
    line["total_weight"] = sketch_.total_weight();
    JsonValue& arr = line["channels"];
    arr = JsonValue::array();
    for (const SpaceSavingSketch::Entry& e : sketch_.top()) {
      JsonValue t = JsonValue::object();
      t["channel"] = e.key;
      t["level"] = e.tag;
      t["count"] = e.count;
      t["error"] = e.error;
      arr.push_back(std::move(t));
    }
    write_line(line);
  }
  {
    JsonValue line = JsonValue::object();
    line["type"] = "latency";
    line["latency"] = digest_json(latency_, 1.0);
    line["stretch"] = digest_json(stretch_, 1e-3);
    write_line(line);
  }
}

void TelemetryProbe::reset() {
  graph_seen_ = false;
  graph_channels_ = 0;
  graph_levels_ = 0;
  cycles_seen_ = 0;
  level_carried_.clear();
  level_capacity_.clear();
  level_sum_.clear();
  argmax_chan_.clear();
  argmax_val_.clear();
  sketch_.clear();
  win_ = {};
  attempts_.clear();
  losses_.clear();
  delivered_.clear();
  backoffs_.clear();
  gave_up_.clear();
  pending_.clear();
  channels_down_.clear();
  latency_.clear();
  stretch_.clear();
}

}  // namespace ft
