// TraceSink: records the CycleEngine's per-cycle snapshots and per-message
// lifecycle events (inject, attempt, hop, loss, deliver, give-up) and
// exports them as line-oriented JSONL or Chrome trace_event JSON that
// loads directly in chrome://tracing and ui.perfetto.dev. Recording rides
// the engine's serial callback path, so the captured event stream is
// identical for serial and parallel runs of the same seed.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "engine/observer.hpp"

namespace ft {

/// Per-cycle scalars copied out of a CycleSnapshot plus the per-level
/// carried tally (computed from the graph's level tags while the
/// snapshot's borrowed pointers are still valid).
struct TraceCycleRecord {
  std::uint32_t cycle = 0;
  std::size_t pending_before = 0;
  std::uint32_t delivered = 0;
  std::uint64_t attempts = 0;
  std::uint64_t losses = 0;
  std::uint32_t peak_queue = 0;
  // Fault / retry lifecycle (zero on fault-free runs; omitted from the
  // JSONL cycle record when zero so fault-free output is unchanged).
  std::uint32_t faults_down = 0;
  std::uint32_t faults_up = 0;
  std::uint32_t subtree_kills = 0;
  std::uint32_t channels_down = 0;
  std::uint64_t degraded_channels = 0;
  std::uint32_t backoffs = 0;
  std::uint32_t gave_up = 0;
  std::vector<std::uint64_t> carried_by_level;
  /// Message events recorded so far when this cycle closed — events with
  /// index < events_end belong to this cycle or an earlier one.
  std::size_t events_end = 0;
};

struct TraceOptions {
  /// Cap on recorded message events (the expensive part: one event per
  /// message per cycle in lossy mode); 0 = unbounded. Excess events are
  /// dropped and counted so a truncated trace is detectable. Cycle
  /// records are always kept.
  std::size_t max_events = 0;
};

class TraceSink final : public EngineObserver {
 public:
  explicit TraceSink(TraceOptions opts = {}) : opts_(opts) {}

  void on_cycle(const CycleSnapshot& s) override;
  bool wants_message_events() const override { return true; }
  void on_message_event(const MessageEvent& e) override;

  const std::vector<MessageEvent>& message_events() const { return events_; }
  const std::vector<TraceCycleRecord>& cycle_records() const {
    return cycles_;
  }
  std::uint64_t dropped_events() const { return dropped_; }
  void clear();

  /// One JSON object per line, message events interleaved before their
  /// cycle's record:
  ///   {"type":"inject","msg":3,"cycle":1,"channel":7}
  ///   {"type":"cycle","cycle":1,"delivered":12,...}
  void write_jsonl(std::ostream& os) const;

  /// Chrome trace_event JSON: delivery cycles as duration slices ("X",
  /// kTicksPerCycle µs each, strictly increasing ts), engine counters as
  /// counter tracks ("C"), message events as instants ("i") offset within
  /// their cycle's slice by event kind so intra-cycle order survives.
  void write_chrome_trace(std::ostream& os) const;

  /// Ticks (Chrome trace µs) per delivery cycle.
  static constexpr std::uint64_t kTicksPerCycle = 1000;

  static const char* kind_name(MessageEventKind k);

 private:
  TraceOptions opts_;
  std::vector<MessageEvent> events_;
  std::vector<TraceCycleRecord> cycles_;
  std::uint64_t dropped_ = 0;
};

}  // namespace ft
