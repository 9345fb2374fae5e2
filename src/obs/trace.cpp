#include "obs/trace.hpp"

#include <ostream>

#include "obs/json.hpp"

namespace ft {
namespace {

/// Intra-cycle tick offset per event kind: events of one cycle land inside
/// the cycle's [start, start + kTicksPerCycle) slice in lifecycle order.
std::uint64_t kind_offset(MessageEventKind k) {
  switch (k) {
    case MessageEventKind::SubtreeKill: return 30;
    case MessageEventKind::FaultDown: return 40;
    case MessageEventKind::FaultUp: return 50;
    case MessageEventKind::Inject: return 100;
    case MessageEventKind::Attempt: return 200;
    case MessageEventKind::Hop: return 500;
    case MessageEventKind::Loss: return 700;
    case MessageEventKind::Deliver: return 800;
    case MessageEventKind::Backoff: return 850;
    case MessageEventKind::GiveUp: return 900;
  }
  return 0;
}

std::uint64_t cycle_start_ticks(std::uint32_t cycle) {
  // Cycle numbering is 1-based (0 = FIFO injection "round 0"); map cycle c
  // to tick c * kTicksPerCycle so round 0 starts at tick 0.
  return static_cast<std::uint64_t>(cycle) * TraceSink::kTicksPerCycle;
}

JsonValue event_args(const MessageEvent& e) {
  JsonValue args = JsonValue::object();
  // Channel-state events (FaultDown/FaultUp) carry no message id, and a
  // SubtreeKill's channel field is the struck domain's node label.
  if (e.message != kNoMessage) args["message"] = e.message;
  args["cycle"] = e.cycle;
  if (e.channel != kNoChannel) {
    args[e.kind == MessageEventKind::SubtreeKill ? "node" : "channel"] =
        e.channel;
  }
  return args;
}

}  // namespace

const char* TraceSink::kind_name(MessageEventKind k) {
  switch (k) {
    case MessageEventKind::Inject: return "inject";
    case MessageEventKind::Attempt: return "attempt";
    case MessageEventKind::Hop: return "hop";
    case MessageEventKind::Loss: return "loss";
    case MessageEventKind::Deliver: return "deliver";
    case MessageEventKind::Backoff: return "backoff";
    case MessageEventKind::GiveUp: return "give_up";
    case MessageEventKind::FaultDown: return "fault_down";
    case MessageEventKind::FaultUp: return "fault_up";
    case MessageEventKind::SubtreeKill: return "subtree_kill";
  }
  return "unknown";
}

void TraceSink::on_cycle(const CycleSnapshot& s) {
  TraceCycleRecord rec;
  rec.cycle = s.cycle;
  rec.pending_before = s.pending_before;
  rec.delivered = s.delivered;
  rec.attempts = s.attempts;
  rec.losses = s.losses;
  rec.peak_queue = s.peak_queue;
  rec.faults_down = s.faults_down;
  rec.faults_up = s.faults_up;
  rec.subtree_kills = s.subtree_kills;
  rec.channels_down = s.channels_down;
  rec.degraded_channels = s.degraded_channels;
  rec.backoffs = s.backoffs;
  rec.gave_up = s.gave_up;
  rec.events_end = events_.size();
  if (s.graph != nullptr && s.loads != nullptr) {
    rec.carried_by_level.assign(s.graph->num_levels(), 0);
    for (const ChannelLoad& l : *s.loads) {
      rec.carried_by_level[s.graph->level_of(l.channel)] += l.carried;
    }
  }
  cycles_.push_back(std::move(rec));
}

void TraceSink::on_message_event(const MessageEvent& e) {
  if (opts_.max_events != 0 && events_.size() >= opts_.max_events) {
    ++dropped_;
    return;
  }
  events_.push_back(e);
}

void TraceSink::clear() {
  events_.clear();
  cycles_.clear();
  dropped_ = 0;
}

void TraceSink::write_jsonl(std::ostream& os) const {
  std::size_t next_event = 0;
  const auto flush_events = [&](std::size_t end) {
    for (; next_event < end && next_event < events_.size(); ++next_event) {
      const MessageEvent& e = events_[next_event];
      JsonValue line = JsonValue::object();
      line["type"] = kind_name(e.kind);
      if (e.message != kNoMessage) line["msg"] = e.message;
      line["cycle"] = e.cycle;
      if (e.channel != kNoChannel) {
        line[e.kind == MessageEventKind::SubtreeKill ? "node" : "channel"] =
            e.channel;
      }
      line.write(os, 0);
      os << '\n';
    }
  };
  for (const TraceCycleRecord& rec : cycles_) {
    flush_events(rec.events_end);
    JsonValue line = JsonValue::object();
    line["type"] = "cycle";
    line["cycle"] = rec.cycle;
    line["pending_before"] = static_cast<std::uint64_t>(rec.pending_before);
    line["delivered"] = rec.delivered;
    line["attempts"] = rec.attempts;
    line["losses"] = rec.losses;
    if (rec.peak_queue != 0) line["peak_queue"] = rec.peak_queue;
    if (rec.faults_down != 0) line["faults_down"] = rec.faults_down;
    if (rec.faults_up != 0) line["faults_up"] = rec.faults_up;
    if (rec.subtree_kills != 0) line["subtree_kills"] = rec.subtree_kills;
    if (rec.channels_down != 0) line["channels_down"] = rec.channels_down;
    if (rec.degraded_channels != 0) {
      line["degraded_channels"] = rec.degraded_channels;
    }
    if (rec.backoffs != 0) line["backoffs"] = rec.backoffs;
    if (rec.gave_up != 0) line["gave_up"] = rec.gave_up;
    if (!rec.carried_by_level.empty()) {
      JsonValue& lv = line["carried_by_level"];
      lv = JsonValue::array();
      for (const std::uint64_t c : rec.carried_by_level) lv.push_back(c);
    }
    line.write(os, 0);
    os << '\n';
  }
  // Events past the last cycle record (give-ups after the engine stopped).
  flush_events(events_.size());
  if (dropped_ != 0) {
    JsonValue line = JsonValue::object();
    line["type"] = "dropped_events";
    line["count"] = dropped_;
    line.write(os, 0);
    os << '\n';
  }
}

void TraceSink::write_chrome_trace(std::ostream& os) const {
  JsonValue doc = JsonValue::object();
  JsonValue& ev = doc["traceEvents"];
  ev = JsonValue::array();

  const auto base = [](const char* name, const char* ph, std::uint64_t ts) {
    JsonValue e = JsonValue::object();
    e["name"] = name;
    e["ph"] = ph;
    e["ts"] = ts;
    e["pid"] = 0;
    return e;
  };

  // Delivery cycles as duration slices on tid 0, in strictly increasing
  // ts order (the acceptance check for a well-formed trace).
  for (const TraceCycleRecord& rec : cycles_) {
    const std::uint64_t start = cycle_start_ticks(rec.cycle - 1);
    JsonValue slice = base("cycle", "X", start);
    slice["tid"] = 0;
    slice["dur"] = kTicksPerCycle;
    slice["cat"] = "engine";
    JsonValue& args = slice["args"];
    args["cycle"] = rec.cycle;
    args["pending_before"] = static_cast<std::uint64_t>(rec.pending_before);
    args["delivered"] = rec.delivered;
    args["attempts"] = rec.attempts;
    args["losses"] = rec.losses;
    if (rec.peak_queue != 0) args["peak_queue"] = rec.peak_queue;
    if (rec.channels_down != 0) args["channels_down"] = rec.channels_down;
    if (rec.backoffs != 0) args["backoffs"] = rec.backoffs;
    if (rec.gave_up != 0) args["gave_up"] = rec.gave_up;
    ev.push_back(std::move(slice));

    JsonValue pending = base("pending", "C", start);
    pending["args"]["pending"] = static_cast<std::uint64_t>(rec.pending_before);
    ev.push_back(std::move(pending));

    JsonValue flow = base("throughput", "C", start);
    flow["args"]["delivered"] = rec.delivered;
    flow["args"]["losses"] = rec.losses;
    ev.push_back(std::move(flow));
  }

  // Message lifecycle events as instants on tid 1, offset within their
  // cycle's slice by kind so the lifecycle order is visible in the UI.
  for (const MessageEvent& e : events_) {
    const std::uint32_t cycle_index = e.cycle == 0 ? 0 : e.cycle - 1;
    JsonValue inst =
        base(kind_name(e.kind), "i",
             cycle_start_ticks(cycle_index) + kind_offset(e.kind));
    inst["tid"] = 1;
    inst["cat"] = "message";
    inst["s"] = "g";
    inst["args"] = event_args(e);
    ev.push_back(std::move(inst));
  }

  doc["displayTimeUnit"] = "ms";
  JsonValue& other = doc["otherData"];
  other["ticks_per_cycle"] = kTicksPerCycle;
  other["dropped_events"] = dropped_;
  doc.write(os, 1);
  os << '\n';
}

}  // namespace ft
