#include "engine/store_forward_rounds.hpp"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "engine/chunked_ring.hpp"
#include "util/check.hpp"
#include "util/parse.hpp"
#include "util/thread_pool.hpp"

namespace ft {

RoundsResult store_forward_rounds(const ChannelGraph& graph,
                                  const PathSet& paths,
                                  const StoreForwardOptions& opts) {
  const std::size_t num_channels = graph.num_channels();
  const std::uint32_t* chans = paths.channels().data();
  const std::uint32_t* offs = paths.offsets().data();
  // Every hop must be a channel a message may use (ChannelGraph::in_budget),
  // checked once before round 1. FIFO queues ignore stage order.
  for (const std::uint32_t c : paths.channels()) {
    FT_CHECK_MSG(c < num_channels && graph.in_budget(c),
                 "path uses an unknown channel");
  }
  // A channel forwards up to its capacity a round, clamped to 2^32 - 1
  // without changing a decision: queues hold fewer than 2^32 messages.
  std::vector<std::uint32_t> limit(num_channels);
  for (std::size_t c = 0; c < num_channels; ++c) {
    limit[c] = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(graph.capacity_of(c), 0xffffffffu));
  }
  std::unique_ptr<ThreadPool> pool;
  if (opts.parallel) {
    const std::size_t threads = resolve_threads(opts.threads);
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  }

  RoundsResult result;
  std::vector<ChannelLoad> loads;
  std::vector<LatencySample> lat_samples;
  CycleFrame f(graph, opts.observer, opts.fault_plan, opts.max_rounds, result,
               loads, lat_samples);
  EngineObserver* const observer = opts.observer;
  const bool trace = f.trace();
  const bool lat_on = f.lat_on();
  std::vector<ChunkedRing> queues(num_channels);
  // Absolute cursor of each message within the CSR buffer; message i is
  // delivered when its cursor reaches offs[i + 1].
  std::vector<std::uint32_t> pos(paths.size());

  std::size_t in_flight = 0;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const auto id = static_cast<std::uint32_t>(i);
    pos[i] = offs[i];
    if (offs[i] == offs[i + 1]) {
      ++result.delivered;  // local message, finishes at round 0
      if (trace) {
        observer->on_message_event(
            {MessageEventKind::Inject, id, 0, kNoChannel});
        observer->on_message_event(
            {MessageEventKind::Deliver, id, 0, kNoChannel});
      }
      continue;
    }
    queues[chans[offs[i]]].push(id);
    ++in_flight;
    if (trace) {
      observer->on_message_event(
          {MessageEventKind::Inject, id, 0, chans[offs[i]]});
    }
  }

  // Each round every channel forwards up to its limit in FIFO order;
  // arrivals are buffered so a message moves at most one hop per round.
  // When tracing, each range logs its Hop/Deliver events; the serial
  // merge below replays them in range (= ascending channel) order, so the
  // event stream is identical at any thread count. Channel state is
  // logged and merged the same way. Cache-line aligned:
  // each range's scalars are rewritten by its worker every round, and
  // adjacent elements of `outs` would otherwise share lines.
  struct alignas(64) RangeOut {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> arrivals;
    std::vector<MessageEvent> events;
    std::vector<LatencySample> lat;
    std::vector<ChannelLoad> loads;
    double latency_sum = 0.0;
    std::uint32_t finished = 0;
    std::uint64_t forwards = 0;
    std::uint32_t max_queue = 0;
  };

  // Channel ranges are fixed for the whole run; arrivals are merged in
  // range order, so queue contents are identical at any thread count.
  std::size_t num_ranges = 1;
  if (pool != nullptr) {
    num_ranges = std::min<std::size_t>(pool->size() * 2,
                                       std::max<std::size_t>(1, num_channels));
  }
  const std::size_t range_len = (num_channels + num_ranges - 1) / num_ranges;
  std::vector<RangeOut> outs(num_ranges);
  CycleStart round;

  auto process_range = [&](std::size_t r) {
    RangeOut& out = outs[r];
    out.arrivals.clear();
    out.events.clear();
    out.lat.clear();
    out.loads.clear();
    out.latency_sum = 0.0;
    out.finished = 0;
    out.forwards = 0;
    out.max_queue = 0;
    const std::size_t lo = r * range_len;
    const std::size_t hi = std::min(num_channels, lo + range_len);
    for (std::size_t lid = lo; lid < hi; ++lid) {
      ChunkedRing& q = queues[lid];
      const std::uint64_t cap = round.limits[lid];
      std::uint32_t forwarded = 0;
      for (; forwarded < cap && !q.empty(); ++forwarded) {
        const std::uint32_t msg = q.pop();
        ++out.forwards;
        if (trace) {
          out.events.push_back({MessageEventKind::Hop, msg, round.cycle,
                                static_cast<std::uint32_t>(lid)});
        }
        if (++pos[msg] == offs[msg + 1]) {
          out.latency_sum += round.cycle;
          ++out.finished;
          // Finish round vs the path's contention-free round count: a
          // message that never queued behind anyone has stretch 1.
          if (lat_on) {
            out.lat.push_back({round.cycle, offs[msg + 1] - offs[msg]});
          }
          if (trace) {
            out.events.push_back({MessageEventKind::Deliver, msg, round.cycle,
                                  static_cast<std::uint32_t>(lid)});
          }
        } else {
          out.arrivals.emplace_back(chans[pos[msg]], msg);
        }
      }
      if (round.want_loads && forwarded > 0) {
        out.loads.push_back({static_cast<std::uint32_t>(lid), forwarded});
      }
      out.max_queue = std::max(out.max_queue,
                               static_cast<std::uint32_t>(q.size()));
    }
  };

  while (in_flight > 0) {
    round = f.begin_cycle(limit);
    if (num_ranges > 1) {
      pool->run_tasks(num_ranges, [&](std::size_t r) { process_range(r); });
    } else {
      process_range(0);
    }

    std::uint32_t finished = 0;
    std::uint32_t round_peak = 0;
    std::uint64_t round_forwards = 0;
    for (std::size_t r = 0; r < num_ranges; ++r) {
      const RangeOut& out = outs[r];
      finished += out.finished;
      result.latency_sum += out.latency_sum;
      round_forwards += out.forwards;
      round_peak = std::max(round_peak, out.max_queue);
      for (const auto& [lid, msg] : out.arrivals) queues[lid].push(msg);
      // Ranges partition channels in ascending order, so this merge
      // yields one deterministic (ascending final channel) sample order
      // at any thread count.
      if (lat_on) {
        lat_samples.insert(lat_samples.end(), out.lat.begin(), out.lat.end());
      }
      loads.insert(loads.end(), out.loads.begin(), out.loads.end());
      if (trace) {
        for (const MessageEvent& e : out.events) {
          observer->on_message_event(e);
        }
      }
    }
    result.total_hops += round_forwards;
    result.max_queue = std::max(result.max_queue, round_peak);
    // A round may legitimately stall while faults hold channels down; the
    // no-progress invariant only applies at full health.
    FT_CHECK_MSG(round_forwards > 0 || f.channels_down() > 0,
                 "store-and-forward round made no progress");
    in_flight -= finished;

    CycleSnapshot snap;
    snap.pending_before = in_flight + finished;
    snap.delivered = finished;
    snap.attempts = round_forwards;
    snap.peak_queue = round_peak;
    if (!f.end_cycle(snap, in_flight > 0)) break;
  }
  if (result.gave_up && trace) {
    const auto last_round = static_cast<std::uint32_t>(result.cycles);
    for (std::size_t lid = 0; lid < num_channels; ++lid) {
      ChunkedRing& q = queues[lid];
      while (!q.empty()) {
        observer->on_message_event({MessageEventKind::GiveUp, q.pop(),
                                    last_round,
                                    static_cast<std::uint32_t>(lid)});
      }
    }
  }
  return result;
}

}  // namespace ft
