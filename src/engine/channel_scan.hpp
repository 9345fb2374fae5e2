// The in-budget channel scan: which channels of a ChannelGraph count as
// live, wire-budgeted capacity. The telemetry probe walks the compact
// (channel, level) list built here once per graph; the engine's
// adaptive-occupancy feedback asks the same predicate about each channel
// it would throttle. Both share this one definition so "the channels the
// probe watches" and "the channels congestion feedback acts on" can never
// drift apart.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/channel_graph.hpp"

namespace ft {

struct ChannelScanEntry {
  std::uint32_t channel;
  std::uint32_t level;
};

/// True for a channel with nonzero capacity that counts against the wire
/// budget. Channels excluded here are exactly the ones the telemetry probe
/// never aggregates (external interfaces, padding), and the adaptive
/// policy never throttles on them either.
inline bool in_scan(const ChannelGraph& g, std::size_t c) {
  return g.capacity[c] != 0 && g.in_wire_budget[c] != 0;
}

/// Every in_scan channel, ascending channel order.
inline std::vector<ChannelScanEntry> build_channel_scan(
    const ChannelGraph& g) {
  std::vector<ChannelScanEntry> scan;
  for (std::size_t c = 0; c < g.num_channels(); ++c) {
    if (!in_scan(g, c)) continue;
    scan.push_back({static_cast<std::uint32_t>(c), g.level[c]});
  }
  return scan;
}

}  // namespace ft
