#include "core/faults.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace ft {

CapacityProfile inject_wire_faults(const FatTreeTopology& topo,
                                   const CapacityProfile& caps,
                                   double wire_failure_prob, Rng& rng,
                                   FaultReport* report) {
  FT_CHECK(wire_failure_prob >= 0.0 && wire_failure_prob <= 1.0);
  FaultReport r;
  CapacityProfile out = caps;
  for (NodeId v = 1; v <= topo.num_nodes(); ++v) {
    const std::uint64_t cap = caps.capacity(topo, v);
    r.wires_before += cap;
    std::uint64_t survivors = 0;
    for (std::uint64_t wire = 0; wire < cap; ++wire) {
      if (!rng.chance(wire_failure_prob)) ++survivors;
    }
    const std::uint64_t degraded = std::max<std::uint64_t>(1, survivors);
    r.wires_after += degraded;
    if (degraded < cap) {
      ++r.channels_degraded;
      if (degraded == 1 && cap > 1) ++r.channels_at_floor;
      out.set_channel_capacity(topo, v, degraded);
    }
  }
  if (report != nullptr) *report = r;
  return out;
}

CapacityProfile fail_random_channels(const FatTreeTopology& topo,
                                     const CapacityProfile& caps,
                                     std::uint32_t count, Rng& rng,
                                     FaultReport* report) {
  FT_CHECK(count <= topo.num_nodes());
  std::vector<NodeId> nodes(topo.num_nodes());
  for (NodeId v = 1; v <= topo.num_nodes(); ++v) nodes[v - 1] = v;
  rng.shuffle(nodes);

  FaultReport r;
  for (NodeId v = 1; v <= topo.num_nodes(); ++v) {
    r.wires_before += caps.capacity(topo, v);
  }
  CapacityProfile out = caps;
  for (std::uint32_t i = 0; i < count; ++i) {
    const NodeId v = nodes[i];
    // Count only genuine transitions to the floor: a channel already at
    // one wire (in the input, or floored by an earlier pick when profiles
    // are chained) is not degraded again, and the no-op override is
    // skipped. Mirrors inject_wire_faults' `degraded == 1 && cap > 1`.
    if (out.capacity(topo, v) > 1) {
      ++r.channels_degraded;
      ++r.channels_at_floor;
      out.set_channel_capacity(topo, v, 1);
    }
  }
  for (NodeId v = 1; v <= topo.num_nodes(); ++v) {
    r.wires_after += out.capacity(topo, v);
  }
  if (report != nullptr) *report = r;
  return out;
}

}  // namespace ft
