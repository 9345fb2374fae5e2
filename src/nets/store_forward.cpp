#include "nets/store_forward.hpp"

#include <algorithm>
#include <utility>

namespace ft {

StoreForwardResult simulate_store_forward(const Network& net,
                                          const std::vector<Route>& routes,
                                          const StoreForwardOptions& opts) {
  // Link ids are channel ids one-for-one, so a Route is already a path.
  std::vector<std::uint64_t> caps(net.num_links());
  for (std::uint32_t lid = 0; lid < net.num_links(); ++lid) {
    caps[lid] = net.link(lid).capacity;
  }
  PathSet paths;
  for (const Route& r : routes) paths.append(r.begin(), r.end());
  const RoundsResult rr =
      store_forward_rounds(ChannelGraph::flat(std::move(caps)), paths, opts);

  StoreForwardResult result;
  result.rounds = rr.cycles;
  result.delivered = rr.delivered;
  result.total_hops = rr.total_hops;
  result.max_queue = rr.max_queue;
  result.gave_up = rr.gave_up;
  result.fault_down_events = rr.fault_down_events;
  result.fault_up_events = rr.fault_up_events;
  result.subtree_kill_events = rr.subtree_kill_events;
  result.mean_latency =
      rr.delivered == 0
          ? 0.0
          : rr.latency_sum / static_cast<double>(rr.delivered);
  return result;
}

std::uint32_t store_forward_lower_bound(const Network& net,
                                        const std::vector<Route>& routes) {
  std::uint32_t dilation = 0;
  std::vector<std::uint64_t> load(net.num_links(), 0);
  for (const auto& r : routes) {
    dilation = std::max(dilation, static_cast<std::uint32_t>(r.size()));
    for (std::uint32_t lid : r) ++load[lid];
  }
  std::uint64_t congestion = 0;
  for (std::uint32_t lid = 0; lid < net.num_links(); ++lid) {
    congestion = std::max(
        congestion, (load[lid] + net.link(lid).capacity - 1) /
                        net.link(lid).capacity);
  }
  return std::max<std::uint32_t>(dilation,
                                 static_cast<std::uint32_t>(congestion));
}

}  // namespace ft
