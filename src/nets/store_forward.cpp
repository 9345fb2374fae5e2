#include "nets/store_forward.hpp"

#include <algorithm>

#include "engine/engine.hpp"
#include "engine/network_model.hpp"

namespace ft {

StoreForwardResult simulate_store_forward(const Network& net,
                                          const std::vector<Route>& routes,
                                          const StoreForwardOptions& opts) {
  EngineOptions eopts;
  eopts.contention = ContentionPolicy::Fifo;
  eopts.parallel = opts.parallel;
  eopts.threads = opts.threads;
  eopts.fault_plan = opts.fault_plan;
  eopts.max_cycles = opts.max_rounds;

  CycleEngine engine(network_channel_graph(net), eopts);
  RouteChunkSource source(routes);
  const EngineResult er = engine.run_stream(source, opts.observer);

  StoreForwardResult result;
  result.rounds = er.cycles;
  result.delivered = er.delivered;
  result.total_hops = er.total_hops;
  result.max_queue = er.max_queue;
  result.gave_up = er.gave_up;
  result.fault_down_events = er.fault_down_events;
  result.fault_up_events = er.fault_up_events;
  result.subtree_kill_events = er.subtree_kill_events;
  result.mean_latency =
      routes.empty() ? 0.0
                     : er.latency_sum / static_cast<double>(routes.size());
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
