#include "kary/kary_sim.hpp"

#include <algorithm>

#include "engine/kary_model.hpp"

namespace ft {

KarySimResult simulate_kary_permutation(const KaryTree& tree,
                                        const std::vector<std::uint32_t>& perm,
                                        AscentPolicy policy, Rng& rng,
                                        const StoreForwardOptions& opts) {
  KarySimResult result;
  KaryLoadTracker tracker(tree);
  PathSet paths;
  for (std::uint32_t p = 0; p < perm.size(); ++p) {
    const KaryRoute route = kary_route(tree, p, perm[p], policy, rng, tracker);
    result.max_route_hops = std::max(
        result.max_route_hops, static_cast<std::uint32_t>(route.size()));
    paths.append(route.begin(), route.end());
  }
  result.max_link_load = tracker.max_load();
  result.mean_link_load = tracker.mean_positive_load();

  const RoundsResult rr =
      store_forward_rounds(kary_channel_graph(tree), paths, opts);
  result.rounds = rr.cycles;
  result.delivered = rr.delivered;
  result.gave_up = rr.gave_up;
  result.fault_down_events = rr.fault_down_events;
  result.fault_up_events = rr.fault_up_events;
  result.subtree_kill_events = rr.subtree_kill_events;
  return result;
}

}  // namespace ft
