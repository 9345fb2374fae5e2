#include "kary/kary_sim.hpp"

#include <algorithm>

#include "engine/engine.hpp"
#include "engine/kary_model.hpp"

namespace ft {

KarySimResult simulate_kary_permutation(const KaryTree& tree,
                                        const std::vector<std::uint32_t>& perm,
                                        AscentPolicy policy, Rng& rng,
                                        const KarySimOptions& opts) {
  KarySimResult result;
  KaryLoadTracker tracker(tree);

  EngineOptions eopts;
  eopts.contention = ContentionPolicy::Fifo;
  eopts.parallel = opts.parallel;
  eopts.threads = opts.threads;
  eopts.fault_plan = opts.fault_plan;

  CycleEngine engine(kary_channel_graph(tree), eopts);
  // Routes are generated as the engine ingests them; the tracker and
  // max_route_hops are final once run_stream has drained the source.
  KaryRouteSource source(tree, perm, policy, rng, tracker);
  const EngineResult er = engine.run_stream(source, opts.observer);
  result.max_route_hops = source.max_route_hops();
  result.max_link_load = tracker.max_load();
  result.mean_link_load = tracker.mean_positive_load();
  result.rounds = er.cycles;
  result.delivered = er.delivered;
  result.fault_down_events = er.fault_down_events;
  result.fault_up_events = er.fault_up_events;
  result.subtree_kill_events = er.subtree_kill_events;
  return result;
}

}  // namespace ft
