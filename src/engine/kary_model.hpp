// k-ary n-tree channel model: the tree's dense link ids become channel
// indices one-for-one (unit capacity, as in the E13 contention model), so
// a KaryRoute is already a path of the flat graph. Used by the k-ary
// permutation simulation's store-and-forward rounds, and by its fault
// plans' pod domains.
#pragma once

#include "engine/channel_graph.hpp"
#include "engine/fault_plan.hpp"
#include "kary/kary_tree.hpp"

namespace ft {

inline ChannelGraph kary_channel_graph(const KaryTree& tree) {
  return ChannelGraph::flat(
      std::vector<std::uint64_t>(tree.num_links(), 1));
}

/// Correlated-failure domain of the pod whose processors share the
/// `depth` most-significant base-k digits `prefix` (depth in
/// [1, levels-1]) — the k-ary analogue of a fat-tree subtree. Contains
/// every link incident to a pod switch: up links out of the pod (its
/// "parent edges" at rank depth included), down links within and out of
/// the pod, the down links feeding it from rank depth-1, and the pod
/// processors' injection links. Labelled k^depth + prefix, the base-k
/// heap number — for k = 2 this matches the fat-tree / binary-tree heap
/// node, so one kill scenario lines up across backends.
inline FaultDomain kary_pod_domain(const KaryTree& tree, std::uint32_t depth,
                                   std::uint32_t prefix) {
  FT_CHECK(depth >= 1 && depth < tree.levels());
  const std::uint32_t k = tree.k();
  std::uint32_t pods = 1;  // k^depth
  for (std::uint32_t i = 0; i < depth; ++i) pods *= k;
  FT_CHECK(prefix < pods);

  FaultDomain dom;
  dom.node = pods + prefix;
  const std::uint32_t spl = tree.switches_per_level();
  const std::uint32_t words_in_pod = spl / pods;  // k^(levels-1-depth)
  const std::uint32_t first_word = prefix * words_in_pod;
  for (std::uint32_t l = depth; l < tree.levels(); ++l) {
    for (std::uint32_t w = first_word; w < first_word + words_in_pod; ++w) {
      for (std::uint32_t d = 0; d < k; ++d) {
        dom.channels.push_back(tree.up_link_id(l, w, d));
        dom.channels.push_back(tree.down_link_id(l, w, d));
      }
    }
  }
  // Down links feeding the pod from rank depth-1: parents agree with the
  // pod on digits 0..depth-2 and descend choosing digit depth-1 = the
  // pod prefix's last digit.
  const std::uint32_t parent_group = words_in_pod * k;
  const std::uint32_t first_parent = (prefix / k) * parent_group;
  const std::uint32_t delta = prefix % k;
  for (std::uint32_t w = first_parent; w < first_parent + parent_group; ++w) {
    dom.channels.push_back(tree.down_link_id(depth - 1, w, delta));
  }
  const std::uint32_t procs_per_pod = tree.num_processors() / pods;
  const std::uint32_t first_proc = prefix * procs_per_pod;
  for (std::uint32_t p = first_proc; p < first_proc + procs_per_pod; ++p) {
    dom.channels.push_back(tree.injection_link_id(p));
  }
  return dom;
}

/// Domains for every pod at `depth`: k^depth disjoint pods covering all
/// processors.
inline std::vector<FaultDomain> kary_pod_domains(const KaryTree& tree,
                                                 std::uint32_t depth) {
  std::uint32_t pods = 1;
  for (std::uint32_t i = 0; i < depth; ++i) pods *= tree.k();
  std::vector<FaultDomain> domains;
  domains.reserve(pods);
  for (std::uint32_t prefix = 0; prefix < pods; ++prefix) {
    domains.push_back(kary_pod_domain(tree, depth, prefix));
  }
  return domains;
}

}  // namespace ft
