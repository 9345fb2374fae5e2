#include "engine/fat_tree_model.hpp"

namespace ft {

ChannelGraph fat_tree_channel_graph(const FatTreeTopology& topo,
                                    const CapacityProfile& caps,
                                    std::uint32_t shard_level) {
  const std::uint32_t L = topo.height();
  FT_CHECK_MSG(L <= ChannelGraph::kMaxTreeHeight,
               "fat-tree too tall for the engine's address word");
  ChannelGraph g;
  g.tree_height = L;
  g.level_capacity = caps.levels();
  if (shard_level > 0) {
    FT_CHECK_MSG(shard_level < L,
                 "shard_level must leave at least the leaf level inside "
                 "each shard");
    g.num_shards = 1u << shard_level;
  }
  // Static wire faults override single channels, so only then is a
  // channel's capacity not its level's.
  if (caps.has_overrides()) {
    g.capacity.assign(channel_index_bound(topo), 0);
    for (NodeId v = 1; v <= topo.num_nodes(); ++v) {
      const std::uint64_t cap = caps.capacity(topo, v);
      g.capacity[channel_index(ChannelId{v, Direction::Up})] = cap;
      g.capacity[channel_index(ChannelId{v, Direction::Down})] = cap;
    }
  }
  return g;
}

FaultDomain fat_tree_subtree_domain(const FatTreeTopology& topo, NodeId v) {
  FT_CHECK(v >= 1 && v <= topo.num_nodes());
  FaultDomain dom;
  dom.node = v;
  const std::uint32_t lv = topo.level(v);
  for (std::uint32_t lvl = lv; lvl <= topo.height(); ++lvl) {
    const std::uint32_t shift = lvl - lv;
    const NodeId first = v << shift;
    const NodeId count = NodeId{1} << shift;
    for (NodeId u = first; u < first + count; ++u) {
      dom.channels.push_back(static_cast<std::uint32_t>(
          channel_index(ChannelId{u, Direction::Up})));
      dom.channels.push_back(static_cast<std::uint32_t>(
          channel_index(ChannelId{u, Direction::Down})));
    }
  }
  return dom;
}

std::vector<FaultDomain> fat_tree_subtree_domains(const FatTreeTopology& topo,
                                                  std::uint32_t level) {
  FT_CHECK(level <= topo.height());
  std::vector<FaultDomain> domains;
  const NodeId first = NodeId{1} << level;
  for (NodeId v = first; v < first * 2; ++v) {
    domains.push_back(fat_tree_subtree_domain(topo, v));
  }
  return domains;
}

EnginePath fat_tree_engine_path(const FatTreeTopology& topo, Leaf src,
                                Leaf dst) {
  EnginePath path;
  if (src == dst) return path;
  NodeId a = topo.node_of_leaf(src);
  NodeId b = topo.node_of_leaf(dst);
  EnginePath down;  // collected leaf-upward, reversed into causal order
  while (a != b) {
    path.push_back(static_cast<std::uint32_t>(
        channel_index(ChannelId{a, Direction::Up})));
    down.push_back(static_cast<std::uint32_t>(
        channel_index(ChannelId{b, Direction::Down})));
    a >>= 1;
    b >>= 1;
  }
  path.insert(path.end(), down.rbegin(), down.rend());
  return path;
}

void append_fat_tree_path(const FatTreeTopology& topo, Leaf src, Leaf dst,
                          PathSet& out) {
  if (src != dst) {
    NodeId a = topo.node_of_leaf(src);
    NodeId b = topo.node_of_leaf(dst);
    // Down channels are discovered leaf-upward but traversed root-downward;
    // a tree of 2^64 leaves still only needs 64 slots of scratch.
    std::uint32_t down[64];
    std::uint32_t depth = 0;
    while (a != b) {
      out.push_channel(static_cast<std::uint32_t>(
          channel_index(ChannelId{a, Direction::Up})));
      down[depth++] = static_cast<std::uint32_t>(
          channel_index(ChannelId{b, Direction::Down}));
      a >>= 1;
      b >>= 1;
    }
    while (depth > 0) out.push_channel(down[--depth]);
  }
  out.close_path();
}

}  // namespace ft
