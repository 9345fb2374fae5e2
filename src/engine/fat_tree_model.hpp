// Fat-tree channel model for the CycleEngine: compiles a FatTreeTopology +
// CapacityProfile into the engine's ChannelGraph — the tree's height (the
// tag, so the engine routes leaf pairs by address) and the profile's
// wires per level — and hands the engine message sets as leaf pairs
// (MessageSetPairs). Channel indices reuse core/topology.hpp's
// channel_index() (node * 2 + direction), so per-channel counters line up
// with the rest of the core layer.
//
// The tag fixes everything else the engine needs by formula: each
// channel's level (the heap depth of its node) and so its capacity, and
// (engine/address_codec.hpp) its arbitration stage, the paper's causal
// order within a delivery cycle — up channels from the leaves toward the
// root (stage = L - level), then down channels back out (stage = L - 1 +
// level), 2L stages total — and the shard partition. So the graph stores
// no per-channel table, only the per-level capacities and the shard
// count, unless static wire faults override single channels. The root's
// external-interface channel is never on an internal path; it is kept out
// of the wire budget (utilization denominators), and the engine treats it
// as unknown on the tagged graph.
#pragma once

#include <vector>

#include "core/capacity.hpp"
#include "core/message.hpp"
#include "core/topology.hpp"
#include "core/traffic.hpp"
#include "engine/channel_graph.hpp"
#include "engine/fault_plan.hpp"
#include "engine/message_source.hpp"

namespace ft {

/// `shard_level` > 0 sets the shard count for the engine's subtree-sharded
/// parallel mode: the 2^shard_level subtrees rooted at heap level
/// shard_level become shards owning every channel at or below their root,
/// and the channels above (levels 1..shard_level-1) form the serially
/// arbitrated spine. The engine derives both from the tree tag, so the
/// graph stores no per-channel shard. Must satisfy 1 <= shard_level <
/// height when nonzero; 0 (the default) leaves the graph unsharded.
ChannelGraph fat_tree_channel_graph(const FatTreeTopology& topo,
                                    const CapacityProfile& caps,
                                    std::uint32_t shard_level = 0);

/// Correlated-failure domain of the subtree rooted at internal node v:
/// both channels of every node in the subtree, including v's own pair (the
/// edge to v's parent), modelling a shared power feed or cable bundle.
/// The domain is labelled by v's heap number, which matches the heap
/// numbering of build_binary_tree and (for k = 2) the k-ary pod label, so
/// the same FaultPlan scenario can be replayed across backends.
FaultDomain fat_tree_subtree_domain(const FatTreeTopology& topo, NodeId v);

/// Domains for every internal node at heap level `level` (root = 0):
/// 2^level disjoint subtrees covering all leaves.
std::vector<FaultDomain> fat_tree_subtree_domains(const FatTreeTopology& topo,
                                                  std::uint32_t level);

/// The unique tree path of one message as engine channel indices (empty
/// when src == dst).
EnginePath fat_tree_engine_path(const FatTreeTopology& topo, Leaf src,
                                Leaf dst);

/// Streams the tree path src → dst (closed, possibly empty) into a CSR
/// PathSet with no per-message allocation.
void append_fat_tree_path(const FatTreeTopology& topo, Leaf src, Leaf dst,
                          PathSet& out);

/// Hands the engine message sets as leaf pairs, one chunk per set, self
/// pairs included (the engine delivers them locally): an offline
/// schedule's cycles through run_batched_stream (replay_schedule), or a
/// one-set vector through run_stream for an all-at-once run.
class MessageSetPairs final : public PairSource {
 public:
  explicit MessageSetPairs(const std::vector<MessageSet>& sets)
      : sets_(sets) {}

  bool next_chunk(std::vector<LeafPair>& chunk) override {
    chunk.clear();
    if (next_ >= sets_.size()) return false;
    for (const Message& m : sets_[next_]) chunk.push_back({m.src, m.dst});
    ++next_;
    return true;
  }

 private:
  const std::vector<MessageSet>& sets_;
  std::size_t next_ = 0;
};

/// Streams fat-tree paths for a MessageStream workload, one chunk at a
/// time: the full PathSet for an n = 2^20 permutation (~160 MiB of CSR)
/// never exists; peak input memory is one chunk. Self messages become
/// empty paths (local delivery). The routers hand the engine leaf pairs
/// instead; on the tagged graph a streamed path is checked against its
/// leaves' tree path and routed as that pair.
class FatTreePathSource final : public MessageSource {
 public:
  FatTreePathSource(const FatTreeTopology& topo, MessageStream& messages,
                    std::size_t chunk_paths = kDefaultChunkPaths)
      : topo_(topo),
        messages_(messages),
        chunk_paths_(chunk_paths == 0 ? 1 : chunk_paths) {}

  bool next_chunk(PathSet& chunk) override {
    chunk.clear();
    Message m;
    std::size_t produced = 0;
    while (produced < chunk_paths_ && messages_.next(m)) {
      append_fat_tree_path(topo_, m.src, m.dst, chunk);
      ++produced;
    }
    return produced > 0;
  }

 private:
  const FatTreeTopology& topo_;
  MessageStream& messages_;
  std::size_t chunk_paths_;
};

}  // namespace ft
