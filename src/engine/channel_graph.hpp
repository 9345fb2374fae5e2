// The engine's channel model: every topology the repository simulates
// (fat-tree ChannelId pairs, generic Network links, k-ary n-tree links)
// compiles down to indexed, capacitated channels, and every message to an
// ordered list of channel indices — or, on a fat-tree graph, to its two
// leaves, whose tree path the engine derives by address. A fat-tree graph
// is its level profile (the paper's wires per level, Section IV): each
// channel's capacity, level and budget membership are functions of its
// id, so it keeps a per-channel table only when static wire faults
// override single channels. Network and k-ary links are a flat table.
// The fat-tree CycleEngine and store-and-forward rounds both read this
// representation, and so do the observers (see DESIGN.md, "Engine
// architecture").
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace ft {

/// A message's path: channel indices in traversal order. Empty for local
/// (src == dst) messages, which cost no channel bandwidth.
using EnginePath = std::vector<std::uint32_t>;

/// A batch of paths in CSR form: every channel id in one contiguous
/// buffer, path i occupying channels()[offsets()[i] .. offsets()[i+1]).
/// This is the engine's native input format — the hot loop walks paths as
/// flat index ranges instead of chasing one heap vector per message — and
/// the topology adapters build it directly so a large batch costs two
/// allocations, not one per message.
class PathSet {
 public:
  PathSet() : offsets_{0} {}

  /// Appends one complete path given as an iterator range of channel ids.
  template <typename It>
  void append(It first, It last) {
    channels_.insert(channels_.end(), first, last);
    close_path();
  }

  /// Streaming interface for builders that emit channels one at a time:
  /// push_channel() any number of times (possibly zero), then close_path().
  void push_channel(std::uint32_t channel) { channels_.push_back(channel); }
  void close_path() {
    FT_CHECK_MSG(channels_.size() < 0xffffffffULL,
                 "PathSet overflows 32-bit hop offsets");
    offsets_.push_back(static_cast<std::uint32_t>(channels_.size()));
  }

  /// Drops every path but keeps the capacity: the chunk-reuse primitive of
  /// the streaming interface (engine/message_source.hpp) — a MessageSource
  /// refills one PathSet per chunk, so a whole run allocates O(chunk), not
  /// O(total messages).
  void clear() {
    offsets_.resize(1);
    channels_.clear();
  }

  std::size_t size() const { return offsets_.size() - 1; }
  bool empty() const { return size() == 0; }
  std::uint32_t offset(std::size_t i) const { return offsets_[i]; }
  std::uint32_t length(std::size_t i) const {
    return offsets_[i + 1] - offsets_[i];
  }
  /// Total hops across all paths (== channels().size()).
  std::size_t total_hops() const { return channels_.size(); }

  const std::vector<std::uint32_t>& channels() const { return channels_; }
  const std::vector<std::uint32_t>& offsets() const { return offsets_; }

 private:
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> channels_;
};

/// A channel table: flat, or a fat-tree's level profile. A slot with
/// capacity 0 is no channel (on a fat-tree, heap node 0's two slots).
/// Read it through the functions below, which serve both kinds.
struct ChannelGraph {
  /// Wires (messages per delivery cycle) of each channel; 0 = no channel.
  /// Held by a flat graph, and by a tagged graph whose profile overrides
  /// single channels (static wire faults); empty otherwise.
  std::vector<std::uint64_t> capacity;

  /// Tagged graphs: the wires of every channel at level 0 .. L (the
  /// CapacityProfile's levels()). Empty on a flat graph.
  std::vector<std::uint64_t> level_capacity;

  /// Subtree shards for the parallel CycleEngine: 2^k on a tree-tagged
  /// graph sharded at heap level k, 0 otherwise (the engine rejects a
  /// count on an untagged graph). The partition is the tag's: shard s
  /// owns every channel at or below heap node 2^k + s, and the channels
  /// above form the serially arbitrated spine (DESIGN.md "Scale-out").
  std::uint32_t num_shards = 0;

  /// Heap-indexed tree tag, set only by fat_tree_channel_graph: the
  /// height L of a fat-tree whose channel c is the up (c even) or down (c
  /// odd) channel above heap node c / 2, at that node's heap depth. 0 for
  /// every other graph. The CycleEngine runs only on a tagged graph,
  /// where it routes every message by address: its path is
  /// a function of its two leaves, so a live message is one 64-bit word
  /// and no hop list exists, and each channel's arbitration stage — the
  /// engine's causal order within a delivery cycle — is a function of its
  /// id (engine/address_codec.hpp; DESIGN.md §5, "Address codec"). A
  /// message may use the tree channels (heap nodes 2 and up, c >= 4),
  /// each of which has a wire (the engine constructor's rule): the root's
  /// external-interface pair is on no internal path. Untagged graphs run
  /// store-and-forward rounds only.
  std::uint32_t tree_height = 0;
  /// Tallest taggable tree: the address word holds two heap nodes of
  /// kMaxTreeHeight + 1 bits and a 6-bit hop cursor.
  static constexpr std::uint32_t kMaxTreeHeight = 28;

  /// Channel slots: 4 * 2^L on a tagged graph (heap nodes below 2^(L+1),
  /// two directions), the table's size on a flat one.
  std::size_t num_channels() const {
    return tree_height != 0 ? std::size_t{4} << tree_height
                            : capacity.size();
  }

  /// Instrumentation level tags: L + 1 on a tagged graph, 1 on a flat one.
  std::uint32_t num_levels() const { return tree_height + 1; }

  /// Channel c's level tag, which per-level observers aggregate over: the
  /// heap depth of node c / 2 on a tagged graph (0 = the root's external
  /// pair, L = processor channels); 0 for c < 2 and on a flat graph.
  std::uint32_t level_of(std::size_t c) const {
    return tree_height != 0 && c >= 2
               ? static_cast<std::uint32_t>(std::bit_width(c >> 1)) - 1
               : 0;
  }

  /// Channel c's wires.
  std::uint64_t capacity_of(std::size_t c) const {
    if (!capacity.empty()) return capacity[c];
    return c >= 2 ? level_capacity[level_of(c)] : 0;
  }

  /// True for a channel a message may use, which is also a channel that
  /// counts against the wire budget: a tree channel on a tagged graph, a
  /// channel with wires on a flat one. The path checks and the
  /// utilization observers share this one predicate, so the sets cannot
  /// drift apart.
  bool in_budget(std::size_t c) const {
    return tree_height != 0 ? c >= 4 : capacity[c] != 0;
  }

  /// Number of in-budget channels.
  std::size_t num_budget_channels() const {
    if (tree_height != 0) return num_channels() - 4;
    std::size_t count = 0;
    for (const std::uint64_t cap : capacity) count += cap != 0;
    return count;
  }

  /// Summed capacity of the in-budget channels at each level tag: the
  /// per-cycle denominators of per-level utilization. O(L) on a tagged
  /// graph without overrides, whose level k >= 1 holds 2^(k+1) channels.
  std::vector<std::uint64_t> budget_capacity_by_level() const {
    std::vector<std::uint64_t> cap(num_levels(), 0);
    if (capacity.empty()) {
      for (std::uint32_t k = 1; k <= tree_height; ++k) {
        cap[k] = (std::uint64_t{2} << k) * level_capacity[k];
      }
      return cap;
    }
    for (std::size_t c = 0; c < num_channels(); ++c) {
      if (in_budget(c)) cap[level_of(c)] += capacity[c];
    }
    return cap;
  }

  /// A flat link graph (Network, k-ary), which runs store-and-forward
  /// rounds: one level, every channel with wires in the wire budget.
  static ChannelGraph flat(std::vector<std::uint64_t> caps) {
    ChannelGraph g;
    g.capacity = std::move(caps);
    return g;
  }
};

}  // namespace ft
