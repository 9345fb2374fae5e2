// Channel capacities (Section IV). A capacity profile assigns the number
// of wires to each channel level; the paper's *universal fat-tree* with
// root capacity w (n^{2/3} <= w <= n) uses
//
//     cap(level k) = min( 2^{L-k},  ceil(w / 2^{2k/3}) )
//
// so capacities double per level near the leaves and grow by a factor of
// 4^{1/3} per level near the root, with the regime change at level
// 3·lg(n/w). Volume-parameterized profiles (root capacity
// Θ(v^{2/3}/lg(n/v^{2/3}))) live in layout/vlsi_model.hpp.
#pragma once

#include <cstdint>
#include <vector>

#include "core/topology.hpp"

namespace ft {

/// Per-level channel capacities; cap_by_level[k] is the number of wires in
/// each channel at level k (0 = root/external, L = processor channels).
class CapacityProfile {
 public:
  CapacityProfile(const FatTreeTopology& topo,
                  std::vector<std::uint64_t> cap_by_level);

  /// The paper's universal fat-tree profile for root capacity w. w is
  /// clamped to [1, n]; the canonical universal range is n^{2/3} <= w <= n.
  static CapacityProfile universal(const FatTreeTopology& topo,
                                   std::uint64_t root_capacity);

  /// Constant capacity c at every level: a "skinny" tree when c == 1.
  static CapacityProfile constant(const FatTreeTopology& topo,
                                  std::uint64_t c);

  /// Capacity doubling at every level up from the leaves (cap at level k is
  /// 2^{L-k}); root capacity n. This is the fattest profile the tree-path
  /// routing can ever use.
  static CapacityProfile doubling(const FatTreeTopology& topo);

  std::uint32_t height() const {
    return static_cast<std::uint32_t>(cap_by_level_.size()) - 1;
  }

  std::uint64_t capacity_at_level(std::uint32_t level) const {
    FT_CHECK(level < cap_by_level_.size());
    return cap_by_level_[level];
  }

  std::uint64_t capacity(const FatTreeTopology& topo, NodeId node) const {
    if (!overrides_.empty()) {
      FT_CHECK(node < overrides_.size());
      if (overrides_[node] != 0) return overrides_[node];
    }
    return capacity_at_level(topo.channel_level(node));
  }

  /// True iff some channel deviates from its level capacity (fault
  /// injection, Section VII robustness experiments). Level-uniform
  /// consumers (the bit-serial hardware simulator, which shares one
  /// switch instance per level) require this to be false.
  bool has_overrides() const { return !overrides_.empty(); }

  /// Returns a copy of this profile with the capacity of one channel
  /// replaced (both directions share the wire count in this model).
  CapacityProfile with_channel_capacity(const FatTreeTopology& topo,
                                        NodeId node,
                                        std::uint64_t capacity) const;
  /// with_channel_capacity in place: degrading many channels this way
  /// costs one override table, not one profile copy per channel.
  void set_channel_capacity(const FatTreeTopology& topo, NodeId node,
                            std::uint64_t capacity);

  std::uint64_t root_capacity() const { return cap_by_level_[0]; }

  /// Total wire count over all channels, both directions
  /// (a hardware-cost proxy used by the Theorem 4 experiment).
  std::uint64_t total_wires(const FatTreeTopology& topo) const;

  const std::vector<std::uint64_t>& levels() const { return cap_by_level_; }

 private:
  std::vector<std::uint64_t> cap_by_level_;
  /// Per-channel capacity overrides indexed by the node beneath the
  /// channel; 0 means "use the level capacity". Empty when no channel
  /// deviates.
  std::vector<std::uint64_t> overrides_;
};

}  // namespace ft
