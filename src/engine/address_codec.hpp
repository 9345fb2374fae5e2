// The lossy and tally engine's path codec. The paper's switches route a
// message by its address bits over the unique tree path (Section II), so
// on a fat-tree of height L a message's path is a function of its two
// leaves: a live message is one 64-bit word holding its source and
// destination heap nodes (kNodeBits each) and its hop cursor k in the low
// kCursorBits,
//
//   [63 .. 35] src node   [34 .. 6] dst node   [5 .. 0] cursor k
//
// With h (the turn depth) the bit length of src ^ dst, the path has 2h
// hops. Hop k < h is the up channel of src >> k, at stage k; hop k >= h is
// the down channel of dst >> (2h - 1 - k), at stage 2L - 2h + k. A
// channel's stage is therefore L - level going up and L - 1 + level going
// down, 2L stages in all: the causal order of a delivery cycle. Channel
// ids are core/topology.hpp's channel_index (node * 2 + direction). All of
// it is shifts, so a hop costs no table load.
//
// The codec is also the sharded executor's only source of the partition.
// At shard level k, a channel's shard is its node's ancestor at level k
// (rebased to 0), and the channels above are the spine. Up channels of
// nodes at level >= k have stages 0 .. L - k, down ones L - 1 + k ..
// 2L - 1, and the spine channels fill the band [spine_lo, spine_hi). At
// k = 1 that band is empty: a crossing message hops from one shard's last
// up channel straight onto the other's root down channel.
#pragma once

#include <bit>
#include <cstdint>

#include "engine/channel_graph.hpp"

namespace ft {

struct AddressCodec {
  static constexpr unsigned kCursorBits = 6;
  static constexpr unsigned kNodeBits = ChannelGraph::kMaxTreeHeight + 1;
  static_assert(2 * kNodeBits + kCursorBits <= 64 &&
                    2 * ChannelGraph::kMaxTreeHeight < (1u << kCursorBits),
                "the address word holds two nodes and a cursor up to 2L");
  static constexpr std::uint64_t kCursorMask = (1u << kCursorBits) - 1;
  static constexpr std::uint64_t kNodeMask = (1ull << kNodeBits) - 1;
  /// shard_of for a spine channel.
  static constexpr std::uint32_t kSpine = 0xffffffffu;

  /// One hop of a path: its channel and that channel's stage.
  struct Hop {
    std::uint32_t chan;
    std::uint32_t stage;
  };

  /// The codec of a tree of height `tree_height` (ChannelGraph's tag) cut
  /// into `num_shards` subtrees (0 or 1: unsharded).
  AddressCodec(std::uint32_t tree_height, std::uint32_t num_shards)
      : height(tree_height),
        shard_level(num_shards > 1 ? static_cast<std::uint32_t>(
                                         std::countr_zero(num_shards))
                                   : 0),
        spine_lo(height - shard_level + 1),
        spine_hi(height - 1 + shard_level) {}

  static std::uint64_t encode(std::uint32_t src, std::uint32_t dst) {
    return (static_cast<std::uint64_t>(src) << (kNodeBits + kCursorBits)) |
           (static_cast<std::uint64_t>(dst) << kCursorBits);
  }
  static std::uint32_t src(std::uint64_t v) {
    return static_cast<std::uint32_t>(v >> (kNodeBits + kCursorBits));
  }
  static std::uint32_t dst(std::uint64_t v) {
    return static_cast<std::uint32_t>((v >> kCursorBits) & kNodeMask);
  }
  /// The turn depth h: the path climbs h levels, then descends h.
  static std::uint32_t turn(std::uint64_t v) {
    return static_cast<std::uint32_t>(std::bit_width(src(v) ^ dst(v)));
  }
  /// True while the cursor names a hop (the message is undelivered).
  static bool more(std::uint64_t v) { return (v & kCursorMask) < 2 * turn(v); }
  Hop hop(std::uint64_t v) const {
    const auto k = static_cast<std::uint32_t>(v & kCursorMask);
    const std::uint32_t h = turn(v);
    if (k < h) return {(src(v) >> k) << 1, k};
    return {((dst(v) >> (2 * h - 1 - k)) << 1) | 1u, 2 * (height - h) + k};
  }
  /// The stage of tree channel c (heap node c / 2 >= 2).
  std::uint32_t stage_of(std::uint32_t c) const {
    const auto level = static_cast<std::uint32_t>(std::bit_width(c >> 1)) - 1;
    return (c & 1u) != 0 ? height - 1 + level : height - level;
  }
  std::uint32_t shard_of(std::uint32_t c) const {
    const std::uint32_t node = c >> 1;
    const auto level = static_cast<std::uint32_t>(std::bit_width(node)) - 1;
    return level >= shard_level
               ? (node >> (level - shard_level)) - (1u << shard_level)
               : kSpine;
  }
  static std::uint64_t rewind(std::uint64_t v) { return v & ~kCursorMask; }
  /// The path's final channel: the destination leaf's down channel.
  static std::uint32_t last_chan(std::uint64_t v) {
    return (dst(v) << 1) | 1u;
  }
  std::uint32_t num_stages() const { return 2 * height; }

  std::uint32_t height;
  std::uint32_t shard_level;  ///< lg num_shards on a sharded graph
  /// The spine's stage band (read by the sharded executor only).
  std::uint32_t spine_lo;
  std::uint32_t spine_hi;
};

}  // namespace ft
