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
//
// Below the turn a message's channel needs its source and cursor; from
// the turn on it needs only its destination, since the down channel at
// stage s is the down channel of dst >> (2L - 1 - s), whatever h is. The
// engine's worklist entries use this: each hop carries a key, its channel
// on an up stage and its destination node on a down stage, so a down hop
// finds its channel and its successor without the word. The word's
// cursor then catches up only where it is read (seek).
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

  /// One hop of a path: its channel, that channel's stage and its
  /// worklist key (the channel on an up stage, the destination node on a
  /// down stage).
  struct Hop {
    std::uint32_t chan;
    std::uint32_t stage;
    std::uint32_t key;
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
    if (k < h) {
      const std::uint32_t c = (src(v) >> k) << 1;
      return {c, k, c};
    }
    return down_hop(dst(v), 2 * (height - h) + k);
  }
  /// The channel of down stage s (height <= s < 2L) on the way to heap
  /// node d: hop()'s down rule with h cancelled out (2h - 1 - k is
  /// 2L - 1 - s).
  std::uint32_t down_chan(std::uint32_t d, std::uint32_t stage) const {
    return ((d >> (2 * height - 1 - stage)) << 1) | 1u;
  }
  /// The hop at down stage s on the way to heap node d.
  Hop down_hop(std::uint32_t d, std::uint32_t stage) const {
    return {down_chan(d, stage), stage, d};
  }
  /// The hop of word v onto its tree channel c, for an entry that names
  /// its channel but not its stage. v is read only when c is a down
  /// channel, whose key is v's destination.
  Hop hop_onto(std::uint32_t c, const std::uint64_t& v) const {
    const std::uint32_t s = stage_of(c);
    return s < height ? Hop{c, s, c} : down_hop(dst(v), s);
  }
  /// v with its cursor on its hop at down stage s (s = 2L: past the last
  /// hop, delivered). A down hop leaves the word as it is, so the engine
  /// seeks where the cursor is read: at delivery and at a lost or won
  /// lottery.
  std::uint64_t seek(std::uint64_t v, std::uint32_t stage) const {
    return rewind(v) | (stage + 2 * turn(v) - 2 * height);
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
