#include "core/offline_scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <map>

#include "core/cycle_loads.hpp"
#include "core/replay.hpp"
#include "util/check.hpp"

namespace ft {
namespace {

constexpr std::int32_t kNone = -1;

/// Hierarchical matching of message ends on one side of a node (the
/// paper's matching phase). Returns, per message index, the index of the
/// message whose end it is matched with (kNone for the at-most-one
/// unmatched end). `use_src` selects whether the end of interest is the
/// source leaf (left side of a left-to-right set) or the destination leaf.
struct SideMatch {
  std::vector<std::int32_t> partner;  // indexed by position in `msgs`
  std::int32_t unmatched = kNone;
};

SideMatch match_side(const FatTreeTopology& topo, NodeId side_root,
                     const MessageSet& msgs, bool use_src) {
  SideMatch result;
  result.partner.assign(msgs.size(), kNone);

  // Ends sorted by leaf; the recursion below then only descends into
  // subtrees that actually contain ends.
  std::vector<std::pair<Leaf, std::int32_t>> ends;
  ends.reserve(msgs.size());
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    const Leaf leaf = use_src ? msgs[i].src : msgs[i].dst;
    FT_CHECK_MSG(topo.leaf_in_subtree(leaf, side_root),
                 "message end outside the side subtree");
    ends.emplace_back(leaf, static_cast<std::int32_t>(i));
  }
  std::sort(ends.begin(), ends.end());

  // Recursive pairing: a subtree returns its at-most-one leftover end.
  auto rec = [&](auto&& self, NodeId node, std::size_t lo,
                 std::size_t hi) -> std::int32_t {
    if (lo >= hi) return kNone;
    if (topo.is_leaf(node) || hi - lo == 1) {
      // Within a single leaf (or a singleton range) pair consecutively.
      for (std::size_t i = lo; i + 1 < hi; i += 2) {
        const auto a = ends[i].second;
        const auto b = ends[i + 1].second;
        result.partner[a] = b;
        result.partner[b] = a;
      }
      return (hi - lo) % 2 ? ends[hi - 1].second : kNone;
    }
    const Leaf split_leaf = topo.subtree_first_leaf(topo.right_child(node));
    const auto mid_it = std::lower_bound(
        ends.begin() + static_cast<std::ptrdiff_t>(lo),
        ends.begin() + static_cast<std::ptrdiff_t>(hi),
        std::make_pair(split_leaf, kNone));
    const auto mid = static_cast<std::size_t>(mid_it - ends.begin());
    const std::int32_t l = self(self, topo.left_child(node), lo, mid);
    const std::int32_t r = self(self, topo.right_child(node), mid, hi);
    if (l != kNone && r != kNone) {
      result.partner[l] = r;
      result.partner[r] = l;
      return kNone;
    }
    return l != kNone ? l : r;
  };
  result.unmatched = rec(rec, side_root, 0, ends.size());
  return result;
}

bool fits_alone(const FatTreeTopology& topo, const CapacityProfile& caps,
                const MessageSet& m, CycleLoads& scratch) {
  return scratch.try_add(topo, caps, m, /*commit=*/false);
}

/// Splits `msgs` (all crossing v in one direction) repeatedly until every
/// part is a one-cycle set on its own.
std::vector<MessageSet> partition_to_one_cycle(const FatTreeTopology& topo,
                                               const CapacityProfile& caps,
                                               NodeId v, MessageSet msgs,
                                               CycleLoads& scratch) {
  std::vector<MessageSet> done;
  std::deque<MessageSet> work;
  if (!msgs.empty()) work.push_back(std::move(msgs));
  while (!work.empty()) {
    MessageSet s = std::move(work.front());
    work.pop_front();
    if (s.size() <= 1 || fits_alone(topo, caps, s, scratch)) {
      done.push_back(std::move(s));
      continue;
    }
    EvenSplit split = split_crossing_messages(topo, v, s);
    FT_CHECK_MSG(!split.first.empty() && !split.second.empty(),
                 "even split must make progress");
    work.push_back(std::move(split.first));
    work.push_back(std::move(split.second));
  }
  return done;
}

/// Per-node crossing sets at one level: left-to-right and right-to-left.
struct NodeCrossings {
  MessageSet left_to_right;
  MessageSet right_to_left;
};

/// Groups messages by LCA node; self-messages are returned separately.
void group_by_lca(const FatTreeTopology& topo, const MessageSet& m,
                  std::map<NodeId, NodeCrossings>& groups,
                  MessageSet& self_messages) {
  for (const auto& msg : m) {
    if (msg.src == msg.dst) {
      self_messages.push_back(msg);
      continue;
    }
    const NodeId v = topo.lca(msg.src, msg.dst);
    auto& g = groups[v];
    if (topo.leaf_in_subtree(msg.src, topo.left_child(v))) {
      g.left_to_right.push_back(msg);
    } else {
      g.right_to_left.push_back(msg);
    }
  }
}

/// Runs the per-node partitioning for every node, producing for each node
/// a list of cycle sets (LR part i merged with RL part i: they use
/// disjoint channels, so they share a delivery cycle).
std::map<NodeId, std::vector<MessageSet>> partition_all_nodes(
    const FatTreeTopology& topo, const CapacityProfile& caps,
    const std::map<NodeId, NodeCrossings>& groups, CycleLoads& scratch) {
  std::map<NodeId, std::vector<MessageSet>> parts;
  for (const auto& [v, g] : groups) {
    auto lr = partition_to_one_cycle(topo, caps, v, g.left_to_right, scratch);
    auto rl = partition_to_one_cycle(topo, caps, v, g.right_to_left, scratch);
    std::vector<MessageSet> merged(std::max(lr.size(), rl.size()));
    for (std::size_t i = 0; i < merged.size(); ++i) {
      if (i < lr.size()) {
        merged[i].insert(merged[i].end(), lr[i].begin(), lr[i].end());
      }
      if (i < rl.size()) {
        merged[i].insert(merged[i].end(), rl[i].begin(), rl[i].end());
      }
    }
    parts.emplace(v, std::move(merged));
  }
  return parts;
}

/// Channel loads keyed (cycle << 32) | channel, in one open-addressing
/// table (linear probing, at most half full), so a load costs no heap
/// allocation of its own.
class SparseLoads {
 public:
  std::uint32_t get(std::uint64_t key) const {
    return keys_.empty() ? 0 : vals_[find(key)];
  }

  void add(std::uint64_t key, std::uint32_t k) {
    if (2 * (size_ + 1) > keys_.size()) grow();
    const std::size_t i = find(key);
    size_ += keys_[i] == kEmpty;
    keys_[i] = key;
    vals_[i] += k;
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  /// The slot holding `key`, or the empty slot where it would go (whose
  /// value is 0).
  std::size_t find(std::uint64_t key) const {
    std::size_t i = (key * 0x9e3779b97f4a7c15ull) >> shift_;
    while (keys_[i] != key && keys_[i] != kEmpty) {
      i = (i + 1) & (keys_.size() - 1);
    }
    return i;
  }

  void grow() {
    std::vector<std::uint64_t> keys(
        std::max<std::size_t>(64, 2 * keys_.size()), kEmpty);
    std::vector<std::uint32_t> vals(keys.size(), 0);
    keys.swap(keys_);
    vals.swap(vals_);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(keys_.size()));
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] == kEmpty) continue;
      const std::size_t j = find(keys[i]);
      keys_[j] = keys[i];
      vals_[j] = vals[i];
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> vals_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;
};

/// First-fit placement of message sets into delivery cycles:
/// schedule_greedy places each message as a set of one, and
/// schedule_offline_packed each per-node part. A set fits a cycle when
/// every channel its paths use keeps its load within capacity, counting
/// the set's messages together. No dense load table per cycle exists.
/// frontier_[c] is the first cycle that may still have room on channel
/// c: loads only grow, so every earlier cycle is full there, and a set's
/// first fit cannot lie below the largest frontier on its channels. Loads
/// are kept only for the (cycle, channel) pairs some set touched, so
/// memory follows the schedule's hops instead of cycles × channels.
class FirstFit {
 public:
  FirstFit(const FatTreeTopology& topo, const CapacityProfile& caps)
      : topo_(topo),
        caps_(caps),
        frontier_(channel_index_bound(topo), 0),
        need_(channel_index_bound(topo), 0) {}

  /// Appends [first, last) to the first cycle of `s` that fits it, or to
  /// a new cycle; the set must fit an empty cycle.
  void place(const Message* first, const Message* last, Schedule& s) {
    chans_.clear();
    for (const Message* m = first; m != last; ++m) {
      topo_.for_each_channel_on_path(m->src, m->dst, [&](ChannelId id) {
        const auto c = static_cast<std::uint32_t>(channel_index(id));
        if (need_[c]++ == 0) {
          chans_.push_back({c, caps_.capacity(topo_, id.node)});
        }
      });
    }
    std::uint32_t cycle = 0;
    for (const Chan& ch : chans_) cycle = std::max(cycle, frontier_[ch.c]);
    for (;; ++cycle) {
      if (cycle == s.cycles.size()) {
        FT_CHECK(std::all_of(
            chans_.begin(), chans_.end(),
            [&](const Chan& ch) { return need_[ch.c] <= ch.cap; }));
        s.cycles.emplace_back();
        break;
      }
      const bool fits =
          std::all_of(chans_.begin(), chans_.end(), [&](const Chan& ch) {
            return loads_.get(key(cycle, ch.c)) +
                       std::uint64_t{need_[ch.c]} <=
                   ch.cap;
          });
      if (fits) break;
    }
    for (const Chan& ch : chans_) {
      loads_.add(key(cycle, ch.c), need_[ch.c]);
      need_[ch.c] = 0;
      std::uint32_t& f = frontier_[ch.c];
      while (f < s.cycles.size() && loads_.get(key(f, ch.c)) >= ch.cap) ++f;
    }
    MessageSet& cyc = s.cycles[cycle];
    cyc.insert(cyc.end(), first, last);
  }

 private:
  struct Chan {
    std::uint32_t c;
    std::uint64_t cap;
  };

  static std::uint64_t key(std::uint32_t cycle, std::uint32_t c) {
    return (static_cast<std::uint64_t>(cycle) << 32) | c;
  }

  const FatTreeTopology& topo_;
  const CapacityProfile& caps_;
  std::vector<std::uint32_t> frontier_;
  std::vector<std::uint32_t> need_;  ///< the set's count per channel
  std::vector<Chan> chans_;          ///< the set's distinct channels
  SparseLoads loads_;
};

}  // namespace

EvenSplit split_crossing_messages(const FatTreeTopology& topo, NodeId v,
                                  const MessageSet& crossing) {
  EvenSplit out;
  if (crossing.empty()) return out;
  FT_CHECK_MSG(!topo.is_leaf(v), "crossing node must be internal");

  // All messages must cross v in the same direction; identify the source
  // side from the first message.
  const NodeId lchild = topo.left_child(v);
  const bool src_left = topo.leaf_in_subtree(crossing[0].src, lchild);
  const NodeId src_side = src_left ? lchild : topo.right_child(v);
  const NodeId dst_side = src_left ? topo.right_child(v) : lchild;
  for (const auto& msg : crossing) {
    FT_CHECK_MSG(topo.lca(msg.src, msg.dst) == v, "message does not cross v");
    FT_CHECK_MSG(topo.leaf_in_subtree(msg.src, src_side),
                 "mixed directions in crossing set");
  }

  // Matching phase: hierarchically match source ends on the source side
  // and destination ends on the destination side.
  const SideMatch smatch = match_side(topo, src_side, crossing, true);
  const SideMatch dmatch = match_side(topo, dst_side, crossing, false);

  // Tracing phase. The multigraph whose vertices are message ends and
  // whose edges are messages plus matched pairs has max degree 2: it is a
  // disjoint union of one path (when |crossing| is odd) and cycles.
  // Walking each component and assigning messages alternately to the two
  // halves splits every channel's load to within one.
  std::vector<std::int8_t> assigned(crossing.size(), -1);
  auto trace_from = [&](std::size_t start) {
    std::size_t cur = start;
    bool to_first = true;  // message traversed source-to-destination
    for (;;) {
      FT_CHECK(assigned[cur] < 0);
      assigned[cur] = to_first ? 0 : 1;
      // Alternate: after traversing `cur`, hop across the matched end on
      // the side we arrived at, then traverse that message the other way.
      const std::int32_t next =
          to_first ? dmatch.partner[cur] : smatch.partner[cur];
      if (next == kNone || assigned[static_cast<std::size_t>(next)] >= 0) {
        return;
      }
      cur = static_cast<std::size_t>(next);
      to_first = !to_first;
    }
  };

  // Start with the unmatched source end if it exists (the path component),
  // then sweep up the remaining cycles.
  if (smatch.unmatched != kNone) {
    trace_from(static_cast<std::size_t>(smatch.unmatched));
  }
  for (std::size_t i = 0; i < crossing.size(); ++i) {
    if (assigned[i] < 0) trace_from(i);
  }

  for (std::size_t i = 0; i < crossing.size(); ++i) {
    (assigned[i] == 0 ? out.first : out.second).push_back(crossing[i]);
  }
  return out;
}

Schedule schedule_offline(const FatTreeTopology& topo,
                          const CapacityProfile& caps, const MessageSet& m) {
  Schedule schedule;
  std::map<NodeId, NodeCrossings> groups;
  MessageSet self_messages;
  group_by_lca(topo, m, groups, self_messages);

  CycleLoads scratch(topo);
  auto parts = partition_all_nodes(topo, caps, groups, scratch);

  // Paper assembly: all subtrees rooted at the same level route
  // concurrently (their channels are disjoint); levels run one after
  // another, giving d <= sum over levels of the per-level maximum.
  for (std::uint32_t level = 0; level < topo.height(); ++level) {
    std::size_t level_cycles = 0;
    for (const auto& [v, sets] : parts) {
      if (topo.level(v) == level) {
        level_cycles = std::max(level_cycles, sets.size());
      }
    }
    if (level_cycles == 0) continue;
    const std::size_t base = schedule.cycles.size();
    schedule.cycles.resize(base + level_cycles);
    for (const auto& [v, sets] : parts) {
      if (topo.level(v) != level) continue;
      for (std::size_t i = 0; i < sets.size(); ++i) {
        auto& cyc = schedule.cycles[base + i];
        cyc.insert(cyc.end(), sets[i].begin(), sets[i].end());
      }
    }
  }

  if (!self_messages.empty()) {
    if (schedule.cycles.empty()) schedule.cycles.emplace_back();
    auto& first = schedule.cycles.front();
    first.insert(first.end(), self_messages.begin(), self_messages.end());
  }
  return schedule;
}

Schedule schedule_offline_packed(const FatTreeTopology& topo,
                                 const CapacityProfile& caps,
                                 const MessageSet& m) {
  std::map<NodeId, NodeCrossings> groups;
  MessageSet self_messages;
  group_by_lca(topo, m, groups, self_messages);

  CycleLoads scratch(topo);
  auto parts = partition_all_nodes(topo, caps, groups, scratch);

  // First-fit packing of the per-node one-cycle sets across levels: a set
  // from a deep node often coexists with sets from other levels because
  // their channel footprints overlap without exceeding capacity.
  Schedule schedule;
  FirstFit fit(topo, caps);
  for (const auto& [v, sets] : parts) {
    (void)v;
    for (const MessageSet& set : sets) {
      fit.place(set.data(), set.data() + set.size(), schedule);
    }
  }

  if (!self_messages.empty()) {
    if (schedule.cycles.empty()) schedule.cycles.emplace_back();
    auto& first = schedule.cycles.front();
    first.insert(first.end(), self_messages.begin(), self_messages.end());
  }
  return schedule;
}

Schedule schedule_greedy(const FatTreeTopology& topo,
                         const CapacityProfile& caps, const MessageSet& m) {
  Schedule schedule;
  FirstFit fit(topo, caps);
  for (const Message& msg : m) fit.place(&msg, &msg + 1, schedule);
  return schedule;
}

bool verify_schedule(const FatTreeTopology& topo, const CapacityProfile& caps,
                     const MessageSet& m, const Schedule& s) {
  // Every cycle must individually respect capacities: replaying the
  // schedule on the engine tallies each channel-cycle's load against cap.
  if (replay_schedule(topo, caps, s).capacity_violations != 0) return false;
  return schedule_partitions(m, s);
}

bool schedule_partitions(const MessageSet& m, const Schedule& s) {
  auto key = [](const Message& msg) {
    return (static_cast<std::uint64_t>(msg.src) << 32) | msg.dst;
  };
  std::vector<std::uint64_t> want, got;
  want.reserve(m.size());
  for (const auto& msg : m) want.push_back(key(msg));
  for (const auto& cycle : s.cycles) {
    for (const auto& msg : cycle) got.push_back(key(msg));
  }
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  return want == got;
}

}  // namespace ft
