// Off-line scheduling (Section III, Theorem 1).
//
// A schedule partitions a message set M into one-cycle message sets
// M_1, ..., M_d (each respecting every channel capacity). λ(M) is a lower
// bound on d; the paper's algorithm achieves d = O(λ(M) · lg n) by
// partitioning, at each tree node, the messages crossing that node into
// halves whose load splits evenly in *every* channel. The even split is
// obtained by the paper's matching + tracing construction:
//
//   1. Matching: on each side of the node, hierarchically match message
//      ends — pair ends within a leaf, forward the odd one to the parent,
//      pair leftovers from sibling subtrees — so that every subtree has at
//      most one end matched outside it.
//   2. Tracing: messages and matched end-pairs form paths and cycles;
//      walking them and assigning messages alternately to the two halves
//      splits each channel's load to within one.
#pragma once

#include <cstdint>
#include <vector>

#include "core/capacity.hpp"
#include "core/load.hpp"
#include "core/message.hpp"
#include "core/topology.hpp"

namespace ft {

/// A schedule: an ordered partition of a message set into delivery cycles.
struct Schedule {
  std::vector<MessageSet> cycles;

  std::size_t num_cycles() const { return cycles.size(); }
  std::size_t total_messages() const {
    std::size_t t = 0;
    for (const auto& c : cycles) t += c.size();
    return t;
  }
};

/// Result of one even split: the two halves.
struct EvenSplit {
  MessageSet first;
  MessageSet second;
};

/// Splits a set of messages that all cross node `v` in the same direction
/// (every message's LCA is v, and all sources lie in the same child
/// subtree) so that every channel's load divides as ceil/floor.
/// Exposed for testing; schedule_offline() uses it internally.
EvenSplit split_crossing_messages(const FatTreeTopology& topo, NodeId v,
                                  const MessageSet& crossing);

/// Theorem 1: schedules M in O(λ(M) · lg n) delivery cycles. Messages with
/// src == dst are delivered locally and are placed in the first cycle.
Schedule schedule_offline(const FatTreeTopology& topo,
                          const CapacityProfile& caps, const MessageSet& m);

/// Greedy first-fit baseline (ablation): assigns each message to the first
/// cycle where its whole path still has spare capacity. No bound better
/// than O(λ · lg n) is guaranteed; used to measure what the matching +
/// tracing structure buys.
Schedule schedule_greedy(const FatTreeTopology& topo,
                         const CapacityProfile& caps, const MessageSet& m);

/// Cross-level packing variant (ablation): runs the paper's per-node
/// partitioning but merges cycle sets from different levels whenever their
/// channel usage is disjoint-by-capacity, instead of dedicating cycles to
/// one level at a time.
Schedule schedule_offline_packed(const FatTreeTopology& topo,
                                 const CapacityProfile& caps,
                                 const MessageSet& m);

/// True iff `s` is a valid schedule of `m`: the cycles partition m (as a
/// multiset) and every cycle is a one-cycle message set.
bool verify_schedule(const FatTreeTopology& topo, const CapacityProfile& caps,
                     const MessageSet& m, const Schedule& s);

/// verify_schedule's first half: true iff the cycles of `s` partition
/// `m` as a multiset. A caller that already replayed `s` completes the
/// check with its replay's capacity_violations == 0.
bool schedule_partitions(const MessageSet& m, const Schedule& s);

}  // namespace ft
