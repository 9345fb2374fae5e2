// Workload generators. These are the message sets the experiments route:
// classical permutations (random, bit reversal, transpose, shuffle, the
// bisection-adversarial "complement"), volume traffic (uniform random,
// hot spot), locality-controlled traffic, and the finite-element halo
// exchange workload the paper's introduction motivates (planar meshes need
// only O(sqrt n) bisection width, so a fat-tree can be sized to them).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/message.hpp"
#include "util/prng.hpp"

namespace ft {

/// Uniformly random permutation: each processor sends to a distinct
/// destination.
MessageSet random_permutation_traffic(std::uint32_t n, Rng& rng);

/// Bit-reversal permutation: p -> reverse of p's lg n bits. A classical
/// hard case for banyan-style networks.
MessageSet bit_reversal_traffic(std::uint32_t n);

/// Transpose permutation: swap the high and low halves of the address bits
/// (requires lg n even; otherwise rotates by floor(lg n / 2)).
MessageSet transpose_traffic(std::uint32_t n);

/// Perfect-shuffle permutation: left-rotate the address bits by one.
MessageSet shuffle_traffic(std::uint32_t n);

/// Complement permutation: p -> p XOR (n-1). Every message crosses the
/// root — the worst case for the root channel and the paper's bisection
/// bound made flesh.
MessageSet complement_traffic(std::uint32_t n);

/// m messages with independently uniform random sources and destinations.
MessageSet uniform_random_traffic(std::uint32_t n, std::size_t m, Rng& rng);

/// Every processor sends one message; a `fraction` of them aim at a single
/// hot processor, the rest are uniform.
MessageSet hotspot_traffic(std::uint32_t n, double fraction, Leaf hot,
                           Rng& rng);

/// Locality-controlled: each processor sends to a destination within
/// +/- radius (wrapping modulo n, also when radius > n). Small radius
/// keeps traffic low in the tree.
MessageSet local_traffic(std::uint32_t n, std::uint32_t radius, Rng& rng);

/// Finite-element halo exchange: processors hold the cells of a
/// rows x cols grid (row-major on the leaves); every processor sends one
/// message to each existing 4-neighbour. rows*cols must equal n.
MessageSet fem_halo_traffic(std::uint32_t rows, std::uint32_t cols);

/// k independent random permutations concatenated (load factor scales
/// with k — used to sweep λ(M)).
MessageSet stacked_permutations(std::uint32_t n, std::uint32_t k, Rng& rng);

/// Tornado: p -> (p + n/2 - 1) mod n; the classical adversary for ring
/// and torus networks, near-worst-case bisection pressure on trees too.
MessageSet tornado_traffic(std::uint32_t n);

/// Ring shift by a fixed offset: p -> (p + offset) mod n.
MessageSet ring_shift_traffic(std::uint32_t n, std::uint32_t offset);

/// Full all-to-all: every ordered pair (p, q), p != q — n(n-1) messages;
/// use small n.
MessageSet all_to_all_traffic(std::uint32_t n);

/// Bisection flood: every processor in the left half sends `count`
/// messages to uniform destinations in the right half (stress for the
/// root channels; λ = count·(n/2)/w on a universal tree).
MessageSet bisection_flood_traffic(std::uint32_t n, std::uint32_t count,
                                   Rng& rng);

// ---------------------------------------------------------------------------
// Adversarial traffic (the routing-race zoo, bench/exp_routing_race),
// materialized only: the one streamed workload is RandomPermutationStream
// below.

/// Incast: `count` messages aimed at one sink, each from a uniform random
/// non-sink source. count > n keeps the sink's down channel saturated
/// over many delivery cycles (the persistent form).
MessageSet incast_traffic(std::uint32_t n, std::size_t count, Leaf sink,
                          Rng& rng);

/// Elephant/mice mix: `elephants` random (src, dst) flows of
/// `elephant_size` messages each (draw order: one src, one dst per flow,
/// dst != src), followed by `mice` independently uniform single messages.
MessageSet elephant_mice_traffic(std::uint32_t n, std::uint32_t elephants,
                                 std::uint32_t elephant_size,
                                 std::size_t mice, Rng& rng);

/// Residue-collapse adversary for deterministic D-mod-k-style policies:
/// every processor sends to a uniform destination in one residue class
/// {d : d mod modulus == r} (r drawn once). All destination keys agree
/// modulo any wire count dividing `modulus`, so a static key-mod-limit
/// wire assignment collapses onto one wire and idles the rest — the
/// oblivious lottery is unaffected. Requires modulus in [1, n].
MessageSet adversarial_residue_traffic(std::uint32_t n, std::uint32_t modulus,
                                       Rng& rng);

/// Persistent hotspot: `hot_count` incast messages at `hot` (uniform
/// non-hot sources) mixed with `background` uniform random messages —
/// the E18 gate workload. Draw order: all hot sources, then the
/// background pairs.
MessageSet persistent_hotspot_traffic(std::uint32_t n, Leaf hot,
                                      std::size_t hot_count,
                                      std::size_t background, Rng& rng);

// ---------------------------------------------------------------------------
// Named workloads: one table for the experiment binaries, ftsim and ftd.

enum class WorkloadClass : std::uint8_t {
  Permutation,  ///< every processor sends one message and receives one
  Pattern,      ///< the other fixed sets: hot spot, locality, FEM halo
  Volume,       ///< `count` messages: uniform, incast into processor 0
};

struct WorkloadEntry {
  const char* name;
  WorkloadClass cls;
  bool draws;  ///< consumes draws from the generator
  /// `count` is a Volume workload's size; the other classes ignore it.
  MessageSet (*build)(std::uint32_t n, std::size_t count, Rng& rng);
};

/// Every named workload: the nine standard ones (Permutation and Pattern)
/// in standard_workloads' order, then the Volume ones.
std::span<const WorkloadEntry> workload_table();

/// nullptr when no workload has this name.
const WorkloadEntry* find_workload(std::string_view name);

/// Builds `w` from `rng` in the state standard_workloads reaches it in:
/// a drawing standard workload first replays the draws of the drawing
/// standard workloads before it (hotspot-10% draws after random-perm,
/// local-r4 after both), so it equals that entry of standard_workloads
/// for the same starting generator. A Volume workload draws from `rng`
/// as given.
MessageSet build_workload(const WorkloadEntry& w, std::uint32_t n,
                          std::size_t count, Rng& rng);

struct NamedWorkload {
  std::string name;
  MessageSet messages;
};
/// The nine standard workloads, in table order, all drawn from one `rng`.
std::vector<NamedWorkload> standard_workloads(std::uint32_t n, Rng& rng);

// ---------------------------------------------------------------------------
// Streaming workloads. A MessageStream hands out messages one at a time,
// so a million-leaf workload is generated on demand and never exists as a
// materialized MessageSet (8 MiB at n = 2^20, and growing linearly). The
// path-source adapters (engine/fat_tree_model.hpp) turn a stream into
// chunked engine input; see DESIGN.md "Scale-out".

class MessageStream {
 public:
  virtual ~MessageStream() = default;

  /// Writes the next message into `out`; returns false when exhausted.
  /// Streams are single-pass.
  virtual bool next(Message& out) = 0;
};

/// Adapts a materialized MessageSet to the streaming interface (parity
/// tests, small workloads riding the streaming code path).
class MessageSetStream final : public MessageStream {
 public:
  explicit MessageSetStream(const MessageSet& messages)
      : messages_(messages) {}

  bool next(Message& out) override {
    if (next_ >= messages_.size()) return false;
    out = messages_[next_++];
    return true;
  }

 private:
  const MessageSet& messages_;
  std::size_t next_ = 0;
};

/// Random permutation in streaming form: only the 4n-byte destination
/// table is materialized (the λ ≈ 1 workload of the scale-out benchmark).
/// Consumes the same rng.permutation(n) draw as
/// random_permutation_traffic, so the two agree for a shared generator
/// state.
class RandomPermutationStream final : public MessageStream {
 public:
  RandomPermutationStream(std::uint32_t n, Rng& rng)
      : perm_(rng.permutation(n)) {}

  bool next(Message& out) override {
    if (p_ >= perm_.size()) return false;
    out = {p_, perm_[p_]};
    ++p_;
    return true;
  }

 private:
  std::vector<std::uint32_t> perm_;
  Leaf p_ = 0;
};

}  // namespace ft
