// The unified delivery-cycle engine. One instrumented simulation core runs
// the paper's batched cycle loop (Section II: contending bit-serial
// traffic, loss + acknowledgment + retry) for every router in the
// repository; the per-topology simulators are thin adapters that compile
// their topology into a ChannelGraph and their messages into EnginePaths,
// or, on a fat-tree graph, hand over leaf pairs.
//
// Policy points:
//   * Contention — how a channel resolves more contenders than wires:
//       RandomSubset  a uniformly random cap-subset survives, the rest are
//                     lost and retry next cycle (the paper's concentrator
//                     + acknowledgment mechanism; `alpha` models partial
//                     concentrators, Section IV);
//       Fifo          store-and-forward rounds with per-channel FIFO
//                     queues, up to cap(c) forwards per round (competitor
//                     networks, k-ary n-trees);
//       Tally         no arbitration, pure occupancy accounting (offline
//                     schedule replay and utilization analytics).
//   * Channel model — the ChannelGraph handed to the constructor
//     (engine/fat_tree_model.hpp, nets/Network, kary/KaryTree adapters).
//
// The lossy and tally modes run on fat-tree graphs only (a tree-tagged
// ChannelGraph: the constructor rejects them on any other graph), with
// one stage kernel (fused_stage), one path codec — each message routed by
// address (engine/address_codec.hpp) — and two executors: serial, and —
// on a graph with a shard count — the sharded executor, whose shards,
// derived from the tree tag, sweep the up and down stage bands on a
// persistent thread pool. Injection is one serial pass in arrival order
// in both. FIFO mode runs on any graph and resolves channel ranges on the
// pool. Results are identical to serial mode: every random arbitration
// draws from a private stream seeded by (seed, cycle, channel), so no
// decision depends on thread scheduling, and FIFO arrivals are merged in
// channel-index order.
// Lossy cycles and FIFO rounds run in one cycle frame (begin_run ..
// end_run), so fault transitions, the snapshot and phase timing exist
// once.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "engine/address_codec.hpp"
#include "engine/block_list.hpp"
#include "engine/channel_graph.hpp"
#include "engine/fault_plan.hpp"
#include "engine/message_source.hpp"
#include "engine/observer.hpp"
#include "engine/phase_profile.hpp"
#include "util/thread_pool.hpp"

namespace ft {

/// Internal injection schedule abstraction: hands run_lossy the next batch
/// to inject, one cycle at a time (defined in engine.cpp; implementations
/// wrap a MessageSource or a PairSource).
class BatchFeed;

enum class ContentionPolicy : std::uint8_t { RandomSubset, Fifo, Tally };

/// How a lossy (RandomSubset) channel assigns its wires when contended —
/// the routing-discipline seam. Every policy resolves an over-limit
/// bucket from the same sorted contender list and the same per-(seed,
/// cycle, channel) stream, so serial and sharded execution stay
/// bit-identical for all of them. Uncontended channels admit everyone
/// under every policy.
enum class RoutingPolicy : std::uint8_t {
  /// The paper's oblivious lottery (Section II): a uniformly random
  /// cap-subset of the contenders survives. Byte-identical to the
  /// pre-seam engine; all goldens pin this policy.
  ObliviousRandom,
  /// Deterministic D-mod-k-style wire assignment: a contender bids for
  /// wire (destination-key mod limit) and the lowest pending index wins
  /// each wire. Destination-collapsed traffic can idle most wires —
  /// the static-path pathology the adversarial generators target.
  DeterministicDmod,
  /// Randomized load balancing (Wang et al., arXiv:1708.09135): each
  /// contender hashes (arbitration stream, pending index) to a uniformly
  /// random wire; wire collisions lose. Balls-into-bins rather than a
  /// concentrator, so a few wires idle under heavy contention.
  RandomLoadBalanced,
  /// Oblivious winner selection plus congestion feedback (Rocher-Gonzalez
  /// et al., arXiv:2502.00597): each contended bucket stamps its channel's
  /// run of consecutive over-limit cycles at arbitration, and losers at a
  /// channel that has been over its limit for long enough desynchronize
  /// their retries over a widening window. Engages the retry machinery;
  /// see DESIGN.md, "Routing disciplines".
  AdaptiveOccupancy,
};

/// A routing discipline's user-facing name.
struct RoutingPolicyName {
  const char* name;
  RoutingPolicy policy;
};

/// Every discipline by name, in enum order: the one name table behind
/// ftsim's --policy flag, the ftd protocol's "policy" field and E18's
/// race rows.
inline constexpr RoutingPolicyName kRoutingPolicies[] = {
    {"oblivious", RoutingPolicy::ObliviousRandom},
    {"dmod", RoutingPolicy::DeterministicDmod},
    {"rlb", RoutingPolicy::RandomLoadBalanced},
    {"adaptive", RoutingPolicy::AdaptiveOccupancy},
};

/// Looks `name` up in kRoutingPolicies; false for an unknown name.
inline bool parse_routing_policy(std::string_view name, RoutingPolicy& out) {
  for (const RoutingPolicyName& p : kRoutingPolicies) {
    if (name == p.name) {
      out = p.policy;
      return true;
    }
  }
  return false;
}

struct EngineOptions {
  ContentionPolicy contention = ContentionPolicy::RandomSubset;
  /// RandomSubset: a channel of capacity c accepts floor(alpha * c)
  /// messages per cycle, floor 1 (alpha = 1 is the ideal concentrator,
  /// 3/4 the partial concentrators of Section IV). Must lie in (0, 1].
  double alpha = 1.0;
  /// Wire-assignment discipline for contended RandomSubset channels.
  /// ObliviousRandom reproduces the pre-seam engine bit for bit; the
  /// other disciplines exist to be raced (bench/exp_routing_race).
  /// Ignored by Fifo and Tally.
  RoutingPolicy policy = RoutingPolicy::ObliviousRandom;
  /// Stop after this many cycles/rounds (0 = unbounded). A lossy run that
  /// still has pending messages when the cap is hit sets
  /// EngineResult::gave_up instead of looping forever.
  std::uint32_t max_cycles = 0;
  /// Seed for RandomSubset arbitration streams.
  std::uint64_t seed = 0;
  /// Run on a thread pool: the sharded executor when the graph carries a
  /// shard count (lossy/tally), channel ranges in FIFO mode. An unsharded
  /// lossy/tally graph runs serial, with no pool. Identical results to
  /// serial mode at any thread count.
  bool parallel = false;
  /// Worker threads for parallel mode (0 = hardware concurrency). A
  /// resolved count of 1 builds no pool: the sharded layout then runs
  /// its shard loop inline, and FIFO rounds run as one channel range.
  std::size_t threads = 0;
  /// Per-message retry policy (lossy/tally modes; FIFO rounds have no
  /// losses to retry, so it is ignored there). Off by default.
  RetryPolicy retry;
  /// Transient mid-run faults, consulted once per delivery cycle from the
  /// coordinating thread (see engine/fault_plan.hpp). Not owned; must
  /// outlive every run. nullptr or an empty plan costs nothing.
  const FaultPlan* fault_plan = nullptr;
  /// Wall-clock phase timing (EngineResult::phases): splits each cycle
  /// into the parallel up/down sweeps, the serial spine band (every stage,
  /// in the serial executor), and the serial coordination remainder — the
  /// measured Amdahl decomposition of the sharded executor. Timing never
  /// changes simulation results; it is off by default because
  /// steady_clock reads are not free at small n.
  bool time_phases = false;
};

struct EngineResult {
  /// Delivery cycles (lossy) or rounds (FIFO). 64-bit: a heavily faulted
  /// or backoff-parked run at n = 2^20 can legitimately exceed what the
  /// old 32-bit counter assumed; the engine's internal cycle index stays
  /// 32-bit (the arbitration-stream domain) and is overflow-checked.
  std::uint64_t cycles = 0;
  bool gave_up = false;      ///< max_cycles hit with messages undelivered
  std::uint64_t delivered = 0;
  std::uint64_t total_attempts = 0;  ///< path attempts (lossy), hops (FIFO)
  std::uint64_t total_losses = 0;    ///< attempts killed by contention
  /// Successful channel traversals, every mode: each channel a message
  /// crosses (wins arbitration at, is forwarded over, or tallies on)
  /// counts one hop. For a completed FIFO or tally run this equals the
  /// sum of path lengths; lossy runs additionally count the partial
  /// prefix a message crossed before losing a lottery.
  std::uint64_t total_hops = 0;
  double latency_sum = 0.0;          ///< FIFO: sum of per-message finish rounds
  std::uint32_t max_queue = 0;       ///< FIFO: peak queue depth
  /// Messages that exhausted their RetryPolicy (max_attempts or deadline)
  /// and were dropped; disjoint from `delivered`.
  std::uint64_t messages_given_up = 0;
  std::uint64_t total_backoffs = 0;  ///< retry-backoff parkings
  // Dynamic-fault accounting (zero without an active FaultPlan).
  std::uint64_t fault_down_events = 0;
  std::uint64_t fault_up_events = 0;
  /// Correlated subtree-kill events (scheduled or storm-drawn domain
  /// strikes); each also contributes its channels to fault_down_events.
  std::uint64_t subtree_kill_events = 0;
  /// Channel-cycles spent below full admission limit (down or browned
  /// out): the time-degraded numerator of availability.
  std::uint64_t degraded_channel_cycles = 0;
  /// Wall-clock phase decomposition; all-zero unless
  /// EngineOptions::time_phases was set.
  EnginePhaseProfile phases;
  std::vector<std::uint32_t> delivered_per_cycle;
};

class CycleEngine {
 public:
  explicit CycleEngine(ChannelGraph graph, const EngineOptions& opts = {});
  ~CycleEngine();

  CycleEngine(const CycleEngine&) = delete;
  CycleEngine& operator=(const CycleEngine&) = delete;

  /// Runs a stream of paths to completion. FIFO: synchronous
  /// store-and-forward rounds; every queue must be seeded before round 1,
  /// so the stream is ingested into one PathSet first (4 bytes per hop,
  /// two allocations). Lossy/tally: every path contends from cycle 1 and
  /// losers retry until delivered (or the engine gives up), consumed chunk
  /// by chunk in O(chunk) input memory. On the tree-tagged graph a lossy
  /// or tally path must be its endpoints' tree path, and is routed as that
  /// leaf pair, so the run is bit-identical to run_stream over the pairs.
  EngineResult run_stream(MessageSource& source,
                          EngineObserver* observer = nullptr);

  /// The same all-at-once run over leaf pairs, on a fat-tree graph
  /// (tree_height != 0) in a lossy or tally mode: each pair is routed on
  /// its tree path, and a self pair is a local delivery with its own id.
  EngineResult run_stream(PairSource& source,
                          EngineObserver* observer = nullptr);

  /// Leaf pairs in a lossy or tally mode, chunk i injected at cycle i + 1
  /// (the offline schedule replay: one chunk per scheduled delivery
  /// cycle). Losers of chunk i retry alongside chunk i + 1. Every chunk
  /// opens a cycle, so a valid offline schedule replays in exactly
  /// schedule.num_cycles() cycles with zero losses.
  EngineResult run_batched_stream(PairSource& source,
                                  EngineObserver* observer = nullptr);

 private:
  /// One contended (over-limit) bucket in fused_stage: channel plus its
  /// [off, off + count) slice of the arena.
  struct OverBucket {
    std::uint32_t chan;
    std::uint32_t off;
    std::uint32_t count;
  };

  /// One stage band's execution state. The global band owns the spine
  /// channels of a sharded graph, and every channel in the serial
  /// executor; each shard band owns the channels of its subtree (the
  /// address codec's shard_of: the partition is the tree tag's), so the
  /// up- and down-phase sweeps of one cycle run shard-parallel with no
  /// shared mutable state. An entry always lands
  /// on the band that owns its channel (Lander, engine.cpp), except that a
  /// shard sweeping on a pool worker parks survivors bound for another
  /// band in its outbox, which the coordinating thread lands between
  /// phases. After the down phase the shards' counters and channel-state
  /// lists fold into the global band. Cache-line aligned: neighbouring
  /// shards' worklist headers and loss/hop counters are written by
  /// different workers every cycle, and letting them share a line costs
  /// real coherence traffic at high shard counts.
  ///
  /// The stage lists are chains of blocks from the band's two pools, and
  /// fused_stage hands a stage's chains back once the stage has run, so
  /// the band's worklist storage follows its peak live entries (about
  /// twice the cycle's contenders) rather than the sum over stages of
  /// each stage's peak. Ownership rule: a band's pools are touched only by
  /// the thread sweeping that band, or by the coordinating thread between
  /// dispatches — the threads that touch its lists — so they take no
  /// locks and no atomics. reset binds every list to its band's pools.
  struct alignas(64) Band {
    BlockPool<std::uint64_t> list_pool;
    BlockPool<std::uint32_t> touched_pool;
    /// Worklists: stage_list[s] holds the band's live messages whose next
    /// channel lies in stage s, packed as (msg << 32) | key with the
    /// codec's Hop::key: the channel on an up stage (s < L), the
    /// destination node on a down stage, where the codec's down_chan
    /// names the channel. So bucket building never decodes the channel
    /// from the message's word, and a down hop forwards without it.
    /// Seeded from each message's first hop (at injection, and by
    /// compaction for retries); stage s arbitration appends its survivors
    /// directly to later stages (paths have strictly increasing stages),
    /// so a cycle costs O(hops) instead of O(stages × pending). List order
    /// is unobservable: a later bucket either sorts its contenders before
    /// the lottery or is under limit, where order decides nothing.
    std::vector<BlockList<std::uint64_t>> stage_list;
    /// stage_touched[s] lists the band's distinct stage-s channels with a
    /// nonzero contender count (bucket_pos_).
    std::vector<BlockList<std::uint32_t>> stage_touched;
    /// Contended buckets occupy [off, off + count) slices of the arena;
    /// over lists them for the stage being swept.
    std::vector<std::uint32_t> arena;
    std::vector<OverBucket> over;
    /// Bit-per-pending-message scratch for the bitmap sort of large
    /// contended buckets (engine.cpp sort_by_bitmap). Kept all-zero
    /// between uses: extraction clears each word it reads.
    std::vector<std::uint64_t> sort_bits;
    /// Survivors of the shard root's up stage bound for another band,
    /// packed (msg << 32) | channel whatever the stage; reserved before
    /// that stage runs, so it never grows by doubling.
    std::vector<std::uint64_t> outbox;
    std::vector<ChannelLoad> loads;     ///< this cycle's arbitrated channels
    std::uint64_t losses = 0;
    std::uint64_t hops = 0;

    /// Empties the band for a run, returning the blocks a run that
    /// max_cycles stopped left in its lists.
    void reset(std::uint32_t num_stages);
  };
  using Hop = AddressCodec::Hop;
  /// The graph's codec, from its tree tag (lossy and tally runs only).
  AddressCodec tree_codec() const {
    return {graph_.tree_height, graph_.num_shards};
  }
  /// The landing rule over hoisted band pointers (defined in engine.cpp).
  struct Lander;
  /// The cycle frame run_lossy and run_fifo share (defined in
  /// engine.cpp): the observer's per-run opt-ins, the run's FaultState,
  /// the current cycle's fault transitions and the phase accounting.
  struct Frame;

  /// The stage kernel (bucket counting, arbitration, accounting, survivor
  /// forwarding in two sweeps) over one band's stage worklist and scratch.
  /// On cycles with channel state (want_loads_) it appends each
  /// arbitrated channel to the band's list. `forward` is invoked as
  /// forward(msg, next_hop) for every surviving message with hops left
  /// and routes it to its next worklist. Must inline into its
  /// caller: the forward closures capture caller-local hoisted pointers
  /// by reference, and an out-of-line instantiation reads them through
  /// the closure on every inner-loop iteration (measured ~25% of lossy
  /// throughput when the compiler declined on size alone).
  template <typename Forward>
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((always_inline))
#endif
  inline void fused_stage(const AddressCodec& codec, std::uint32_t cycle,
                          Band& band, std::uint32_t stage, Forward&& forward);
  /// One full cycle's stage sweep: every stage on the global band
  /// (serial), or parallel shard up phases, the serial outbox landing +
  /// spine band, parallel shard down phases and a fold of the shards'
  /// counters and lists into the global band (sharded; see DESIGN.md,
  /// "Scale-out").
  void run_cycle(const AddressCodec& codec, std::uint32_t cycle);
  EngineResult run_lossy(BatchFeed& feed, EngineObserver* observer);
  /// Builds the dense limit_: each channel's admission limit.
  void fill_limits();
  EngineResult run_fifo(const PathSet& paths, EngineObserver* observer);

  /// The cycle frame's four steps. begin_run samples the observer's
  /// opt-ins and builds the run's FaultState; begin_cycle returns the
  /// cycle index after applying the cycle's fault transitions (and
  /// emitting their events); end_cycle folds the snapshot's counters into
  /// the result, fills its shared fields, hands it to the observer and
  /// charges the cycle's coordination time — it returns false when
  /// max_cycles stops a run that has messages left (`more`); end_run
  /// folds the phase profile into the result.
  Frame begin_run(EngineObserver* observer);
  std::uint32_t begin_cycle(Frame& f);
  bool end_cycle(Frame& f, CycleSnapshot& snap, bool more);
  EngineResult end_run(Frame& f);

  ChannelGraph graph_;
  EngineOptions opts_;
  std::unique_ptr<ThreadPool> pool_;  ///< null unless 2+ threads

  /// The sharded executor: engaged when a tagged graph carries a shard
  /// count, the engine is parallel and the policy is lossy or tally.
  /// Serial and sharded runs are bit-identical — every channel's
  /// contender set and pinned (seed, cycle, channel) lottery are the same
  /// — so this is purely an execution strategy, not a model change.
  bool sharded_ = false;
  /// Shard bands first (index = shard id, sharded executor only), then
  /// the global band (bands_.back()). Sized once at construction.
  std::vector<Band> bands_;

  /// Admission limit of each level 0 .. L on a tagged graph (empty on a
  /// flat one): floor(alpha * capacity) floor 1 (RandomSubset), unlimited
  /// (Tally), capacity (Fifo), all clamped to 2^32 - 1. The clamp is
  /// lossless: contender counts and queue lengths are bounded by the
  /// number of live messages, which is below 2^32. Resolved at
  /// construction so the per-cycle loops never touch doubles.
  std::vector<std::uint32_t> level_limit_;

  /// The same rule per channel, 32-bit so the table is half as tall.
  /// Built only where a channel's own limit is read: FIFO rounds and a
  /// graph with a per-channel capacity table (flat graphs, static wire
  /// overrides) at construction, and the base of a faulted run's
  /// FaultState at its start; empty otherwise (a fault-free, override-free
  /// lossy or tally engine: 16 MiB at n = 2^20 it never reads).
  std::vector<std::uint32_t> limit_;

  /// Admission limits in force for the current cycle: limit_.data() when
  /// the dense table exists, the FaultState's effective limits (0 =
  /// channel down) in a faulted run, and null otherwise, where fused_stage
  /// compares each bucket with its stage's level limit. Every arbitration
  /// site reads limits through this pointer.
  const std::uint32_t* active_limit_ = nullptr;

  /// Per-message retry state, maintained only when opts_.retry.enabled():
  /// attempts_[i] counts the cycles message i has contended in, wake_[i]
  /// is the cycle it next contends (== current cycle while active, a
  /// future cycle while parked in backoff). Compacted with ce_.
  std::vector<std::uint32_t> attempts_;
  std::vector<std::uint32_t> wake_;

  // All per-run/per-cycle scratch below (and the bands' scratch above) is
  // a member so repeated runs on one engine reach a steady state
  // with no allocation: vectors are cleared, never shrunk, and the stage
  // lists recycle their blocks through the band pools, which keep every
  // block they have allocated.
  /// Live messages, injection order, struct-of-arrays. The stage sweeps
  /// index messages randomly but only ever touch the codec's packed word,
  /// whose low bits are the hop cursor and which names every hop, the
  /// first one (reseed) included. An up hop advances it with one 64-bit
  /// increment; a down hop leaves it, and the cursor is sought once per
  /// down-band visit: at delivery, or at the contended bucket where the
  /// message won or lost.
  std::vector<std::uint64_t> ce_;  ///< the codec's word per message
  /// Injection-order message id, written, resized and compacted only in a
  /// traced run: its only readers are the Inject, Attempt, Loss, Deliver,
  /// Backoff and GiveUp events, each reading it in index order at most
  /// once per cycle. Empty in an untraced run.
  std::vector<std::uint32_t> id_;
  /// Bucket state, shared by every band (channels partition across bands
  /// and stages). Contender counts accumulate where an entry lands, so
  /// counts for a later stage are stable by the time it runs:
  /// bucket_pos_[c] is the count of channel c's contenders, then a fill
  /// cursor or under-limit sentinel during the stage's sweep, and is
  /// reset to zero (sticky) when the stage ends.
  std::vector<std::uint32_t> bucket_pos_;
  /// AdaptiveOccupancy state, reset per run: hot_last_[c] is the last
  /// cycle in which channel c's bucket ran over its limit, hot_start_[c]
  /// the first cycle of that unbroken run. Both are written by whichever
  /// shard or band arbitrated c — a stage's channels belong to one shard
  /// or to the spine, so writes never race — and read on the serial
  /// compaction path after the sweep joins, so every executor sees the
  /// same streaks. hot_start_ starts at 1: the first possible run begins
  /// at cycle 1, not at the never-run cycle 0 that hot_last_ starts at.
  std::vector<std::uint32_t> hot_last_;
  std::vector<std::uint32_t> hot_start_;
  /// Whether the current cycle records channel state (the bands' loads
  /// lists, CycleSnapshot::loads): only on cycles an observer asks for
  /// (wants_channel_state).
  bool want_loads_ = false;

  /// Latency sampling (observer wants_latency_samples() only): the cycle
  /// each live message was injected in, compacted with ce_, and the
  /// current cycle's delivered samples handed out through the snapshot.
  std::vector<std::uint32_t> inject_cycle_;
  std::vector<LatencySample> lat_samples_;

  /// Phase-timing accumulators (opts_.time_phases only), reset per run
  /// and folded into EngineResult::phases: the stage sweeps add to
  /// up/spine/down from the coordination path, and end_cycle charges the
  /// rest of each cycle to the frame's coord.
  bool time_phases_ = false;
  double ph_up_ = 0.0;
  double ph_spine_ = 0.0;
  double ph_down_ = 0.0;
};

}  // namespace ft
