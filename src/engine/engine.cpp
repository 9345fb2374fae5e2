#include "engine/engine.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <memory>

#include "util/check.hpp"
#include "util/parse.hpp"
#include "util/prng.hpp"

namespace ft {
namespace {

/// Independent arbitration stream per (run seed, cycle, channel): no
/// random decision depends on the order channels are resolved in, which
/// is what makes parallel mode bit-identical to serial mode.
std::uint64_t arbitration_seed(std::uint64_t seed, std::uint32_t cycle,
                               std::uint32_t channel) {
  SplitMix64 sm(seed ^ (static_cast<std::uint64_t>(cycle) << 32) ^ channel);
  return sm.next();
}

/// Below this much work a shard band runs inline: waking the pool costs
/// more than the work itself. A band counts its worklist entries (summed
/// over shards), so late cycles drop back to inline as messages deliver.
constexpr std::size_t kMinParallelWork = 4096;

/// Restores ascending pending order before a bucket's lottery, for
/// buckets of at most 64 contenders (fused_stage sends larger ones to
/// sort_by_bitmap, so the quadratic worst case stays bounded). Small
/// buckets are usually already sorted — fed straight off the ascending
/// seed list, or scrambled only by upstream lottery winners — so adaptive
/// insertion sort beats std::sort here: the already-sorted case is one
/// compare per element with no call overhead, and near-sorted buckets
/// finish in a handful of moves.
inline void sort_small(std::uint32_t* b, std::size_t n) {
  for (std::size_t k = 1; k < n; ++k) {
    const std::uint32_t x = b[k];
    std::size_t j = k;
    for (; j > 0 && b[j - 1] > x; --j) b[j] = b[j - 1];
    b[j] = x;
  }
}

/// Sorts a large bucket by marking its entries — distinct pending-message
/// indices — in a bit-per-message scratch and reading the bits back in
/// order: O(n + span/64) with word-at-a-time constants, against
/// std::sort's n log n comparison sort. `bits` must be all-zero on entry
/// and is left all-zero: extraction clears each word it reads. Every band
/// owns its scratch, so concurrent shards never share it.
inline void sort_by_bitmap(std::uint64_t* bits, std::uint32_t* b,
                           std::uint32_t n) {
  std::uint32_t wmin = 0xffffffffu;
  std::uint32_t wmax = 0;
  for (std::uint32_t t = 0; t < n; ++t) {
    const std::uint32_t v = b[t];
    const std::uint32_t w = v >> 6;
    bits[w] |= 1ull << (v & 63u);
    wmin = std::min(wmin, w);
    wmax = std::max(wmax, w);
  }
  std::uint32_t out = 0;
  for (std::uint32_t w = wmin; w <= wmax; ++w) {
    std::uint64_t m = bits[w];
    if (m == 0) continue;
    bits[w] = 0;
    const std::uint32_t base = w << 6;
    do {
      b[out++] = base + static_cast<std::uint32_t>(std::countr_zero(m));
      m &= m - 1;
    } while (m != 0);
  }
}

/// AdaptiveOccupancy tuning. A channel is "hot" once it has run over its
/// admission limit for this many consecutive cycles — one contended cycle
/// is normal lottery noise, a streak is persistent congestion (the
/// persistence test of Rocher-Gonzalez et al., arXiv:2502.00597, in
/// delivery-cycle units).
constexpr std::uint32_t kAdaptiveHotStreak = 3;
/// Widest desynchronization window: a hot channel's losers spread their
/// retries over min(streak, kAdaptiveMaxDelay) upcoming cycles.
constexpr std::uint32_t kAdaptiveMaxDelay = 8;

/// True for the disciplines that assign individual wires (and can
/// therefore admit fewer than `limit` winners); ObliviousRandom and
/// AdaptiveOccupancy keep the paper's cap-subset lottery.
inline bool wire_selecting(RoutingPolicy pol) {
  return pol == RoutingPolicy::DeterministicDmod ||
         pol == RoutingPolicy::RandomLoadBalanced;
}

/// Wire-claim scratch for the wire-selecting disciplines: a flag per wire
/// plus the claimed-wire list that re-zeroes it. thread_local because
/// sharded bands arbitrate buckets on pool workers.
struct WireClaims {
  std::vector<std::uint8_t> taken;
  std::vector<std::uint32_t> claimed;
};

/// Resolves one over-limit bucket under a wire-selecting discipline.
/// `b[0..size)` must already be in ascending pending order (the same
/// sorted view the oblivious lottery sees). Each contender bids for one
/// of the channel's `limit` wires — DeterministicDmod by destination key
/// (the path's final channel, stable wherever the cursor points and
/// identical in every executor), RandomLoadBalanced by hashing the
/// bucket's pinned (seed, cycle, channel) stream with the contender's
/// pending index (the executor-invariant per-message identity) — and the
/// lowest pending index wins each wire. Winners are swapped stably to
/// b[0..w); returns w. Wires nobody bids for idle, which is exactly the
/// static-path pathology the adversarial traffic generators target.
/// Depends only on the sorted bucket, ce, limit and the pinned stream,
/// so every executor computes the same winner set.
std::uint32_t select_policy_winners(RoutingPolicy pol, std::uint32_t* b,
                                    std::size_t size, std::uint64_t limit,
                                    std::uint64_t seed, std::uint32_t cycle,
                                    std::uint32_t channel,
                                    const std::uint64_t* ce) {
  if (limit == 0) return 0;
  thread_local WireClaims wc;
  if (wc.taken.size() < limit) wc.taken.resize(limit, 0);
  wc.claimed.clear();
  const std::uint64_t arb = arbitration_seed(seed, cycle, channel);
  std::uint32_t w = 0;
  for (std::size_t t = 0; t < size; ++t) {
    const std::uint32_t i = b[t];
    std::uint64_t wire;
    if (pol == RoutingPolicy::DeterministicDmod) {
      wire = static_cast<std::uint64_t>(AddressCodec::last_chan(ce[i])) %
             limit;
    } else {
      SplitMix64 h(arb ^
                   (static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ull));
      wire = h.next() % limit;
    }
    if (!wc.taken[wire]) {
      wc.taken[wire] = 1;
      wc.claimed.push_back(static_cast<std::uint32_t>(wire));
      std::swap(b[w], b[t]);  // stable for winners: w <= t
      ++w;
    }
  }
  for (const std::uint32_t wire : wc.claimed) wc.taken[wire] = 0;
  return w;
}

/// A channel's admission limit, a pure function of (policy, alpha,
/// capacity): floor(alpha * cap) floor 1 (RandomSubset) or unlimited
/// (Tally), clamped to 2^32 - 1. The clamp never changes an admission
/// decision: counts compared against a limit are bounded by the number of
/// live messages, which is below 2^32.
inline std::uint32_t admission_limit(const EngineOptions& opts,
                                     std::uint64_t cap) {
  constexpr std::uint64_t kMaxLimit = 0xffffffffu;
  if (opts.contention == ContentionPolicy::Tally) {
    return static_cast<std::uint32_t>(kMaxLimit);
  }
  return static_cast<std::uint32_t>(std::min(
      kMaxLimit,
      std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(static_cast<double>(cap) *
                                        opts.alpha))));
}

/// Worklist entry layout (see Band::stage_list): (msg, key) packed into
/// one 64-bit word, the key being the codec's Hop::key (a channel, or on
/// a down stage a destination node). A 16+16-bit packing for small runs
/// was tried and measured ~10% slower despite halving the stream, so the
/// layout is fixed.
inline std::uint64_t pack_entry(std::uint32_t msg, std::uint32_t key) {
  return (static_cast<std::uint64_t>(msg) << 32) | key;
}
inline std::uint32_t entry_msg(std::uint64_t e) {
  return static_cast<std::uint32_t>(e >> 32);
}
inline std::uint32_t entry_key(std::uint64_t e) {
  return static_cast<std::uint32_t>(e);
}

/// Injection's check of one path's hops (PathSet input, tagged graph): a
/// channel a message may use (ChannelGraph::in_budget), in strictly
/// increasing stage order — the worklist invariant that buckets each
/// message once per cycle. Each hop's stage is the codec's.
inline void check_path(const ChannelGraph& graph, const AddressCodec& codec,
                       const std::uint32_t* hops, std::uint32_t len) {
  const std::size_t nch = graph.num_channels();
  std::uint32_t prev = 0;
  for (std::uint32_t h = 0; h < len; ++h) {
    const std::uint32_t c = hops[h];
    FT_CHECK_MSG(c < nch && graph.in_budget(c),
                 "path uses an unknown channel");
    const std::uint32_t next = codec.stage_of(c) + 1;
    FT_CHECK_MSG(next > prev, "path stages must strictly increase");
    prev = next;
  }
}

/// Grows a shard's outbox to `n` entries. Out of line: inlined into the
/// shard sweep, this one call cost `contended_t2` 2-4% of its msgs/s.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((noinline))
#endif
void reserve_outbox(std::vector<std::uint64_t>& outbox, std::size_t n) {
  outbox.reserve(n);
}

/// Phase timing (EngineOptions::time_phases) clock. Timing reads happen
/// on the coordination path only, so they never perturb arbitration or
/// any other simulated outcome.
using PhaseClock = std::chrono::steady_clock;
inline double phase_delta(PhaseClock::time_point a, PhaseClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One injected batch: a PathSet, or leaf pairs on a tagged graph. Both
/// null: no further batch this cycle.
struct Batch {
  const PathSet* paths = nullptr;
  const std::vector<LeafPair>* pairs = nullptr;
  explicit operator bool() const {
    return paths != nullptr || pairs != nullptr;
  }
};

inline Batch as_batch(const PathSet& paths) { return {&paths, nullptr}; }
inline Batch as_batch(const std::vector<LeafPair>& pairs) {
  return {nullptr, &pairs};
}

}  // namespace

/// See the declaration in engine.hpp. The cycle loop calls next(cycle)
/// repeatedly within one cycle until it returns no batch, consuming each
/// returned batch before the following call (so feeds may reuse one
/// buffer). exhausted() must be accurate by the end of the cycle that
/// injected the last batch: the loop's termination test reads it, and a
/// late flip would cost a spurious empty cycle, which would make the run
/// depend on how its input is chunked.
class BatchFeed {
 public:
  virtual ~BatchFeed() = default;
  virtual Batch next(std::uint32_t cycle) = 0;
  virtual bool exhausted() const = 0;
};

namespace {

/// Streams every chunk of a source into cycle 1 (run_stream). One chunk
/// buffer is refilled in place between next() calls; the first chunk is
/// prefetched so an empty source is exhausted before the cycle loop starts
/// (cycles == 0). Source is MessageSource with PathSet chunks, or
/// PairSource with leaf-pair chunks.
template <typename Source, typename Chunk>
class StreamAllFeed final : public BatchFeed {
 public:
  explicit StreamAllFeed(Source& source) : source_(source) {
    pending_ = source_.next_chunk(chunk_);
  }

  Batch next(std::uint32_t cycle) override {
    if (cycle != 1 || !pending_) return {};
    if (!served_first_) {
      served_first_ = true;
      return as_batch(chunk_);
    }
    pending_ = source_.next_chunk(chunk_);
    return pending_ ? as_batch(chunk_) : Batch{};
  }
  bool exhausted() const override { return !pending_; }

 private:
  Source& source_;
  Chunk chunk_;
  bool pending_ = false;
  bool served_first_ = false;
};

/// Streams one leaf-pair chunk per cycle (run_batched_stream). The
/// following chunk is prefetched as the current one is served, so
/// exhausted() flips in the same cycle the last chunk is injected.
class StreamBatchFeed final : public BatchFeed {
 public:
  explicit StreamBatchFeed(PairSource& source) : source_(source) {
    pending_ = source_.next_chunk(cur_);
  }

  Batch next(std::uint32_t cycle) override {
    if (!pending_ || cycle == last_cycle_) return {};
    last_cycle_ = cycle;
    std::swap(cur_, serve_);
    pending_ = source_.next_chunk(cur_);
    return as_batch(serve_);
  }
  bool exhausted() const override { return !pending_; }

 private:
  PairSource& source_;
  std::vector<LeafPair> cur_;    ///< prefetched, served next
  std::vector<LeafPair> serve_;  ///< being consumed by the engine
  bool pending_ = false;
  std::uint32_t last_cycle_ = 0;
};

}  // namespace

CycleEngine::CycleEngine(ChannelGraph graph, const EngineOptions& opts)
    : graph_(std::move(graph)), opts_(opts) {
  // An alpha above 1 would admit more than a channel's wires.
  FT_CHECK_MSG(opts_.alpha > 0.0 && opts_.alpha <= 1.0,
               "alpha must be in (0, 1]");
  // Only the address codec routes a message, and only the tree tag
  // defines it and the shard partition.
  const std::uint32_t L = graph_.tree_height;
  FT_CHECK_MSG(L != 0, "the engine needs a tree-tagged channel graph");
  // The address codec indexes channels, stages and shards by formula, so
  // the tag must describe this graph: a capacity for each level 0 .. L,
  // 2^(L+2) channel slots (heap nodes below 2^(L+1), two directions) in
  // a per-channel table when there is one, and a shard count that is a
  // power of two below the leaves.
  FT_CHECK_MSG(L <= ChannelGraph::kMaxTreeHeight &&
                   graph_.level_capacity.size() == L + 1 &&
                   (graph_.capacity.empty() ||
                    graph_.capacity.size() == std::size_t{4} << L) &&
                   (graph_.num_shards == 0 ||
                    (std::has_single_bit(graph_.num_shards) &&
                     graph_.num_shards < (1u << L))),
               "tree tag does not match the channel graph");
  // Every channel a message may use (ChannelGraph::in_budget) has a wire,
  // so no path or pair needs a capacity check at injection. Those are the
  // tree channels, levels 1 .. L, which a CapacityProfile never leaves
  // wireless.
  bool wired = true;
  if (graph_.capacity.empty()) {
    for (std::uint32_t k = 1; k <= L; ++k) {
      wired &= graph_.level_capacity[k] != 0;
    }
  } else {
    for (std::size_t c = 4; c < graph_.capacity.size(); ++c) {
      wired &= graph_.capacity[c] != 0;
    }
  }
  FT_CHECK_MSG(wired, "a tree channel has no wires");
  // The contention rule is resolved once per level, so the per-cycle loops
  // are integer-only. The dense table exists only where a channel's own
  // limit is read: a per-channel capacity table here, a fault plan's base
  // at its run's start (begin_run).
  level_limit_.resize(graph_.level_capacity.size());
  for (std::size_t k = 0; k < level_limit_.size(); ++k) {
    level_limit_[k] = admission_limit(opts_, graph_.level_capacity[k]);
  }
  if (!graph_.capacity.empty()) fill_limits();
  // Subtree sharding is the engine's only parallel executor, and it needs
  // a shard count: an unsharded graph runs serial, with no pool. The pool
  // is built only when it can receive a batch: with one thread the
  // sharded layout runs its shard loop inline.
  sharded_ = opts_.parallel && graph_.num_shards > 1;
  if (sharded_) {
    // Resolved only here: a serial engine (every ftd job) pays for no
    // hardware_concurrency() system calls.
    const std::size_t threads = resolve_threads(opts_.threads);
    if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
  }
  bands_.resize(sharded_ ? graph_.num_shards + 1 : 1);
}

CycleEngine::~CycleEngine() = default;

void CycleEngine::fill_limits() {
  limit_.resize(graph_.num_channels());
  for (std::size_t c = 0; c < limit_.size(); ++c) {
    limit_[c] = admission_limit(opts_, graph_.capacity_of(c));
  }
}

EngineResult CycleEngine::run_stream(MessageSource& source,
                                     EngineObserver* observer) {
  StreamAllFeed<MessageSource, PathSet> feed(source);
  return run_lossy(feed, observer);
}

EngineResult CycleEngine::run_stream(PairSource& source,
                                     EngineObserver* observer) {
  StreamAllFeed<PairSource, std::vector<LeafPair>> feed(source);
  return run_lossy(feed, observer);
}

EngineResult CycleEngine::run_batched_stream(PairSource& source,
                                             EngineObserver* observer) {
  StreamBatchFeed feed(source);
  return run_lossy(feed, observer);
}

/// The stage kernel: bucket building, arbitration, accounting and
/// survivor forwarding fused into two sweeps of one band's stage
/// worklist, over the band's scratch. Only over-limit (contended) buckets
/// are materialized in the arena; everyone else advances and forwards in
/// place during the fill sweep, because an uncontended channel admits its
/// whole bucket no matter the order. The outcome does not depend on which
/// worklists fed the stage: contended buckets sort to pending order
/// before the pinned lottery, and worklist order is unobservable (see
/// Band::stage_list).
template <typename Forward>
void CycleEngine::fused_stage(const AddressCodec& codec, std::uint32_t cycle,
                              Band& band, std::uint32_t stage,
                              Forward&& forward) {
  // bucket_pos_ sentinel for channels that stay under their limit; arena
  // fill cursors never reach it (injection keeps the live message count
  // below 2^32 - 1).
  constexpr std::uint32_t kUncontended = 0xffffffffu;
  // The sweeps below hoist every member array into a local: the worklist
  // push_backs can allocate, and past any opaque call the compiler must
  // reload member-reachable pointers — locals stay in registers. None of
  // the hoisted buffers reallocates during the stage (the arena is sized
  // before the sweep; a forward to stage s' != stage grows only that
  // stage's block chain, not the outer arrays).
  BlockList<std::uint64_t>& list = band.stage_list[stage];
  BlockList<std::uint32_t>& touched = band.stage_touched[stage];
  std::vector<OverBucket>& over = band.over;
  std::vector<ChannelLoad>& loads = band.loads;
  std::uint32_t* const bp = bucket_pos_.data();
  const std::uint32_t* const lim = active_limit_;
  // Without a per-channel table every channel of the stage has one limit:
  // a stage is one level and direction, up stage s at level L - s and
  // down stage s at level s - L + 1.
  const std::uint32_t stage_lim =
      lim != nullptr ? 0
                     : level_limit_[stage < codec.height
                                        ? codec.height - stage
                                        : stage - codec.height + 1];
  std::uint64_t hops = 0;
  std::uint64_t losses = 0;
  over.clear();
  std::uint32_t total = 0;
  touched.for_each([&](std::uint32_t c) {
    const std::uint32_t count = bp[c];
    if (count > (lim != nullptr ? lim[c] : stage_lim)) {
      over.push_back({c, total, count});
      bp[c] = total;  // fill cursor for the sweep below
      total += count;
    } else {
      if (want_loads_) loads.push_back({c, count});
      hops += count;
      bp[c] = kUncontended;
    }
  });
  band.arena.resize(total);
  std::uint64_t* const ce = ce_.data();
  std::uint32_t* const ar = band.arena.data();
  if (stage < codec.height) {
    // An up entry carries its channel. An up hop is never a path's last
    // (h up hops precede h down hops), so every survivor forwards.
    list.for_each([&](std::uint64_t e) {
      const std::uint32_t c = entry_key(e);
      const std::uint32_t i = entry_msg(e);
      const std::uint32_t pos = bp[c];
      if (pos == kUncontended) {
        forward(i, codec.hop(++ce[i]));
      } else {
        ar[pos] = i;
        bp[c] = pos + 1;
      }
    });
  } else {
    // A down entry carries its destination, which names its channel here
    // and at every later stage, so an uncontended hop leaves the word
    // alone. The cursor catches up once: at delivery, or on entering a
    // contended bucket, whose winners advance from it below and whose
    // losers keep it as their loss hop.
    const std::uint32_t next = stage + 1;
    const bool last = next == codec.num_stages();
    list.for_each([&](std::uint64_t e) {
      const std::uint32_t d = entry_key(e);
      const std::uint32_t c = codec.down_chan(d, stage);
      const std::uint32_t i = entry_msg(e);
      const std::uint32_t pos = bp[c];
      if (pos == kUncontended) {
        if (last) {
          ce[i] = codec.seek(ce[i], next);
        } else {
          forward(i, codec.down_hop(d, next));
        }
      } else {
        ce[i] = codec.seek(ce[i], stage);
        ar[pos] = i;
        bp[c] = pos + 1;
      }
    });
  }
  std::uint64_t* const bits = band.sort_bits.data();
  const RoutingPolicy pol = opts_.policy;
  const bool wire_sel = wire_selecting(pol);
  const bool adaptive = pol == RoutingPolicy::AdaptiveOccupancy;
  for (const OverBucket& ob : over) {
    std::uint32_t* b = ar + ob.off;
    const std::uint64_t limit = lim != nullptr ? lim[ob.chan] : stage_lim;
    // The pinned lottery saw contenders in ascending pending index (the
    // original engine scanned messages in order); worklist forwarding
    // scrambles that, so restore the exact sequence first. Under-limit
    // buckets skip this: with no lottery, order is invisible.
    if (ob.count > 64) {
      sort_by_bitmap(bits, b, ob.count);
    } else {
      sort_small(b, ob.count);
    }
    std::uint64_t winners = limit;
    if (wire_sel) {
      winners = select_policy_winners(pol, b, ob.count, limit, opts_.seed,
                                      cycle, ob.chan, ce);
    } else {
      // Adaptive run stamps are per-channel; channels of one stage are
      // disjoint across shards, so a worker's write never races.
      if (adaptive) {
        std::uint32_t& last = hot_last_[ob.chan];
        if (last + 1 != cycle) hot_start_[ob.chan] = cycle;
        last = cycle;
      }
      // Truncated Fisher–Yates: the full backward shuffle finalizes the
      // loser block [limit, count) with its first count - limit draws —
      // every later draw only permutes the winner block [0, limit) — so
      // stopping there keeps the kept/killed partition bit-identical
      // while skipping O(limit) tail work. Losers land in lottery order
      // rather than index order, which nothing observable depends on
      // (see DESIGN.md, "Engine hot path").
      Rng arb(arbitration_seed(opts_.seed, cycle, ob.chan));
      for (std::size_t i = ob.count; i > limit; --i) {
        const std::size_t j = arb.below(i);
        std::swap(b[i - 1], b[j]);
      }
    }
    // Losers need no write here: their cursor names this hop (an up
    // cursor by construction, a down one since the fill sweep), short of
    // the path's end, and everything downstream (compaction, tracing)
    // reads the loss hop and the delivered state straight off the word.
    for (std::size_t k = 0; k < winners; ++k) {
      const std::uint64_t v = ++ce[b[k]];
      if (codec.more(v)) forward(b[k], codec.hop(v));
    }
    if (want_loads_) {
      loads.push_back({ob.chan, static_cast<std::uint32_t>(winners)});
    }
    hops += winners;
    losses += ob.count - winners;
  }
  touched.for_each([bp](std::uint32_t c) { bp[c] = 0; });  // sticky zeros
  // The stage receives no more work this cycle: its chains go back to the
  // band's pools for the later stages' lists.
  touched.release();
  list.release();
  band.hops += hops;
  band.losses += losses;
}

void CycleEngine::Band::reset(std::uint32_t num_stages) {
  stage_list.resize(num_stages);
  for (auto& list : stage_list) {
    list.bind(list_pool);
    list.release();
  }
  stage_touched.resize(num_stages);
  for (auto& t : stage_touched) {
    t.bind(touched_pool);
    t.release();
  }
  outbox.clear();
  loads.clear();
  losses = 0;
  hops = 0;
}

/// The landing rule: an entry lands on the band that owns its channel —
/// the channel's shard band (the address codec's shard_of) in the sharded
/// executor, the global band for spine channels and for every channel of
/// the serial executor — and counts into the channel's bucket as it
/// lands. Injection, compaction's reseed, the outbox landing and the
/// global band's forwards all use it, so spine survivors reach their
/// shard directly. The pointers are hoisted once (the bands' outer arrays
/// never move during a run), which keeps the per-entry path in registers
/// across the opaque push_back calls; reaching the bands through `this`
/// would force member reloads on every entry (the same hoisting rule as
/// the fused stage sweeps).
struct CycleEngine::Lander {
  explicit Lander(CycleEngine& e)
      : codec(e.tree_codec()),
        bp(e.bucket_pos_.data()),
        sharded(e.sharded_),
        bands(e.bands_.data()),
        g_lst(e.bands_.back().stage_list.data()),
        g_touch(e.bands_.back().stage_touched.data()) {}

  // Forced inline for the same reason as fused_stage: its callers are big
  // enough that the inliner otherwise leaves this as an out-of-line call
  // on every injected, retried or forwarded message.
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((always_inline))
#endif
  inline void operator()(std::uint32_t msg, Hop hop) const {
    auto* lst = g_lst;
    auto* touch = g_touch;
    if (sharded) {
      const std::uint32_t sh = codec.shard_of(hop.chan);
      if (sh != AddressCodec::kSpine) {
        lst = bands[sh].stage_list.data();
        touch = bands[sh].stage_touched.data();
      }
    }
    if (bp[hop.chan]++ == 0) touch[hop.stage].push_back(hop.chan);
    lst[hop.stage].push_back(pack_entry(msg, hop.key));
  }

  AddressCodec codec;
  std::uint32_t* bp;
  bool sharded;  ///< false in the serial executor
  Band* bands;
  BlockList<std::uint64_t>* g_lst;
  BlockList<std::uint32_t>* g_touch;
};

/// One cycle's stage sweep. Every stage runs the fused kernel; the
/// executors differ only in which band a stage runs on. The serial
/// executor runs every stage on the global band. The sharded one splits
/// the stage axis into three bands: shards sweep the up band
/// [0, spine_lo) in parallel; the coordinating thread lands the shards'
/// outboxes and runs the spine band [spine_lo, spine_hi) on the global
/// band, whose survivors land on their shards directly; shards then sweep
/// the down band [spine_hi, num_stages) in parallel. Bit-identity between
/// the two follows from channel disjointness: every channel's contender
/// set is assembled from the same messages, restored to ascending pending
/// order before its pinned (seed, cycle, channel) lottery, and under-limit
/// buckets admit everyone regardless of order.
#if defined(__GNUC__) && !defined(__clang__)
// Past GCC's unit-growth inlining budget the inliner leaves the
// push_back fast paths of the forward closures below as out-of-line
// calls — one call per forwarded hop, ~20% of lossy throughput (verified
// with gprof). flatten forces full inlining of the sweeps regardless of
// the unit budget.
__attribute__((flatten))
#endif
void CycleEngine::run_cycle(const AddressCodec& codec, std::uint32_t cycle) {
  const std::uint32_t num_stages = codec.num_stages();
  Band& global = bands_.back();
  const Lander land(*this);

  // The global band: the fused kernel on the coordinating thread.
  auto run_global = [&](std::uint32_t s_begin, std::uint32_t s_end) {
    for (std::uint32_t s = s_begin; s < s_end; ++s) {
      if (global.stage_list[s].empty()) continue;
      fused_stage(codec, cycle, global, s,
                  [&](std::uint32_t i, Hop hop) { land(i, hop); });
    }
  };

  if (!sharded_) {
    PhaseClock::time_point t0;
    if (time_phases_) t0 = PhaseClock::now();
    run_global(0, num_stages);
    if (time_phases_) ph_spine_ += phase_delta(t0, PhaseClock::now());
    return;
  }

  const std::uint32_t spine_lo = codec.spine_lo;
  const std::uint32_t spine_hi = codec.spine_hi;
  const std::size_t num_shards = bands_.size() - 1;
  Band* const shards = bands_.data();

  // A shard's stage band: the fused kernel on its own scratch. The
  // forward rule is the shard invariant in code — below the spine a
  // survivor's next channel is always ours, and so is every next channel
  // in the down band (descent never leaves the subtree); after the up
  // band's turn, anything not ours (spine channels, another shard's down
  // channels) leaves through the outbox, because only the coordinating
  // thread may land an entry on another band. An outbox entry names its
  // channel, whose stage the landing recomputes.
  auto run_band = [&](Band& st, std::uint32_t my_shard,
                      std::uint32_t s_begin, std::uint32_t s_end) {
    std::uint32_t* const bp = bucket_pos_.data();
    auto* const lst = st.stage_list.data();
    auto* const touch = st.stage_touched.data();
    const bool down = s_begin >= spine_hi;
    for (std::uint32_t s = s_begin; s < s_end; ++s) {
      if (lst[s].empty()) continue;
      // The shard root's up stage is the only one that forwards across
      // the shard's edge, at most once per entry: reserving for all of
      // them keeps the outbox from doubling past its need.
      if (s + 1 == spine_lo) {
        reserve_outbox(st.outbox, st.outbox.size() + lst[s].size());
      }
      fused_stage(codec, cycle, st, s, [&](std::uint32_t i, Hop hop) {
        const std::uint32_t nc = hop.chan;
        if (down || hop.stage < spine_lo || codec.shard_of(nc) == my_shard) {
          if (bp[nc]++ == 0) touch[hop.stage].push_back(nc);
          lst[hop.stage].push_back(pack_entry(i, hop.key));
        } else {
          st.outbox.push_back(pack_entry(i, nc));
        }
      });
    }
  };

  auto band_entries = [&](std::uint32_t s_begin, std::uint32_t s_end) {
    std::size_t entries = 0;
    for (std::size_t sh = 0; sh < num_shards; ++sh) {
      for (std::uint32_t s = s_begin; s < s_end; ++s) {
        entries += shards[sh].stage_list[s].size();
      }
    }
    return entries;
  };

  // Small cycles, and every cycle of an engine without a pool, run the
  // shard loop inline — same structure, same results, no pool wakeup
  // (late cycles shrink below the threshold as messages deliver).
  auto dispatch = [&](std::uint32_t s_begin, std::uint32_t s_end) {
    if (pool_ != nullptr &&
        band_entries(s_begin, s_end) >= kMinParallelWork) {
      pool_->run_tasks(num_shards, [&](std::size_t sh) {
        run_band(shards[sh], static_cast<std::uint32_t>(sh), s_begin, s_end);
      });
    } else {
      for (std::size_t sh = 0; sh < num_shards; ++sh) {
        run_band(shards[sh], static_cast<std::uint32_t>(sh), s_begin, s_end);
      }
    }
  };

  // Phase timing splits the sweep at its three natural seams: the two
  // shard-parallel dispatches and the serial middle (outbox landing and
  // spine band) between them.
  PhaseClock::time_point pt0, pt1, pt2;
  if (time_phases_) pt0 = PhaseClock::now();

  // Up phase: shard-parallel.
  dispatch(0, spine_lo);

  if (time_phases_) pt1 = PhaseClock::now();

  // Outbox landing, serial: each crossing survivor lands on the band that
  // owns its next channel — the global band's spine worklists or its
  // destination shard's down worklists, where its key is its destination,
  // read from its word.
  const std::uint64_t* const ce = ce_.data();
  for (std::size_t sh = 0; sh < num_shards; ++sh) {
    std::vector<std::uint64_t>& outbox = shards[sh].outbox;
    for (const std::uint64_t e : outbox) {
      const std::uint32_t i = entry_msg(e);
      land(i, codec.hop_onto(entry_key(e), ce[i]));
    }
    outbox.clear();
  }

  // Spine stages, on the global band: the only arbitration that crosses
  // shards. Empty when the shard roots sit directly under the fat-tree
  // root (shard level 1). The spine stays on the coordinating thread:
  // arbitrating its buckets on the pool measured no faster than this
  // serial pass (DESIGN.md, "Measured dead ends").
  run_global(spine_lo, spine_hi);

  if (time_phases_) pt2 = PhaseClock::now();

  // Down phase: shard-parallel; descent never leaves the subtree, so no
  // outbox entries can appear.
  dispatch(spine_hi, num_stages);

  if (time_phases_) {
    const auto pt3 = PhaseClock::now();
    ph_up_ += phase_delta(pt0, pt1);
    ph_spine_ += phase_delta(pt1, pt2);
    ph_down_ += phase_delta(pt2, pt3);
  }

  // The shards' counters and channel state fold into the global band
  // (the lists are empty on cycles without channel state).
  for (std::size_t sh = 0; sh < num_shards; ++sh) {
    Band& st = shards[sh];
    global.losses += st.losses;
    global.hops += st.hops;
    st.losses = 0;
    st.hops = 0;
    global.loads.insert(global.loads.end(), st.loads.begin(), st.loads.end());
    st.loads.clear();
  }
}

// The cycle frame (engine/cycle_frame.hpp) is defined here, beside the
// sweeps, not in a file of its own: code moved in or out of this file
// shifts the sweeps' placement, which has moved perfbench's contended_t2
// msgs/s by 2-5%.
//
// Message-event tracing and latency sampling are sampled once per run;
// when off, the cycle loops pay one predictable branch per use.
CycleFrame::CycleFrame(const ChannelGraph& graph, EngineObserver* observer,
                       const FaultPlan* plan, std::uint32_t max_cycles,
                       CycleTotals& totals, std::vector<ChannelLoad>& loads,
                       std::vector<LatencySample>& latencies)
    : graph_(graph),
      observer_(observer),
      max_cycles_(max_cycles),
      totals_(totals),
      loads_(loads),
      latencies_(latencies),
      trace_(observer != nullptr && observer->wants_message_events()),
      lat_on_(observer != nullptr && observer->wants_latency_samples()) {
  latencies_.clear();
  // Dynamic faults evolve on the coordination path, once per cycle. A
  // down channel admits or forwards nothing that cycle, a browned-out one
  // less.
  if (plan != nullptr && !plan->empty()) {
    faults_ = std::make_unique<FaultState>(*plan, graph_);
  }
}

CycleStart CycleFrame::begin_cycle(
    const std::vector<std::uint32_t>& base_limit) {
  // The cycle index seeds the arbitration streams in 32 bits; widening it
  // would change every golden, so the frame gives up loudly at the domain
  // edge instead (CycleTotals::cycles itself is 64-bit and never wraps).
  FT_CHECK_MSG(totals_.cycles < 0xffffffffULL,
               "cycle index overflows the 32-bit arbitration-seed domain");
  CycleStart start;
  start.cycle = static_cast<std::uint32_t>(totals_.cycles + 1);
  if (lat_on_) latencies_.clear();
  // Channel state is consulted per cycle so a sampling observer only
  // pays for it on the cycles it keeps.
  start.want_loads = want_loads_ =
      observer_ != nullptr && observer_->wants_channel_state(start.cycle);
  loads_.clear();
  start.limits = base_limit.empty() ? nullptr : base_limit.data();
  cf_ = nullptr;
  if (faults_) {
    // The FaultState scales each channel's own base limit.
    const FaultState::CycleFaults& cf =
        faults_->begin_cycle(start.cycle, base_limit);
    cf_ = &cf;
    start.limits = faults_->eff_limit().data();
    CycleTotals& r = totals_;
    r.fault_down_events += cf.went_down.size();
    r.fault_up_events += cf.came_up.size();
    r.subtree_kill_events += cf.killed_nodes.size();
    r.degraded_channel_cycles += cf.degraded_channels;
    if (trace_) {
      for (const std::uint32_t node : cf.killed_nodes) {
        observer_->on_message_event(
            {MessageEventKind::SubtreeKill, kNoMessage, start.cycle, node});
      }
      for (const std::uint32_t c : cf.went_down) {
        observer_->on_message_event(
            {MessageEventKind::FaultDown, kNoMessage, start.cycle, c});
      }
      for (const std::uint32_t c : cf.came_up) {
        observer_->on_message_event(
            {MessageEventKind::FaultUp, kNoMessage, start.cycle, c});
      }
    }
  }
  return start;
}

bool CycleFrame::end_cycle(CycleSnapshot& snap, bool more) {
  CycleTotals& r = totals_;
  ++r.cycles;
  r.delivered += snap.delivered;
  r.delivered_per_cycle.push_back(snap.delivered);
  if (observer_ != nullptr) {
    snap.cycle = static_cast<std::uint32_t>(r.cycles);
    if (cf_ != nullptr) {
      snap.faults_down = static_cast<std::uint32_t>(cf_->went_down.size());
      snap.faults_up = static_cast<std::uint32_t>(cf_->came_up.size());
      snap.subtree_kills =
          static_cast<std::uint32_t>(cf_->killed_nodes.size());
      snap.channels_down = cf_->channels_down;
      snap.degraded_channels = cf_->degraded_channels;
    }
    snap.loads = want_loads_ ? &loads_ : nullptr;
    snap.latencies = lat_on_ ? &latencies_ : nullptr;
    snap.graph = &graph_;
    observer_->on_cycle(snap);
  }
  if (max_cycles_ != 0 && r.cycles >= max_cycles_ && more) {
    r.gave_up = true;
    return false;
  }
  return true;
}

void CycleEngine::begin_run(const CycleFrame& f) {
  time_phases_ = opts_.time_phases;
  ph_up_ = ph_spine_ = ph_down_ = ph_coord_ = 0.0;
  // A faulted run scales each channel's own base limit, so it needs the
  // dense table. Without a plan every limit read stays on limit_, or on
  // the stage's level limit when there is no dense table: the fault-free
  // hot path.
  if (f.faulted() && limit_.empty()) fill_limits();
  active_limit_ = limit_.empty() ? nullptr : limit_.data();
}

std::uint32_t CycleEngine::begin_cycle(CycleFrame& f) {
  if (time_phases_) {
    ph_cycle_t0_ = PhaseClock::now();
    ph_sweep_before_ = ph_up_ + ph_spine_ + ph_down_;
  }
  const CycleStart start = f.begin_cycle(limit_);
  active_limit_ = start.limits;
  want_loads_ = start.want_loads;
  return start.cycle;
}

bool CycleEngine::end_cycle(CycleFrame& f, EngineResult& r,
                            CycleSnapshot& snap, bool more) {
  r.total_attempts += snap.attempts;
  r.total_losses += snap.losses;
  r.total_backoffs += snap.backoffs;
  r.messages_given_up += snap.gave_up;
  const bool go_on = f.end_cycle(snap, more);
  if (time_phases_) {
    // Everything this cycle spent outside the stage sweeps — injection,
    // compaction, fault bookkeeping, observer callbacks — is serial
    // coordination. Clamped at zero against clock jitter.
    const double cyc = phase_delta(ph_cycle_t0_, PhaseClock::now());
    const double sweep = (ph_up_ + ph_spine_ + ph_down_) - ph_sweep_before_;
    ph_coord_ += std::max(0.0, cyc - sweep);
  }
  return go_on;
}

void CycleEngine::end_run(EngineResult& r) {
  if (time_phases_) {
    EnginePhaseProfile& ph = r.phases;
    ph.up_seconds = ph_up_;
    ph.spine_seconds = ph_spine_;
    ph.down_seconds = ph_down_;
    ph.coord_seconds = ph_coord_;
    ph.timed_cycles = r.cycles;
  }
}

EngineResult CycleEngine::run_lossy(BatchFeed& feed, EngineObserver* observer) {
  EngineResult result;
  CycleFrame f(graph_, observer, opts_.fault_plan, opts_.max_cycles, result,
               bands_.back().loads, lat_samples_);
  begin_run(f);
  const bool trace = f.trace();
  const bool lat_on = f.lat_on();
  const std::size_t num_channels = graph_.num_channels();
  const AddressCodec codec = tree_codec();
  bucket_pos_.assign(num_channels, 0);
  for (Band& b : bands_) b.reset(codec.num_stages());
  ce_.clear();
  id_.clear();
  attempts_.clear();
  wake_.clear();
  inject_cycle_.clear();

  std::uint32_t next_id = 0;
  // Every worklist seed — injection, and compaction's reseed of retries —
  // lands on the band that owns the message's first channel.
  const Lander land(*this);

  // The retry policy is sampled once per run; with it off, compaction
  // reseeds every loser for the next cycle.
  const RetryPolicy& retry = opts_.retry;
  // AdaptiveOccupancy parks losers of persistently hot channels through
  // the retry machinery, so it turns retry handling on even under the
  // default (never-dropping) RetryPolicy: adaptive only ever adds delay,
  // never drops on its own.
  const bool adaptive_on =
      opts_.policy == RoutingPolicy::AdaptiveOccupancy &&
      opts_.contention == ContentionPolicy::RandomSubset;
  const bool retry_on = retry.enabled() || adaptive_on;
  if (adaptive_on) {
    hot_last_.assign(num_channels, 0);
    hot_start_.assign(num_channels, 1);
  }
  // Messages seeded to contend in the current cycle; equals pending when
  // no retry policy parks anyone.
  std::uint64_t contenders = 0;

  while (!feed.exhausted() || !ce_.empty()) {
    const std::uint32_t cycle = begin_cycle(f);
    std::uint32_t delivered_now = 0;
    std::uint32_t backoffs_now = 0;
    std::uint32_t gave_up_now = 0;

    // Injects one batch of `num` messages, whatever its input, in one
    // serial pass in arrival order. A message is routed when routed(p)
    // holds, and then encode(p) checks it and returns its word, which is
    // stored, landed and traced at once; otherwise encode(p) only checks
    // it, and the message is a local delivery that takes an id (next_id +
    // p) but no message index. Indices therefore keep arrival order, and
    // the seeds land in ascending index order, as compaction's reseed
    // does.
    const auto inject = [&](std::size_t num, const auto& routed,
                            const auto& encode) {
      FT_CHECK_MSG(ce_.size() + num < 0xffffffffULL &&
                       next_id + static_cast<std::uint64_t>(num) <
                           0xffffffffULL,
                   "live message count overflows 32-bit message indices");
      const auto first = static_cast<std::uint32_t>(ce_.size());
      ce_.resize(first + num);
      if (trace) id_.resize(first + num);
      std::uint64_t* const ce = ce_.data();
      std::uint32_t* const ids = id_.data();
      const std::uint32_t id0 = next_id;
      std::uint32_t i = first;
      for (std::size_t p = 0; p < num; ++p) {
        const std::uint64_t w = encode(p);
        const std::uint32_t id = id0 + static_cast<std::uint32_t>(p);
        if (!routed(p)) {
          if (trace) {
            observer->on_message_event(
                {MessageEventKind::Inject, id, cycle, kNoChannel});
            observer->on_message_event(
                {MessageEventKind::Deliver, id, cycle, kNoChannel});
          }
          continue;
        }
        ce[i] = w;
        if (trace) ids[i] = id;
        const Hop hop = codec.hop(w);
        land(i, hop);
        if (trace) {
          observer->on_message_event(
              {MessageEventKind::Inject, id, cycle, hop.chan});
        }
        ++i;
      }
      ce_.resize(i);
      if (trace) id_.resize(i);
      if (retry_on) {
        attempts_.resize(i, 1);
        wake_.resize(i, cycle);
      }
      if (lat_on) inject_cycle_.resize(i, cycle);
      contenders += i - first;
      const auto locals = static_cast<std::uint32_t>(num - (i - first));
      delivered_now += locals;
      if (lat_on) {
        lat_samples_.insert(lat_samples_.end(), locals, LatencySample{1, 1});
      }
      next_id += static_cast<std::uint32_t>(num);
    };

    const std::uint32_t leaf0 = 1u << codec.height;
    while (const Batch batch = feed.next(cycle)) {
      if (batch.pairs != nullptr) {
        // A leaf pair's path is all tree channels, which the constructor
        // proved wired, so only its leaves are checked.
        const LeafPair* const pairs = batch.pairs->data();
        inject(
            batch.pairs->size(),
            [pairs](std::size_t p) { return pairs[p].src != pairs[p].dst; },
            [&](std::size_t p) {
              const LeafPair q = pairs[p];
              FT_CHECK_MSG(q.src < leaf0 && q.dst < leaf0,
                           "leaf pair outside the tree");
              return AddressCodec::encode(leaf0 + q.src, leaf0 + q.dst);
            });
        continue;
      }
      // A PathSet path's hops are checked (check_path), then it must be
      // its endpoints' tree path: its first and last hops sit above leaves
      // (the codec counts stages from the leaves), and every hop is the
      // one the address word names. It then encodes as that word.
      const PathSet& set = *batch.paths;
      const std::uint32_t* const chans = set.channels().data();
      const std::uint32_t* const offs = set.offsets().data();
      inject(
          set.size(),
          [offs](std::size_t p) { return offs[p] != offs[p + 1]; },
          [&](std::size_t p) {
            const std::uint32_t off = offs[p];
            const std::uint32_t len = offs[p + 1] - off;
            check_path(graph_, codec, chans + off, len);
            if (len == 0) return std::uint64_t{0};
            const std::uint32_t c0 = chans[off];
            const std::uint32_t cl = chans[off + len - 1];
            const std::uint64_t w = AddressCodec::encode(c0 >> 1, cl >> 1);
            bool tree = (c0 >> 1) >= leaf0 && (cl >> 1) >= leaf0 &&
                        len == 2 * AddressCodec::turn(w);
            for (std::uint32_t k = 0; tree && k < len; ++k) {
              tree = codec.hop(w + k).chan == chans[off + k];
            }
            FT_CHECK_MSG(tree, "path is not its endpoints' tree path");
            return w;
          });
    }
    const std::size_t pending_before = ce_.size();
    // Messages parked in backoff are alive but do not contend; without a
    // retry policy every pending message was seeded, so contenders ==
    // pending_before and the accounting is byte-identical to the classic
    // engine.
    const std::uint64_t cycle_attempts = contenders;
    // Every band's bitmap-sort scratch covers every live message index
    // (arenas hold global indices); new words join zeroed and extraction
    // keeps the rest zero.
    const std::size_t words = (pending_before + 63) / 64;
    for (Band& b : bands_) {
      if (b.sort_bits.size() < words) b.sort_bits.resize(words, 0);
    }
    if (trace) {
      // Every live cursor is at its first hop: fresh, or rewound by the
      // last compaction.
      for (std::size_t i = 0; i < pending_before; ++i) {
        if (retry_on && wake_[i] != cycle) continue;  // parked in backoff
        observer->on_message_event(
            {MessageEventKind::Attempt, id_[i], cycle, codec.hop(ce_[i]).chan});
      }
    }

    // A message dies at the first channel whose random cap-subset lottery
    // it loses; stages run in causal order along every path. Worklists
    // were seeded by last cycle's compaction (retries) and this cycle's
    // injection, both in ascending message order. The sweep leaves the
    // cycle's loss and hop counts on the global band.
    run_cycle(codec, cycle);
    Band& global = bands_.back();
    const std::uint64_t cycle_losses = global.losses;
    result.total_hops += global.hops;
    global.losses = 0;
    global.hops = 0;

    // Survivors are delivered; the rest retry next cycle. A loser's
    // cursor stops at the channel whose lottery it lost, which is the
    // Loss event's channel.
    if (trace) {
      for (std::size_t i = 0; i < ce_.size(); ++i) {
        if (retry_on && wake_[i] != cycle) continue;  // parked: no outcome
        const std::uint64_t v = ce_[i];
        if (!codec.more(v)) {
          observer->on_message_event(
              {MessageEventKind::Deliver, id_[i], cycle, kNoChannel});
        } else {
          observer->on_message_event(
              {MessageEventKind::Loss, id_[i], cycle, codec.hop(v).chan});
        }
      }
    }
    // Compacting the losers doubles as next cycle's reseed: cursors rewind
    // to the first hop and each retry lands on its stage worklist here, so
    // the cycle loop never takes a separate O(pending) seeding pass. With
    // retry handling on, compaction also decides each loser's fate — give
    // up (attempts/deadline exhausted), park (exponential backoff), or
    // reseed — and wakes parked messages whose delay has elapsed.
    std::size_t kept = 0;
    contenders = 0;
    {
      const std::size_t pending = ce_.size();
      std::uint64_t* const ce = ce_.data();
      std::uint32_t* const ids = id_.data();
      std::uint32_t* const ic = inject_cycle_.data();
      std::uint32_t* const att = attempts_.data();
      std::uint32_t* const wk = wake_.data();
      for (std::size_t i = 0; i < pending; ++i) {
        const std::uint64_t v = ce[i];
        if (!codec.more(v)) {
          ++delivered_now;
          // Latency counts delivery cycles from injection inclusive;
          // ideal is 1 in the lossy modes (an uncontended path traverses
          // in one cycle).
          if (lat_on) lat_samples_.push_back({cycle - ic[i] + 1, 1});
          continue;
        }
        // Without retry handling every loser contends again next cycle.
        std::uint32_t next_wake = cycle + 1;
        if (retry_on) {
          if (wk[i] == cycle) {
            // Contended and lost this cycle: attempts_[i] losses so far.
            std::uint32_t delay = 0;
            bool drop = false;
            if (retry.max_attempts != 0 && att[i] >= retry.max_attempts) {
              drop = true;
            } else {
              if (retry.exponential_backoff) {
                const std::uint32_t shift = std::min(att[i] - 1, 31u);
                delay = std::min<std::uint32_t>(retry.max_backoff,
                                                (1u << shift) - 1);
              }
              if (adaptive_on) {
                // Congestion-persistence backoff: once the loss channel
                // has been hot for kAdaptiveHotStreak cycles, its losers
                // desynchronize — the pending index staggers retries
                // across a window that widens with the streak, so the
                // channel stays fed (about one waker per cycle) while
                // upstream contention drops. The streak is the loss
                // channel's run of over-limit cycles if that run reaches
                // this cycle. The loss channel is a tree channel, so it
                // is one of the in-budget channels the utilization
                // observers watch.
                const std::uint32_t c = codec.hop(v).chan;
                const std::uint32_t streak =
                    hot_last_[c] == cycle ? cycle - hot_start_[c] + 1 : 0;
                if (streak >= kAdaptiveHotStreak) {
                  const std::uint32_t window =
                      std::min(streak, kAdaptiveMaxDelay);
                  delay = std::max(
                      delay, 1 + static_cast<std::uint32_t>(i) % window);
                }
              }
              // The deadline check runs after every delay extension
              // (backoff and adaptive): a parked message's wake never
              // exceeds the deadline, so a deadline can only expire on a
              // message that contended — give-up accounting stays
              // exactly-once (pinned in test_fault_plan).
              if (retry.deadline_cycles != 0 &&
                  static_cast<std::uint64_t>(cycle) + 1 + delay >
                      retry.deadline_cycles) {
                drop = true;
              }
            }
            if (drop) {
              ++gave_up_now;
              if (trace) {
                observer->on_message_event(
                    {MessageEventKind::GiveUp, ids[i], cycle, kNoChannel});
              }
              continue;
            }
            if (delay > 0) {
              ++backoffs_now;
              if (trace) {
                observer->on_message_event({MessageEventKind::Backoff, ids[i],
                                            cycle, codec.hop(v).chan});
              }
            }
            next_wake = cycle + 1 + delay;
          } else {
            next_wake = wk[i];  // parked; cursor already at the first hop
          }
        }
        // Rewind the cursor to the first hop; the rest of the word stays.
        const std::uint64_t r = AddressCodec::rewind(v);
        ce[kept] = r;
        if (trace) ids[kept] = ids[i];  // ids are only read when tracing
        if (lat_on) ic[kept] = ic[i];
        const bool reseed = next_wake == cycle + 1;
        if (retry_on) {
          att[kept] = reseed ? att[i] + 1 : att[i];
          wk[kept] = next_wake;
        }
        if (reseed) {
          land(static_cast<std::uint32_t>(kept), codec.hop(r));
          ++contenders;
        }
        ++kept;
      }
    }
    ce_.resize(kept);
    if (trace) id_.resize(kept);
    if (retry_on) {
      attempts_.resize(kept);
      wake_.resize(kept);
    }
    if (lat_on) inject_cycle_.resize(kept);

    CycleSnapshot snap;
    snap.pending_before = pending_before;
    snap.delivered = delivered_now;
    snap.attempts = cycle_attempts;
    snap.losses = cycle_losses;
    snap.backoffs = backoffs_now;
    snap.gave_up = gave_up_now;
    if (!end_cycle(f, result, snap, !feed.exhausted() || !ce_.empty())) {
      break;
    }
  }
  if (result.gave_up && trace) {
    const auto last_cycle = static_cast<std::uint32_t>(result.cycles);
    for (const std::uint32_t id : id_) {
      observer->on_message_event(
          {MessageEventKind::GiveUp, id, last_cycle, kNoChannel});
    }
  }
  end_run(result);
  return result;
}

}  // namespace ft
