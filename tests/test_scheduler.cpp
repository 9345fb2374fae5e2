#include "core/offline_scheduler.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/load.hpp"
#include "core/traffic.hpp"
#include "util/bits.hpp"
#include "util/prng.hpp"

namespace ft {
namespace {

TEST(OfflineScheduler, EmptyMessageSet) {
  FatTreeTopology t(8);
  const auto caps = CapacityProfile::universal(t, 4);
  const auto s = schedule_offline(t, caps, {});
  EXPECT_EQ(s.num_cycles(), 0u);
  EXPECT_TRUE(verify_schedule(t, caps, {}, s));
}

TEST(OfflineScheduler, SingleMessage) {
  FatTreeTopology t(8);
  const auto caps = CapacityProfile::constant(t, 1);
  const MessageSet m{{0, 7}};
  const auto s = schedule_offline(t, caps, m);
  EXPECT_EQ(s.num_cycles(), 1u);
  EXPECT_TRUE(verify_schedule(t, caps, m, s));
}

TEST(OfflineScheduler, SelfMessagesOnly) {
  FatTreeTopology t(8);
  const auto caps = CapacityProfile::constant(t, 1);
  const MessageSet m{{2, 2}, {5, 5}, {5, 5}};
  const auto s = schedule_offline(t, caps, m);
  EXPECT_EQ(s.num_cycles(), 1u);
  EXPECT_TRUE(verify_schedule(t, caps, m, s));
}

TEST(OfflineScheduler, OneCycleSetTakesFewCycles) {
  // A one-cycle message set on a full fat-tree needs at most one cycle per
  // level touched; the complement permutation (λ = 1) must finish in at
  // most lg n cycles and in fact in one (all LCAs at the root).
  const std::uint32_t n = 64;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::doubling(t);
  const auto m = complement_traffic(n);
  ASSERT_TRUE(is_one_cycle(t, caps, m));
  const auto s = schedule_offline(t, caps, m);
  EXPECT_EQ(s.num_cycles(), 1u);
  EXPECT_TRUE(verify_schedule(t, caps, m, s));
}

TEST(OfflineScheduler, DuplicatesPreserved) {
  FatTreeTopology t(16);
  const auto caps = CapacityProfile::constant(t, 1);
  MessageSet m;
  for (int i = 0; i < 5; ++i) m.push_back({0, 15});
  const auto s = schedule_offline(t, caps, m);
  EXPECT_TRUE(verify_schedule(t, caps, m, s));
  EXPECT_EQ(s.num_cycles(), 5u);  // capacity 1 admits one at a time
}

TEST(OfflineScheduler, TheoremOneBound) {
  // d <= c · λ(M) · lg n with a small constant (the proof gives 2λ per
  // level; our power-of-two rounding makes it at most 4λ per level).
  const std::uint32_t n = 256;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::universal(t, 64);
  Rng rng(1);
  for (const auto& wl : standard_workloads(n, rng)) {
    const double lambda = load_factor(t, caps, wl.messages);
    const auto s = schedule_offline(t, caps, wl.messages);
    EXPECT_TRUE(verify_schedule(t, caps, wl.messages, s)) << wl.name;
    const double bound =
        4.0 * std::max(1.0, lambda) * t.height() + 1.0;
    EXPECT_LE(static_cast<double>(s.num_cycles()), bound) << wl.name;
    // And never below the load-factor lower bound.
    EXPECT_GE(static_cast<double>(s.num_cycles()), std::ceil(lambda) - 1e-9)
        << wl.name;
  }
}

TEST(OfflineScheduler, LowerBoundTight) {
  // d >= ceil(λ): schedule length can never beat the load factor.
  const std::uint32_t n = 128;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::universal(t, 16);
  Rng rng(3);
  const auto m = stacked_permutations(n, 4, rng);
  const double lambda = load_factor(t, caps, m);
  const auto s = schedule_offline(t, caps, m);
  EXPECT_TRUE(verify_schedule(t, caps, m, s));
  EXPECT_GE(static_cast<double>(s.num_cycles()), lambda - 1e-9);
}

struct SchedCase {
  std::uint32_t n;
  std::uint64_t w;
  std::uint32_t stack;
  std::uint64_t seed;
};

class SchedulerSweep : public ::testing::TestWithParam<SchedCase> {};

TEST_P(SchedulerSweep, ValidAndBounded) {
  const auto p = GetParam();
  FatTreeTopology t(p.n);
  const auto caps = CapacityProfile::universal(t, p.w);
  Rng rng(p.seed);
  const auto m = stacked_permutations(p.n, p.stack, rng);
  const double lambda = load_factor(t, caps, m);
  const auto s = schedule_offline(t, caps, m);
  EXPECT_TRUE(verify_schedule(t, caps, m, s));
  EXPECT_LE(static_cast<double>(s.num_cycles()),
            4.0 * std::max(1.0, lambda) * t.height() + 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SchedulerSweep,
    ::testing::Values(SchedCase{16, 4, 1, 11}, SchedCase{16, 16, 3, 13},
                      SchedCase{64, 8, 2, 17}, SchedCase{256, 32, 1, 19},
                      SchedCase{256, 256, 4, 23}, SchedCase{1024, 64, 2, 29},
                      SchedCase{1024, 1024, 1, 31}));

TEST(OfflineScheduler, SkinnyTreeHotspot) {
  // Capacity-1 tree with all-to-one traffic: needs exactly n-1 cycles.
  const std::uint32_t n = 32;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::constant(t, 1);
  MessageSet m;
  for (Leaf p = 1; p < n; ++p) m.push_back({p, 0});
  const auto s = schedule_offline(t, caps, m);
  EXPECT_TRUE(verify_schedule(t, caps, m, s));
  EXPECT_EQ(s.num_cycles(), static_cast<std::size_t>(n - 1));
}

TEST(GreedyScheduler, ValidSchedules) {
  const std::uint32_t n = 128;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::universal(t, 32);
  Rng rng(41);
  for (const auto& wl : standard_workloads(n, rng)) {
    const auto s = schedule_greedy(t, caps, wl.messages);
    EXPECT_TRUE(verify_schedule(t, caps, wl.messages, s)) << wl.name;
  }
}

/// First fit by brute force: one dense load table per cycle, and every
/// message tries every cycle from the first.
Schedule dense_first_fit(const FatTreeTopology& t, const CapacityProfile& caps,
                         const MessageSet& m) {
  Schedule s;
  std::vector<std::vector<std::uint64_t>> loads;
  for (const Message& msg : m) {
    std::vector<ChannelId> path;
    t.for_each_channel_on_path(msg.src, msg.dst,
                               [&](ChannelId c) { path.push_back(c); });
    std::size_t cycle = 0;
    for (;; ++cycle) {
      if (cycle == loads.size()) {
        loads.emplace_back(channel_index_bound(t), 0);
        s.cycles.emplace_back();
      }
      bool fits = true;
      for (const ChannelId c : path) {
        fits = fits &&
               loads[cycle][channel_index(c)] < caps.capacity(t, c.node);
      }
      if (fits) break;
    }
    for (const ChannelId c : path) ++loads[cycle][channel_index(c)];
    s.cycles[cycle].push_back(msg);
  }
  return s;
}

// schedule_greedy starts each message's first fit at the largest
// per-channel frontier on its path and keeps per-cycle loads sparse; it
// must place every message in the same cycle, in the same order, as the
// dense first fit.
TEST(GreedyScheduler, MatchesFirstFitReference) {
  for (const std::uint32_t n : {64u, 256u}) {
    FatTreeTopology t(n);
    Rng gen(n);
    std::vector<NamedWorkload> workloads = standard_workloads(n, gen);
    workloads.push_back({"incast", incast_traffic(n, 2 * n, 0, gen)});
    workloads.push_back(
        {"hotspot", persistent_hotspot_traffic(n, n / 3, n, 2 * n, gen)});
    const struct {
      const char* name;
      CapacityProfile caps;
    } profiles[] = {{"constant-1", CapacityProfile::constant(t, 1)},
                    {"universal", CapacityProfile::universal(t, n / 4)}};
    for (const auto& p : profiles) {
      for (const NamedWorkload& w : workloads) {
        const Schedule want = dense_first_fit(t, p.caps, w.messages);
        const Schedule got = schedule_greedy(t, p.caps, w.messages);
        ASSERT_EQ(got.num_cycles(), want.num_cycles())
            << w.name << " " << p.name << " n=" << n;
        for (std::size_t c = 0; c < want.num_cycles(); ++c) {
          ASSERT_EQ(got.cycles[c], want.cycles[c])
              << w.name << " " << p.name << " n=" << n << " cycle " << c;
        }
      }
    }
  }
}

TEST(PackedScheduler, ValidAndNoWorseThanLevelByLevel) {
  const std::uint32_t n = 256;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::universal(t, 64);
  Rng rng(43);
  for (const auto& wl : standard_workloads(n, rng)) {
    const auto level_by_level = schedule_offline(t, caps, wl.messages);
    const auto packed = schedule_offline_packed(t, caps, wl.messages);
    EXPECT_TRUE(verify_schedule(t, caps, wl.messages, packed)) << wl.name;
    // First-fit packing is the point of the ablation; allow a little slack
    // but it should never be much worse than level-by-level.
    EXPECT_LE(packed.num_cycles(), level_by_level.num_cycles() + 2)
        << wl.name;
  }
}

TEST(VerifySchedule, RejectsDroppedMessage) {
  FatTreeTopology t(8);
  const auto caps = CapacityProfile::doubling(t);
  const MessageSet m{{0, 7}, {1, 6}};
  Schedule s;
  s.cycles.push_back({{0, 7}});  // message {1,6} missing
  EXPECT_FALSE(verify_schedule(t, caps, m, s));
}

TEST(VerifySchedule, RejectsOverloadedCycle) {
  FatTreeTopology t(8);
  const auto caps = CapacityProfile::constant(t, 1);
  const MessageSet m{{0, 7}, {1, 6}};  // both need the root, capacity 1
  Schedule s;
  s.cycles.push_back(m);
  EXPECT_FALSE(verify_schedule(t, caps, m, s));
}

TEST(VerifySchedule, RejectsInventedMessage) {
  FatTreeTopology t(8);
  const auto caps = CapacityProfile::doubling(t);
  const MessageSet m{{0, 7}};
  Schedule s;
  s.cycles.push_back({{0, 7}});
  s.cycles.push_back({{2, 3}});
  EXPECT_FALSE(verify_schedule(t, caps, m, s));
}

}  // namespace
}  // namespace ft
