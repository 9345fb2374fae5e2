#include "core/offline_scheduler.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <string>

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

/// The first-fit tests' inputs at n: every standard workload plus an
/// incast and a persistent hotspot, under a skinny and a universal
/// profile. Calls fn(topology, profile name, profile, workload).
template <typename Fn>
void for_each_first_fit_case(std::uint32_t n, Fn&& fn) {
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
    for (const NamedWorkload& w : workloads) fn(t, p.name, p.caps, w);
  }
}

// schedule_greedy starts each message's first fit at the largest
// per-channel frontier on its path and keeps per-cycle loads sparse; it
// must place every message in the same cycle, in the same order, as the
// dense first fit.
TEST(GreedyScheduler, MatchesFirstFitReference) {
  for (const std::uint32_t n : {64u, 256u}) {
    for_each_first_fit_case(n, [n](const FatTreeTopology& t, const char* p,
                                   const CapacityProfile& caps,
                                   const NamedWorkload& w) {
      const Schedule want = dense_first_fit(t, caps, w.messages);
      const Schedule got = schedule_greedy(t, caps, w.messages);
      ASSERT_EQ(got.num_cycles(), want.num_cycles())
          << w.name << " " << p << " n=" << n;
      for (std::size_t c = 0; c < want.num_cycles(); ++c) {
        ASSERT_EQ(got.cycles[c], want.cycles[c])
            << w.name << " " << p << " n=" << n << " cycle " << c;
      }
    });
  }
}

/// FNV-1a over a schedule: every cycle's messages in order, then a
/// cycle boundary.
std::uint64_t schedule_fingerprint(const Schedule& s) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ULL; };
  for (const MessageSet& cycle : s.cycles) {
    for (const Message& m : cycle) {
      mix((static_cast<std::uint64_t>(m.src) << 32) | m.dst);
    }
    mix(~std::uint64_t{0});
  }
  return h;
}

// schedule_offline_packed places each per-node part at its first fit,
// starting from the largest per-channel frontier on the part's channels.
// Its schedules are pinned bit for bit to the rows recorded from the
// first fit that kept a dense load table per packed cycle and tried
// every cycle from the first.
TEST(PackedScheduler, MatchesPinnedSchedules) {
  struct Row {
    std::uint32_t n;
    const char* profile;
    const char* workload;
    std::size_t cycles;
    std::uint64_t fingerprint;
  };
  constexpr Row kRows[] = {
      {64, "constant-1", "random-perm", 20, 0x901018ef3a2a55ffULL},
      {64, "constant-1", "bit-reversal", 20, 0xb66bca560b98cdc9ULL},
      {64, "constant-1", "transpose", 20, 0xe4192bda07f722a5ULL},
      {64, "constant-1", "shuffle", 16, 0xb93c6553b84033cbULL},
      {64, "constant-1", "complement", 32, 0x887d9b29e4e01c25ULL},
      {64, "constant-1", "hotspot-10%", 25, 0x19bd727bfb8d305fULL},
      {64, "constant-1", "local-r4", 6, 0xdc25760d438c3b50ULL},
      {64, "constant-1", "fem-halo", 24, 0xcc6d0fa931222c9dULL},
      {64, "constant-1", "tornado", 31, 0x70dc2363bb1c6218ULL},
      {64, "constant-1", "incast", 128, 0x4df102dc58cb8525ULL},
      {64, "constant-1", "hotspot", 84, 0x5dc687223d4464f5ULL},
      {64, "universal", "random-perm", 3, 0x4dff5c4c6233e1d4ULL},
      {64, "universal", "bit-reversal", 3, 0xa41fbd5987a934ccULL},
      {64, "universal", "transpose", 3, 0x465763cb010304f4ULL},
      {64, "universal", "shuffle", 4, 0xc32c54c121c9018bULL},
      {64, "universal", "complement", 4, 0xe5bab428d2d1d951ULL},
      {64, "universal", "hotspot-10%", 8, 0x11955cb755f4fa2aULL},
      {64, "universal", "local-r4", 3, 0x8cf5dbca1c59b6b7ULL},
      {64, "universal", "fem-halo", 6, 0x55249531a0887b0fULL},
      {64, "universal", "tornado", 4, 0xd893fc3faf06ce81ULL},
      {64, "universal", "incast", 128, 0x4df102dc58cb8525ULL},
      {64, "universal", "hotspot", 66, 0x8a6ad736056f1551ULL},
      {256, "constant-1", "random-perm", 72, 0x10e059c4143b5aa7ULL},
      {256, "constant-1", "bit-reversal", 80, 0x77f54f9e0813e6bdULL},
      {256, "constant-1", "transpose", 80, 0x2cf0757e3a380ce5ULL},
      {256, "constant-1", "shuffle", 64, 0x808ed84c546bd2b5ULL},
      {256, "constant-1", "complement", 128, 0xc803e05d28516f65ULL},
      {256, "constant-1", "hotspot-10%", 87, 0x1dbed539cde75aa7ULL},
      {256, "constant-1", "local-r4", 6, 0xa2e8ee0f243f65f2ULL},
      {256, "constant-1", "fem-halo", 48, 0x188cd026c6462415ULL},
      {256, "constant-1", "tornado", 127, 0xe3ef9b17a8ad31f8ULL},
      {256, "constant-1", "incast", 512, 0x53dff0523f7ab25ULL},
      {256, "constant-1", "hotspot", 292, 0x21943d72e70a2c20ULL},
      {256, "universal", "random-perm", 3, 0x5624e9f0b88acdbeULL},
      {256, "universal", "bit-reversal", 3, 0xfa8247e664a4bcc4ULL},
      {256, "universal", "transpose", 3, 0x68fc1c767d13cbd4ULL},
      {256, "universal", "shuffle", 4, 0xdbd7de393831b127ULL},
      {256, "universal", "complement", 4, 0x954ee2f72f505851ULL},
      {256, "universal", "hotspot-10%", 25, 0x4160c911df0faea1ULL},
      {256, "universal", "local-r4", 4, 0x18945279edabaaaaULL},
      {256, "universal", "fem-halo", 6, 0x77a6d067cbeaf62fULL},
      {256, "universal", "tornado", 4, 0xefbf26c54edd9911ULL},
      {256, "universal", "incast", 512, 0x53dff0523f7ab25ULL},
      {256, "universal", "hotspot", 256, 0x90d2f0d673b244f8ULL},
  };
  const Row* row = kRows;
  for (const std::uint32_t n : {64u, 256u}) {
    for_each_first_fit_case(n, [&](const FatTreeTopology& t, const char* p,
                                   const CapacityProfile& caps,
                                   const NamedWorkload& w) {
      const Schedule s = schedule_offline_packed(t, caps, w.messages);
      const std::string at =
          w.name + " " + p + " n=" + std::to_string(n);
      ASSERT_LT(row - kRows, std::ssize(kRows)) << at;
      EXPECT_EQ(row->n, n) << at;
      EXPECT_STREQ(row->profile, p) << at;
      EXPECT_EQ(row->workload, w.name) << at;
      EXPECT_EQ(s.num_cycles(), row->cycles) << at;
      EXPECT_EQ(schedule_fingerprint(s), row->fingerprint) << at;
      EXPECT_TRUE(schedule_partitions(w.messages, s)) << at;
      ++row;
    });
  }
  EXPECT_EQ(row - kRows, std::ssize(kRows));
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
