#include "core/schedule_stats.hpp"

#include <gtest/gtest.h>

#include "core/traffic.hpp"
#include "util/prng.hpp"

namespace ft {
namespace {

TEST(ScheduleStats, EmptySchedule) {
  FatTreeTopology t(16);
  const auto caps = CapacityProfile::universal(t, 8);
  const auto stats = analyze_schedule(t, caps, Schedule{});
  EXPECT_EQ(stats.cycles, 0u);
  EXPECT_EQ(stats.messages, 0u);
  EXPECT_EQ(stats.mean_utilization, 0.0);
}

TEST(ScheduleStats, FullFatTreeComplementUsesAllRootWires) {
  const std::uint32_t n = 64;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::doubling(t);
  Schedule s;
  s.cycles.push_back(complement_traffic(n));
  const auto stats = analyze_schedule(t, caps, s);
  EXPECT_EQ(stats.cycles, 1u);
  EXPECT_EQ(stats.messages, n);
  // Complement saturates every channel of the full fat-tree exactly.
  EXPECT_NEAR(stats.mean_utilization, 1.0, 1e-9);
  EXPECT_NEAR(stats.root_utilization, 1.0, 1e-9);
}

TEST(ScheduleStats, LocalTrafficLeavesRootIdle) {
  const std::uint32_t n = 64;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::doubling(t);
  MessageSet m;
  for (Leaf p = 0; p < n; p += 2) m.push_back({p, p + 1});
  Schedule s;
  s.cycles.push_back(m);
  const auto stats = analyze_schedule(t, caps, s);
  EXPECT_EQ(stats.root_utilization, 0.0);
  EXPECT_GT(stats.mean_utilization, 0.0);
  EXPECT_LT(stats.mean_utilization, 0.5);
}

TEST(ScheduleStats, ThroughputIsMessagesPerCycle) {
  const std::uint32_t n = 32;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::universal(t, 8);
  Schedule s;
  s.cycles.push_back({{0, 31}, {1, 30}});
  s.cycles.push_back({{2, 29}});
  const auto stats = analyze_schedule(t, caps, s);
  EXPECT_DOUBLE_EQ(stats.throughput, 1.5);
  EXPECT_GE(stats.max_cycle_utilization, stats.min_cycle_utilization);
}

TEST(ScheduleStats, PerLevelUtilizationShape) {
  const std::uint32_t n = 128;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::universal(t, 32);
  Rng rng(1);
  const auto m = random_permutation_traffic(n, rng);
  const auto schedule = schedule_offline(t, caps, m);
  const auto util = analyze_schedule(t, caps, schedule).level_utilization;
  ASSERT_EQ(util.size(), t.height() + 1);
  for (double u : util) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
  // Leaf channels carry every message at least once in some cycle.
  EXPECT_GT(util[t.height()], 0.0);
}

TEST(ScheduleStats, SmallerTreesRunHotter) {
  // The Section VII claim: size the tree down and the hardware you kept
  // works harder on the same traffic.
  const std::uint32_t n = 256;
  FatTreeTopology t(n);
  Rng rng(3);
  const auto m = stacked_permutations(n, 4, rng);
  const auto fat = CapacityProfile::universal(t, 256);
  const auto thin = CapacityProfile::universal(t, 16);
  const auto s_fat = schedule_offline(t, fat, m);
  const auto s_thin = schedule_offline(t, thin, m);
  const auto stats_fat = analyze_schedule(t, fat, s_fat);
  const auto stats_thin = analyze_schedule(t, thin, s_thin);
  EXPECT_GT(stats_thin.root_utilization, stats_fat.root_utilization);
}

}  // namespace
}  // namespace ft
