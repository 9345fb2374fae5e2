#include "core/traffic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

namespace ft {
namespace {

bool is_permutation_traffic(const MessageSet& m, std::uint32_t n) {
  if (m.size() != n) return false;
  std::set<Leaf> srcs, dsts;
  for (const auto& msg : m) {
    srcs.insert(msg.src);
    dsts.insert(msg.dst);
  }
  return srcs.size() == n && dsts.size() == n;
}

TEST(Traffic, RandomPermutationIsPermutation) {
  Rng rng(1);
  for (std::uint32_t n : {4u, 64u, 1024u}) {
    EXPECT_TRUE(is_permutation_traffic(random_permutation_traffic(n, rng), n));
  }
}

TEST(Traffic, BitReversalKnownValues) {
  const auto m = bit_reversal_traffic(8);
  ASSERT_EQ(m.size(), 8u);
  EXPECT_EQ(m[1].dst, 4u);  // 001 -> 100
  EXPECT_EQ(m[3].dst, 6u);  // 011 -> 110
  EXPECT_EQ(m[7].dst, 7u);
  EXPECT_TRUE(is_permutation_traffic(m, 8));
}

TEST(Traffic, TransposeIsPermutationAndInvolutionWhenSquare) {
  const std::uint32_t n = 256;  // lg n = 8, even
  const auto m = transpose_traffic(n);
  EXPECT_TRUE(is_permutation_traffic(m, n));
  for (const auto& msg : m) {
    EXPECT_EQ(m[msg.dst].dst, msg.src);  // transpose twice = identity
  }
}

TEST(Traffic, ShuffleIsRotation) {
  const auto m = shuffle_traffic(8);
  EXPECT_EQ(m[0].dst, 0u);
  EXPECT_EQ(m[1].dst, 2u);
  EXPECT_EQ(m[4].dst, 1u);  // 100 -> 001
  EXPECT_TRUE(is_permutation_traffic(m, 8));
}

TEST(Traffic, ComplementCrossesRoot) {
  const auto m = complement_traffic(16);
  for (const auto& msg : m) {
    EXPECT_EQ(msg.dst, 15u - msg.src);
    // Opposite halves.
    EXPECT_NE(msg.src < 8, msg.dst < 8);
  }
}

TEST(Traffic, UniformRandomCount) {
  Rng rng(3);
  const auto m = uniform_random_traffic(64, 1000, rng);
  EXPECT_EQ(m.size(), 1000u);
  for (const auto& msg : m) {
    EXPECT_LT(msg.src, 64u);
    EXPECT_LT(msg.dst, 64u);
  }
}

TEST(Traffic, HotspotFraction) {
  Rng rng(5);
  const std::uint32_t n = 4096;
  const auto m = hotspot_traffic(n, 0.25, 7, rng);
  ASSERT_EQ(m.size(), n);
  std::size_t hot = 0;
  for (const auto& msg : m) {
    if (msg.dst == 7) ++hot;
  }
  // 25% targeted plus ~1/n incidental.
  EXPECT_NEAR(static_cast<double>(hot) / n, 0.25, 0.03);
}

TEST(Traffic, LocalRadiusRespected) {
  Rng rng(7);
  const std::uint32_t n = 256;
  const std::uint32_t r = 4;
  const auto m = local_traffic(n, r, rng);
  for (const auto& msg : m) {
    const std::int64_t diff =
        std::abs(static_cast<std::int64_t>(msg.dst) -
                 static_cast<std::int64_t>(msg.src));
    const std::int64_t circ = std::min<std::int64_t>(diff, n - diff);
    EXPECT_LE(circ, r);
  }
}

TEST(Traffic, FemHaloCountsAndNeighbours) {
  const std::uint32_t rows = 4, cols = 8;
  const auto m = fem_halo_traffic(rows, cols);
  // 4rc - 2r - 2c directed neighbour messages.
  EXPECT_EQ(m.size(), 4u * rows * cols - 2 * rows - 2 * cols);
  for (const auto& msg : m) {
    const auto r1 = msg.src / cols, c1 = msg.src % cols;
    const auto r2 = msg.dst / cols, c2 = msg.dst % cols;
    EXPECT_EQ(std::abs(static_cast<int>(r1) - static_cast<int>(r2)) +
                  std::abs(static_cast<int>(c1) - static_cast<int>(c2)),
              1);
  }
}

TEST(Traffic, StackedPermutations) {
  Rng rng(9);
  const auto m = stacked_permutations(32, 5, rng);
  EXPECT_EQ(m.size(), 5u * 32);
  // Every processor sends exactly 5 messages.
  std::vector<int> sends(32, 0);
  for (const auto& msg : m) ++sends[msg.src];
  for (int s : sends) EXPECT_EQ(s, 5);
}

TEST(Traffic, TornadoIsHalfRotation) {
  const auto m = tornado_traffic(16);
  ASSERT_EQ(m.size(), 16u);
  for (const auto& msg : m) {
    EXPECT_EQ(msg.dst, (msg.src + 7) % 16);
  }
}

TEST(Traffic, RingShiftWraps) {
  const auto m = ring_shift_traffic(8, 3);
  EXPECT_EQ(m[0].dst, 3u);
  EXPECT_EQ(m[6].dst, 1u);
  EXPECT_EQ(m[7].dst, 2u);
}

TEST(Traffic, AllToAllCountsAndCoverage) {
  const std::uint32_t n = 8;
  const auto m = all_to_all_traffic(n);
  EXPECT_EQ(m.size(), static_cast<std::size_t>(n) * (n - 1));
  std::set<std::pair<Leaf, Leaf>> pairs;
  for (const auto& msg : m) {
    EXPECT_NE(msg.src, msg.dst);
    EXPECT_TRUE(pairs.insert({msg.src, msg.dst}).second);
  }
}

TEST(Traffic, BisectionFloodTargetsRightHalf) {
  Rng rng(13);
  const std::uint32_t n = 64;
  const auto m = bisection_flood_traffic(n, 3, rng);
  EXPECT_EQ(m.size(), static_cast<std::size_t>(n / 2) * 3);
  for (const auto& msg : m) {
    EXPECT_LT(msg.src, n / 2);
    EXPECT_GE(msg.dst, n / 2);
    EXPECT_LT(msg.dst, n);
  }
}

// ---- The adversarial zoo (routing-race workloads, see E18) ----------

TEST(Traffic, IncastTargetsOneSinkFromOthers) {
  const std::uint32_t n = 64;
  const Leaf sink = 17;
  Rng rng(41);
  const auto m = incast_traffic(n, 300, sink, rng);
  EXPECT_EQ(m.size(), 300u);
  for (const auto& msg : m) {
    EXPECT_EQ(msg.dst, sink);
    EXPECT_NE(msg.src, sink);
    EXPECT_LT(msg.src, n);
  }
  // Deterministic under a fixed seed.
  Rng rng2(41);
  EXPECT_EQ(incast_traffic(n, 300, sink, rng2), m);
}

TEST(Traffic, ElephantMiceCountsAndFlows) {
  const std::uint32_t n = 64;
  const std::uint32_t elephants = 5, size = 20;
  const std::size_t mice = 123;
  Rng rng(43);
  const auto m = elephant_mice_traffic(n, elephants, size, mice, rng);
  ASSERT_EQ(m.size(), std::size_t{elephants} * size + mice);
  // The first elephants*size messages form `elephants` constant flows of
  // `size` repeats each, never self-addressed.
  for (std::uint32_t f = 0; f < elephants; ++f) {
    const Message head = m[std::size_t{f} * size];
    EXPECT_NE(head.src, head.dst);
    for (std::uint32_t i = 0; i < size; ++i) {
      EXPECT_EQ(m[std::size_t{f} * size + i], head);
    }
  }
  for (std::size_t i = std::size_t{elephants} * size; i < m.size(); ++i) {
    EXPECT_LT(m[i].src, n);
    EXPECT_LT(m[i].dst, n);
  }
}

TEST(Traffic, AdversarialResidueSharesOneResidueClass) {
  const std::uint32_t n = 64, modulus = 8;
  Rng rng(47);
  const auto m = adversarial_residue_traffic(n, modulus, rng);
  ASSERT_EQ(m.size(), n);
  const Leaf residue = m[0].dst % modulus;
  for (std::uint32_t p = 0; p < n; ++p) {
    EXPECT_EQ(m[p].src, p);  // one message per source, in order
    EXPECT_EQ(m[p].dst % modulus, residue);
    EXPECT_LT(m[p].dst, n);
  }
  // modulus == 1 degenerates to uniform destinations, still in range.
  Rng rng2(48);
  const auto all = adversarial_residue_traffic(n, 1, rng2);
  for (const auto& msg : all) EXPECT_LT(msg.dst, n);
}

TEST(Traffic, PersistentHotspotPhasesAndRanges) {
  const std::uint32_t n = 64;
  const Leaf hot = 21;
  Rng rng(53);
  const auto m = persistent_hotspot_traffic(n, hot, 40, 200, rng);
  ASSERT_EQ(m.size(), 240u);
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(m[i].dst, hot);
    EXPECT_NE(m[i].src, hot);
  }
  for (std::size_t i = 40; i < m.size(); ++i) {
    EXPECT_LT(m[i].src, n);
    EXPECT_LT(m[i].dst, n);
  }
}

TEST(Traffic, StandardWorkloadsCover) {
  // n = 2 and 4 are below local-r4's radius: destinations still wrap
  // into [0, n).
  for (const std::uint32_t n : {2u, 4u, 64u}) {
    Rng rng(11);
    const auto workloads = standard_workloads(n, rng);
    EXPECT_GE(workloads.size(), 8u);
    std::set<std::string> names;
    for (const auto& w : workloads) {
      EXPECT_FALSE(w.messages.empty()) << w.name << " n=" << n;
      names.insert(w.name);
      for (const auto& msg : w.messages) {
        EXPECT_LT(msg.src, n) << w.name;
        EXPECT_LT(msg.dst, n) << w.name;
      }
    }
    EXPECT_EQ(names.size(), workloads.size());  // distinct names
  }
}

TEST(Traffic, LocalTrafficWrapsBeyondItsRadius) {
  // A radius above n wraps as often as it takes; for n >= radius the
  // draws and destinations are those of the n-offset formula.
  Rng a(3);
  for (const Message& msg : local_traffic(2, 4, a)) EXPECT_LT(msg.dst, 2u);
  Rng b(3);
  Rng c(3);
  const MessageSet m = local_traffic(64, 4, b);
  for (std::uint32_t p = 0; p < 64; ++p) {
    const auto offset = c.range(-4, 4);
    EXPECT_EQ(m[p].dst, static_cast<Leaf>((p + offset + 64) % 64));
  }
}

TEST(Traffic, NamedWorkloadEqualsItsStandardEntry) {
  // build_workload replays the draws of the standard workloads before
  // the named one, so building one name alone gives standard_workloads'
  // set for the same starting generator.
  for (const std::uint32_t n : {2u, 64u, 256u}) {
    for (const std::uint64_t seed : {1ull, 7ull}) {
      Rng all_rng(seed);
      const auto all = standard_workloads(n, all_rng);
      for (const NamedWorkload& want : all) {
        const WorkloadEntry* w = find_workload(want.name);
        ASSERT_NE(w, nullptr) << want.name;
        Rng rng(seed);
        EXPECT_EQ(build_workload(*w, n, 0, rng), want.messages)
            << want.name << " n=" << n << " seed=" << seed;
      }
    }
  }
  std::size_t standard = 0;
  for (const WorkloadEntry& w : workload_table()) {
    standard += w.cls != WorkloadClass::Volume ? 1 : 0;
  }
  EXPECT_EQ(standard, 9u);
  EXPECT_EQ(find_workload("all"), nullptr);
  // A Volume workload draws from the generator as given.
  Rng a(5);
  Rng b(5);
  EXPECT_EQ(build_workload(*find_workload("uniform"), 64, 100, a),
            uniform_random_traffic(64, 100, b));
}

}  // namespace
}  // namespace ft
