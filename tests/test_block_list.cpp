// The engine's block-chained stage worklists (engine/block_list.hpp), for
// both element types the engine stores: packed (msg << 32) | channel
// entries and channel ids. A list must read back exactly what was pushed,
// in push order, across block boundaries; release() must hand every block
// back so the next fill allocates nothing; and a pool frees every block
// it handed out, including blocks that lists still hold (run under
// ASan/LSan).
#include "engine/block_list.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

namespace ft {
namespace {

template <typename T>
class BlockListTest : public ::testing::Test {};
using ElementTypes = ::testing::Types<std::uint64_t, std::uint32_t>;
TYPED_TEST_SUITE(BlockListTest, ElementTypes);

template <typename T>
std::vector<T> contents(const BlockList<T>& list) {
  std::vector<T> out;
  list.for_each([&](T v) { out.push_back(v); });
  return out;
}

/// Fills around the block size K: empty, one short of a block, exactly
/// one, one over, and several with a partial last block.
template <typename T>
std::vector<std::size_t> fill_sizes() {
  constexpr std::size_t k = BlockList<T>::kCapacity;
  return {0, k - 1, k, k + 1, 3 * k + 5};
}

/// Blocks needed for n entries.
template <typename T>
std::size_t blocks_for(std::size_t n) {
  constexpr std::size_t k = BlockList<T>::kCapacity;
  return (n + k - 1) / k;
}

/// Pushes n values that are not monotone in their index, so an
/// out-of-order read shows.
template <typename T>
std::vector<T> push_values(BlockList<T>& list, std::size_t n,
                           std::uint32_t salt) {
  std::vector<T> pushed;
  for (std::size_t i = 0; i < n; ++i) {
    const T v = static_cast<T>((i + salt) * 2654435761u);
    list.push_back(v);
    pushed.push_back(v);
  }
  return pushed;
}

TYPED_TEST(BlockListTest, BlocksFitTheirByteBudget) {
  using T = TypeParam;
  EXPECT_EQ(BlockList<T>::kCapacity,
            (kBlockBytes - sizeof(void*)) / sizeof(T));
  EXPECT_LE(sizeof(typename BlockPool<T>::Block), kBlockBytes);
}

TYPED_TEST(BlockListTest, ReadsBackInPushOrderWithExactSize) {
  using T = TypeParam;
  for (const std::size_t n : fill_sizes<T>()) {
    BlockPool<T> pool;
    BlockList<T> list;
    list.bind(pool);
    EXPECT_TRUE(list.empty());
    EXPECT_EQ(list.size(), 0u);
    std::vector<T> pushed;
    for (std::size_t i = 0; i < n; ++i) {
      const T v = static_cast<T>(i * 2654435761u);
      list.push_back(v);
      pushed.push_back(v);
      ASSERT_EQ(list.size(), i + 1) << "n = " << n;
    }
    EXPECT_EQ(list.empty(), n == 0) << "n = " << n;
    EXPECT_EQ(contents(list), pushed) << "n = " << n;
    EXPECT_EQ(pool.blocks(), blocks_for<T>(n)) << "n = " << n;
  }
}

TYPED_TEST(BlockListTest, ReleaseReturnsEveryBlockForTheNextFill) {
  using T = TypeParam;
  constexpr std::size_t k = BlockList<T>::kCapacity;
  for (const std::size_t n : fill_sizes<T>()) {
    BlockPool<T> pool;
    BlockList<T> a, b, c;
    a.bind(pool);
    b.bind(pool);
    c.bind(pool);
    push_values(a, n, 1);
    const std::size_t held = pool.blocks();
    a.release();
    EXPECT_TRUE(a.empty()) << "n = " << n;
    EXPECT_EQ(a.size(), 0u) << "n = " << n;
    EXPECT_TRUE(contents(a).empty()) << "n = " << n;

    // Another list refills the same size from the returned blocks alone...
    const std::vector<T> refill = push_values(b, n, 2);
    EXPECT_EQ(pool.blocks(), held) << "n = " << n;
    EXPECT_EQ(contents(b), refill) << "n = " << n;
    // ...and takes all of them: the pool has no other free block.
    c.push_back(T{5});
    EXPECT_EQ(pool.blocks(), held + 1) << "n = " << n;

    // Two chains spliced back serve one longer fill.
    b.release();
    c.release();
    const std::vector<T> longer = push_values(a, n + k, 3);
    EXPECT_EQ(pool.blocks(), held + 1) << "n = " << n;
    EXPECT_EQ(a.size(), n + k) << "n = " << n;
    EXPECT_EQ(contents(a), longer) << "n = " << n;
  }
}

// The engine's bands are movable: moving a pool carries its blocks, and a
// list re-bound to the moved pool releases into it (Band::reset binds
// before it releases).
TYPED_TEST(BlockListTest, MovedPoolKeepsItsBlocks) {
  using T = TypeParam;
  constexpr std::size_t k = BlockList<T>::kCapacity;
  BlockPool<T> first;
  BlockList<T> list;
  list.bind(first);
  push_values(list, k + 1, 4);
  BlockPool<T> moved(std::move(first));
  EXPECT_EQ(moved.blocks(), 2u);
  EXPECT_EQ(first.blocks(), 0u);
  list.bind(moved);
  list.release();
  BlockList<T> other(std::move(list));  // takes the binding along
  EXPECT_TRUE(list.empty());
  const std::vector<T> refill = push_values(other, 2 * k, 5);
  EXPECT_EQ(moved.blocks(), 2u);
  EXPECT_EQ(contents(other), refill);
}

// A pool owns every block it hands out: destroying it while lists still
// hold chains (as a run that max_cycles stopped leaves them) frees them
// all. The lists are not used afterwards; their destructors touch no
// block. LSan reports a leak and ASan a bad free if either breaks.
TYPED_TEST(BlockListTest, DestroyingPoolFreesBlocksListsStillHold) {
  using T = TypeParam;
  constexpr std::size_t k = BlockList<T>::kCapacity;
  BlockList<T> outlives;
  {
    BlockPool<T> pool;
    BlockList<T> a;
    a.bind(pool);
    outlives.bind(pool);
    push_values(a, 3 * k + 5, 6);
    push_values(outlives, k + 1, 7);
    BlockList<T> moved(std::move(a));
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(moved.size(), 3 * k + 5);
    EXPECT_EQ(pool.blocks(), 6u);
  }
}

}  // namespace
}  // namespace ft
