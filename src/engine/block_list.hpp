// Block-chained lists: the CycleEngine's stage worklists. A list grows by
// fixed-size blocks drawn from a pool, reads back in push order, and
// hands its whole chain back to the pool in O(1) once read. A worklist
// is drained exactly once, when its stage runs, so recycling its blocks
// there makes the storage of a set of lists follow their peak live
// entries, not the sum of each list's own peak (DESIGN.md §5, "Worklist
// stage advancement").
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace ft {

/// Bytes per block, link included, for every element type: 1,023 packed
/// worklist entries or 2,046 channel ids. Large enough that the grow call
/// is rare, small enough that a list's last, partly filled block wastes
/// little.
inline constexpr std::size_t kBlockBytes = 8192;

/// The blocks a set of lists grows from. The pool owns every block it has
/// handed out, so destroying it frees them all, including those that
/// lists still hold; such lists must not be used afterwards. Not
/// thread-safe: a pool and the lists that draw from it belong to one
/// thread at a time.
template <typename T>
class BlockPool {
 public:
  static constexpr std::size_t kCapacity =
      (kBlockBytes - sizeof(void*)) / sizeof(T);
  struct Block {
    Block* next = nullptr;
    T items[kCapacity];
  };
  static_assert(sizeof(Block) <= kBlockBytes);

  BlockPool() = default;
  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;
  /// Moving takes every block; the source is left empty.
  BlockPool(BlockPool&& other) noexcept
      : free_(std::exchange(other.free_, nullptr)),
        owned_(std::move(other.owned_)) {}
  BlockPool& operator=(BlockPool&&) = delete;

  /// A free block if there is one, otherwise a new one; its link is
  /// unspecified and its items uninitialized.
  Block* take() {
    if (free_ == nullptr) {
      owned_.push_back(std::make_unique_for_overwrite<Block>());
      return owned_.back().get();
    }
    Block* b = free_;
    free_ = b->next;
    return b;
  }

  /// Puts back the chain first .. last (linked through next) in O(1).
  void give(Block* first, Block* last) {
    last->next = free_;
    free_ = first;
  }

  /// Blocks allocated so far: the pool's whole footprint.
  std::size_t blocks() const { return owned_.size(); }

 private:
  Block* free_ = nullptr;
  std::vector<std::unique_ptr<Block>> owned_;
};

/// An append-only list stored as a chain of pool blocks. push_back keeps
/// std::vector's fast path (one compare and one store) and leaves block
/// changes to an out-of-line grow. A list grows from, and releases to,
/// the pool it was last bound to. Whoever owns a pool and its lists binds
/// them before use, so moving the owner cannot leave a list pointing at
/// a moved-from pool.
template <typename T>
class BlockList {
 public:
  using Pool = BlockPool<T>;
  static constexpr std::size_t kCapacity = Pool::kCapacity;

  BlockList() = default;
  BlockList(const BlockList&) = delete;
  BlockList& operator=(const BlockList&) = delete;
  /// Moving takes the chain and the binding; the source is left empty
  /// and unbound.
  BlockList(BlockList&& other) noexcept
      : pool_(std::exchange(other.pool_, nullptr)),
        head_(std::exchange(other.head_, nullptr)),
        tail_(std::exchange(other.tail_, nullptr)),
        cur_(std::exchange(other.cur_, nullptr)),
        end_(std::exchange(other.end_, nullptr)),
        cap_(std::exchange(other.cap_, 0)) {}
  BlockList& operator=(BlockList&&) = delete;

  /// Sets the pool later blocks come from and release() returns to.
  void bind(Pool& pool) { pool_ = &pool; }

  void push_back(T value) {
    if (cur_ == end_) grow();
    *cur_++ = value;
  }

  std::size_t size() const {
    return cap_ - static_cast<std::size_t>(end_ - cur_);
  }
  bool empty() const { return head_ == nullptr; }

  /// Calls f(entry) for every entry, in push order. f must not push to
  /// this list.
  template <typename F>
  void for_each(F&& f) const {
    if (head_ == nullptr) return;
    const Block* const last = tail_;
    const T* const last_end = cur_;
    for (const Block* b = head_;; b = b->next) {
      const T* const stop = b == last ? last_end : b->items + kCapacity;
      for (const T* p = b->items; p != stop; ++p) f(*p);
      if (b == last) return;
    }
  }

  /// Returns every block to the bound pool in O(1), leaving the list
  /// empty.
  void release() {
    if (head_ == nullptr) return;
    pool_->give(head_, tail_);
    head_ = tail_ = nullptr;
    cur_ = end_ = nullptr;
    cap_ = 0;
  }

 private:
  using Block = typename Pool::Block;

#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline))
#endif
  void grow() {
    Block* b = pool_->take();
    b->next = nullptr;
    if (tail_ == nullptr) {
      head_ = b;
    } else {
      tail_->next = b;
    }
    tail_ = b;
    cur_ = b->items;
    end_ = b->items + kCapacity;
    cap_ += kCapacity;
  }

  Pool* pool_ = nullptr;
  Block* head_ = nullptr;
  Block* tail_ = nullptr;
  T* cur_ = nullptr;  ///< next slot in tail_
  T* end_ = nullptr;  ///< one past tail_'s last slot
  std::size_t cap_ = 0;  ///< slots in the whole chain
};

}  // namespace ft
