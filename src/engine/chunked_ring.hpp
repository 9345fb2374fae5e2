// Chunked ring buffer of message ids: a store-and-forward round's
// per-channel FIFO queue (engine/store_forward_rounds.cpp). A circular
// singly-linked list of fixed-size chunks; head and tail chase each other
// around the ring, and a chunk drained by the head is reused in place by
// the tail, so a queue that has reached its peak depth performs no
// further allocation — unlike std::deque, which frees and reallocates its
// blocks as the queue breathes. Pushes and pops are O(1), FIFO order is
// exact.
#pragma once

#include <cstdint>

namespace ft {

class ChunkedRing {
 public:
  /// 128 ids per chunk: 512-byte payload, one cache-line-friendly step per
  /// 128 operations for the link-following slow path.
  static constexpr std::uint32_t kChunkCapacity = 128;

  ChunkedRing() = default;
  ChunkedRing(const ChunkedRing&) = delete;
  ChunkedRing& operator=(const ChunkedRing&) = delete;
  ChunkedRing(ChunkedRing&& other) noexcept { swap(other); }
  ChunkedRing& operator=(ChunkedRing&& other) noexcept {
    swap(other);
    return *this;
  }

  ~ChunkedRing() {
    if (head_ == nullptr) return;
    Chunk* c = head_->next;
    while (c != head_) {
      Chunk* next = c->next;
      delete c;
      c = next;
    }
    delete head_;
  }

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  void push(std::uint32_t value) {
    if (tail_ == nullptr) {
      head_ = tail_ = new Chunk;
      head_->next = head_;
    } else if (tail_pos_ == kChunkCapacity) {
      if (count_ == 0) {
        // Ring fully drained at a chunk boundary: restart in place.
        head_ = tail_;
        head_pos_ = 0;
        tail_pos_ = 0;
      } else {
        // The next chunk around the ring is free unless the head is still
        // draining it, in which case the ring grows by one chunk.
        if (tail_->next == head_) {
          Chunk* fresh = new Chunk;
          fresh->next = tail_->next;
          tail_->next = fresh;
        }
        tail_ = tail_->next;
        tail_pos_ = 0;
      }
    }
    tail_->values[tail_pos_++] = value;
    ++count_;
  }

  /// Pops the oldest id. Precondition: !empty().
  std::uint32_t pop() {
    const std::uint32_t value = head_->values[head_pos_++];
    --count_;
    if (head_pos_ == kChunkCapacity && count_ != 0) {
      head_ = head_->next;
      head_pos_ = 0;
    }
    return value;
  }

 private:
  struct Chunk {
    std::uint32_t values[kChunkCapacity];
    Chunk* next = nullptr;
  };

  void swap(ChunkedRing& other) noexcept {
    Chunk* h = head_;
    Chunk* t = tail_;
    const std::uint32_t hp = head_pos_, tp = tail_pos_;
    const std::size_t c = count_;
    head_ = other.head_;
    tail_ = other.tail_;
    head_pos_ = other.head_pos_;
    tail_pos_ = other.tail_pos_;
    count_ = other.count_;
    other.head_ = h;
    other.tail_ = t;
    other.head_pos_ = hp;
    other.tail_pos_ = tp;
    other.count_ = c;
  }

  Chunk* head_ = nullptr;  ///< chunk being drained
  Chunk* tail_ = nullptr;  ///< chunk being filled
  std::uint32_t head_pos_ = 0;  ///< next pop slot within head_
  std::uint32_t tail_pos_ = 0;  ///< next push slot within tail_
  std::size_t count_ = 0;
};

}  // namespace ft
