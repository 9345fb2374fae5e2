// Streaming message input for the delivery-cycle engine. A MessageSource
// hands the engine one PathSet chunk at a time, and a PairSource one chunk
// of leaf pairs (fat-tree graphs only), instead of materializing every
// message for the whole run up front, so peak input memory for an
// n = 2^20 workload is O(chunk), not O(n) (see DESIGN.md "Scale-out").
//
// Contract: next_chunk() clears `chunk`, refills it with the next batch of
// paths (at most the source's chunk size) and returns true, or returns
// false — leaving `chunk` cleared — when the source is exhausted. A source
// is single-pass: once it returns false it keeps returning false. The
// engine guarantees the concatenation of all chunks is consumed in order,
// which is what makes a run independent of how its input is chunked.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "engine/channel_graph.hpp"

namespace ft {

/// Default number of paths per streamed chunk: large enough to amortize
/// per-chunk bookkeeping, small enough that a chunk of million-leaf
/// fat-tree paths stays in the tens of megabytes.
inline constexpr std::size_t kDefaultChunkPaths = 8192;

class MessageSource {
 public:
  virtual ~MessageSource() = default;

  /// Fills `chunk` with the next batch of paths. Returns false (with
  /// `chunk` empty) when exhausted.
  virtual bool next_chunk(PathSet& chunk) = 0;
};

/// One message between two leaves (0 .. 2^L - 1) of a tagged fat-tree
/// graph (ChannelGraph::tree_height). Its path is the tree path between
/// them; a self pair is a local delivery.
struct LeafPair {
  std::uint32_t src;
  std::uint32_t dst;
};

/// Streaming leaf-pair input, under MessageSource's contract: next_chunk
/// clears `chunk` and refills it, or returns false with `chunk` empty once
/// the source is exhausted.
class PairSource {
 public:
  virtual ~PairSource() = default;
  virtual bool next_chunk(std::vector<LeafPair>& chunk) = 0;
};

/// Adapts an already-materialized PathSet to the streaming interface by
/// slicing it into chunks: how the tests hand the engine a PathSet built
/// by hand (FIFO paths, tagged paths the injection checks must reject,
/// and the chunk-size invariance checks).
class PathSetSource final : public MessageSource {
 public:
  explicit PathSetSource(const PathSet& set,
                         std::size_t chunk_paths = kDefaultChunkPaths)
      : set_(set), chunk_paths_(chunk_paths == 0 ? 1 : chunk_paths) {}

  bool next_chunk(PathSet& chunk) override {
    chunk.clear();
    if (next_ >= set_.size()) return false;
    const std::size_t end = next_ + chunk_paths_ < set_.size()
                                ? next_ + chunk_paths_
                                : set_.size();
    const auto& chans = set_.channels();
    for (std::size_t p = next_; p < end; ++p) {
      const std::uint32_t off = set_.offset(p);
      const std::uint32_t len = set_.length(p);
      chunk.append(chans.data() + off, chans.data() + off + len);
    }
    next_ = end;
    return true;
  }

 private:
  const PathSet& set_;
  std::size_t chunk_paths_;
  std::size_t next_ = 0;
};

}  // namespace ft
