// Generic-network channel model for the CycleEngine: link ids become
// engine channel indices one-for-one, so a nets/routing.hpp Route is
// already an EnginePath. Used by the store-and-forward competitor
// simulation (FIFO contention).
#pragma once

#include <algorithm>

#include "engine/channel_graph.hpp"
#include "engine/message_source.hpp"
#include "nets/network.hpp"
#include "nets/routing.hpp"

namespace ft {

inline ChannelGraph network_channel_graph(const Network& net) {
  std::vector<std::uint64_t> caps(net.num_links());
  for (std::uint32_t lid = 0; lid < net.num_links(); ++lid) {
    caps[lid] = net.link(lid).capacity;
  }
  return ChannelGraph::flat(std::move(caps));
}

/// Streams router output into the engine chunk by chunk (a Route is
/// already an EnginePath, so this is pure re-chunking). The routes vector
/// itself still exists — competitor routers materialize it — but the CSR
/// copy never does.
class RouteChunkSource final : public MessageSource {
 public:
  explicit RouteChunkSource(const std::vector<Route>& routes,
                            std::size_t chunk_paths = kDefaultChunkPaths)
      : routes_(routes), chunk_paths_(chunk_paths == 0 ? 1 : chunk_paths) {}

  bool next_chunk(PathSet& chunk) override {
    if (next_ >= routes_.size()) return false;
    chunk.clear();
    const std::size_t end = std::min(routes_.size(), next_ + chunk_paths_);
    for (; next_ < end; ++next_) {
      for (const std::uint32_t c : routes_[next_]) chunk.push_channel(c);
      chunk.close_path();
    }
    return true;
  }

 private:
  const std::vector<Route>& routes_;
  std::size_t chunk_paths_;
  std::size_t next_ = 0;
};

}  // namespace ft
