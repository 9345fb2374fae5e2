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

/// Streams router output into the engine in kDefaultChunkPaths chunks (a
/// Route is already an EnginePath, so this is pure re-chunking): the FIFO
/// input of simulate_store_forward, and of any vector of paths (a
/// KaryRoute is one too). The routes vector itself still exists —
/// competitor routers materialize it — and FIFO ingestion copies it into
/// one CSR PathSet.
class RouteChunkSource final : public MessageSource {
 public:
  explicit RouteChunkSource(const std::vector<Route>& routes)
      : routes_(routes) {}

  bool next_chunk(PathSet& chunk) override {
    chunk.clear();
    if (next_ >= routes_.size()) return false;
    const std::size_t end =
        std::min(routes_.size(), next_ + kDefaultChunkPaths);
    for (; next_ < end; ++next_) {
      chunk.append(routes_[next_].begin(), routes_[next_].end());
    }
    return true;
  }

 private:
  const std::vector<Route>& routes_;
  std::size_t next_ = 0;
};

}  // namespace ft
