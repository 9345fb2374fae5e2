#include "core/capacity.hpp"

#include <algorithm>
#include <cmath>

namespace ft {

CapacityProfile::CapacityProfile(const FatTreeTopology& topo,
                                 std::vector<std::uint64_t> cap_by_level)
    : cap_by_level_(std::move(cap_by_level)) {
  FT_CHECK_MSG(cap_by_level_.size() == topo.height() + 1,
               "profile must cover levels 0..L");
  for (auto c : cap_by_level_) FT_CHECK_MSG(c >= 1, "capacity must be >= 1");
}

CapacityProfile CapacityProfile::universal(const FatTreeTopology& topo,
                                           std::uint64_t root_capacity) {
  const std::uint32_t L = topo.height();
  const std::uint64_t n = topo.num_processors();
  const std::uint64_t w = std::clamp<std::uint64_t>(root_capacity, 1, n);
  std::vector<std::uint64_t> caps(L + 1);
  for (std::uint32_t k = 0; k <= L; ++k) {
    // Doubling regime: 2^{L-k}; root regime: w / 2^{2k/3}, rounded up so
    // the root really has capacity w and no channel drops to zero.
    const std::uint64_t doubling = std::uint64_t{1} << (L - k);
    const double shrink = std::exp2(-2.0 * k / 3.0);
    const auto root_regime = static_cast<std::uint64_t>(
        std::ceil(static_cast<double>(w) * shrink));
    caps[k] = std::max<std::uint64_t>(1, std::min(doubling, root_regime));
  }
  return CapacityProfile(topo, std::move(caps));
}

CapacityProfile CapacityProfile::constant(const FatTreeTopology& topo,
                                          std::uint64_t c) {
  FT_CHECK(c >= 1);
  return CapacityProfile(
      topo, std::vector<std::uint64_t>(topo.height() + 1, c));
}

CapacityProfile CapacityProfile::doubling(const FatTreeTopology& topo) {
  const std::uint32_t L = topo.height();
  std::vector<std::uint64_t> caps(L + 1);
  for (std::uint32_t k = 0; k <= L; ++k) {
    caps[k] = std::uint64_t{1} << (L - k);
  }
  return CapacityProfile(topo, std::move(caps));
}

CapacityProfile CapacityProfile::with_channel_capacity(
    const FatTreeTopology& topo, NodeId node, std::uint64_t capacity) const {
  CapacityProfile out = *this;
  out.set_channel_capacity(topo, node, capacity);
  return out;
}

void CapacityProfile::set_channel_capacity(const FatTreeTopology& topo,
                                           NodeId node,
                                           std::uint64_t capacity) {
  FT_CHECK(node >= 1 && node <= topo.num_nodes());
  FT_CHECK_MSG(capacity >= 1, "a channel must keep at least one wire");
  if (overrides_.empty()) overrides_.assign(topo.num_nodes() + 1, 0);
  overrides_[node] = capacity;
}

std::uint64_t CapacityProfile::total_wires(const FatTreeTopology& topo) const {
  std::uint64_t total = 0;
  if (overrides_.empty()) {
    for (std::uint32_t k = 0; k <= topo.height(); ++k) {
      const std::uint64_t channels_at_level = std::uint64_t{1} << k;
      total += 2 * channels_at_level * cap_by_level_[k];
    }
  } else {
    for (NodeId v = 1; v <= topo.num_nodes(); ++v) {
      total += 2 * capacity(topo, v);
    }
  }
  return total;
}

}  // namespace ft
