#include "core/traffic.hpp"

#include "util/bits.hpp"
#include "util/check.hpp"

namespace ft {

MessageSet random_permutation_traffic(std::uint32_t n, Rng& rng) {
  MessageSet m;
  m.reserve(n);
  const auto perm = rng.permutation(n);
  for (std::uint32_t p = 0; p < n; ++p) m.push_back({p, perm[p]});
  return m;
}

MessageSet bit_reversal_traffic(std::uint32_t n) {
  FT_CHECK(is_pow2(n));
  const std::uint32_t bits = floor_log2(n);
  MessageSet m;
  m.reserve(n);
  for (std::uint32_t p = 0; p < n; ++p) {
    m.push_back({p, static_cast<Leaf>(reverse_bits(p, bits))});
  }
  return m;
}

MessageSet transpose_traffic(std::uint32_t n) {
  FT_CHECK(is_pow2(n));
  const std::uint32_t bits = floor_log2(n);
  const std::uint32_t half = bits / 2;
  MessageSet m;
  m.reserve(n);
  for (std::uint32_t p = 0; p < n; ++p) {
    const std::uint32_t lo = p & ((1u << half) - 1);
    const std::uint32_t hi = p >> half;
    // Swap the low `half` bits with the remaining high bits.
    const std::uint32_t dst = (lo << (bits - half)) | hi;
    m.push_back({p, dst});
  }
  return m;
}

MessageSet shuffle_traffic(std::uint32_t n) {
  FT_CHECK(is_pow2(n));
  const std::uint32_t bits = floor_log2(n);
  MessageSet m;
  m.reserve(n);
  for (std::uint32_t p = 0; p < n; ++p) {
    const std::uint32_t dst = ((p << 1) | (p >> (bits - 1))) & (n - 1);
    m.push_back({p, dst});
  }
  return m;
}

MessageSet complement_traffic(std::uint32_t n) {
  FT_CHECK(is_pow2(n));
  MessageSet m;
  m.reserve(n);
  for (std::uint32_t p = 0; p < n; ++p) m.push_back({p, (n - 1) ^ p});
  return m;
}

MessageSet uniform_random_traffic(std::uint32_t n, std::size_t count,
                                  Rng& rng) {
  MessageSet m;
  m.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    m.push_back({static_cast<Leaf>(rng.below(n)),
                 static_cast<Leaf>(rng.below(n))});
  }
  return m;
}

MessageSet hotspot_traffic(std::uint32_t n, double fraction, Leaf hot,
                           Rng& rng) {
  FT_CHECK(hot < n);
  MessageSet m;
  m.reserve(n);
  for (std::uint32_t p = 0; p < n; ++p) {
    if (rng.chance(fraction)) {
      m.push_back({p, hot});
    } else {
      m.push_back({p, static_cast<Leaf>(rng.below(n))});
    }
  }
  return m;
}

MessageSet local_traffic(std::uint32_t n, std::uint32_t radius, Rng& rng) {
  FT_CHECK(radius >= 1);
  MessageSet m;
  m.reserve(n);
  for (std::uint32_t p = 0; p < n; ++p) {
    const auto offset = static_cast<std::int64_t>(
        rng.range(-static_cast<std::int64_t>(radius),
                  static_cast<std::int64_t>(radius)));
    const std::int64_t d = (static_cast<std::int64_t>(p) + offset) % n;
    m.push_back({p, static_cast<Leaf>(d < 0 ? d + n : d)});
  }
  return m;
}

MessageSet fem_halo_traffic(std::uint32_t rows, std::uint32_t cols) {
  MessageSet m;
  m.reserve(static_cast<std::size_t>(rows) * cols * 4);
  auto id = [cols](std::uint32_t r, std::uint32_t c) { return r * cols + c; };
  for (std::uint32_t r = 0; r < rows; ++r) {
    for (std::uint32_t c = 0; c < cols; ++c) {
      const Leaf self = id(r, c);
      if (r > 0) m.push_back({self, id(r - 1, c)});
      if (r + 1 < rows) m.push_back({self, id(r + 1, c)});
      if (c > 0) m.push_back({self, id(r, c - 1)});
      if (c + 1 < cols) m.push_back({self, id(r, c + 1)});
    }
  }
  return m;
}

MessageSet stacked_permutations(std::uint32_t n, std::uint32_t k, Rng& rng) {
  MessageSet m;
  m.reserve(static_cast<std::size_t>(n) * k);
  for (std::uint32_t i = 0; i < k; ++i) {
    const auto one = random_permutation_traffic(n, rng);
    m.insert(m.end(), one.begin(), one.end());
  }
  return m;
}

MessageSet tornado_traffic(std::uint32_t n) {
  MessageSet m;
  m.reserve(n);
  for (std::uint32_t p = 0; p < n; ++p) {
    m.push_back({p, (p + n / 2 - 1) % n});
  }
  return m;
}

MessageSet ring_shift_traffic(std::uint32_t n, std::uint32_t offset) {
  MessageSet m;
  m.reserve(n);
  for (std::uint32_t p = 0; p < n; ++p) m.push_back({p, (p + offset) % n});
  return m;
}

MessageSet all_to_all_traffic(std::uint32_t n) {
  MessageSet m;
  m.reserve(static_cast<std::size_t>(n) * (n - 1));
  for (std::uint32_t p = 0; p < n; ++p) {
    for (std::uint32_t q = 0; q < n; ++q) {
      if (p != q) m.push_back({p, q});
    }
  }
  return m;
}

MessageSet bisection_flood_traffic(std::uint32_t n, std::uint32_t count,
                                   Rng& rng) {
  MessageSet m;
  m.reserve(static_cast<std::size_t>(n / 2) * count);
  for (std::uint32_t p = 0; p < n / 2; ++p) {
    for (std::uint32_t i = 0; i < count; ++i) {
      m.push_back({p, static_cast<Leaf>(n / 2 + rng.below(n / 2))});
    }
  }
  return m;
}

MessageSet incast_traffic(std::uint32_t n, std::size_t count, Leaf sink,
                          Rng& rng) {
  FT_CHECK(n >= 2 && sink < n);
  MessageSet m;
  m.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto src = static_cast<Leaf>(rng.below(n - 1));
    if (src >= sink) ++src;  // sources are non-sink leaves
    m.push_back({src, sink});
  }
  return m;
}

MessageSet elephant_mice_traffic(std::uint32_t n, std::uint32_t elephants,
                                 std::uint32_t elephant_size,
                                 std::size_t mice, Rng& rng) {
  FT_CHECK(n >= 2);
  MessageSet m;
  m.reserve(static_cast<std::size_t>(elephants) * elephant_size + mice);
  for (std::uint32_t f = 0; f < elephants; ++f) {
    const auto src = static_cast<Leaf>(rng.below(n));
    auto dst = static_cast<Leaf>(rng.below(n - 1));
    if (dst >= src) ++dst;  // elephants never send to themselves
    for (std::uint32_t i = 0; i < elephant_size; ++i) m.push_back({src, dst});
  }
  for (std::size_t i = 0; i < mice; ++i) {
    m.push_back({static_cast<Leaf>(rng.below(n)),
                 static_cast<Leaf>(rng.below(n))});
  }
  return m;
}

MessageSet adversarial_residue_traffic(std::uint32_t n, std::uint32_t modulus,
                                       Rng& rng) {
  FT_CHECK(modulus >= 1 && modulus <= n);
  const auto r = static_cast<Leaf>(rng.below(modulus));
  MessageSet m;
  m.reserve(n);
  for (std::uint32_t p = 0; p < n; ++p) {
    m.push_back({p, static_cast<Leaf>(r + modulus * rng.below(n / modulus))});
  }
  return m;
}

MessageSet persistent_hotspot_traffic(std::uint32_t n, Leaf hot,
                                      std::size_t hot_count,
                                      std::size_t background, Rng& rng) {
  FT_CHECK(n >= 2 && hot < n);
  MessageSet m;
  m.reserve(hot_count + background);
  for (std::size_t i = 0; i < hot_count; ++i) {
    auto src = static_cast<Leaf>(rng.below(n - 1));
    if (src >= hot) ++src;
    m.push_back({src, hot});
  }
  for (std::size_t i = 0; i < background; ++i) {
    m.push_back({static_cast<Leaf>(rng.below(n)),
                 static_cast<Leaf>(rng.below(n))});
  }
  return m;
}

namespace {

// The standard entries come in standard_workloads' draw order.
constexpr WorkloadEntry kWorkloads[] = {
    {"random-perm", WorkloadClass::Permutation, true,
     [](auto n, auto, auto& r) { return random_permutation_traffic(n, r); }},
    {"bit-reversal", WorkloadClass::Permutation, false,
     [](auto n, auto, auto&) { return bit_reversal_traffic(n); }},
    {"transpose", WorkloadClass::Permutation, false,
     [](auto n, auto, auto&) { return transpose_traffic(n); }},
    {"shuffle", WorkloadClass::Permutation, false,
     [](auto n, auto, auto&) { return shuffle_traffic(n); }},
    {"complement", WorkloadClass::Permutation, false,
     [](auto n, auto, auto&) { return complement_traffic(n); }},
    {"hotspot-10%", WorkloadClass::Pattern, true,
     [](auto n, auto, auto& r) { return hotspot_traffic(n, 0.10, n / 3, r); }},
    {"local-r4", WorkloadClass::Pattern, true,
     [](auto n, auto, auto& r) { return local_traffic(n, 4, r); }},
    // A sqrt(n) x sqrt(n) grid when n is an even power of two, else 2:1.
    {"fem-halo", WorkloadClass::Pattern, false,
     [](auto n, auto, auto&) {
       const std::uint32_t rows = 1u << (floor_log2(n) / 2);
       return fem_halo_traffic(rows, n / rows);
     }},
    {"tornado", WorkloadClass::Permutation, false,
     [](auto n, auto, auto&) { return tornado_traffic(n); }},
    {"uniform", WorkloadClass::Volume, true,
     [](auto n, auto c, auto& r) { return uniform_random_traffic(n, c, r); }},
    {"incast", WorkloadClass::Volume, true,
     [](auto n, auto c, auto& r) { return incast_traffic(n, c, 0, r); }},
};

}  // namespace

std::span<const WorkloadEntry> workload_table() { return kWorkloads; }

const WorkloadEntry* find_workload(std::string_view name) {
  for (const WorkloadEntry& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

MessageSet build_workload(const WorkloadEntry& w, std::uint32_t n,
                          std::size_t count, Rng& rng) {
  // The standard entries come first; a Volume workload draws afresh, and
  // one that draws nothing needs no earlier draws.
  for (const WorkloadEntry& e : kWorkloads) {
    if (&e == &w || !w.draws || w.cls == WorkloadClass::Volume) break;
    if (e.draws) (void)e.build(n, count, rng);  // only its draws matter
  }
  return w.build(n, count, rng);
}

std::vector<NamedWorkload> standard_workloads(std::uint32_t n, Rng& rng) {
  std::vector<NamedWorkload> out;
  for (const WorkloadEntry& w : kWorkloads) {
    if (w.cls != WorkloadClass::Volume) {
      out.push_back({w.name, w.build(n, 0, rng)});
    }
  }
  return out;
}

}  // namespace ft
