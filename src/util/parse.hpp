// Checked string-to-number parsing shared by every binary that reads
// untrusted flag or request input (ftsim, ftd, ftd_loadgen). Every
// numeric token must be consumed whole — "4x", "abc", "-3", an empty
// field or trailing garbage after a compound value all fail instead of
// silently strtoul-ing to something else. All callers' numeric inputs
// are non-negative, so a token must start with a digit (a double also
// with '.'): that rejects a sign, and leading whitespace, which strtoull
// and strtod skip before they read one (" -1" would parse as 2^64 - 1).
#pragma once

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>

namespace ft {

inline bool parse_u64(const char* s, std::uint64_t& out) {
  if (s == nullptr || *s < '0' || *s > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  out = v;
  return true;
}

inline bool parse_u32(const char* s, std::uint32_t& out) {
  std::uint64_t v = 0;
  if (!parse_u64(s, v) || v > 0xffffffffull) return false;
  out = static_cast<std::uint32_t>(v);
  return true;
}

inline bool parse_u16(const char* s, std::uint16_t& out) {
  std::uint64_t v = 0;
  if (!parse_u64(s, v) || v > 0xffffull) return false;
  out = static_cast<std::uint16_t>(v);
  return true;
}

inline bool parse_size(const char* s, std::size_t& out) {
  std::uint64_t v = 0;
  if (!parse_u64(s, v)) return false;
  out = static_cast<std::size_t>(v);
  return true;
}

/// Most worker threads a command line may ask for. The engine's pool and
/// ftd's job workers start every thread they are given, so an unchecked
/// count in the thousands starts that many, and 2^64 - 1 wraps the
/// pool's slot count.
inline constexpr std::size_t kMaxThreads = 1024;

/// A thread count: a whole number in [0, kMaxThreads] (0 keeps its
/// "hardware concurrency" meaning).
inline bool parse_threads(const char* s, std::size_t& out) {
  std::uint64_t v = 0;
  if (!parse_u64(s, v) || v > kMaxThreads) return false;
  out = static_cast<std::size_t>(v);
  return true;
}

/// Resolves a thread count: 0 means hardware concurrency, at least 1.
/// hardware_concurrency() makes system calls, so call this only where a
/// parallel executor is built, never on a serial path.
inline std::size_t resolve_threads(std::size_t threads) {
  return threads != 0
             ? threads
             : std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

inline bool parse_double(const char* s, double& out) {
  if (s == nullptr || ((*s < '0' || *s > '9') && *s != '.')) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (errno != 0 || end == s || *end != '\0') return false;
  out = v;
  return true;
}

/// Splits a compound flag value into exactly `count` non-empty
/// ':'-separated fields; fails on missing fields and on trailing garbage
/// (an extra field, a dangling ':').
inline bool split_fields(const char* s, std::size_t count, std::string* out) {
  if (s == nullptr) return false;
  const std::string v = s;
  std::size_t start = 0;
  for (std::size_t k = 0; k + 1 < count; ++k) {
    const std::size_t sep = v.find(':', start);
    if (sep == std::string::npos) return false;
    out[k] = v.substr(start, sep - start);
    if (out[k].empty()) return false;
    start = sep + 1;
  }
  out[count - 1] = v.substr(start);
  return !out[count - 1].empty() &&
         out[count - 1].find(':') == std::string::npos;
}

}  // namespace ft
