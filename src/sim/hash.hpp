// The integer and string hash primitives every layer shares: the splitmix64
// finalizer and generator step, 64-bit FNV-1a, and the seeded detector
// noise built on them. Header-only and constexpr so the hot paths (cell
// content hashes, dedup shard picks, node signatures) inline them exactly
// as they inlined their former file-local copies. Every output is pinned —
// state hashes, plan streams, corpus keys and tape hashes depend on these
// bit patterns — so none of them may change.
#pragma once

#include <cstdint>
#include <string_view>

namespace efd {

inline constexpr std::uint64_t kGoldenGamma = 0x9E3779B97F4A7C15ULL;  ///< splitmix64 increment
inline constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;  ///< FNV-1a 64 offset basis
inline constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;
/// The basis the register-name, Value and per-process step hashes start
/// from: the FNV basis's decimal digits with the last one dropped
/// (1469598103934665603, not 14695981039346656037). Every state hash, tape
/// hash and pinned count depends on it, so it stays.
inline constexpr std::uint64_t kStateHashOffset = 1469598103934665603ULL;

/// The splitmix64 finalizer: a full-avalanche bijection on 64 bits.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

/// One splitmix64 generator step: advances `state` and returns its output.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += kGoldenGamma;
  return mix64(state);
}

/// Output `i` (0-based) of the splitmix64 stream seeded with `seed`, without
/// stepping through the earlier ones.
[[nodiscard]] constexpr std::uint64_t splitmix64_at(std::uint64_t seed, std::uint64_t i) noexcept {
  return mix64(seed + kGoldenGamma * (i + 1));
}

/// 64-bit FNV-1a over the bytes of `s`, starting from `h`.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view s,
                                            std::uint64_t h = kFnvOffset) noexcept {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

/// Deterministic detector noise: a hash of (seed, process, time, salt). The
/// concrete detectors draw their pre-GST output from it, and the faulty
/// wrappers (fd/faulty.hpp) their lies.
[[nodiscard]] constexpr std::uint64_t noise(std::uint64_t seed, int qi, std::int64_t t,
                                            std::uint64_t salt) noexcept {
  return mix64(seed ^ (static_cast<std::uint64_t>(qi) << 32) ^ static_cast<std::uint64_t>(t) ^
               (salt * kGoldenGamma));
}

}  // namespace efd
