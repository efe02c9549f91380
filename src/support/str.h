// Small string helpers used across the project.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hlsav {

[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);
[[nodiscard]] std::string_view trim(std::string_view s);
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);
[[nodiscard]] std::string join(const std::vector<std::string>& parts, std::string_view sep);
[[nodiscard]] std::string to_lower(std::string_view s);

/// FNV-1a 64-bit hash; deterministic across runs/platforms. Pass one
/// call's result as the next one's `h` to hash the concatenated input.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view s,
                                            std::uint64_t h = 0xcbf29ce484222325ull) {
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// SplitMix64: tiny deterministic PRNG for synthetic data and the
/// place-and-route variation model. Never seeded from time.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Uniform double in [0, 1).
  constexpr double next_double() {
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Uniform integer in [0, bound).
  std::uint64_t next_below(std::uint64_t bound) { return bound == 0 ? 0 : next() % bound; }

 private:
  std::uint64_t state_;
};

}  // namespace hlsav
