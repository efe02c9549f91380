// Flag-value parsing shared by the command-line tools. std::sto* throws
// on junk; a malformed flag value is a usage error (exit 2), never a
// crash, so every numeric flag goes through these. Each returns false
// unless the whole of `text` is a value in range.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>

namespace hlsav::tools {

inline bool parse_u64_flag(std::string_view text, std::uint64_t& out) {
  auto [p, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc() && p == text.data() + text.size() && !text.empty();
}

inline bool parse_u32_flag(std::string_view text, std::uint32_t& out) {
  std::uint64_t v = 0;
  if (!parse_u64_flag(text, v) || v > std::numeric_limits<std::uint32_t>::max()) return false;
  out = static_cast<std::uint32_t>(v);
  return true;
}

inline bool parse_size_flag(std::string_view text, std::size_t& out) {
  std::uint64_t v = 0;
  if (!parse_u64_flag(text, v)) return false;
  out = static_cast<std::size_t>(v);
  return true;
}

inline bool parse_unsigned_flag(std::string_view text, unsigned& out) {
  std::uint64_t v = 0;
  if (!parse_u64_flag(text, v) || v > std::numeric_limits<unsigned>::max()) return false;
  out = static_cast<unsigned>(v);
  return true;
}

/// Finite values only: `nan` and `inf` would reach journals and spool
/// lines as text that is not JSON.
inline bool parse_double_flag(const std::string& text, double& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size() && std::isfinite(out);
}

}  // namespace hlsav::tools
