#include "support/jsonl.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace hlsav::jsonl {

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

std::string quoted(std::string_view s) {
  std::string out;
  append_escaped(out, s);
  return out;
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool find_value(const std::string& line, const char* key, std::size_t& pos) {
  std::string pat = "\"";
  pat += key;
  pat += "\":";
  std::size_t p = line.find(pat);
  if (p == std::string::npos) return false;
  pos = p + pat.size();
  return true;
}

bool parse_u64(const std::string& line, const char* key, std::uint64_t& out) {
  std::size_t pos = 0;
  if (!find_value(line, key, pos)) return false;
  errno = 0;
  char* end = nullptr;
  out = std::strtoull(line.c_str() + pos, &end, 10);
  return end != line.c_str() + pos && errno == 0;
}

bool parse_double(const std::string& line, const char* key, double& out) {
  std::size_t pos = 0;
  if (!find_value(line, key, pos)) return false;
  char* end = nullptr;
  out = std::strtod(line.c_str() + pos, &end);
  return end != line.c_str() + pos;
}

bool parse_string(const std::string& line, const char* key, std::string& out) {
  std::size_t pos = 0;
  if (!find_value(line, key, pos)) return false;
  if (pos >= line.size() || line[pos] != '"') return false;
  out.clear();
  for (std::size_t i = pos + 1; i < line.size(); ++i) {
    char c = line[i];
    if (c == '"') return true;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (++i >= line.size()) return false;
    char e = line[i];
    if (e == 'u') {
      if (i + 4 >= line.size()) return false;
      out += static_cast<char>(std::strtoul(line.substr(i + 1, 4).c_str(), nullptr, 16));
      i += 4;
    } else {
      out += e;  // \" and \\ are the only other escapes we emit
    }
  }
  return false;  // unterminated
}

bool parse_bool(const std::string& line, const char* key, bool& out) {
  std::size_t pos = 0;
  if (!find_value(line, key, pos)) return false;
  if (line.compare(pos, 4, "true") == 0) {
    out = true;
    return true;
  }
  if (line.compare(pos, 5, "false") == 0) {
    out = false;
    return true;
  }
  return false;
}

bool parse_u64_list(const std::string& line, const char* key,
                    std::vector<std::uint64_t>& out) {
  std::size_t pos = 0;
  if (!find_value(line, key, pos)) return false;
  if (pos >= line.size() || line[pos] != '[') return false;
  out.clear();
  std::size_t i = pos + 1;
  while (i < line.size() && line[i] != ']') {
    char* end = nullptr;
    std::uint64_t v = std::strtoull(line.c_str() + i, &end, 10);
    if (end == line.c_str() + i) return false;
    out.push_back(v);
    i = static_cast<std::size_t>(end - line.c_str());
    if (i < line.size() && line[i] == ',') ++i;
  }
  return i < line.size();
}

bool parse_u32_list(const std::string& line, const char* key,
                    std::vector<std::uint32_t>& out) {
  std::vector<std::uint64_t> wide;
  if (!parse_u64_list(line, key, wide)) return false;
  out.clear();
  out.reserve(wide.size());
  for (std::uint64_t v : wide) out.push_back(static_cast<std::uint32_t>(v));
  return true;
}

void append_u64_list(std::string& out, const std::vector<std::uint64_t>& values) {
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(values[i]);
  }
  out += ']';
}

void append_u32_list(std::string& out, const std::vector<std::uint32_t>& values) {
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(values[i]);
  }
  out += ']';
}

}  // namespace hlsav::jsonl
