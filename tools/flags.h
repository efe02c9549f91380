// Option parsing shared by the command-line tools: one option table per
// tool, one parse loop over it, and the flag-value parsers its entries
// use. std::sto* throws on junk; a malformed flag value is a usage error
// (exit 2), never a crash, so every numeric flag goes through these.
// Each returns false unless the whole of `text` is a value in range.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

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

/// Stores a path or name; every value is well-formed.
inline bool assign(std::string& field, const std::string& value) {
  field = value;
  return true;
}

/// One entry of a tool's option table: its name, the runs it has an
/// effect on (bits of the tool's run enum), and how it sets the tool's
/// `Args` -- `parse` a value, or `set` a switch. A name ending in '='
/// takes the rest of its argument (`--seed=7`); a name without one that
/// has `parse` takes the next argument (`--feed f.in=1,2`). Any run
/// outside `runs` rejects the option: an option that a run would ignore
/// is a usage error, never a silent no-op.
template <typename Args>
struct Option {
  const char* name;
  unsigned runs;
  bool (*parse)(Args& a, const std::string& value);
  void (*set)(Args& a) = nullptr;
};

/// The bit of the run named `name` in `run_names` (each run's name, by
/// bit), or 0.
inline unsigned find_run(std::span<const char* const> run_names, std::string_view name) {
  for (unsigned bit = 0; bit < run_names.size(); ++bit) {
    if (name == run_names[bit]) return 1u << bit;
  }
  return 0;
}

/// The runs in `runs`, named for a message: "a, b and c".
inline std::string run_names(unsigned runs, std::span<const char* const> names) {
  std::vector<std::string> picked;
  for (unsigned bit = 0; bit < names.size(); ++bit) {
    if ((runs >> bit) & 1u) picked.emplace_back(names[bit]);
  }
  std::string out = picked.empty() ? "" : picked.front();
  for (std::size_t i = 1; i < picked.size(); ++i) {
    out += (i + 1 == picked.size() ? " and " : ", ") + picked[i];
  }
  return out;
}

/// Parses the options in `argv` into `args` by the table `options`,
/// then checks each one against `run_of(args)`: the run those options
/// pick, a mask of bits named by `names`. An option applies when it
/// names any bit of the run, so a run that is another run plus a bit of
/// its own (a traced twin) takes every option of the other. Prints why
/// and returns false on an unknown option, a malformed value or an
/// option the run would ignore.
template <typename Args, typename RunOf>
bool parse_options(std::span<char* const> argv,
                   std::span<const Option<std::type_identity_t<Args>>> options,
                   std::span<const char* const> names, Args& args, RunOf run_of) {
  std::vector<const Option<Args>*> given;
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string a = argv[i];
    const std::size_t eq = a.find('=');
    const std::string name = eq == std::string::npos ? a : a.substr(0, eq + 1);
    const Option<Args>* opt = nullptr;
    for (const Option<Args>& o : options) {
      if (name == o.name) opt = &o;
    }
    const bool next_arg = opt != nullptr && opt->set == nullptr && name.back() != '=';
    if (opt == nullptr || (next_arg && i + 1 == argv.size())) {
      std::cerr << "unknown option: " << a << "\n";
      return false;
    }
    const std::string value = next_arg ? argv[++i] : a.substr(name.size());
    if (opt->set != nullptr) {
      opt->set(args);
    } else if (!opt->parse(args, value)) {
      std::cerr << "malformed value in option: " << a << (next_arg ? " " + value : "") << "\n";
      return false;
    }
    given.push_back(opt);
  }
  const unsigned run = run_of(args);
  for (const Option<Args>* opt : given) {
    if ((opt->runs & run) != 0) continue;
    std::string name = opt->name;
    if (name.back() == '=') name.pop_back();
    std::cerr << name << " applies only to " << run_names(opt->runs, names) << "\n";
    return false;
  }
  return true;
}

}  // namespace hlsav::tools
