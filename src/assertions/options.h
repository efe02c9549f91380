// Assertion synthesis configuration.
//
// The paper's design space, as independent switches:
//  - enabled=false          -> NDEBUG: strip every assertion (the
//                              "Original" columns of Tables 1-2).
//  - parallelize (§3.1)     -> move condition evaluation into concurrent
//                              checker processes; the application only
//                              taps operand values and proceeds.
//  - replicate (§3.2)       -> honor `#pragma HLS replicate` (and, inside
//                              pipelined loops, automatically) by giving
//                              checkers a write-mirrored replica RAM with
//                              a dedicated read port.
//  - share_channels (§3.3 / §4.2) -> pack up to `channel_width` failure
//                              flags into one stream through collector
//                              processes instead of one stream per
//                              process.
//  - nabort                 -> NABORT: report failures but keep running
//                              (hang tracing with assert(0), §5.1).
#pragma once

#include <optional>
#include <string_view>

namespace hlsav::assertions {

struct Options {
  bool enabled = true;
  bool parallelize = false;
  bool replicate = false;
  bool share_channels = false;
  unsigned channel_width = 32;
  bool nabort = false;
  /// §3.3's proposed extension (future work in the paper): group every
  /// parallelized assertion of a process into one shared checker
  /// process (per-assertion sub-blocks, one wrapper, one failure
  /// channel) instead of one checker process per assertion.
  bool group_checkers = false;

  /// NDEBUG build: assertions compiled out.
  static Options ndebug() {
    Options o;
    o.enabled = false;
    return o;
  }
  /// The paper's "unoptimized" baseline: straightforward if-statement
  /// conversion, one failure stream per process.
  static Options unoptimized() { return Options{}; }
  /// All optimizations on (the paper's "optimized" configuration).
  static Options optimized() {
    Options o;
    o.parallelize = true;
    o.replicate = true;
    o.share_channels = true;
    return o;
  }
  /// `--assertions=ndebug|unoptimized|optimized`; nullopt for any other
  /// name.
  static std::optional<Options> by_name(std::string_view name) {
    if (name == "ndebug") return ndebug();
    if (name == "unoptimized") return unoptimized();
    if (name == "optimized") return optimized();
    return std::nullopt;
  }
};

}  // namespace hlsav::assertions
