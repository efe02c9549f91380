// Shared helpers for the benchmark harnesses.
//
// The seven paper benches print the paper's table/figure rows side by
// side with the values measured from this implementation; ctest pins
// that output byte for byte against bench/golden/. The JSON benches
// (sim throughput, fault campaign, mine, campaign service) time the
// machinery and write BENCH_*.json.
#pragma once

#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/appbuild.h"
#include "assertions/options.h"
#include "assertions/synthesize.h"
#include "fpga/area.h"
#include "fpga/device.h"
#include "fpga/timing.h"
#include "rtl/netlist.h"
#include "sched/schedule.h"
#include "sim/simulator.h"
#include "support/io.h"
#include "support/table.h"

// Build provenance stamped into every BENCH_*.json so perf-trajectory
// points are attributable to a commit and build flavour. The macros are
// injected by bench/CMakeLists.txt; the fallbacks keep non-CMake builds
// compiling.
#ifndef HLSAV_GIT_SHA
#define HLSAV_GIT_SHA "unknown"
#endif
#ifndef HLSAV_BUILD_TYPE
#define HLSAV_BUILD_TYPE "unspecified"
#endif

namespace hlsav::bench {

/// The `"git_sha": ..., "build_type": ...` JSON fragment shared by all
/// bench JSON writers.
inline std::string json_provenance() {
  std::string s = "\"git_sha\": \"";
  s += HLSAV_GIT_SHA;
  s += "\", \"build_type\": \"";
  s += HLSAV_BUILD_TYPE;
  s += "\"";
  return s;
}

/// "<bench> @ <sha> (<build>)" header every bench main prints first, so
/// captured stdout is attributable to a commit without the JSON file.
inline void print_provenance_banner(const std::string& bench_name) {
  std::cout << bench_name << " @ " << HLSAV_GIT_SHA << " (" << HLSAV_BUILD_TYPE << ")\n";
}

/// Streams the framing shared by every BENCH_*.json document:
///   { "bench": <name>, <provenance>, "<array>": [ <items>... ], <fields>... }
/// Items and field values are preformatted JSON; the writer owns only
/// the commas, indentation, and braces every harness used to hand-roll.
///
/// The document is buffered in memory and written atomically (temp
/// sibling + rename, support/io.h) when the writer goes out of scope: a
/// bench process killed mid-run leaves the previous BENCH_*.json, never
/// half a document.
class BenchJsonDoc {
 public:
  BenchJsonDoc(std::string path, const std::string& bench_name, const std::string& array_name)
      : path_(std::move(path)) {
    os_ << "{\n  \"bench\": \"" << bench_name << "\",\n  " << json_provenance() << ",\n  \""
        << array_name << "\": [\n";
  }
  BenchJsonDoc(const BenchJsonDoc&) = delete;
  BenchJsonDoc& operator=(const BenchJsonDoc&) = delete;
  ~BenchJsonDoc() {
    close_array();
    os_ << "\n}\n";
    Status st = write_file_atomic(path_, os_.str());
    if (!st.ok()) std::cerr << "bench json write failed: " << st.to_string() << "\n";
  }

  /// One element of the main array (a complete JSON value).
  void item(const std::string& json) {
    os_ << (first_item_ ? "" : ",\n") << "    " << json;
    first_item_ = false;
  }
  /// An extra top-level field, emitted after the array.
  void field(const std::string& name, const std::string& json) {
    close_array();
    os_ << ",\n  \"" << name << "\": " << json;
  }

 private:
  void close_array() {
    if (array_closed_) return;
    os_ << "\n  ]";
    array_closed_ = true;
  }

  std::string path_;
  std::ostringstream os_;
  bool first_item_ = true;
  bool array_closed_ = false;
};

/// One synthesized + characterized configuration of a design.
struct Characterized {
  ir::Design design;
  assertions::SynthesisReport synth;
  sched::DesignSchedule schedule;
  rtl::Netlist netlist;
  fpga::AreaReport area;
  fpga::TimingReport timing;
};

inline Characterized characterize(const ir::Design& lowered, const assertions::Options& opt,
                                  const sched::SchedOptions& sched_opts = {}) {
  Characterized c{lowered.clone(), {}, {}, {}, {}, {}};
  c.synth = assertions::synthesize(c.design, opt);
  ir::verify(c.design);
  c.schedule = sched::schedule_design(c.design, sched_opts);
  c.netlist = rtl::build_netlist(c.design, c.schedule);
  c.area = fpga::estimate_area(c.netlist);
  c.timing = fpga::estimate_fmax(c.netlist, fpga::Device::ep2s180());
  return c;
}

/// Renders an overhead table in the exact shape of the paper's
/// Tables 1-2: Original / Assert / Overhead columns per resource row.
inline std::string overhead_table(const std::string& title, const Characterized& original,
                                  const Characterized& assert_cfg) {
  const fpga::Device dev = fpga::Device::ep2s180();
  TextTable t(title);
  t.header({"EP2S180", "Original", "Assert", "Overhead"});
  auto row = [&t, &dev](const std::string& name, std::uint64_t total, std::uint64_t a,
                        std::uint64_t b) {
    double pa = 100.0 * static_cast<double>(a) / static_cast<double>(total);
    double pb = 100.0 * static_cast<double>(b) / static_cast<double>(total);
    t.row({name, fmt_count_pct(static_cast<long long>(a), pa),
           fmt_count_pct(static_cast<long long>(b), pb),
           fmt_overhead(static_cast<long long>(b) - static_cast<long long>(a), pb - pa)});
  };
  row("Logic Used (of " + std::to_string(dev.logic) + ")", dev.logic, original.area.logic,
      assert_cfg.area.logic);
  row("Comb. ALUT (of " + std::to_string(dev.aluts) + ")", dev.aluts, original.area.aluts,
      assert_cfg.area.aluts);
  row("Registers (of " + std::to_string(dev.registers) + ")", dev.registers,
      original.area.registers, assert_cfg.area.registers);
  row("Block RAM bits (of " + std::to_string(dev.bram_bits) + ")", dev.bram_bits,
      original.area.bram_bits, assert_cfg.area.bram_bits);
  row("Block interconnect (of " + std::to_string(dev.interconnect) + ")", dev.interconnect,
      original.area.interconnect, assert_cfg.area.interconnect);
  double fa = original.timing.fmax_mhz;
  double fb = assert_cfg.timing.fmax_mhz;
  t.row({"Frequency (MHz)", fmt_double(fa, 1), fmt_double(fb, 1),
         fmt_double(fb - fa, 1) + " (" + fmt_double(100.0 * (fb - fa) / fa, 2) + "%)"});
  return t.render();
}

// ------------------------------------------------- simulation timing --

/// Wall-clock throughput of one simulated workload: how many FSMD cycles
/// the simulator chews through per second of host time. This is the
/// number the perf-trajectory tracking (BENCH_sim.json) records per PR.
struct SimThroughput {
  std::string name;
  std::uint64_t runs = 0;
  std::uint64_t cycles_per_run = 0;  // RunResult::cycles of one run
  double wall_seconds = 0.0;

  [[nodiscard]] double cycles_per_sec() const {
    return wall_seconds > 0.0
               ? static_cast<double>(runs) * static_cast<double>(cycles_per_run) / wall_seconds
               : 0.0;
  }
};

/// Times `run_once` (which must return the RunResult::cycles of the run)
/// until `min_seconds` of wall clock accumulate, with at least
/// `min_runs` runs. The first call is a discarded warm-up. With
/// `best_of > 1` the whole measurement repeats and the fastest window
/// wins: a loaded host only ever slows a window down, so the max is the
/// noise-robust estimate (what the CI throughput guard compares).
template <typename F>
SimThroughput time_simulation(const std::string& name, F&& run_once, double min_seconds = 0.5,
                              std::uint64_t min_runs = 3, unsigned best_of = 1) {
  using clock = std::chrono::steady_clock;
  SimThroughput best;
  for (unsigned rep = 0; rep == 0 || rep < best_of; ++rep) {
    SimThroughput t;
    t.name = name;
    t.cycles_per_run = run_once();  // warm-up, also pins the cycle count
    auto start = clock::now();
    while (true) {
      std::uint64_t cycles = run_once();
      ++t.runs;
      if (cycles != t.cycles_per_run) {
        std::cerr << "WARNING: " << name << " cycle count not reproducible (" << cycles << " vs "
                  << t.cycles_per_run << ")\n";
      }
      t.wall_seconds = std::chrono::duration<double>(clock::now() - start).count();
      if (t.wall_seconds >= min_seconds && t.runs >= min_runs) break;
    }
    if (rep == 0 || t.cycles_per_sec() > best.cycles_per_sec()) best = t;
  }
  return best;
}

/// One throughput result as the JSON object write_bench_json emits.
inline std::string throughput_json(const SimThroughput& t) {
  std::string s = "{\"name\": \"" + t.name + "\", \"runs\": " + std::to_string(t.runs) +
                  ", \"cycles_per_run\": " + std::to_string(t.cycles_per_run) +
                  ", \"wall_seconds\": " + fmt_double(t.wall_seconds, 4) +
                  ", \"cycles_per_sec\": " + fmt_double(t.cycles_per_sec(), 1) + "}";
  return s;
}

/// Writes the per-workload throughput numbers as a small JSON document
/// (schema documented in README.md, "Simulator throughput bench").
/// `profile_json`, when non-empty, is embedded as a top-level "profile"
/// field (a ProfileReport::to_json() object).
/// `speedup_json`, when non-empty, is embedded as a top-level
/// "compiled_speedup" field (per-workload compiled/interpreter
/// cycles-per-sec ratios plus their geomean; see bench_sim_throughput
/// --engine=both).
inline void write_bench_json(const std::string& path, const std::string& bench_name,
                             const std::vector<SimThroughput>& results,
                             const std::string& profile_json = "",
                             const std::string& speedup_json = "") {
  BenchJsonDoc doc(path, bench_name, "workloads");
  for (const SimThroughput& t : results) doc.item(throughput_json(t));
  if (!profile_json.empty()) doc.field("profile", profile_json);
  if (!speedup_json.empty()) doc.field("compiled_speedup", speedup_json);
}

/// Reads the workload name -> cycles/sec map back out of a BENCH_*.json
/// written by write_bench_json. Line-oriented scan: the writer above
/// controls the shape (one workload object per line), so no general
/// JSON parser is needed here.
inline std::map<std::string, double> read_bench_workloads(const std::string& path) {
  std::map<std::string, double> out;
  std::ifstream is(path);
  std::string line;
  while (std::getline(is, line)) {
    std::size_t n = line.find("\"name\": \"");
    std::size_t c = line.find("\"cycles_per_sec\": ");
    if (n == std::string::npos || c == std::string::npos) continue;
    n += 9;
    std::size_t ne = line.find('"', n);
    if (ne == std::string::npos) continue;
    out[line.substr(n, ne - n)] = std::stod(line.substr(c + 18));
  }
  return out;
}

}  // namespace hlsav::bench
