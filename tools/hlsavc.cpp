// hlsavc -- command-line driver for the hlsav HLS flow.
//
//   hlsavc compile  file.c [options]   parse + synthesize, print a report
//   hlsavc verilog  file.c [options]   emit generated Verilog to stdout
//   hlsavc ir       file.c [options]   print the synthesized IR
//   hlsavc schedule file.c [options]   print per-process schedules
//   hlsavc simulate file.c [options] --feed stream=v1,v2,...
//                                      run the cycle simulator
//   hlsavc faultsim file.c [options] --feed stream=v1,v2,...
//                                      list fault sites; --site=N runs one
//                                      fault, --campaign sweeps them all
//   hlsavc trace    file.c [options] --feed stream=v1,v2,...
//                                      run with the ELA armed, export a VCD
//                                      and a source-level replay
//   hlsavc profile  file.c [options] --feed stream=v1,v2,...
//                                      run with the cycle-attribution profiler
//                                      armed: source-level tables to stdout
//                                      plus a Perfetto-loadable Chrome trace
//   hlsavc mine     file.c [options] --feed stream=v1,v2,...
//                                      mine candidate invariants from a golden
//                                      trace, synthesize each as a checker,
//                                      rank by measured kill-rate per area
//   hlsavc checktrace trace.json       validate a Chrome trace-event file
//   hlsavc --version                   print git sha + build type
//
// Options:
//   --assertions=ndebug|unoptimized|optimized   (default optimized)
//   --no-parallelize --no-replicate --no-share  tweak individual passes
//   --nabort                                    keep running on failure
//   --chain-depth=N                             scheduler chaining budget
//   --sw                                        software-simulation mode
//   --trace                                     ELA replay of a run on stderr
//   --site=N --campaign --seed=N --max-faults=N --max-cycles=N --threads=N
//                                               faultsim controls
//   --journal=FILE --resume --site-wall-ms=N    campaign crash recovery and
//                                               per-site watchdog budgets
//   --trace-site=N --trace-nonbenign --trace-dir=DIR
//                                               faultsim trace reruns
//   --vcd=FILE --bin=FILE --last-cycles=N --trace-capacity=N
//   --trace-procs=p1,p2 --trace-max-sites=N     trace controls
//   --trace-out=FILE --profile-json=FILE        profile outputs
//   --progress --profile                        faultsim campaign extras
//   --min-support=N --candidates=N --top=K      mine controls
//   --emit=FILE --trace-in=FILE
//
// Exit codes: 0 success, 1 compile/internal error, 2 bad usage,
//             3 halted by an assertion failure, 4 hang,
//             5 wall-clock budget exceeded,
//             6 campaign interrupted by SIGINT/SIGTERM (journal flushed;
//               resumable with --resume).
//
// Robustness contract: whatever the input -- malformed source, junk
// flag values, unwritable outputs -- hlsavc exits with one of the codes
// above and a rendered diagnostic. The frontend runs through
// pipeline::compile_file (Status-carrying, no stage throws for user
// errors) and main() backstops any residual exception.
#include <atomic>
#include <charconv>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "assertions/options.h"
#include "assertions/synthesize.h"
#include "codegen/engine.h"
#include "fpga/area.h"
#include "fpga/ela.h"
#include "fpga/timing.h"
#include "metrics/chrometrace.h"
#include "metrics/profile.h"
#include "mine/emit.h"
#include "mine/miner.h"
#include "mine/score.h"
#include "pipeline/compile.h"
#include "rtl/netlist.h"
#include "rtl/verilog.h"
#include "sched/schedule.h"
#include "sim/campaign.h"
#include "sim/fault.h"
#include "sim/simulator.h"
#include "support/str.h"
#include "support/table.h"
#include "trace/binary.h"
#include "trace/reader.h"
#include "trace/replay.h"
#include "trace/trace.h"
#include "trace/vcd.h"

// Provenance injected by the build (tools/CMakeLists.txt); the
// fallbacks keep ad-hoc compiles working.
#ifndef HLSAV_GIT_SHA
#define HLSAV_GIT_SHA "unknown"
#endif
#ifndef HLSAV_BUILD_TYPE
#define HLSAV_BUILD_TYPE "unspecified"
#endif

namespace {

using namespace hlsav;

// Cooperative-cancel flag for --campaign: the handler only stores an
// atomic (async-signal-safe); the sweep polls it between sites.
std::atomic<bool> g_interrupted{false};

void handle_interrupt(int) { g_interrupted.store(true, std::memory_order_relaxed); }

struct Args {
  std::string command;
  std::string file;
  assertions::Options assert_opts = assertions::Options::optimized();
  sched::SchedOptions sched_opts;
  sim::SimEngine engine = sim::SimEngine::kInterpreter;
  bool software_mode = false;
  bool optimize_ir = false;
  bool trace = false;
  std::map<std::string, std::vector<std::uint64_t>> feeds;
  // faultsim controls
  bool campaign = false;
  std::uint32_t site = sim::FaultSpec::kNoSite;
  sim::CampaignOptions campaign_opts;
  // trace controls (the `trace` command and faultsim trace reruns)
  std::uint32_t trace_site = sim::FaultSpec::kNoSite;
  bool trace_nonbenign = false;
  std::string vcd_path;
  std::string bin_path;
  std::string trace_dir = "traces";
  std::size_t last_cycles = 16;
  std::size_t trace_capacity = 1024;
  bool trace_capacity_set = false;
  std::vector<std::string> trace_procs;
  std::size_t trace_max_sites = 0;
  // mine controls
  std::uint64_t min_support = 2;
  std::size_t mine_candidates = 0;  // 0 = score every candidate
  std::size_t mine_top = 5;
  std::string emit_path;
  std::string trace_in;
  // profile outputs
  std::string trace_out = "profile.trace.json";
  std::string profile_json;
  // wall-clock watchdog (simulate/profile/trace runs and campaign sites)
  double site_wall_ms = 0.0;
};

// ---- flag-value parsing. std::sto* throws on junk; a malformed flag
// ---- value is a usage error (exit 2), never a crash, so every numeric
// ---- flag goes through these.

bool parse_u64_flag(std::string_view text, std::uint64_t& out) {
  auto [p, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc() && p == text.data() + text.size() && !text.empty();
}

bool parse_u32_flag(std::string_view text, std::uint32_t& out) {
  std::uint64_t v = 0;
  if (!parse_u64_flag(text, v) || v > std::numeric_limits<std::uint32_t>::max()) return false;
  out = static_cast<std::uint32_t>(v);
  return true;
}

bool parse_size_flag(std::string_view text, std::size_t& out) {
  std::uint64_t v = 0;
  if (!parse_u64_flag(text, v)) return false;
  out = static_cast<std::size_t>(v);
  return true;
}

bool parse_unsigned_flag(std::string_view text, unsigned& out) {
  std::uint64_t v = 0;
  if (!parse_u64_flag(text, v) || v > std::numeric_limits<unsigned>::max()) return false;
  out = static_cast<unsigned>(v);
  return true;
}

bool parse_double_flag(const std::string& text, double& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size();
}

void print_usage(std::ostream& os) {
  os << "usage: hlsavc <compile|verilog|ir|schedule|simulate|faultsim|trace|profile|mine> "
        "<file.c> [options]\n"
        "       hlsavc checktrace <trace.json>\n"
        "       hlsavc --version\n"
        "  --assertions=ndebug|unoptimized|optimized\n"
        "  --no-parallelize --no-replicate --no-share --nabort\n"
        "  --chain-depth=N --sw --optimize --trace --feed stream=v1,v2,...\n"
        "  --trace:  simulate and faultsim --site=N only: also print the source-level\n"
        "            replay of the ELA window on stderr, as trace does (trace options\n"
        "            apply)\n"
        "  --engine=interpreter|compiled|auto: simulation engine (default\n"
        "            interpreter). compiled AOT-translates the scheduled design\n"
        "            to native code via the host C compiler; configurations the\n"
        "            backend cannot serve fall back to the interpreter with a\n"
        "            logged reason, never an error\n"
        "  faultsim: --site=N | --trace-site=N |\n"
        "            --campaign [--seed=N --max-faults=N --max-cycles=N --threads=N\n"
        "                        --trace-nonbenign --progress --profile\n"
        "                        --journal=FILE --resume --site-wall-ms=N]\n"
        "  --journal=FILE: append-only crash-recovery journal; --resume skips\n"
        "            sites it already classified. --site-wall-ms=N caps each\n"
        "            site's wall-clock budget (also caps simulate/profile/trace\n"
        "            runs; an exceeded budget exits 5)\n"
        "  trace:    run with the embedded-logic-analyzer capture armed, write a VCD\n"
        "            (--vcd=FILE, default trace.vcd) plus a source-level replay of the\n"
        "            last captured cycles; --site=N injects one fault first\n"
        "  trace options: --vcd=FILE --bin=FILE --last-cycles=N --trace-capacity=N\n"
        "                 --trace-procs=p1,p2 --trace-dir=DIR --trace-max-sites=N\n"
        "  profile:  run with the cycle-attribution profiler armed, print source-level\n"
        "            tables and write a Chrome trace (--trace-out=FILE, default\n"
        "            profile.trace.json; load it in Perfetto or chrome://tracing);\n"
        "            --profile-json=FILE also dumps the full report as JSON\n"
        "  mine:     capture a golden trace (or load one with --trace-in=FILE),\n"
        "            mine candidate invariants, synthesize each as a checker and\n"
        "            rank survivors by newly-detected fault sites per unit area;\n"
        "            --emit=FILE writes the top --top=K (default 5) back into the\n"
        "            source as assert() lines (validated by a recompile)\n"
        "  mine options: --min-support=N (default 2) --candidates=N (cap scored)\n"
        "                --top=K --emit=FILE --trace-in=FILE plus the faultsim\n"
        "                campaign controls (--seed --max-faults --max-cycles\n"
        "                --threads) and --trace-capacity for the live capture\n"
        "  checktrace: validate a Chrome trace-event JSON file (exit 0 valid, 1 not)\n"
        "exit codes: 0 ok, 1 compile/internal error, 2 bad usage,\n"
        "            3 assertion failure halted the run, 4 hang,\n"
        "            5 wall-clock budget exceeded,\n"
        "            6 campaign interrupted by SIGINT/SIGTERM (journal\n"
        "              flushed; re-run with --resume to continue)\n";
}

int usage() {
  print_usage(std::cerr);
  return 2;
}

/// Maps a finished run onto the documented exit codes. A completed run
/// is 0 even with NABORT-reported failures (the design ran to the end).
int run_exit_code(const sim::RunResult& r) {
  switch (r.status) {
    case sim::RunStatus::kCompleted: return 0;
    case sim::RunStatus::kAborted: return 3;
    case sim::RunStatus::kHung: return 4;
    case sim::RunStatus::kDeadline: return 5;
  }
  return 1;
}

/// Shared per-command report of how a run ended.
void print_run_status(const sim::RunResult& r) {
  switch (r.status) {
    case sim::RunStatus::kCompleted:
      std::cout << "completed in " << r.cycles << " cycles\n";
      break;
    case sim::RunStatus::kAborted:
      // The cycle the run stopped at, as a campaign row prints it; the
      // notification cycle is on each failure's "[cycle N]" line.
      std::cout << "aborted by assertion failure; stopped at cycle " << r.cycles << "\n";
      break;
    case sim::RunStatus::kHung:
      std::cout << r.hang_report;
      break;
    case sim::RunStatus::kDeadline:
      std::cout << "stopped: wall-clock budget exceeded after " << r.cycles << " cycles\n";
      break;
  }
}

bool bad_value(const std::string& flag) {
  std::cerr << "malformed value in option: " << flag << "\n";
  return false;
}

bool parse_args(int argc, char** argv, Args& args) {
  if (argc < 3) return false;
  args.command = argv[1];
  args.file = argv[2];
  for (int i = 3; i < argc; ++i) {
    std::string a = argv[i];
    std::optional<assertions::Options> mode;
    if (a.rfind("--assertions=", 0) == 0) mode = assertions::Options::by_name(a.substr(13));
    if (mode.has_value()) {
      args.assert_opts = *mode;
    } else if (a == "--no-parallelize") {
      args.assert_opts.parallelize = false;
    } else if (a == "--no-replicate") {
      args.assert_opts.replicate = false;
    } else if (a == "--no-share") {
      args.assert_opts.share_channels = false;
    } else if (a == "--nabort") {
      args.assert_opts.nabort = true;
    } else if (a == "--engine=interpreter") {
      args.engine = sim::SimEngine::kInterpreter;
    } else if (a == "--engine=compiled") {
      args.engine = sim::SimEngine::kCompiled;
    } else if (a == "--engine=auto") {
      args.engine = sim::SimEngine::kAuto;
    } else if (starts_with(a, "--engine=")) {
      std::cerr << "unknown engine (use interpreter, compiled or auto): " << a << "\n";
      return false;
    } else if (a == "--sw") {
      args.software_mode = true;
    } else if (a == "--optimize" || a == "-O") {
      args.optimize_ir = true;
    } else if (a == "--trace") {
      args.trace = true;
    } else if (a == "--campaign") {
      args.campaign = true;
    } else if (a == "--trace-nonbenign") {
      args.trace_nonbenign = true;
    } else if (a == "--progress") {
      args.campaign_opts.progress = true;
    } else if (a == "--profile") {
      args.campaign_opts.profile = true;
    } else if (a == "--resume") {
      args.campaign_opts.resume = true;
    } else if (starts_with(a, "--journal=")) {
      args.campaign_opts.journal = a.substr(10);
    } else if (starts_with(a, "--trace-out=")) {
      args.trace_out = a.substr(12);
    } else if (starts_with(a, "--profile-json=")) {
      args.profile_json = a.substr(15);
    } else if (starts_with(a, "--site=")) {
      if (!parse_u32_flag(a.substr(7), args.site)) return bad_value(a);
    } else if (starts_with(a, "--trace-site=")) {
      if (!parse_u32_flag(a.substr(13), args.trace_site)) return bad_value(a);
    } else if (starts_with(a, "--seed=")) {
      if (!parse_u64_flag(a.substr(7), args.campaign_opts.seed)) return bad_value(a);
    } else if (starts_with(a, "--max-faults=")) {
      if (!parse_size_flag(a.substr(13), args.campaign_opts.max_faults)) return bad_value(a);
    } else if (starts_with(a, "--max-cycles=")) {
      if (!parse_u64_flag(a.substr(13), args.campaign_opts.max_cycles)) return bad_value(a);
    } else if (starts_with(a, "--threads=")) {
      if (!parse_unsigned_flag(a.substr(10), args.campaign_opts.threads)) return bad_value(a);
    } else if (starts_with(a, "--site-wall-ms=")) {
      if (!parse_double_flag(a.substr(15), args.site_wall_ms) || args.site_wall_ms < 0) {
        return bad_value(a);
      }
      args.campaign_opts.site_wall_ms = args.site_wall_ms;
    } else if (starts_with(a, "--vcd=")) {
      args.vcd_path = a.substr(6);
    } else if (starts_with(a, "--bin=")) {
      args.bin_path = a.substr(6);
    } else if (starts_with(a, "--trace-dir=")) {
      args.trace_dir = a.substr(12);
    } else if (starts_with(a, "--last-cycles=")) {
      if (!parse_size_flag(a.substr(14), args.last_cycles)) return bad_value(a);
    } else if (starts_with(a, "--trace-capacity=")) {
      if (!parse_size_flag(a.substr(17), args.trace_capacity)) return bad_value(a);
      args.trace_capacity_set = true;
    } else if (starts_with(a, "--min-support=")) {
      if (!parse_u64_flag(a.substr(14), args.min_support)) return bad_value(a);
    } else if (starts_with(a, "--candidates=")) {
      if (!parse_size_flag(a.substr(13), args.mine_candidates)) return bad_value(a);
    } else if (starts_with(a, "--top=")) {
      if (!parse_size_flag(a.substr(6), args.mine_top)) return bad_value(a);
    } else if (starts_with(a, "--emit=")) {
      args.emit_path = a.substr(7);
    } else if (starts_with(a, "--trace-in=")) {
      args.trace_in = a.substr(11);
    } else if (starts_with(a, "--trace-max-sites=")) {
      if (!parse_size_flag(a.substr(18), args.trace_max_sites)) return bad_value(a);
    } else if (starts_with(a, "--trace-procs=")) {
      for (const std::string& p : split(a.substr(14), ',')) {
        if (!p.empty()) args.trace_procs.push_back(p);
      }
    } else if (starts_with(a, "--chain-depth=")) {
      if (!parse_unsigned_flag(a.substr(14), args.sched_opts.chain_depth)) return bad_value(a);
    } else if (a == "--feed" && i + 1 < argc) {
      std::string spec = argv[++i];
      std::size_t eq = spec.find('=');
      if (eq == std::string::npos) return false;
      std::vector<std::uint64_t> values;
      for (const std::string& v : split(spec.substr(eq + 1), ',')) {
        if (v.empty()) continue;
        std::uint64_t value = 0;
        if (!parse_u64_flag(v, value)) return bad_value("--feed " + spec);
        values.push_back(value);
      }
      args.feeds[spec.substr(0, eq)] = values;
    } else {
      std::cerr << "unknown option: " << a << "\n";
      return false;
    }
  }
  // --trace replays one run; any other command would ignore it.
  const bool one_run = args.command == "simulate" ||
                       (args.command == "faultsim" && !args.campaign &&
                        args.site != sim::FaultSpec::kNoSite &&
                        args.trace_site == sim::FaultSpec::kNoSite);
  if (args.trace && !one_run) {
    std::cerr << "--trace applies only to simulate and faultsim --site=N\n";
    return false;
  }
  return true;
}

int run(const Args& args) {
  if (args.command == "checktrace") {
    // The operand is a trace file, not a source file: validate and stop
    // before any source loading happens.
    metrics::ChromeTraceCheck check = metrics::validate_chrome_trace_file(args.file);
    if (!check.ok) {
      std::cerr << "hlsavc: " << args.file << ": " << check.error << "\n";
      return 1;
    }
    std::cout << args.file << ": valid Chrome trace (" << check.events << " events)\n";
    return 0;
  }

  SourceManager sm;
  DiagnosticEngine diags(&sm);
  pipeline::CompileOptions copts;
  copts.assert_opts = args.assert_opts;
  copts.sched_opts = args.sched_opts;
  copts.optimize_ir = args.optimize_ir;
  // In software mode the design is simulated pre-synthesis (assert
  // statements evaluated in place), as Impulse-C does. The miner also
  // wants the pre-synthesis design: register/stream ids mined from the
  // golden window must match the design each candidate is instrumented
  // into, and the scorer synthesizes its own configurations.
  copts.synthesize_assertions =
      args.command != "mine" && !(args.command == "simulate" && args.software_mode);

  StatusOr<pipeline::Compiled> compiled = pipeline::compile_file(sm, diags, args.file, copts);
  std::cerr << diags.render();  // every collected diagnostic, errors and warnings
  if (!compiled.ok()) {
    std::cerr << "hlsavc: " << compiled.status().to_string() << "\n";
    return 1;
  }
  ir::Design& design = compiled->design;
  sched::DesignSchedule& schedule = compiled->schedule;
  assertions::SynthesisReport& synth = compiled->synth;
  if (args.optimize_ir) {
    std::cerr << "optimizer: " << compiled->opt_report.to_string() << "\n";
  }

  // A --site-wall-ms budget arms the simulator watchdog on direct runs
  // too (simulate/profile/trace); campaigns hand it to each site.
  std::optional<sim::Deadline> run_deadline;
  auto arm_deadline = [&](sim::SimOptions& so) {
    if (args.site_wall_ms <= 0.0) return;
    run_deadline = sim::Deadline::in_ms(args.site_wall_ms);
    so.deadline = &*run_deadline;
  };

  // --engine=compiled/auto: AOT-compile the scheduled design once and
  // attach the handle to every run this invocation makes. Preparation
  // failures (no host compiler, unwritable cache, every process
  // declined) log a reason and leave the interpreter in charge.
  std::unique_ptr<codegen::CompiledDesign> compiled_design;
  auto arm_engine = [&](sim::SimOptions& so) {
    for (const std::string& note :
         codegen::arm_engine(so, args.engine, design, schedule, compiled_design)) {
      std::cerr << "hlsavc: " << note << "\n";
    }
  };
  // One run of `program`: reports an engine fallback, prints each
  // assertion failure on stderr as it is decoded, feeds every --feed and
  // runs. `report` prints what the command shows of the run and returns
  // its exit code; a rejected feed prints why and returns 1.
  auto run_once = [&](const sim::Program& program, const sim::ExternRegistry& externs,
                      const sim::SimOptions& so, const auto& report) -> int {
    sim::Simulator simulator(program, externs, so);
    if (!simulator.engine_note().empty()) {
      std::cerr << "hlsavc: " << simulator.engine_note() << "\n";
    }
    simulator.set_failure_sink([](const assertions::Failure& f) {
      std::cerr << f.message << "  [cycle " << f.cycle << "]\n";
    });
    for (const auto& [stream, values] : args.feeds) {
      Status st = simulator.try_feed(stream, values);
      if (!st.ok()) {
        std::cerr << "hlsavc: " << st.to_string() << "\n";
        return 1;
      }
    }
    return report(simulator, simulator.run());
  };

  // The ELA that `trace`, `simulate --trace` and `faultsim --site=N
  // --trace` arm, and the source-level replay of its `window` after run
  // `r`, printed on `os`: the last --last-cycles cycles, implicating the
  // trap block after a proven livelock.
  auto ela_config = [&] {
    trace::TraceConfig tc;
    tc.capacity = args.trace_capacity;
    tc.filter.processes = args.trace_procs;
    return tc;
  };
  auto print_replay = [&](const trace::TraceEngine& engine,
                          const std::vector<trace::TraceRecord>& window, const sim::RunResult& r,
                          std::ostream& os) {
    if (engine.capacity_clamped()) {
      std::cerr << "hlsavc: trace capacity clamped to " << engine.config().capacity
                << " entries/process (hard cap)\n";
    }
    trace::ReplayOptions ro;
    ro.last_cycles = args.last_cycles;
    ro.sm = &sm;
    if (r.hang) ro.livelock_block = r.hang->livelock_block();
    os << trace::render_replay(design, window, ro);
  };

  // A one-site repro (`faultsim --site=N` or `--trace-site=N`, `trace
  // --site=N`) runs against its campaign's plan, so it injects the
  // campaign's fault and stops at the backstop the campaign row reports.
  // Prints the injected fault; on a bad site or plan, prints why and
  // returns nullopt.
  auto plan_one_site = [&](std::size_t site, const sim::ExternRegistry& externs,
                           const sim::CampaignOptions& copt) -> std::optional<sim::CampaignPlan> {
    StatusOr<sim::CampaignPlan> plan =
        sim::plan_campaign(design, schedule, externs, args.feeds, copt);
    if (!plan.ok()) {
      std::cerr << "hlsavc: " << plan.status().to_string() << "\n";
      return std::nullopt;
    }
    if (site >= plan->sites.size()) {
      std::cerr << "hlsavc: site " << site << " out of range (design has "
                << plan->sites.size() << " fault sites)\n";
      return std::nullopt;
    }
    const sim::FaultSpec& fault = plan->sites[site];
    std::cout << "injecting s" << fault.id << ": " << fault.describe(design) << "\n";
    return *std::move(plan);
  };
  auto arm_site = [](sim::SimOptions& so, const sim::CampaignPlan& plan, std::size_t site) {
    so.mode = sim::SimMode::kHardware;  // faults model circuit behaviour
    so.max_cycles = plan.header.max_cycles;
    so.faults.add(plan.sites[site]);
  };

  if (args.command == "ir") {
    std::cout << ir::print_design(design);
    return 0;
  }
  if (args.command == "verilog") {
    std::cout << rtl::emit_verilog(design, schedule);
    return 0;
  }
  if (args.command == "schedule") {
    for (const auto& p : design.processes) {
      std::cout << sched::print_schedule(design, *schedule.find(p->name));
    }
    return 0;
  }
  if (args.command == "compile") {
    rtl::Netlist netlist = rtl::build_netlist(design, schedule);
    fpga::Device dev = fpga::Device::ep2s180();
    fpga::AreaReport area = fpga::estimate_area(netlist);
    fpga::TimingReport timing = fpga::estimate_fmax(netlist, dev);
    std::cout << "design: " << design.name << "\n"
              << "assertion synthesis: " << synth.to_string() << "\n"
              << rtl::describe(netlist) << "area: " << area.to_string(dev) << "\n"
              << "fmax: " << fmt_double(timing.fmax_mhz, 1) << " MHz (critical process "
              << timing.critical_process << ", " << fmt_double(timing.critical_path_ns, 2)
              << " ns)\n";
    return 0;
  }
  // One run with its status, CPU-visible outputs and exit code: a
  // `simulate`, or a `faultsim --site=N` repro with its fault armed.
  // --trace arms the ELA and prints its replay on stderr.
  auto simulate_and_report = [&](const sim::Program& program, const sim::ExternRegistry& externs,
                                 sim::SimOptions so) {
    std::optional<trace::TraceEngine> ela;
    if (args.trace) so.ela = &ela.emplace(design, ela_config());
    return run_once(program, externs, so, [&](const sim::Simulator& simulator,
                                              const sim::RunResult& r) {
      print_run_status(r);
      for (const ir::Stream& s : design.streams) {
        if (s.dead || s.consumer.kind != ir::StreamEndpoint::Kind::kCpu) continue;
        if (s.role != ir::StreamRole::kData) continue;
        std::vector<std::uint64_t> out = simulator.received(s.name);
        if (out.empty()) continue;
        std::cout << s.name << ":";
        for (std::uint64_t v : out) std::cout << ' ' << v;
        std::cout << '\n';
      }
      if (ela) print_replay(*ela, ela->window(), r, std::cerr);
      return run_exit_code(r);
    });
  };
  if (args.command == "simulate") {
    sim::ExternRegistry externs;
    sim::SimOptions so;
    so.mode = args.software_mode ? sim::SimMode::kSoftware : sim::SimMode::kHardware;
    arm_deadline(so);
    arm_engine(so);
    return simulate_and_report(sim::Program(design, schedule), externs, so);
  }
  if (args.command == "profile") {
    sim::ExternRegistry externs;
    metrics::Profiler prof(design, schedule);
    sim::SimOptions so;
    so.mode = args.software_mode ? sim::SimMode::kSoftware : sim::SimMode::kHardware;
    so.profile = &prof;
    if (args.campaign_opts.max_cycles != 0) so.max_cycles = args.campaign_opts.max_cycles;
    arm_deadline(so);
    arm_engine(so);
    return run_once(sim::Program(design, schedule), externs, so,
                    [&](const sim::Simulator&, const sim::RunResult& r) {
      print_run_status(r);
      metrics::ProfileReport rep = prof.report(&sm);
      std::cout << rep.render_table();
      std::string error;
      if (!metrics::write_chrome_trace_file(rep, args.trace_out, &error)) {
        std::cerr << "hlsavc: " << error << "\n";
        return 1;
      }
      std::cout << "chrome trace: " << args.trace_out
                << " (load in Perfetto or chrome://tracing)\n";
      if (!args.profile_json.empty()) {
        std::ofstream os(args.profile_json);
        if (!os) {
          std::cerr << "hlsavc: cannot write " << args.profile_json << "\n";
          return 1;
        }
        os << rep.to_json() << "\n";
        std::cout << "profile json: " << args.profile_json << "\n";
      }
      return run_exit_code(r);
    });
  }
  if (args.command == "trace") {
    sim::ExternRegistry externs;
    trace::TraceEngine engine(design, ela_config());

    sim::SimOptions so;
    so.mode = args.software_mode ? sim::SimMode::kSoftware : sim::SimMode::kHardware;
    so.ela = &engine;
    if (args.campaign_opts.max_cycles != 0) so.max_cycles = args.campaign_opts.max_cycles;
    std::shared_ptr<const sim::Program> program;
    if (args.site != sim::FaultSpec::kNoSite) {
      sim::CampaignOptions copt = args.campaign_opts;
      arm_engine(copt.sim);
      std::optional<sim::CampaignPlan> plan = plan_one_site(args.site, externs, copt);
      if (!plan) return 1;
      arm_site(so, *plan, args.site);
      program = plan->program;
    } else {
      program = std::make_shared<const sim::Program>(design, schedule);
    }
    arm_deadline(so);  // after the golden run: the budget is the traced run's
    arm_engine(so);
    return run_once(*program, externs, so, [&](const sim::Simulator&, const sim::RunResult& r) {
      print_run_status(r);
      std::vector<trace::TraceRecord> window = engine.window();
      std::string vcd = args.vcd_path.empty() ? "trace.vcd" : args.vcd_path;
      trace::VcdWriter writer(design, engine.config().filter);
      writer.write_file(vcd, window);
      std::cout << "vcd: " << vcd << " (" << writer.signal_count() << " signals, "
                << window.size() << " events retained, " << engine.dropped() << " overwritten)\n";
      if (!args.bin_path.empty()) {
        trace::write_binary_trace_file(args.bin_path, window);
        std::cout << "binary trace: " << args.bin_path << "\n";
      }
      print_replay(engine, window, r, std::cout);
      std::cout << fpga::estimate_ela(engine).to_string(fpga::Device::ep2s180());
      return run_exit_code(r);
    });
  }
  if (args.command == "faultsim") {
    sim::ExternRegistry externs;
    sim::TraceRerunOptions topt;
    topt.config = ela_config();
    topt.dir = args.trace_dir;
    topt.last_cycles = args.last_cycles;
    topt.max_sites = args.trace_max_sites;
    topt.write_binary = true;
    topt.sm = &sm;

    if (args.campaign) {
      sim::CampaignOptions copt = args.campaign_opts;
      // The compiled engine serves the golden run and every faulted
      // site: each site arms one fault, which the generated code and
      // its callbacks apply themselves.
      arm_engine(copt.sim);
      // SIGINT/SIGTERM stop the sweep cooperatively: the in-flight site
      // finishes, its journal line is fsync'd, and we exit 6 with a
      // resume hint instead of tearing the journal mid-append.
      copt.cancel = &g_interrupted;
      std::signal(SIGINT, handle_interrupt);
      std::signal(SIGTERM, handle_interrupt);
      // One plan, so the sweep and the trace reruns share one Program.
      StatusOr<sim::CampaignPlan> plan =
          sim::plan_campaign(design, schedule, externs, args.feeds, copt);
      StatusOr<sim::CampaignReport> rep_or =
          plan.ok() ? sim::run_campaign_st(*plan, copt)
                    : StatusOr<sim::CampaignReport>(plan.status());
      std::signal(SIGINT, SIG_DFL);
      std::signal(SIGTERM, SIG_DFL);
      if (!rep_or.ok()) {
        std::cerr << "hlsavc: " << rep_or.status().to_string() << "\n";
        return 1;
      }
      sim::CampaignReport rep = *std::move(rep_or);
      if (args.engine != sim::SimEngine::kInterpreter) {
        std::cerr << "hlsavc: compiled engine ran " << rep.sites_compiled << "/" << rep.sites_run
                  << " faulted sites\n";
        if (rep.sites_compiled != rep.sites_run && !rep.engine_note.empty()) {
          std::cerr << "hlsavc: " << rep.engine_note << "\n";
        }
      }
      if (rep.interrupted) {
        std::cerr << "hlsavc: campaign interrupted by signal after " << rep.results.size()
                  << " classified site(s)";
        if (!copt.journal.empty()) {
          std::cerr << "; journal '" << copt.journal
                    << "' is flushed -- re-run with --resume to continue";
        }
        std::cerr << "\n";
        return 6;
      }
      std::cout << rep.render(design);
      if (args.trace_nonbenign) {
        std::vector<sim::TraceArtifact> arts = sim::trace_nonbenign_sites(*plan, rep, copt, topt);
        std::cout << "traced " << arts.size() << " non-benign site(s) into " << args.trace_dir
                  << "/\n";
        for (const sim::TraceArtifact& art : arts) {
          std::cout << "--- " << art.vcd_path << " ---\n" << art.replay;
        }
      }
      return 0;
    }

    std::size_t one_site = args.trace_site != sim::FaultSpec::kNoSite ? args.trace_site : args.site;
    if (one_site != sim::FaultSpec::kNoSite) {
      sim::CampaignOptions copt = args.campaign_opts;
      arm_engine(copt.sim);
      std::optional<sim::CampaignPlan> plan = plan_one_site(one_site, externs, copt);
      if (!plan) return 1;
      const sim::FaultSpec& fault = plan->sites[one_site];

      if (args.trace_site != sim::FaultSpec::kNoSite) {
        // Classify the one site against the golden run, then re-run it
        // with the ELA armed -- the same path --campaign
        // --trace-nonbenign takes, for a single site.
        sim::CampaignReport rep;
        rep.results.push_back(sim::run_site(*plan, fault, copt));
        std::vector<sim::TraceArtifact> arts =
            sim::trace_nonbenign_sites(*plan, rep, copt, topt);
        if (arts.empty()) {
          std::cout << "site s" << fault.id
                    << " is benign (outputs match golden); no trace emitted\n";
          return 0;
        }
        for (const sim::TraceArtifact& art : arts) {
          std::cout << "vcd: " << art.vcd_path << "\n";
          if (!art.bin_path.empty()) std::cout << "binary trace: " << art.bin_path << "\n";
          std::cout << art.replay;
        }
        return 0;
      }

      sim::SimOptions so = copt.sim;
      arm_site(so, *plan, one_site);
      arm_deadline(so);
      return simulate_and_report(*plan->program, externs, so);
    }

    std::vector<sim::FaultSpec> sites = sim::enumerate_fault_sites(design, schedule);
    TextTable t("fault sites: " + design.name + " (" + std::to_string(sites.size()) + ")");
    t.header({"site", "kind", "description"});
    for (const sim::FaultSpec& f : sites) {
      std::string site = "s";
      site += std::to_string(f.id);
      t.row({site, sim::fault_kind_name(f.kind), f.describe(design)});
    }
    std::cout << t.render();
    return 0;
  }
  if (args.command == "mine") {
    sim::ExternRegistry externs;

    // ---- golden window: recorded file or live capture ----
    std::vector<trace::TraceRecord> window;
    if (!args.trace_in.empty()) {
      StatusOr<std::vector<trace::TraceRecord>> w = trace::read_trace_file(args.trace_in);
      if (!w.ok()) {
        std::cerr << "hlsavc: " << w.status().to_string() << "\n";
        return 1;
      }
      Status valid = trace::validate_window(design, *w);
      if (!valid.ok()) {
        std::cerr << "hlsavc: '" << args.trace_in
                  << "' does not describe this design: " << valid.to_string() << "\n";
        return 1;
      }
      window = *std::move(w);
      std::cout << "trace window: " << args.trace_in << " (" << window.size()
                << " record(s))\n";
    } else {
      trace::TraceConfig tc;
      // Mining wants the whole run, not a crash-triage tail; default far
      // above the trace command's ring size unless the user chose one.
      tc.capacity = args.trace_capacity_set ? args.trace_capacity : std::size_t{1} << 16;
      trace::TraceEngine engine(design, tc);
      sim::SimOptions so;
      so.mode = sim::SimMode::kSoftware;  // pre-synthesis run, asserts in place
      so.ela = &engine;
      if (args.campaign_opts.max_cycles != 0) so.max_cycles = args.campaign_opts.max_cycles;
      arm_deadline(so);
      // 0: the golden run completed cleanly and `window` holds it.
      const int code = run_once(sim::Program(design, schedule), externs, so,
                                [&](const sim::Simulator&, const sim::RunResult& r) {
        if (r.status != sim::RunStatus::kCompleted || !r.failures.empty()) {
          std::cerr << "hlsavc: the golden run must complete cleanly before anything can "
                       "be mined from it\n";
          print_run_status(r);
          int rc = run_exit_code(r);
          return rc == 0 ? 3 : rc;
        }
        window = engine.window();
        if (engine.dropped() != 0) {
          std::cerr << "hlsavc: capture overwrote " << engine.dropped()
                    << " event(s); mined bounds only see the retained window "
                       "(raise --trace-capacity)\n";
        }
        std::cout << "trace window: golden run, " << r.cycles << " cycles, " << window.size()
                  << " record(s)\n";
        return 0;
      });
      if (code != 0) return code;
    }

    // ---- mine -> score ----
    mine::MineOptions mopt;
    mopt.min_support = args.min_support;
    mine::MineResult mined = mine::mine_invariants(design, window, mopt);
    std::cout << "mined " << mined.candidates.size() << " candidate(s) from "
              << mined.records << " record(s) (" << mined.reg_signals
              << " register signal(s), " << mined.stream_signals << " stream side(s))\n";
    if (mined.candidates.empty()) return 0;

    mine::ScoreOptions sopt;
    sopt.assert_opts = args.assert_opts;
    sopt.sched = args.sched_opts;
    sopt.seed = args.campaign_opts.seed;
    sopt.max_faults = args.campaign_opts.max_faults;
    sopt.max_cycles = args.campaign_opts.max_cycles;
    sopt.threads = args.campaign_opts.threads;
    sopt.max_candidates = args.mine_candidates;
    sopt.sm = &sm;
    StatusOr<mine::ScoreReport> rep =
        mine::score_candidates(design, externs, args.feeds, mined.candidates, sopt);
    if (!rep.ok()) {
      std::cerr << "hlsavc: " << rep.status().to_string() << "\n";
      return 1;
    }
    std::cout << rep->render();

    // ---- --emit: write the top-K back into the source ----
    if (!args.emit_path.empty()) {
      std::ifstream is(args.file, std::ios::binary);
      if (!is) {
        std::cerr << "hlsavc: cannot reread " << args.file << "\n";
        return 1;
      }
      std::ostringstream buf;
      buf << is.rdbuf();
      mine::EmitResult er = mine::emit_assertions(buf.str(), design, rep->ranked,
                                                  args.mine_top);
      // The emitted program must still compile -- with assertion
      // synthesis on, so every inserted assert goes through the real
      // checker path -- before it is allowed to replace anything.
      SourceManager vsm;
      DiagnosticEngine vdiags(&vsm);
      pipeline::CompileOptions vopts = copts;
      vopts.synthesize_assertions = true;
      StatusOr<pipeline::Compiled> check =
          pipeline::compile_source(vsm, vdiags, args.emit_path, er.source, vopts);
      if (!check.ok()) {
        std::cerr << vdiags.render();
        std::cerr << "hlsavc: emitted source does not recompile ("
                  << check.status().to_string() << "); nothing written\n";
        return 1;
      }
      std::ofstream os(args.emit_path, std::ios::binary);
      if (!os) {
        std::cerr << "hlsavc: cannot write " << args.emit_path << "\n";
        return 1;
      }
      os << er.source;
      std::cout << "emitted " << er.emitted << " assertion(s) into " << args.emit_path
                << " (recompile: " << check->synth.to_string() << ")\n";
      for (const std::string& s : er.skipped) std::cout << "  skipped " << s << "\n";
    }
    return 0;
  }
  std::cerr << "unknown command: " << args.command << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && (std::string(argv[1]) == "--help" || std::string(argv[1]) == "-h")) {
    print_usage(std::cout);
    return 0;
  }
  if (argc >= 2 && std::string(argv[1]) == "--version") {
    std::cout << "hlsavc " << HLSAV_GIT_SHA << " (" << HLSAV_BUILD_TYPE << ")\n";
    return 0;
  }
  Args args;
  if (!parse_args(argc, argv, args)) return usage();
  try {
    return run(args);
  } catch (const InternalError& e) {
    std::cerr << "hlsavc: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    // Residual backstop: no input may crash the driver. Anything that
    // escapes the Status-carrying pipeline still exits with a rendered
    // diagnostic and the documented code.
    std::cerr << "hlsavc: internal error: " << e.what() << "\n";
    return 1;
  }
}
