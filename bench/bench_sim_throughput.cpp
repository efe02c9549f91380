// Simulator throughput harness: measures cycles-simulated/sec of the
// cycle-accurate FSMD simulator across the reproduction's workloads and
// writes BENCH_sim.json so the perf trajectory is tracked across PRs.
//
// Workloads:
//  * the Fig. 4/5 streaming-loopback chain at 1..128 processes
//    (optimized assertion synthesis, the paper's recommended config,
//    plus the unoptimized per-process-checker config at 128), and
//  * the Table 1/2 application pipelines: Triple-DES decrypt and the
//    5x5-window edge detector.
//
// The "_prof" rows re-run a workload with the cycle-attribution
// profiler armed, so the armed overhead is measured alongside; the
// disabled-profiler rows are the ones --compare guards.
//
// --engine selects which simulation engine(s) to measure: the
// interpreter (default, what --compare baselines were recorded with),
// the AOT-compiled backend (rows named "<workload>_compiled"), or both.
// With both, the per-workload compiled/interpreter speedups and their
// geomean are printed and embedded in BENCH_sim.json as a top-level
// "compiled_speedup" field.
//
// Usage: bench_sim_throughput [--json <path>] [--quick] [--best-of N]
//                             [--engine interpreter|compiled|both]
//                             [--compare <baseline.json> [--tolerance <pct>]]
#include "bench/common.h"

#include <cmath>
#include <optional>

#include "apps/des.h"
#include "apps/edge.h"
#include "apps/loopback.h"
#include "codegen/engine.h"
#include "metrics/profile.h"

namespace {

using namespace hlsav;
using bench::SimThroughput;

/// Timing windows per workload; the fastest wins (see time_simulation).
/// The CI guard runs --best-of 3 so host-load noise cannot trip the
/// throughput tolerance.
unsigned g_best_of = 1;

struct PreparedSim {
  ir::Design design;
  sched::DesignSchedule schedule;
};

PreparedSim prepare(const ir::Design& lowered, const assertions::Options& opt,
                    const sched::SchedOptions& sched_opts = {}) {
  PreparedSim p{lowered.clone(), {}};
  assertions::synthesize(p.design, opt);
  ir::verify(p.design);
  p.schedule = sched::schedule_design(p.design, sched_opts);
  return p;
}

/// A fresh armed Profiler per run when `profiled` (the same lifetime
/// `hlsavc profile` gives it), no profiler at all otherwise. When `cd`
/// is non-null the compiled engine runs the workload (profiled and
/// compiled are never combined: an armed profiler makes the compiled
/// engine decline, see Simulator::init_engine).
sim::SimOptions sim_options(const PreparedSim& p, bool profiled,
                            std::optional<metrics::Profiler>& prof,
                            const codegen::CompiledDesign* cd = nullptr) {
  sim::SimOptions so;
  if (profiled) {
    prof.emplace(p.design, p.schedule);
    so.profile = &*prof;
  }
  if (cd != nullptr) {
    so.engine = sim::SimEngine::kCompiled;
    so.compiled = cd->handle();
  }
  return so;
}

/// AOT-compiles the prepared design for a "<name>_compiled" row.
/// Returns null (with a note on stderr) when no host compiler is
/// available or codegen declines -- the bench then simply omits the
/// compiled row instead of failing.
std::unique_ptr<codegen::CompiledDesign> prepare_compiled(const PreparedSim& p,
                                                          const std::string& name) {
  StatusOr<std::unique_ptr<codegen::CompiledDesign>> cd = codegen::prepare(p.design, p.schedule);
  if (!cd.ok()) {
    std::cerr << "note: skipping " << name << "_compiled: " << cd.status().message() << "\n";
    return nullptr;
  }
  return std::move(*cd);
}

/// Times runs of one prepared workload, `feed` into CPU stream `stream`.
/// The sim::Program is built once, outside the timed runs, and every
/// run borrows it, as a campaign's sites do: the rows time construction
/// of a run and the run itself, not decoding the design. The row is
/// `name`, suffixed "_compiled" or "_prof".
std::optional<SimThroughput> throughput(const std::string& name, const PreparedSim& p,
                                        const std::string& stream,
                                        const std::vector<std::uint64_t>& feed,
                                        double min_seconds, bool profiled, bool compiled) {
  std::unique_ptr<codegen::CompiledDesign> cd;
  if (compiled && (cd = prepare_compiled(p, name)) == nullptr) return std::nullopt;
  const sim::Program program(p.design, p.schedule);
  sim::ExternRegistry ext;
  return bench::time_simulation(
      name + (compiled ? "_compiled" : profiled ? "_prof" : ""),
      [&] {
        std::optional<metrics::Profiler> prof;
        sim::Simulator s(program, ext, sim_options(p, profiled, prof, cd.get()));
        s.feed(stream, feed);
        sim::RunResult r = s.run();
        HLSAV_CHECK(r.completed() && r.failures.empty(), name + " bench run misbehaved");
        HLSAV_CHECK(cd == nullptr || s.engine_active(),
                    "compiled engine fell back during " + name + " bench: " + s.engine_note());
        return r.cycles;
      },
      min_seconds, 3, g_best_of);
}

std::optional<SimThroughput> loopback_throughput(unsigned stages, unsigned words,
                                                 const assertions::Options& opt,
                                                 const std::string& name, double min_seconds,
                                                 bool profiled = false, bool compiled = false) {
  auto app = apps::loopback::build(stages, words);
  std::vector<std::uint64_t> data(words);
  for (unsigned i = 0; i < words; ++i) data[i] = i + 1;  // all > 0: no failures
  return throughput(name, prepare(app->design, opt), apps::loopback::input_stream(stages), data,
                    min_seconds, profiled, compiled);
}

std::optional<SimThroughput> des_throughput(double min_seconds, bool profiled = false,
                                            bool compiled = false) {
  const std::array<std::uint64_t, 3> keys = {0x0123456789ABCDEFull, 0x23456789ABCDEF01ull,
                                             0x456789ABCDEF0123ull};
  auto app = apps::compile_app("triple_des", "des3.c", apps::des::hlsc_decrypt_source(keys));
  sched::SchedOptions sched_opts;
  sched_opts.chain_depth = 6;
  std::string text = "In-circuit assertion-based verification throughput.";
  std::vector<std::uint64_t> cipher;
  for (std::uint64_t b : apps::des::pack_text(text)) {
    cipher.push_back(apps::des::triple_des_encrypt(b, keys));
  }
  return throughput("tripledes_decrypt",
                    prepare(app->design, assertions::Options::optimized(), sched_opts), "des3.in",
                    apps::des::to_word_stream(cipher), min_seconds, profiled, compiled);
}

std::optional<SimThroughput> edge_throughput(double min_seconds, bool profiled = false,
                                             bool compiled = false) {
  constexpr unsigned kW = 64;
  constexpr unsigned kH = 48;
  auto app = apps::compile_app("edge_detect", "edge.c", apps::edge::hlsc_source(kW, kH));
  sched::SchedOptions sched_opts;
  sched_opts.chain_depth = 16;
  apps::img::Image input = apps::img::synthetic_image(kW, kH, 7);
  return throughput("edge_detect_64x48",
                    prepare(app->design, assertions::Options::optimized(), sched_opts), "edge.in",
                    apps::edge::to_word_stream(input), min_seconds, profiled, compiled);
}

/// One fully profiled loopback run whose report JSON is embedded in
/// BENCH_sim.json: the trajectory records where the cycles go, not just
/// how fast they pass.
std::string embedded_profile_json(unsigned words) {
  auto app = apps::loopback::build(4, words);
  PreparedSim p = prepare(app->design, assertions::Options::optimized());
  std::vector<std::uint64_t> data(words);
  for (unsigned i = 0; i < words; ++i) data[i] = i + 1;
  metrics::Profiler prof(p.design, p.schedule);
  sim::SimOptions so;
  so.profile = &prof;
  sim::ExternRegistry ext;
  sim::Simulator s(p.design, p.schedule, ext, so);
  s.feed(apps::loopback::input_stream(4), data);
  sim::RunResult r = s.run();
  HLSAV_CHECK(r.completed(), "profiled loopback run misbehaved");
  return prof.report().to_json();
}

/// The disabled-profiler throughput guard: geomean of current/baseline
/// over the workloads both files measured, excluding the armed "_prof"
/// rows (those measure armed overhead, not disabled cost).
int compare_against_baseline(const std::string& json_path, const std::string& baseline_path,
                             double tolerance_pct) {
  std::map<std::string, double> baseline = bench::read_bench_workloads(baseline_path);
  std::map<std::string, double> current = bench::read_bench_workloads(json_path);
  double log_sum = 0.0;
  unsigned n = 0;
  for (const auto& [name, cps] : current) {
    if (name.size() >= 5 && name.compare(name.size() - 5, 5, "_prof") == 0) continue;
    auto it = baseline.find(name);
    if (it == baseline.end() || it->second <= 0.0 || cps <= 0.0) continue;
    double ratio = cps / it->second;
    std::cout << "compare " << name << ": " << hlsav::fmt_double(100.0 * (ratio - 1.0), 2)
              << "%\n";
    log_sum += std::log(ratio);
    ++n;
  }
  if (n == 0) {
    std::cerr << "compare: no common workloads between " << json_path << " and "
              << baseline_path << "\n";
    return 1;
  }
  double geomean = std::exp(log_sum / n);
  std::cout << "geomean throughput vs baseline: "
            << hlsav::fmt_double(100.0 * (geomean - 1.0), 2) << "% (" << n
            << " workloads, tolerance -" << hlsav::fmt_double(tolerance_pct, 1) << "%)\n";
  if (geomean < 1.0 - tolerance_pct / 100.0) {
    std::cerr << "FAIL: throughput regressed beyond the " << hlsav::fmt_double(tolerance_pct, 1)
              << "% tolerance\n";
    return 1;
  }
  std::cout << "PASS\n";
  return 0;
}

/// Per-workload compiled/interpreter ratios for every "<name>_compiled"
/// row whose interpreter row was also measured. Printed as a table and
/// embedded in BENCH_sim.json; empty when either engine was skipped.
std::string speedup_summary(const std::vector<SimThroughput>& results) {
  std::map<std::string, double> cps;
  for (const SimThroughput& r : results) cps[r.name] = r.cycles_per_sec();
  TextTable t("Compiled-engine speedup (compiled cycles/sec over interpreter)");
  t.header({"workload", "interpreter", "compiled", "speedup"});
  std::string json = "{";
  double log_sum = 0.0;
  unsigned n = 0;
  for (const SimThroughput& r : results) {
    const std::string suffix = "_compiled";
    if (r.name.size() <= suffix.size() ||
        r.name.compare(r.name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    auto it = cps.find(r.name.substr(0, r.name.size() - suffix.size()));
    if (it == cps.end() || it->second <= 0.0) continue;
    double speedup = r.cycles_per_sec() / it->second;
    t.row({it->first, hlsav::fmt_double(it->second, 0), hlsav::fmt_double(r.cycles_per_sec(), 0),
           hlsav::fmt_double(speedup, 2) + "x"});
    json += (n == 0 ? "" : ", ") + ("\"" + it->first + "\": " + hlsav::fmt_double(speedup, 3));
    log_sum += std::log(speedup);
    ++n;
  }
  if (n == 0) return "";
  double geomean = std::exp(log_sum / n);
  t.row({"geomean", "", "", hlsav::fmt_double(geomean, 2) + "x"});
  json += ", \"geomean\": " + hlsav::fmt_double(geomean, 3) + "}";
  std::cout << t.render();
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_sim.json";
  std::string baseline_path;
  std::string engine = "interpreter";
  double min_seconds = 0.5;
  double tolerance_pct = 2.0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--engine" && i + 1 < argc) arg = "--engine=" + std::string(argv[++i]);
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--compare" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg == "--tolerance" && i + 1 < argc) {
      tolerance_pct = std::stod(argv[++i]);
    } else if (arg == "--best-of" && i + 1 < argc) {
      g_best_of = static_cast<unsigned>(std::stoul(argv[++i]));
    } else if (arg.rfind("--engine=", 0) == 0) {
      engine = arg.substr(9);
      if (engine != "interpreter" && engine != "compiled" && engine != "both") {
        std::cerr << "unknown --engine '" << engine
                  << "' (expected interpreter, compiled, or both)\n";
        return 2;
      }
    } else if (arg == "--quick") {
      min_seconds = 0.1;
    } else {
      std::cerr << "usage: bench_sim_throughput [--json <path>] [--quick] [--best-of N]\n"
                   "                            [--engine interpreter|compiled|both]\n"
                   "                            [--compare <baseline.json> [--tolerance <pct>]]\n";
      return 2;
    }
  }
  const bool run_interp = engine != "compiled";
  const bool run_compiled = engine != "interpreter";
  hlsav::bench::print_provenance_banner("bench_sim_throughput");

  std::vector<SimThroughput> results;
  auto add = [&results](std::optional<SimThroughput> r) {
    if (r.has_value()) results.push_back(std::move(*r));
  };
  // Measure each workload on every requested engine back to back, so the
  // speedup ratio sees the same host conditions for both rows.
  auto both = [&](auto&& run) {
    if (run_interp) add(run(/*compiled=*/false));
    if (run_compiled) add(run(/*compiled=*/true));
  };
  constexpr unsigned kWords = 64;
  for (unsigned n : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    both([&](bool compiled) {
      return loopback_throughput(n, kWords, assertions::Options::optimized(),
                                 "loopback_opt_n" + std::to_string(n), min_seconds,
                                 /*profiled=*/false, compiled);
    });
  }
  both([&](bool compiled) {
    return loopback_throughput(128, kWords, assertions::Options::unoptimized(),
                               "loopback_unopt_n128", min_seconds, /*profiled=*/false, compiled);
  });
  both([&](bool compiled) { return des_throughput(min_seconds, /*profiled=*/false, compiled); });
  both([&](bool compiled) { return edge_throughput(min_seconds, /*profiled=*/false, compiled); });
  if (run_interp) {
    // Armed-overhead rows: the same workloads with the profiler running
    // (interpreter only; an armed profiler declines the compiled engine).
    add(loopback_throughput(8, kWords, assertions::Options::optimized(), "loopback_opt_n8",
                            min_seconds, /*profiled=*/true));
    add(des_throughput(min_seconds, /*profiled=*/true));
    add(edge_throughput(min_seconds, /*profiled=*/true));
  }

  TextTable t("Simulator throughput (cycles simulated per wall second)");
  t.header({"workload", "runs", "cycles/run", "wall s", "cycles/sec"});
  for (const SimThroughput& r : results) {
    t.row({r.name, std::to_string(r.runs), std::to_string(r.cycles_per_run),
           hlsav::fmt_double(r.wall_seconds, 3), hlsav::fmt_double(r.cycles_per_sec(), 0)});
  }
  std::cout << t.render();

  std::string speedup_json;
  if (run_interp && run_compiled) speedup_json = speedup_summary(results);

  hlsav::bench::write_bench_json(json_path, "sim_throughput", results,
                                 embedded_profile_json(kWords), speedup_json);
  std::cout << "wrote " << json_path << "\n";

  if (!baseline_path.empty()) {
    return compare_against_baseline(json_path, baseline_path, tolerance_pct);
  }
  return 0;
}
