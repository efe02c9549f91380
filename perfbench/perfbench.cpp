// perfbench: the repository benchmark's measuring process.
//
// Runs one workload for a fixed wall-clock window and writes the raw
// measurements (set-up times, per-op wall times, spans, per-site records
// and exact counts) as one JSON document for run.py to reduce into
// metrics. The program under test is driven only through its public
// API and the `hlsavd` daemon; every op's output is compared with a
// reference computed during set-up, and every reference is itself
// checked against the application's software model.
//
// Workloads (see BENCHMARK.json for why each exists):
//   campaign_3des    compile -> warm codegen::prepare -> run_campaign
//                    (compiled engine, 1 thread) -> render, 3DES decrypt
//   campaign_edge    the same op on the interpreter for edge_detect 32x24,
//                    unoptimized and parallelized configs in one op
//   service_sharded  a closed-loop client submitting to a live
//                    `hlsavd serve --jobs=1 --workers=2`
//   first_run_cold   compile + netlist/area/fmax + prepare into an empty
//                    cache + one compiled golden run, for three designs
//
// Every set-up and every op is preceded by one run of a fixed calibration
// kernel (Calibrator), whose time run.py uses to scale end-to-end times.
//
// With --trace 1, ops alternate between untraced and traced; traced ops
// record a span around every call into a module's public functions
// (name, start, end, parent, op id), kept in memory and exported at the
// end through metrics::write_trace_events.
//
// Usage: perfbench --workload W --seed N --seconds S --trace 0|1
//                  --scratch DIR --hlsavd PATH --out FILE
//                  [--trace-out FILE]
#include <unistd.h>

#include <algorithm>
#include <array>
#include <csignal>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/des.h"
#include "apps/edge.h"
#include "apps/loopback.h"
#include "assertions/synthesize.h"
#include "codegen/emit.h"
#include "codegen/engine.h"
#include "codegen/jit.h"
#include "fpga/area.h"
#include "fpga/device.h"
#include "fpga/timing.h"
#include "ir/lower.h"
#include "lang/parser.h"
#include "lang/sema.h"
#include "metrics/chrometrace.h"
#include "pipeline/compile.h"
#include "rtl/netlist.h"
#include "sched/schedule.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "sim/campaign.h"
#include "sim/simulator.h"
#include "support/io.h"
#include "support/subprocess.h"

namespace {

using namespace hlsav;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using Feeds = std::map<std::string, std::vector<std::uint64_t>>;

[[noreturn]] void fail(const std::string& what) { throw std::runtime_error(what); }

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// splitmix64: derives independent input streams from the workload seed.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() { return mix(s_++); }
  /// Uniform-enough value in [lo, hi].
  std::uint64_t in(std::uint64_t lo, std::uint64_t hi) { return lo + next() % (hi - lo + 1); }

 private:
  std::uint64_t s_;
};

// ------------------------------------------------------------ spans --

/// In-memory span recorder (single-threaded). A span's parent is the
/// innermost span still open; spans of one op share its op id.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t op = 0;
    long parent = -1;
    double start_us = 0.0;
    double end_us = 0.0;
  };

  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  long begin(const std::string& name, std::uint64_t op) {
    double now = us_now();
    spans_.push_back({name, op, open_.empty() ? -1 : open_.back(), now, now});
    open_.push_back(static_cast<long>(spans_.size()) - 1);
    return open_.back();
  }

  void end(long idx) {
    spans_[static_cast<std::size_t>(idx)].end_us = us_now();
    if (!open_.empty() && open_.back() == idx) open_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  void add_trace_only_ms(double ms) { trace_only_ms_ += ms; }
  /// Time spent since the last call in work only a traced op does.
  double take_trace_only_ms() { return std::exchange(trace_only_ms_, 0.0); }

 private:
  double us_now() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  }

  const Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<long> open_;  // indices of the spans still open, innermost last
  double trace_only_ms_ = 0.0;
};

/// RAII span; a null tracer (untraced op) records nothing.
class Scope {
 public:
  Scope(Tracer* t, const std::string& name, std::uint64_t op)
      : t_(t), idx_(t != nullptr ? t->begin(name, op) : -1) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() {
    if (t_ != nullptr) t_->end(idx_);
  }

 private:
  Tracer* t_;
  long idx_;
};

/// Times work that a traced op does only because it is traced (the front
/// end stage by stage, emit, the cache scan). The op's recorded time
/// leaves it out, so trace.overhead_frac is the cost of the spans alone.
class TraceOnly {
 public:
  explicit TraceOnly(Tracer* t) : t_(t), t0_(Clock::now()) {}
  TraceOnly(const TraceOnly&) = delete;
  TraceOnly& operator=(const TraceOnly&) = delete;
  ~TraceOnly() {
    if (t_ != nullptr) t_->add_trace_only_ms(ms_since(t0_));
  }

 private:
  Tracer* t_;
  Clock::time_point t0_;
};

// ------------------------------------------------------ calibration --

/// A fixed reference kernel that is part of the benchmark, not of the
/// program under test: a dependent walk around one random cycle through
/// 4 MiB (bound by cache and memory latency), then branchy integer work.
/// It runs before every set-up and every op. Other tenants of the host
/// slow it down about as much as they slow the ops, so run.py divides the
/// end-to-end times by its times to compare runs made under other loads.
class Calibrator {
 public:
  /// The kernel's buffer (4 MiB), resident from the first set-up on.
  static constexpr long kResidentKb = 4096;

  Calibrator() : next_(kEntries) {
    for (std::uint32_t i = 0; i < kEntries; ++i) next_[i] = i;
    Rng rng(0xca11b);
    for (std::uint32_t i = kEntries - 1; i > 0; --i) {  // Sattolo: one cycle
      std::swap(next_[i], next_[static_cast<std::uint32_t>(rng.next() % i)]);
    }
  }

  /// Runs the kernel once; returns its wall time in ms.
  double run_ms() {
    Clock::time_point t0 = Clock::now();
    std::uint32_t at = 0;
    for (std::uint32_t k = 0; k < kSteps; ++k) at = next_[at];
    std::uint64_t x = at + 1;
    std::uint64_t acc = 0;
    for (std::uint32_t k = 0; k < kBranchy; ++k) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      if ((x & 1) != 0) {
        acc += x >> 3;
      } else {
        acc ^= x;
      }
      if ((x & 6) == 2) acc = acc * 3 + 1;
    }
    sink_ = sink_ + acc;
    return ms_since(t0);
  }

 private:
  static constexpr std::uint32_t kEntries = kResidentKb * 1024 / sizeof(std::uint32_t);
  static constexpr std::uint32_t kSteps = 100000;
  static constexpr std::uint32_t kBranchy = 1500000;
  std::vector<std::uint32_t> next_;
  volatile std::uint64_t sink_ = 0;
};

double calibrate_ms() {
  static Calibrator cal;
  return cal.run_ms();
}

// ------------------------------------------------------ measurements --

struct OpRecord {
  double ms = 0.0;
  double cal_ms = 0.0;  // the calibration run just before the op
  /// Wall times of the op's independent parts (one per design or
  /// campaign it runs), when it has more than one.
  std::vector<double> parts_ms;
  bool ok = true;
  bool traced = false;
  std::size_t sites = 0;
};

struct SiteRecord {
  std::uint64_t op = 0;
  double ms = 0.0;
  std::uint64_t cycles = 0;
  std::string outcome;
};

/// Counts one traced op produces; every traced op must produce the same.
using Counts = std::map<std::string, double>;

struct Results {
  std::vector<double> setup_s;
  std::vector<double> setup_cal_ms;  // the calibration run before each set-up
  std::vector<OpRecord> ops;
  std::vector<SiteRecord> sites;
  Counts counts;
  std::size_t count_mismatches = 0;
  std::string daemon_trace_path;
  std::string daemon_metrics_path;
  long daemon_rss_kb = 0;

  void record(const OpRecord& r, const Counts* c) {
    OpRecord rec = r;
    if (c != nullptr) {
      if (counts.empty()) {
        counts = *c;
      } else if (counts != *c) {
        ++count_mismatches;
        rec.ok = false;
        std::cerr << "perfbench: op counts differ from the first traced op\n";
      }
    }
    ops.push_back(rec);
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch;
  std::string hlsavd;
  std::string out;
  std::string trace_out;
};

// ---------------------------------------------------- design inputs --

struct DesignSpec {
  std::string name;  // source buffer name; also the design name
  std::string source;
  pipeline::CompileOptions copts;
  /// > 0: a loopback chain whose stage k.b must feed stage k+1.a; built
  /// through apps::loopback::build, the library's path for this design.
  unsigned loopback_stages = 0;
  unsigned loopback_words = 0;
  Feeds feeds;
  std::string out_stream;
  std::vector<std::uint64_t> expected;  // software-model output words
};

constexpr std::array<std::uint64_t, 3> kDesKeys = {0x0123456789ABCDEFull, 0x23456789ABCDEF01ull,
                                                   0x456789ABCDEF0123ull};

DesignSpec des_design(std::uint64_t seed) {
  Rng rng(mix(seed ^ 0xde5));
  std::string text;
  for (int i = 0; i < 16; ++i) text.push_back(static_cast<char>(rng.in(32, 126)));
  DesignSpec d;
  d.name = "des3.c";
  d.source = apps::des::hlsc_decrypt_source(kDesKeys);
  d.copts.assert_opts = assertions::Options::optimized();
  d.copts.sched_opts.chain_depth = 6;
  std::vector<std::uint64_t> cipher;
  for (std::uint64_t b : apps::des::pack_text(text)) {
    cipher.push_back(apps::des::triple_des_encrypt(b, kDesKeys));
  }
  // The software model: EDE decryption of the cipher is the plaintext.
  std::vector<std::uint64_t> plain;
  for (std::uint64_t c : cipher) plain.push_back(apps::des::triple_des_decrypt(c, kDesKeys));
  if (apps::des::unpack_text(plain).substr(0, text.size()) != text) {
    fail("3DES software model does not round-trip the plaintext");
  }
  d.feeds["des3.in"] = apps::des::to_word_stream(cipher);
  d.out_stream = "des3.txt";
  for (char ch : text) d.expected.push_back(static_cast<unsigned char>(ch));
  return d;
}

DesignSpec edge_design(std::uint64_t seed, unsigned w, unsigned h,
                       const assertions::Options& assert_opts) {
  apps::img::Image input = apps::img::synthetic_image(w, h, mix(seed ^ 0xed9e) % 1000000 + 1);
  DesignSpec d;
  d.name = "edge.c";
  d.source = apps::edge::hlsc_source(w, h);
  d.copts.assert_opts = assert_opts;
  d.copts.sched_opts.chain_depth = 16;
  d.feeds["edge.in"] = apps::edge::to_word_stream(input);
  d.out_stream = "edge.out";
  apps::img::Image golden = apps::edge::golden_edge(input);
  d.expected.assign(golden.pixels.begin(), golden.pixels.end());
  return d;
}

DesignSpec loopback_design(std::uint64_t seed, unsigned stages, unsigned words) {
  Rng rng(mix(seed ^ 0x100b));
  DesignSpec d;
  d.name = "loopback.c";
  d.source = apps::loopback::hlsc_source(stages, words);
  d.copts.assert_opts = assertions::Options::optimized();
  d.loopback_stages = stages;
  d.loopback_words = words;
  std::vector<std::uint64_t> data(words);
  for (std::uint64_t& v : data) v = rng.in(1, 0xffffffffULL);  // > 0: golden is clean
  d.feeds[apps::loopback::input_stream(stages)] = data;
  d.out_stream = apps::loopback::output_stream(stages);
  d.expected = data;  // the chain is the identity
  return d;
}

/// What a compile produces, whichever path built it.
struct Built {
  SourceManager sm;
  DiagnosticEngine diags{&sm};
  std::optional<pipeline::Compiled> compiled;
  ir::Design* design = nullptr;
  sched::DesignSchedule* schedule = nullptr;
};

/// The real compile call an op makes: pipeline::compile_source, or for a
/// loopback chain apps::loopback::build plus synthesis, verify and
/// scheduling (the chain is wired after lowering, which compile_source
/// cannot express).
std::unique_ptr<Built> compile_design(const DesignSpec& d) {
  auto b = std::make_unique<Built>();
  if (d.loopback_stages > 0) {
    std::unique_ptr<apps::CompiledApp> app =
        apps::loopback::build(d.loopback_stages, d.loopback_words);
    pipeline::Compiled c;
    c.design = std::move(app->design);
    c.synth = assertions::synthesize(c.design, d.copts.assert_opts);
    ir::verify(c.design);
    c.schedule = sched::schedule_design(c.design, d.copts.sched_opts);
    b->compiled.emplace(std::move(c));
  } else {
    StatusOr<pipeline::Compiled> c =
        pipeline::compile_source(b->sm, b->diags, d.name, d.source, d.copts);
    if (!c.ok()) fail(b->diags.render() + c.status().to_string());
    b->compiled.emplace(std::move(*c));
  }
  b->design = &b->compiled->design;
  b->schedule = &b->compiled->schedule;
  return b;
}

/// The front end again, one public stage function at a time in
/// compile_buffer's order, each under its own span (traced ops only).
void trace_front_end(const DesignSpec& d, Tracer* t, std::uint64_t op) {
  SourceManager sm;
  DiagnosticEngine diags(&sm);
  std::unique_ptr<lang::Program> program;
  {
    Scope s(t, "lang.parse", op);
    program = lang::parse_source(sm, diags, d.name, d.source);
  }
  lang::SemaResult sema;
  {
    Scope s(t, "lang.sema", op);
    sema = lang::analyze(*program, sm, diags);
  }
  if (!sema.ok || diags.has_errors()) fail("front end rejected " + d.name);
  ir::Design design;
  design.name = d.name;
  {
    Scope s(t, "ir.lower", op);
    Status st = ir::lower_all_processes(design, *program, sm, diags);
    if (!st.ok()) fail(st.to_string());
    for (unsigned k = 0; k + 1 < d.loopback_stages; ++k) {
      ir::StreamId link =
          design.find_process("stage" + std::to_string(k))->find_port("b")->stream;
      design.connect_consumer(link, "stage" + std::to_string(k + 1), "a");
    }
  }
  {
    Scope s(t, "assertions.synthesize", op);
    (void)assertions::synthesize(design, d.copts.assert_opts);
  }
  {
    Scope s(t, "ir.verify", op);
    ir::verify(design);
  }
  {
    Scope s(t, "sched.schedule", op);
    (void)sched::schedule_design(design, d.copts.sched_opts);
  }
}

/// A golden run's observable result.
struct RunOutput {
  sim::RunStatus status = sim::RunStatus::kCompleted;
  std::uint64_t cycles = 0;
  std::size_t failures = 0;
  std::vector<std::uint64_t> words;

  bool operator==(const RunOutput&) const = default;
};

/// Set-up's reference check: the interpreter's golden run matches the
/// application's software model.
RunOutput checked_reference(const DesignSpec& d) {
  std::unique_ptr<Built> b = compile_design(d);
  sim::ExternRegistry externs;
  sim::Simulator s(*b->design, *b->schedule, externs, {});
  for (const auto& [stream, values] : d.feeds) s.feed(stream, values);
  sim::RunResult r = s.run();
  RunOutput ref{r.status, r.cycles, r.failures.size(), s.received(d.out_stream)};
  if (ref.status != sim::RunStatus::kCompleted || ref.failures != 0) {
    fail(d.name + ": reference golden run did not complete cleanly");
  }
  if (ref.words != d.expected) fail(d.name + ": golden run disagrees with the software model");
  return ref;
}

std::vector<std::pair<std::string, std::uint64_t>> cache_objects(const std::string& dir) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  std::error_code ec;
  for (const fs::directory_entry& e : fs::directory_iterator(dir, ec)) {
    if (e.path().extension() == ".so") out.emplace_back(e.path().string(), e.file_size());
  }
  return out;
}

// -------------------------------------------------------- campaigns --

struct CampaignCase {
  DesignSpec design;
  std::uint64_t seed = 1;
  std::string reference;  // rendered report, from the interpreter
};

/// One campaign as `hlsavc faultsim --campaign` runs it. Returns the
/// rendered report; fills per-site records and counts on traced ops.
std::string run_one_campaign(const CampaignCase& c, const std::string& warm_cache, Tracer* t,
                             std::uint64_t op, Results& res, Counts& counts,
                             std::size_t& sites) {
  if (t != nullptr) {
    TraceOnly extra(t);
    trace_front_end(c.design, t, op);
  }
  std::unique_ptr<Built> b;
  {
    Scope s(t, "pipeline.compile", op);
    b = compile_design(c.design);
  }
  sim::CampaignOptions copt;
  copt.seed = c.seed;
  copt.threads = 1;
  std::unique_ptr<codegen::CompiledDesign> cd;
  if (!warm_cache.empty()) {
    Scope s(t, "codegen.prepare_warm", op);
    codegen::PrepareOptions po;
    po.cache_dir = warm_cache;
    StatusOr<std::unique_ptr<codegen::CompiledDesign>> p =
        codegen::prepare(*b->design, *b->schedule, po);
    if (!p.ok()) fail("prepare: " + p.status().to_string());
    if (!(*p)->from_cache()) fail("warm prepare missed the cache");
    cd = std::move(*p);
    copt.sim.engine = sim::SimEngine::kCompiled;
    copt.sim.compiled = cd->handle();
  }
  long pre = -1;
  long site_span = -1;
  if (t != nullptr) {
    copt.site_start_hook = [&](std::uint32_t) {
      if (pre >= 0) {
        t->end(pre);
        pre = -1;
      }
      site_span = t->begin("sim.site", op);
    };
    copt.site_sink = [&](const sim::FaultResult& r) {
      t->end(site_span);
      const Tracer::Span& span = t->spans()[static_cast<std::size_t>(site_span)];
      res.sites.push_back({op, (span.end_us - span.start_us) / 1000.0, r.cycles,
                           sim::fault_outcome_name(r.outcome)});
    };
  }
  std::optional<StatusOr<sim::CampaignReport>> rep_or;
  {
    Scope s(t, "sim.campaign", op);
    if (t != nullptr) pre = t->begin("sim.pre_sites", op);
    sim::ExternRegistry externs;
    rep_or.emplace(
        sim::run_campaign_st(*b->design, *b->schedule, externs, c.design.feeds, copt));
    if (pre >= 0) t->end(pre);
  }
  if (!rep_or->ok()) fail("campaign: " + rep_or->status().to_string());
  const sim::CampaignReport& rep = **rep_or;
  std::string text;
  {
    Scope s(t, "sim.render", op);
    text = rep.render(*b->design);
  }
  sites += rep.results.size();
  if (t != nullptr) {
    for (std::size_t i = 0; i < sim::kNumFaultOutcomes; ++i) {
      auto o = static_cast<sim::FaultOutcome>(i);
      counts[std::string("sim.outcome.") + sim::fault_outcome_name(o)] +=
          static_cast<double>(rep.count(o));
    }
    for (const sim::FaultResult& r : rep.results) {
      counts["sim.sites"] += 1;
      counts["sim.site_cycles"] += static_cast<double>(r.cycles);
      if (r.outcome == sim::FaultOutcome::kHangTimeout) {
        counts["sim.hang_timeout_sites"] += 1;
        counts["sim.hang_timeout_cycles"] += static_cast<double>(r.cycles);
      }
    }
  }
  return text;
}

/// Interpreter reference report for one campaign, after checking the
/// design's golden run against its software model.
std::string campaign_reference(const CampaignCase& c) {
  (void)checked_reference(c.design);
  std::unique_ptr<Built> b = compile_design(c.design);
  sim::CampaignOptions copt;
  copt.seed = c.seed;
  copt.threads = 1;
  sim::ExternRegistry externs;
  StatusOr<sim::CampaignReport> rep =
      sim::run_campaign_st(*b->design, *b->schedule, externs, c.design.feeds, copt);
  if (!rep.ok()) fail("reference campaign: " + rep.status().to_string());
  return rep->render(*b->design);
}

/// Runs `op` back to back until the window closes, each after one
/// calibration run. With tracing on, even ops are untraced and odd ops
/// traced.
template <typename Op>
void closed_loop(const Args& a, Tracer& tracer, Results& res, Op&& op) {
  Clock::time_point start = Clock::now();
  Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(a.seconds));
  std::size_t n = 0;
  do {
    bool traced = a.trace && (n % 2 == 1);
    std::uint64_t id = n + 1;  // op ids start at 1
    Tracer* t = traced ? &tracer : nullptr;
    Counts counts;
    OpRecord rec;
    rec.traced = traced;
    rec.cal_ms = calibrate_ms();
    Clock::time_point t0 = Clock::now();
    {
      Scope root(t, "op", id);
      rec.ok = op(t, id, counts, rec);
    }
    rec.ms = ms_since(t0) - tracer.take_trace_only_ms();
    res.record(rec, traced ? &counts : nullptr);
    ++n;
  } while (Clock::now() < stop || (a.trace && n < 2));
}

/// Runs set-up at least kSetups times and until three seconds of set-up
/// time have accumulated (at most 100 times), so the reported median
/// rests on enough samples even where one set-up takes milliseconds.
/// `setup(rep)` returns the seconds it took.
template <typename Setup>
void repeat_setup(Results& res, Setup&& setup) {
  constexpr unsigned kSetups = 5;
  double spent = 0.0;
  for (unsigned rep = 0; rep < kSetups || (spent < 3.0 && rep < 100); ++rep) {
    res.setup_cal_ms.push_back(calibrate_ms());
    res.setup_s.push_back(setup(rep));
    spent += res.setup_s.back();
  }
}

double seconds_since(Clock::time_point t0) { return ms_since(t0) / 1000.0; }

void campaign_workload(const Args& a, Tracer& tracer, Results& res, bool compiled_engine) {
  std::vector<CampaignCase> cases;
  std::uint64_t sample_seed = mix(a.seed ^ 0x5eed) % 1000000 + 1;
  if (compiled_engine) {
    cases.push_back({des_design(a.seed), sample_seed, {}});
  } else {
    cases.push_back(
        {edge_design(a.seed, 32, 24, assertions::Options::unoptimized()), sample_seed, {}});
    cases.push_back(
        {edge_design(a.seed, 32, 24, assertions::Options::optimized()), sample_seed, {}});
  }

  std::string warm_cache;
  repeat_setup(res, [&](unsigned rep) {
    Clock::time_point t0 = Clock::now();
    for (CampaignCase& c : cases) c.reference = campaign_reference(c);
    if (compiled_engine) {
      // Warm a private cache; each set-up starts from an empty one.
      warm_cache = a.scratch + "/warm" + std::to_string(rep);
      for (const CampaignCase& c : cases) {
        std::unique_ptr<Built> b = compile_design(c.design);
        codegen::PrepareOptions po;
        po.cache_dir = warm_cache;
        StatusOr<std::unique_ptr<codegen::CompiledDesign>> p =
            codegen::prepare(*b->design, *b->schedule, po);
        if (!p.ok()) fail("warm-up prepare: " + p.status().to_string());
        // The ops' golden runs must run compiled, not fall back to the
        // interpreter, whose reports the reference already matches.
        sim::SimOptions so;
        so.engine = sim::SimEngine::kCompiled;
        so.compiled = (*p)->handle();
        sim::ExternRegistry externs;
        sim::Simulator s(*b->design, *b->schedule, externs, so);
        if (!s.engine_active()) fail(c.design.name + ": the compiled engine declined the design");
      }
    }
    return seconds_since(t0);
  });

  closed_loop(a, tracer, res, [&](Tracer* t, std::uint64_t id, Counts& counts, OpRecord& rec) {
    bool ok = true;
    for (const CampaignCase& c : cases) {
      Clock::time_point t0 = Clock::now();
      std::string text = run_one_campaign(c, warm_cache, t, id, res, counts, rec.sites);
      if (cases.size() > 1) rec.parts_ms.push_back(ms_since(t0));
      ok = ok && text == c.reference;
    }
    return ok;
  });
}

// ---------------------------------------------------- first run, cold --

void cold_workload(const Args& a, Tracer& tracer, Results& res) {
  std::vector<DesignSpec> designs = {loopback_design(a.seed, 32, 64), des_design(a.seed),
                                     edge_design(a.seed, 64, 48, assertions::Options::optimized())};
  std::vector<RunOutput> refs;
  repeat_setup(res, [&](unsigned) {
    Clock::time_point t0 = Clock::now();
    refs.clear();
    for (const DesignSpec& d : designs) refs.push_back(checked_reference(d));
    return seconds_since(t0);
  });
  if (codegen::find_compiler().empty()) fail("no host C compiler for the compiled engine");

  std::string cold_root = a.scratch + "/cold";
  closed_loop(a, tracer, res, [&](Tracer* t, std::uint64_t id, Counts& counts, OpRecord& rec) {
    bool ok = true;
    for (std::size_t i = 0; i < designs.size(); ++i) {
      Clock::time_point t0 = Clock::now();
      const DesignSpec& d = designs[i];
      std::string cache = cold_root + "/op" + std::to_string(id) + "_" + std::to_string(i);
      if (t != nullptr) {
        TraceOnly extra(t);
        trace_front_end(d, t, id);
      }
      std::unique_ptr<Built> b;
      {
        Scope s(t, "pipeline.compile", id);
        b = compile_design(d);
      }
      rtl::Netlist netlist;
      {
        Scope s(t, "rtl.netlist", id);
        netlist = rtl::build_netlist(*b->design, *b->schedule);
      }
      {
        Scope s(t, "fpga.estimate", id);
        fpga::AreaReport area = fpga::estimate_area(netlist);
        fpga::TimingReport timing = fpga::estimate_fmax(netlist, fpga::Device::ep2s180());
        ok = ok && area.aluts > 0 && timing.fmax_mhz > 0.0;
      }
      if (t != nullptr) {
        TraceOnly extra(t);
        codegen::EmitResult er;
        {
          Scope s(t, "codegen.emit", id);
          er = codegen::emit_design(*b->design, *b->schedule);
        }
        counts["codegen.emit_bytes"] += static_cast<double>(er.source.size());
        counts["codegen.procs_compiled"] += static_cast<double>(er.compiled_count());
        counts["codegen.procs_declined"] +=
            static_cast<double>(er.procs.size() - er.compiled_count());
      }
      std::unique_ptr<codegen::CompiledDesign> cd;
      {
        Scope s(t, "codegen.prepare_cold", id);
        codegen::PrepareOptions po;
        po.cache_dir = cache;
        StatusOr<std::unique_ptr<codegen::CompiledDesign>> p =
            codegen::prepare(*b->design, *b->schedule, po);
        if (!p.ok()) fail("cold prepare: " + p.status().to_string());
        cd = std::move(*p);
      }
      ok = ok && !cd->from_cache();
      if (t != nullptr) {
        TraceOnly extra(t);
        for (const auto& [path, bytes] : cache_objects(cache)) {
          counts["codegen.cache_objects"] += 1;
          counts["codegen.cache_bytes"] += static_cast<double>(bytes);
        }
      }
      sim::SimOptions so;
      so.engine = sim::SimEngine::kCompiled;
      so.compiled = cd->handle();
      sim::ExternRegistry externs;
      std::optional<sim::Simulator> s;
      {
        Scope sc(t, "sim.construct", id);
        s.emplace(*b->design, *b->schedule, externs, so);
        for (const auto& [stream, values] : d.feeds) s->feed(stream, values);
      }
      sim::RunResult r;
      {
        Scope sc(t, "sim.run", id);
        r = s->run();
      }
      RunOutput out{r.status, r.cycles, r.failures.size(), s->received(d.out_stream)};
      ok = ok && s->engine_active() && out == refs[i];
      if (t != nullptr) {
        counts["sim.golden_cycles"] += static_cast<double>(r.cycles);
        counts["sim.engine_active"] += s->engine_active() ? 1 : 0;
      }
      rec.parts_ms.push_back(ms_since(t0));
    }
    return ok;
  });
  std::error_code ec;
  fs::remove_all(cold_root, ec);
}

// ------------------------------------------------------- service --

/// A process's peak resident set: VmHWM from /proc/<pid>/status (which,
/// unlike getrusage's ru_maxrss, restarts at exec), or 0 if unreadable.
long vm_hwm_kb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  }
  return 0;
}

/// A live `hlsavd serve` on a private socket and work dir. Shut down
/// (and reaped) when destroyed, whatever state the run is in.
class Daemon {
 public:
  Daemon(const std::string& hlsavd, const std::string& dir) : sock_(dir + "/d.sock") {
    std::vector<std::string> argv = {hlsavd,         "serve",     "--socket=" + sock_,
                                     "--work-dir=" + dir + "/work", "--jobs=1", "--workers=2"};
    StatusOr<Subprocess> p = Subprocess::spawn(argv, /*capture_stdout=*/false,
                                               /*kill_on_parent_death=*/true);
    if (!p.ok()) fail("cannot start hlsavd: " + p.status().to_string());
    proc_.emplace(std::move(*p));
    for (int i = 0; i < 1000; ++i) {
      if (::access(sock_.c_str(), F_OK) == 0 && serve::query_status(sock_).ok()) return;
      if (proc_->poll().has_value()) fail("hlsavd exited during start-up");
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    fail("hlsavd did not open its socket");
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (!proc_.has_value()) return;
    (void)serve::request_shutdown(sock_);
    for (int i = 0; i < 1000 && !proc_->poll().has_value(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (!proc_->poll().has_value()) {
      proc_->kill(SIGKILL);
      (void)proc_->wait();
    }
  }

  [[nodiscard]] const std::string& socket() const { return sock_; }
  [[nodiscard]] long peak_rss_kb() const { return vm_hwm_kb(std::to_string(proc_->pid())); }

 private:
  std::string sock_;
  std::optional<Subprocess> proc_;
};

/// The service design: an inner loop makes each site run for hundreds
/// of thousands of cycles, as bench_campaign_service's design does.
std::string service_source(unsigned inner) {
  std::ostringstream os;
  os << "void f(stream_in<32> in, stream_out<32> out) {\n"
     << "  for (uint32 i = 0; i < 8; i++) {\n"
     << "    uint32 v = stream_read(in);\n"
     << "    uint32 acc = 0;\n"
     << "    for (uint32 j = 0; j < " << inner << "; j++) {\n"
     << "      acc = acc + v;\n"
     << "    }\n"
     << "    assert(acc >= v);\n"
     << "    stream_write(out, acc);\n"
     << "  }\n"
     << "}\n";
  return os.str();
}

void service_workload(const Args& a, Tracer& tracer, Results& res) {
  constexpr unsigned kInner = 5000;
  Rng rng(mix(a.seed ^ 0x5e7));
  std::vector<std::uint64_t> values;
  // acc = v * 5000 must not wrap, or the golden run's assertion fires.
  for (int i = 0; i < 8; ++i) values.push_back(rng.in(1, 0xffffffffULL / kInner));
  std::string feed_spec = "f.in=";
  for (std::size_t i = 0; i < values.size(); ++i) {
    feed_spec += (i != 0 ? "," : "") + std::to_string(values[i]);
  }

  serve::CampaignSpec spec;
  spec.feeds = feed_spec;
  spec.seed = mix(a.seed ^ 0x5eed) % 1000000 + 1;
  std::string reference;
  std::size_t job_sites = 0;
  std::unique_ptr<Daemon> daemon;
  repeat_setup(res, [&](unsigned rep) {
    daemon.reset();  // an earlier set-up's daemon is shut down untimed
    Clock::time_point t0 = Clock::now();
    std::string dir = a.scratch + "/svc" + std::to_string(rep);
    fs::create_directories(dir);
    spec.design_path = dir + "/bench_campaign_service.c";
    Status st = write_file_atomic(spec.design_path, service_source(kInner));
    if (!st.ok()) fail(st.to_string());

    SourceManager sm;
    DiagnosticEngine diags(&sm);
    StatusOr<pipeline::Compiled> c = pipeline::compile_file(sm, diags, spec.design_path, {});
    if (!c.ok()) fail(diags.render() + c.status().to_string());
    StatusOr<Feeds> feeds = serve::parse_feed_spec(spec.feeds);
    if (!feeds.ok()) fail(feeds.status().to_string());
    sim::ExternRegistry externs;
    {
      // The software model: acc = v * inner (mod 2^32) for every v.
      sim::Simulator s(c->design, c->schedule, externs, {});
      for (const auto& [stream, vals] : *feeds) s.feed(stream, vals);
      sim::RunResult r = s.run();
      std::vector<std::uint64_t> expect;
      for (std::uint64_t v : values) expect.push_back((v * kInner) & 0xffffffffULL);
      if (!r.completed() || !r.failures.empty() || s.received("f.out") != expect) {
        fail("service design's golden run disagrees with acc = v * inner");
      }
    }
    sim::CampaignOptions copt;
    copt.seed = spec.seed;
    StatusOr<sim::CampaignReport> rep_or =
        sim::run_campaign_st(c->design, c->schedule, externs, *feeds, copt);
    if (!rep_or.ok()) fail("reference campaign: " + rep_or.status().to_string());
    reference = rep_or->render(c->design);
    job_sites = rep_or->results.size();
    daemon = std::make_unique<Daemon>(a.hlsavd, dir);
    return seconds_since(t0);
  });

  // The daemon keeps every job's history, so its footprint grows with
  // the jobs it has run; it is read at a fixed job count, which a run
  // reaches however fast the host is, to compare across runs.
  constexpr std::size_t kRssJobs = 50;
  std::size_t jobs = 0;
  std::string out = a.scratch + "/client.report";
  closed_loop(a, tracer, res, [&](Tracer* t, std::uint64_t id, Counts&, OpRecord& rec) {
    int rc = 0;
    {
      Scope s(t, "serve.submit_job", id);
      rc = serve::submit_job(daemon->socket(), spec, out, /*quiet=*/true);
    }
    if (++jobs == kRssJobs) res.daemon_rss_kb = daemon->peak_rss_kb();
    rec.sites += job_sites;
    return rc == 0 && slurp(out) == reference;
  });
  if (jobs < kRssJobs) res.daemon_rss_kb = daemon->peak_rss_kb();

  StatusOr<std::string> trace = serve::fetch_trace(daemon->socket(), 0);
  StatusOr<std::string> metrics = serve::query_metrics(daemon->socket());
  if (!trace.ok() || !metrics.ok()) fail("cannot read the daemon's trace or metrics");
  res.daemon_trace_path = a.scratch + "/daemon_trace.json";
  res.daemon_metrics_path = a.scratch + "/daemon_metrics.json";
  if (!write_file_atomic(res.daemon_trace_path, *trace).ok() ||
      !write_file_atomic(res.daemon_metrics_path, *metrics).ok()) {
    fail("cannot save the daemon's trace or metrics");
  }
  daemon.reset();
}

// ----------------------------------------------------------- output --

/// This process's peak resident set, less the calibration kernel's
/// buffer, which is resident throughout and so adds exactly its size.
long self_peak_rss_kb() { return std::max(0L, vm_hwm_kb("self") - Calibrator::kResidentKb); }

void write_results(const Args& a, const Results& res, const Tracer& tracer) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"workload\": \"" << a.workload << "\", \"compiler\": \"" << codegen::find_compiler()
     << "\", \"build_type\": \"" << HLSAV_BUILD_TYPE << "\",\n \"peak_rss_kb\": "
     << self_peak_rss_kb() << ", \"daemon_rss_kb\": " << res.daemon_rss_kb
     << ", \"count_mismatches\": " << res.count_mismatches << ",\n \"daemon_trace\": \""
     << res.daemon_trace_path << "\", \"daemon_metrics\": \"" << res.daemon_metrics_path
     << "\",\n \"setup_s\": [";
  for (std::size_t i = 0; i < res.setup_s.size(); ++i) os << (i ? ", " : "") << res.setup_s[i];
  os << "],\n \"setup_cal_ms\": [";
  for (std::size_t i = 0; i < res.setup_cal_ms.size(); ++i) {
    os << (i ? ", " : "") << res.setup_cal_ms[i];
  }
  os << "],\n \"ops\": [";
  for (std::size_t i = 0; i < res.ops.size(); ++i) {
    const OpRecord& r = res.ops[i];
    os << (i ? ",\n  " : "\n  ") << "[" << r.ms << ", " << (r.ok ? 1 : 0) << ", "
       << (r.traced ? 1 : 0) << ", " << r.sites << ", " << r.cal_ms << ", [";
    for (std::size_t k = 0; k < r.parts_ms.size(); ++k) os << (k ? ", " : "") << r.parts_ms[k];
    os << "]]";
  }
  os << "],\n \"counts\": {";
  bool first = true;
  for (const auto& [name, v] : res.counts) {
    os << (first ? "" : ", ") << "\"" << name << "\": " << v;
    first = false;
  }
  os << "},\n \"sites\": [";
  for (std::size_t i = 0; i < res.sites.size(); ++i) {
    const SiteRecord& s = res.sites[i];
    os << (i ? ",\n  " : "\n  ") << "[" << s.op << ", " << s.ms << ", " << s.cycles << ", \""
       << s.outcome << "\"]";
  }
  const std::vector<Tracer::Span>& spans = tracer.spans();
  os << "],\n \"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    os << (i ? ",\n  " : "\n  ") << "[\"" << s.name << "\", " << s.op << ", " << s.parent << ", "
       << s.start_us << ", " << s.end_us << "]";
  }
  os << "]}\n";
  Status st = write_file_atomic(a.out, os.str());
  if (!st.ok()) fail(st.to_string());

  if (!a.trace_out.empty()) {
    // One Perfetto track per op: its spans nest by time on that track.
    std::vector<metrics::TraceEvent> events;
    metrics::TraceEvent meta;
    meta.ph = 'M';
    meta.name = "process_name";
    meta.label = "perfbench " + a.workload;
    events.push_back(meta);
    std::set<std::uint64_t> named;
    for (const Tracer::Span& s : spans) {
      if (named.insert(s.op).second) {
        metrics::TraceEvent m;
        m.ph = 'M';
        m.tid = s.op;
        m.name = "thread_name";
        m.label = "op " + std::to_string(s.op);
        events.push_back(m);
      }
      metrics::TraceEvent e;
      e.tid = s.op;
      e.name = s.name;
      e.ts_us = static_cast<std::uint64_t>(s.start_us);
      e.dur_us = static_cast<std::uint64_t>(s.end_us) - e.ts_us;
      events.push_back(e);
    }
    std::ostringstream ts;
    metrics::write_trace_events(events, ts);
    Status tst = write_file_atomic(a.trace_out, ts.str());
    if (!tst.ok()) fail(tst.to_string());
  }
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--scratch") {
      a.scratch = v;
    } else if (k == "--hlsavd") {
      a.hlsavd = v;
    } else if (k == "--out") {
      a.out = v;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !a.workload.empty() && !a.scratch.empty() && !a.out.empty() &&
         a.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  try {
    if (!parse_args(argc, argv, a)) {
      std::cerr << "usage: perfbench --workload W --seed N --seconds S --trace 0|1\n"
                   "                 --scratch DIR --hlsavd PATH --out FILE\n"
                   "                 [--trace-out FILE]\n";
      return 2;
    }
    Tracer tracer(Clock::now());
    Results res;
    if (a.workload == "campaign_3des") {
      campaign_workload(a, tracer, res, /*compiled_engine=*/true);
    } else if (a.workload == "campaign_edge") {
      campaign_workload(a, tracer, res, /*compiled_engine=*/false);
    } else if (a.workload == "service_sharded") {
      if (a.hlsavd.empty()) fail("service_sharded needs --hlsavd");
      service_workload(a, tracer, res);
    } else if (a.workload == "first_run_cold") {
      cold_workload(a, tracer, res);
    } else {
      fail("unknown workload '" + a.workload + "'");
    }
    write_results(a, res, tracer);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
