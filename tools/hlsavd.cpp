// hlsavd -- the crash-contained fault-campaign service.
//
//   hlsavd serve    --socket=PATH [options]   run the daemon
//   hlsavd submit   --socket=PATH --design=FILE [options]
//                                             submit a campaign, stream
//                                             progress, print the report
//   hlsavd watch    --socket=PATH --job=N     attach to a job: snapshot,
//                                             then its live frame stream
//   hlsavd status   --socket=PATH             daemon status (counts +
//                                             worker tallies)
//   hlsavd metrics  --socket=PATH             one-shot JSON metrics snapshot
//   hlsavd trace-out --socket=PATH --job=N    Chrome trace JSON of the
//                                             job's span tree (0 = all jobs)
//   hlsavd shutdown --socket=PATH             graceful daemon shutdown
//   hlsavd worker   --design=FILE ...         internal: runs the sites of
//                                             one campaign that the
//                                             supervisor hands it (not
//                                             for use by hand)
//
// serve options:
//   --queue-cap=N            bounded FIFO job queue; a full queue rejects
//                            with a typed error (default 4)
//   --jobs=N                 concurrent campaigns (default 1)
//   --workers=N              default worker subprocesses per job (default 2)
//   --quarantine-cap=N       crashes one site may cause before it is
//                            classified worker-crashed (default 3)
//   --heartbeat-timeout-ms=N SIGKILL a silent worker after N ms; 0 off
//                            (default 10000)
//   --work-dir=DIR           each job's journal is DIR/job_<id>/journal.jsonl
//   --events-out=FILE        append-only JSONL event log (monotonic seq,
//                            ts_ms since daemon start)
//   --spool-dir=DIR          write-ahead job spool (default
//                            WORK_DIR/spool); a restarted daemon
//                            re-adopts every unfinished spooled job
//   --die-at=PHASE           test-only crash injection: SIGKILL the
//                            daemon the first time it reaches PHASE
//                            (accept | spooled | shard-spawned |
//                            pre-merge | pre-done); a durable token in
//                            WORK_DIR makes the restart immune
//
// watch options:
//   --job=N                  the job to attach to
//   --wait-ms=T              retry an unknown job id for T ms (a watcher
//                            racing its own submit)
//   --stall-reads-ms=T       test hook: sleep T ms before reading frames
//                            (deliberately slow subscriber)
//   --out=FILE --quiet       report destination / suppress narration
//
// submit options:
//   --design=FILE --feed stream=v1,v2,... --assertions=MODE --seed=N
//   --max-faults=N --max-cycles=N --site-wall-ms=N --workers=N
//   --out=FILE --quiet
//   --crash-at-site=N --crash-limit=K --stall-at-site=N
//                            test-only worker fault schedule (documented
//                            for the kill tests; compiled in always)
//   --key=K                  idempotency key: resubmitting the same
//                            key+spec never double-runs -- the daemon
//                            returns the original job (replaying its
//                            report if already done)
//   --retry[=N]              retry a refused/aborted submit up to N
//                            times (default 5) with capped exponential
//                            backoff; auto-generates a key when none
//                            was given so retries stay idempotent
//   --retry-base-ms=T        first backoff delay (default 200ms)
//
// Exit codes: 0 ok, 1 error, 2 bad usage (also an option the subcommand
//             would ignore), 6 job drained (daemon shut down mid-job; its
//             journal is flushed and resumable), 7 rejected (back-pressure
//             or validation) -- typed, resubmit later.
// Worker contract (internal; serve/shard.h is the other side): `hlsavd
// worker --design=F --max-cycles=N --golden-cycles=N ...` takes submit's
// campaign options (--design --assertions --max-cycles --site-wall-ms
// --feed --crash-at-site --crash-limit --stall-at-site) and two of its
// own, --golden-cycles and --fault-token-dir (the test fault schedule's
// durable tokens). It compiles F and arms the compiled engine
// (sim::SimEngine::kCompiled; the supervisor has already built F into the
// JIT cache, so this loads it; work the engine cannot take interprets). It
// refuses with exit 22 if its golden run disagrees with --golden-cycles --
// the supervisor's golden run interprets, so this compares the two
// engines' cycle counts on every job, and the supervisor fails the job --
// then runs one site per stdin line and prints the protocol.h lines for
// it, each result naming the engine that ran the site and, if it
// interpreted, why. Its argv fixes its plan, so one worker may serve many
// jobs: between jobs the supervisor parks it with its stdin open and sends
// the next job with the same argv and design bytes its site ids
// (serve/shard.h). A crash in generated code is a worker crash like any
// other. It writes no files outside the JIT cache. Exit 0 at stdin EOF, 1
// error, 2 bad usage, 21 drained on SIGTERM after reporting its in-flight
// site, 22 golden mismatch.
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "codegen/engine.h"
#include "flags.h"
#include "pipeline/compile.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "sim/campaign.h"
#include "sim/journal.h"
#include "support/str.h"

#ifndef HLSAV_GIT_SHA
#define HLSAV_GIT_SHA "unknown"
#endif
#ifndef HLSAV_BUILD_TYPE
#define HLSAV_BUILD_TYPE "unspecified"
#endif

namespace {

using namespace hlsav;
using namespace hlsav::tools;

std::atomic<bool> g_cancel{false};

void handle_signal(int) { g_cancel.store(true, std::memory_order_relaxed); }

void print_usage(std::ostream& os) {
  os << "usage: hlsavd serve    --socket=PATH [--queue-cap=N --jobs=N --workers=N\n"
        "                        --quarantine-cap=N --heartbeat-timeout-ms=N --work-dir=DIR\n"
        "                        --events-out=FILE --spool-dir=DIR --die-at=PHASE]\n"
        "       hlsavd submit   --socket=PATH --design=FILE [--feed stream=v1,v2,...\n"
        "                        --assertions=MODE --seed=N --max-faults=N --max-cycles=N\n"
        "                        --site-wall-ms=N --workers=N --out=FILE --quiet --key=K\n"
        "                        --retry[=N] --retry-base-ms=T\n"
        "                        --crash-at-site=N --crash-limit=K --stall-at-site=N]\n"
        "       hlsavd watch    --socket=PATH --job=N [--wait-ms=T --stall-reads-ms=T\n"
        "                        --out=FILE --quiet]\n"
        "       hlsavd status   --socket=PATH\n"
        "       hlsavd metrics  --socket=PATH\n"
        "       hlsavd trace-out --socket=PATH --job=N [--out=FILE]   (job 0 = all jobs)\n"
        "       hlsavd shutdown --socket=PATH\n"
        "       hlsavd worker   --golden-cycles=N --fault-token-dir=DIR and submit's\n"
        "                        --design --assertions --max-cycles --site-wall-ms --feed\n"
        "                        and --crash/--stall options   (internal)\n"
        "       hlsavd --version\n"
        "exit codes: 0 ok, 1 error, 2 bad usage (also an option the subcommand\n"
        "            would ignore), 6 job drained by daemon shutdown (journals\n"
        "            resumable), 7 rejected (typed back-pressure; resubmit later)\n";
}

int usage() {
  print_usage(std::cerr);
  return 2;
}

/// The running binary's own path: workers must be the exact same build
/// as the supervisor or simulation determinism (and therefore report
/// byte-identity) is void.
std::string self_binary(const char* argv0) {
  char buf[4096];
  ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

// ------------------------------------------------------------- worker --

/// Reads the decimal trigger count in `path` (0 when absent/garbled).
std::uint32_t read_token_count(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0;
  unsigned long count = 0;
  if (std::fscanf(f, "%lu", &count) != 1) count = 0;
  std::fclose(f);
  return static_cast<std::uint32_t>(count);
}

/// Durably bumps the trigger count: the token must survive the SIGKILL
/// this process is about to deliver to itself, or the site would crash
/// its worker on every respawn forever.
void write_token_count(const std::string& path, std::uint32_t count) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return;
  std::string text = std::to_string(count);
  (void)!::write(fd, text.data(), text.size());
  (void)::fsync(fd);
  (void)::close(fd);
}

/// Every option's value, whichever subcommand takes it (kOptions).
struct Args {
  serve::ServiceOptions service;  // its socket_path is also every client's
  /// The campaign submit sends and a worker runs; a worker's own two
  /// flags follow.
  serve::CampaignSpec spec;
  std::vector<std::string> feeds;  // ';'-joined into spec.feeds
  std::uint64_t golden_cycles = 0;
  std::string fault_token_dir;
  serve::SubmitOptions submit;
  serve::WatchOptions watch;
  std::optional<std::uint64_t> job;
  std::string out_path;  // submit's and watch's report, trace-out's trace
};

/// The test-only fault schedule (--crash-at-site, --stall-at-site),
/// applied just before `site` runs.
void inject_test_faults(const Args& args, std::uint32_t site) {
  if (args.fault_token_dir.empty()) return;
  if (std::ranges::count(args.spec.crash_at, site) != 0) {
    std::string token = args.fault_token_dir + "/crash_" + std::to_string(site) + ".token";
    std::uint32_t count = read_token_count(token);
    if (count < args.spec.crash_limit) {
      write_token_count(token, count + 1);
      // True kill -9 semantics: no atexit, no stack unwind, and the
      // site's result never reaches the supervisor.
      (void)::raise(SIGKILL);
    }
  }
  if (std::ranges::count(args.spec.stall_at, site) != 0) {
    std::string token = args.fault_token_dir + "/stall_" + std::to_string(site) + ".token";
    if (read_token_count(token) < 1) {
      write_token_count(token, 1);
      // Stall forever: heartbeat watchdog fodder. The supervisor's
      // SIGKILL is the only way out.
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
    }
  }
}

/// One stdout line, flushed at once: a SIGKILL must not eat it.
void say(const std::string& line) {
  std::fputs((line + "\n").c_str(), stdout);
  std::fflush(stdout);
}

int run_worker(const Args& args) {
  const serve::CampaignSpec& spec = args.spec;

  // SIGTERM = drain: finish and report the in-flight site, then exit 21
  // so the supervisor knows this was a drain, not a crash. No
  // SA_RESTART, so a worker waiting for its next id wakes up as well.
  struct sigaction sa{};
  sa.sa_handler = handle_signal;
  sigemptyset(&sa.sa_mask);
  (void)::sigaction(SIGTERM, &sa, nullptr);
  (void)::sigaction(SIGINT, &sa, nullptr);

  std::optional<assertions::Options> mode = assertions::Options::by_name(spec.assertions);
  if (!mode.has_value()) {
    std::cerr << "hlsavd worker: unknown assertions mode '" << spec.assertions << "'\n";
    return 2;
  }
  SourceManager sm;
  DiagnosticEngine diags(&sm);
  pipeline::CompileOptions copts;
  copts.assert_opts = *mode;
  StatusOr<pipeline::Compiled> compiled =
      pipeline::compile_file(sm, diags, spec.design_path, copts);
  if (!compiled.ok()) {
    std::cerr << diags.render();
    std::cerr << "hlsavd worker: " << compiled.status().to_string() << "\n";
    return 1;
  }

  StatusOr<std::map<std::string, std::vector<std::uint64_t>>> feeds =
      serve::parse_feed_spec(spec.feeds);
  if (!feeds.ok()) {
    std::cerr << "hlsavd worker: " << feeds.status().to_string() << "\n";
    return 1;
  }

  sim::CampaignOptions copt;
  copt.max_cycles = spec.max_cycles;
  copt.site_wall_ms = spec.site_wall_ms;
  // The golden run and every site run compiled where the engine can;
  // the rest interprets, and the reports are the same either way.
  std::unique_ptr<codegen::CompiledDesign> engine;
  std::vector<std::string> notes = codegen::arm_engine(copt.sim, sim::SimEngine::kCompiled,
                                                       compiled->design, compiled->schedule,
                                                       engine);
  for (const std::string& note : notes) std::cerr << "hlsavd worker: " << note << "\n";
  // With no design attached, why preparation failed is the reason every
  // site interprets, not the simulator's "no compiled design attached".
  const std::string unarmed = engine == nullptr && !notes.empty() ? notes.front() : "";
  sim::ExternRegistry externs;
  StatusOr<sim::CampaignPlan> plan =
      sim::plan_campaign(compiled->design, compiled->schedule, externs, *feeds, copt);
  if (!plan.ok()) {
    std::cerr << "hlsavd worker: " << plan.status().to_string() << "\n";
    return 1;
  }
  if (args.golden_cycles != 0 && plan->golden.cycles != args.golden_cycles) {
    std::cerr << "hlsavd worker: golden run took " << plan->golden.cycles << " cycles ("
              << (engine != nullptr ? "compiled engine" : "interpreter")
              << ") but the supervisor's interpreted golden run took " << args.golden_cycles
              << " -- the engines diverge or the simulation is nondeterministic; refusing to "
                 "run sites\n";
    return serve::kWorkerGoldenMismatchExit;
  }

  // One site id per stdin line until EOF. "starting" goes out before a
  // site runs (the supervisor's blame target if this process dies), the
  // full result once it is classified.
  char line[64];
  while (!g_cancel.load(std::memory_order_relaxed) &&
         std::fgets(line, sizeof line, stdin) != nullptr) {
    std::string_view text(line);
    if (!text.empty() && text.back() == '\n') text.remove_suffix(1);
    std::uint32_t site = 0;
    if (!parse_u32_flag(text, site) || site >= plan->sites.size()) {
      std::cerr << "hlsavd worker: bad site id '" << text << "'\n";
      return 1;
    }
    say(serve::encode_worker_starting(site));
    inject_test_faults(args, site);
    sim::FaultResult r = sim::run_site(*plan, plan->sites[site], copt);  // throws: exit 1
    say(serve::encode_worker_site(sim::journal_line(r), r.ran_compiled,
                                  unarmed.empty() ? r.engine_note : unarmed));
  }
  return g_cancel.load(std::memory_order_relaxed) ? serve::kWorkerDrainedExit : 0;
}

// -------------------------------------------------------------- serve --

serve::Service* g_service = nullptr;

void handle_serve_signal(int) {
  if (g_service != nullptr) g_service->shutdown_flag().store(true, std::memory_order_relaxed);
}

int run_serve(const serve::ServiceOptions& opt) {
  StatusOr<std::unique_ptr<serve::Service>> service = serve::Service::start(opt);
  if (!service.ok()) {
    std::cerr << "hlsavd: " << service.status().to_string() << "\n";
    return 1;
  }
  g_service = service->get();
  std::signal(SIGTERM, handle_serve_signal);
  std::signal(SIGINT, handle_serve_signal);
  std::cerr << "hlsavd: listening on " << opt.socket_path << "\n";
  Status st = (*service)->serve();
  g_service = nullptr;
  if (!st.ok()) {
    std::cerr << "hlsavd: " << st.to_string() << "\n";
    return 1;
  }
  std::cerr << "hlsavd: drained and shut down\n";
  return 0;
}

// ------------------------------------------------------------ options --

/// Each subcommand is a run.
enum Run : unsigned {
  kServe = 1u << 0,
  kSubmit = 1u << 1,
  kWatch = 1u << 2,
  kStatus = 1u << 3,
  kMetrics = 1u << 4,
  kTraceOut = 1u << 5,
  kShutdown = 1u << 6,
  kWorker = 1u << 7,
};
/// Each run's name, by bit.
constexpr const char* kRunNames[] = {"serve",   "submit",    "watch",    "status",
                                     "metrics", "trace-out", "shutdown", "worker"};
constexpr unsigned kSockets = kWorker - 1;       // the daemon and its clients
constexpr unsigned kCampaign = kSubmit | kWorker;  // runs that take the campaign spec

using V = const std::string&;

/// A positive count.
bool parse_positive(V v, unsigned& out) { return parse_unsigned_flag(v, out) && out != 0; }

/// A count from 0 to `max`.
bool parse_int(V v, int& out, unsigned max = std::numeric_limits<int>::max()) {
  unsigned n = 0;
  if (!parse_unsigned_flag(v, n) || n > max) return false;
  out = static_cast<int>(n);
  return true;
}

const Option<Args> kOptions[] = {
    {"--socket=", kSockets, [](Args& a, V v) { return assign(a.service.socket_path, v); }},
    {"--workers=", kServe | kSubmit,
     [](Args& a, V v) {
       unsigned& n = a.spec.workers;
       if (!parse_unsigned_flag(v, n)) return false;
       a.service.default_workers = std::max(1u, n);
       return true;
     }},
    // the campaign: submit sends it, a worker runs its sites
    {"--design=", kCampaign, [](Args& a, V v) { return assign(a.spec.design_path, v); }},
    {"--assertions=", kCampaign, [](Args& a, V v) { return assign(a.spec.assertions, v); }},
    {"--max-cycles=", kCampaign, [](Args& a, V v) { return parse_u64_flag(v, a.spec.max_cycles); }},
    {"--site-wall-ms=", kCampaign,
     [](Args& a, V v) {
       double& ms = a.spec.site_wall_ms;
       return parse_double_flag(v, ms) && ms >= 0;
     }},
    {"--feed", kCampaign, [](Args& a, V v) { return assign(a.feeds.emplace_back(), v); }},
    {"--feed=", kCampaign, [](Args& a, V v) { return assign(a.feeds.emplace_back(), v); }},
    {"--crash-at-site=", kCampaign,
     [](Args& a, V v) { return parse_u32_flag(v, a.spec.crash_at.emplace_back()); }},
    {"--crash-limit=", kCampaign,
     [](Args& a, V v) { return parse_u32_flag(v, a.spec.crash_limit); }},
    {"--stall-at-site=", kCampaign,
     [](Args& a, V v) { return parse_u32_flag(v, a.spec.stall_at.emplace_back()); }},
    {"--seed=", kSubmit, [](Args& a, V v) { return parse_u64_flag(v, a.spec.seed); }},
    {"--max-faults=", kSubmit, [](Args& a, V v) { return parse_u64_flag(v, a.spec.max_faults); }},
    {"--key=", kSubmit, [](Args& a, V v) { return assign(a.spec.key, v); }},
    {"--retry", kSubmit, nullptr, [](Args& a) { a.submit.retries = 5; }},
    {"--retry=", kSubmit, [](Args& a, V v) { return parse_int(v, a.submit.retries, 1000); }},
    {"--retry-base-ms=", kSubmit,
     [](Args& a, V v) {
       return parse_u64_flag(v, a.submit.retry_base_ms) && a.submit.retry_base_ms != 0;
     }},
    // a worker's own
    {"--golden-cycles=", kWorker, [](Args& a, V v) { return parse_u64_flag(v, a.golden_cycles); }},
    {"--fault-token-dir=", kWorker, [](Args& a, V v) { return assign(a.fault_token_dir, v); }},
    // watch and trace-out
    {"--job=", kWatch | kTraceOut, [](Args& a, V v) { return parse_u64_flag(v, a.job.emplace()); }},
    {"--out=", kSubmit | kWatch | kTraceOut, [](Args& a, V v) { return assign(a.out_path, v); }},
    {"--quiet", kSubmit | kWatch, nullptr, [](Args& a) { a.submit.quiet = a.watch.quiet = true; }},
    {"--wait-ms=", kWatch, [](Args& a, V v) { return parse_int(v, a.watch.wait_ms); }},
    {"--stall-reads-ms=", kWatch,
     [](Args& a, V v) { return parse_int(v, a.watch.stall_reads_ms); }},
    // the daemon
    {"--queue-cap=", kServe,
     [](Args& a, V v) {
       return parse_size_flag(v, a.service.queue_cap) && a.service.queue_cap != 0;
     }},
    {"--jobs=", kServe, [](Args& a, V v) { return parse_positive(v, a.service.executors); }},
    {"--quarantine-cap=", kServe,
     [](Args& a, V v) { return parse_positive(v, a.service.quarantine_cap); }},
    {"--heartbeat-timeout-ms=", kServe,
     [](Args& a, V v) { return parse_double_flag(v, a.service.heartbeat_timeout_ms); }},
    {"--backoff-base-ms=", kServe,
     [](Args& a, V v) { return parse_u64_flag(v, a.service.backoff_base_ms); }},
    {"--backoff-cap-ms=", kServe,
     [](Args& a, V v) { return parse_u64_flag(v, a.service.backoff_cap_ms); }},
    {"--work-dir=", kServe, [](Args& a, V v) { return assign(a.service.work_dir, v); }},
    {"--events-out=", kServe, [](Args& a, V v) { return assign(a.service.events_out, v); }},
    {"--spool-dir=", kServe, [](Args& a, V v) { return assign(a.service.spool_dir, v); }},
    {"--die-at=", kServe, [](Args& a, V v) { return assign(a.service.die_at, v); }},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && (std::string(argv[1]) == "--help" || std::string(argv[1]) == "-h")) {
    print_usage(std::cout);
    return 0;
  }
  if (argc >= 2 && std::string(argv[1]) == "--version") {
    std::cout << "hlsavd " << HLSAV_GIT_SHA << " (" << HLSAV_BUILD_TYPE << ")\n";
    return 0;
  }
  if (argc < 2) return usage();
  const unsigned run = find_run(kRunNames, argv[1]);
  if (run == 0) {
    std::cerr << "hlsavd: unknown command '" << argv[1] << "'\n";
    return usage();
  }
  Args args;
  if (!parse_options(std::span(argv + 2, argv + argc), kOptions, kRunNames, args,
                     [run](const Args&) { return run; }) ||
      (run != kWorker && args.service.socket_path.empty()) ||
      (run == kSubmit && args.spec.design_path.empty())) {
    return usage();
  }
  args.spec.feeds = join(args.feeds, ";");
  const std::string& socket_path = args.service.socket_path;

  try {
    switch (run) {
      case kWorker: return run_worker(args);
      case kServe:
        args.service.worker_binary = self_binary(argv[0]);
        return run_serve(args.service);
      case kSubmit:
        args.submit.out_path = args.out_path;
        return serve::submit_job(socket_path, args.spec, args.submit);
      case kWatch:
        if (args.job.value_or(0) == 0) return usage();
        args.watch.out_path = args.out_path;
        return serve::watch_job(socket_path, *args.job, args.watch);
      case kTraceOut: {
        if (!args.job) return usage();
        StatusOr<std::string> trace = serve::fetch_trace(socket_path, *args.job);
        if (!trace.ok()) {
          std::cerr << "hlsavd: " << trace.status().to_string() << "\n";
          return 1;
        }
        std::ofstream file;
        if (!args.out_path.empty()) file.open(args.out_path, std::ios::binary);
        if (!args.out_path.empty() && !file) {
          std::cerr << "hlsavd: cannot open " << args.out_path << "\n";
          return 1;
        }
        (args.out_path.empty() ? std::cout : file) << *trace;
        return 0;
      }
      case kShutdown: {
        Status st = serve::request_shutdown(socket_path);
        if (!st.ok()) {
          std::cerr << "hlsavd: " << st.to_string() << "\n";
          return 1;
        }
        return 0;
      }
      default: {  // status, metrics: one reply line
        StatusOr<std::string> reply = run == kStatus ? serve::query_status(socket_path)
                                                     : serve::query_metrics(socket_path);
        if (!reply.ok()) {
          std::cerr << "hlsavd: " << reply.status().to_string() << "\n";
          return 1;
        }
        std::cout << *reply << "\n";
        return 0;
      }
    }
  } catch (const InternalError& e) {
    std::cerr << "hlsavd: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "hlsavd: internal error: " << e.what() << "\n";
    return 1;
  }
}
