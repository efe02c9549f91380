// hlsavd -- the crash-contained fault-campaign service.
//
//   hlsavd serve    --socket=PATH [options]   run the daemon
//   hlsavd submit   --socket=PATH --design=FILE [options]
//                                             submit a campaign, stream
//                                             progress, print the report
//   hlsavd watch    --socket=PATH --job=N     attach to a job: snapshot,
//                                             then its live frame stream
//   hlsavd status   --socket=PATH             daemon status (aggregate +
//                                             queue depths + worker tallies)
//   hlsavd metrics  --socket=PATH             one-shot JSON metrics snapshot
//   hlsavd trace-out --socket=PATH --job=N    Chrome trace JSON of the
//                                             job's span tree (0 = all jobs)
//   hlsavd shutdown --socket=PATH             graceful daemon shutdown
//   hlsavd worker   ...                       internal: runs the sites of
//                                             one campaign that the
//                                             supervisor hands it (not
//                                             for use by hand)
//
// serve options:
//   --queue-cap=N            bounded job queue; a full queue rejects with
//                            a typed error (default 4)
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
//   --priority=N --out=FILE --quiet
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
//   --deadline-ms=T          give up if the job is still queued T ms
//                            after accept; the daemon marks it
//                            deadline-expired (exit 8), never runs it
//
// Exit codes: 0 ok, 1 error, 2 bad usage,
//             6 job drained (daemon shut down mid-job; its journal is
//               flushed and resumable),
//             7 rejected (back-pressure or validation) -- typed, resubmit
//               later,
//             8 deadline-expired (--deadline-ms passed while queued).
// Worker contract (internal; serve/shard.h is the other side): `hlsavd
// worker --design=F --max-cycles=N --golden-cycles=N ...` compiles F and
// arms the compiled engine (sim::SimEngine::kAuto; the supervisor has
// already built F into the JIT cache, so this loads it; work the engine
// cannot take interprets). It refuses with exit 22 if its golden run
// disagrees with --golden-cycles -- the supervisor's golden run
// interprets, so this compares the two engines' cycle counts on every
// job, and the supervisor fails the job -- then runs one site per stdin
// line and prints the protocol.h lines for it, each result naming the
// engine that ran the site and, if it interpreted, why. Its argv fixes
// its plan, so one worker may serve many jobs: between jobs the
// supervisor parks it with its stdin open and sends the next job with
// the same argv and design bytes its site ids (serve/shard.h). A crash
// in generated code is a worker crash like any other. It writes no
// files outside the JIT cache. Exit 0 at stdin EOF, 1 error, 2 bad
// usage, 21 drained on SIGTERM after reporting its in-flight site, 22
// golden mismatch.
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "codegen/engine.h"
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

std::atomic<bool> g_cancel{false};

void handle_signal(int) { g_cancel.store(true, std::memory_order_relaxed); }

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
  os << "usage: hlsavd serve    --socket=PATH [--queue-cap=N --jobs=N --workers=N\n"
        "                        --quarantine-cap=N --heartbeat-timeout-ms=N --work-dir=DIR\n"
        "                        --events-out=FILE --spool-dir=DIR --die-at=PHASE]\n"
        "       hlsavd submit   --socket=PATH --design=FILE [--feed stream=v1,v2,...\n"
        "                        --assertions=MODE --seed=N --max-faults=N --max-cycles=N\n"
        "                        --site-wall-ms=N --workers=N --priority=N --out=FILE --quiet\n"
        "                        --key=K --retry[=N] --retry-base-ms=T --deadline-ms=T\n"
        "                        --crash-at-site=N --crash-limit=K --stall-at-site=N]\n"
        "       hlsavd watch    --socket=PATH --job=N [--wait-ms=T --stall-reads-ms=T\n"
        "                        --out=FILE --quiet]\n"
        "       hlsavd status   --socket=PATH\n"
        "       hlsavd metrics  --socket=PATH\n"
        "       hlsavd trace-out --socket=PATH --job=N [--out=FILE]   (job 0 = all jobs)\n"
        "       hlsavd shutdown --socket=PATH\n"
        "       hlsavd --version\n"
        "exit codes: 0 ok, 1 error, 2 bad usage, 6 job drained by daemon\n"
        "            shutdown (journals resumable), 7 rejected (typed\n"
        "            back-pressure; resubmit later), 8 deadline-expired\n"
        "            (--deadline-ms passed while the job was queued)\n";
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

struct WorkerArgs {
  std::string design;
  std::uint64_t max_cycles = 0;
  std::uint64_t golden_cycles = 0;
  double site_wall_ms = 0.0;
  std::string assertions = "optimized";
  std::string feed_spec;
  std::string fault_token_dir;
  std::uint32_t crash_limit = 1;
  std::set<std::uint32_t> crash_at;
  std::set<std::uint32_t> stall_at;
};

/// The test-only fault schedule (--crash-at-site, --stall-at-site),
/// applied just before `site` runs.
void inject_test_faults(const WorkerArgs& args, std::uint32_t site) {
  if (args.fault_token_dir.empty()) return;
  if (args.crash_at.count(site) != 0) {
    std::string token = args.fault_token_dir + "/crash_" + std::to_string(site) + ".token";
    std::uint32_t count = read_token_count(token);
    if (count < args.crash_limit) {
      write_token_count(token, count + 1);
      // True kill -9 semantics: no atexit, no stack unwind, and the
      // site's result never reaches the supervisor.
      (void)::raise(SIGKILL);
    }
  }
  if (args.stall_at.count(site) != 0) {
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

int run_worker(const WorkerArgs& args) {
  if (args.design.empty()) return usage();

  // SIGTERM = drain: finish and report the in-flight site, then exit 21
  // so the supervisor knows this was a drain, not a crash. No
  // SA_RESTART, so a worker waiting for its next id wakes up as well.
  struct sigaction sa{};
  sa.sa_handler = handle_signal;
  sigemptyset(&sa.sa_mask);
  (void)::sigaction(SIGTERM, &sa, nullptr);
  (void)::sigaction(SIGINT, &sa, nullptr);

  std::optional<assertions::Options> mode = assertions::Options::by_name(args.assertions);
  if (!mode.has_value()) {
    std::cerr << "hlsavd worker: unknown assertions mode '" << args.assertions << "'\n";
    return 2;
  }
  SourceManager sm;
  DiagnosticEngine diags(&sm);
  pipeline::CompileOptions copts;
  copts.assert_opts = *mode;
  StatusOr<pipeline::Compiled> compiled = pipeline::compile_file(sm, diags, args.design, copts);
  if (!compiled.ok()) {
    std::cerr << diags.render();
    std::cerr << "hlsavd worker: " << compiled.status().to_string() << "\n";
    return 1;
  }

  StatusOr<std::map<std::string, std::vector<std::uint64_t>>> feeds =
      serve::parse_feed_spec(args.feed_spec);
  if (!feeds.ok()) {
    std::cerr << "hlsavd worker: " << feeds.status().to_string() << "\n";
    return 1;
  }

  sim::CampaignOptions copt;
  copt.max_cycles = args.max_cycles;
  copt.site_wall_ms = args.site_wall_ms;
  // The golden run and every site run compiled where the engine can;
  // the rest interprets, and the reports are the same either way.
  std::unique_ptr<codegen::CompiledDesign> engine;
  std::vector<std::string> notes = codegen::arm_engine(copt.sim, sim::SimEngine::kAuto,
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
  std::string command = argv[1];

  std::string socket_path;
  serve::ServiceOptions sopt;
  serve::CampaignSpec spec;
  WorkerArgs wargs;
  std::string out_path;
  bool quiet = false;
  serve::SubmitOptions subopt;
  std::vector<std::string> feed_parts;
  std::uint64_t watch_job_id = 0;
  bool have_job_id = false;
  serve::WatchOptions wopt;

  auto bad_value = [](const std::string& flag) {
    std::cerr << "hlsavd: bad value for " << flag << "\n";
    return false;
  };
  auto parse = [&](int i, char** argv_) -> bool {
    std::string a = argv_[i];
    auto val = [&](const char* prefix) { return a.substr(std::strlen(prefix)); };
    if (a.rfind("--socket=", 0) == 0) {
      socket_path = val("--socket=");
    } else if (a.rfind("--queue-cap=", 0) == 0) {
      std::uint64_t v = 0;
      if (!parse_u64_flag(val("--queue-cap="), v) || v == 0) return bad_value(a);
      sopt.queue_cap = static_cast<std::size_t>(v);
    } else if (a.rfind("--jobs=", 0) == 0) {
      if (!parse_unsigned_flag(val("--jobs="), sopt.executors) || sopt.executors == 0) {
        return bad_value(a);
      }
    } else if (a.rfind("--workers=", 0) == 0) {
      unsigned v = 0;
      if (!parse_unsigned_flag(val("--workers="), v)) return bad_value(a);
      sopt.default_workers = std::max(1u, v);
      spec.workers = v;
    } else if (a.rfind("--quarantine-cap=", 0) == 0) {
      if (!parse_unsigned_flag(val("--quarantine-cap="), sopt.quarantine_cap) ||
          sopt.quarantine_cap == 0) {
        return bad_value(a);
      }
    } else if (a.rfind("--heartbeat-timeout-ms=", 0) == 0) {
      if (!parse_double_flag(val("--heartbeat-timeout-ms="), sopt.heartbeat_timeout_ms)) {
        return bad_value(a);
      }
    } else if (a.rfind("--backoff-base-ms=", 0) == 0) {
      if (!parse_u64_flag(val("--backoff-base-ms="), sopt.backoff_base_ms)) return bad_value(a);
    } else if (a.rfind("--backoff-cap-ms=", 0) == 0) {
      if (!parse_u64_flag(val("--backoff-cap-ms="), sopt.backoff_cap_ms)) return bad_value(a);
    } else if (a.rfind("--work-dir=", 0) == 0) {
      sopt.work_dir = val("--work-dir=");
    } else if (a.rfind("--design=", 0) == 0) {
      spec.design_path = val("--design=");
      wargs.design = spec.design_path;
    } else if (a.rfind("--seed=", 0) == 0) {
      if (!parse_u64_flag(val("--seed="), spec.seed)) return bad_value(a);
    } else if (a.rfind("--max-faults=", 0) == 0) {
      if (!parse_u64_flag(val("--max-faults="), spec.max_faults)) return bad_value(a);
    } else if (a.rfind("--max-cycles=", 0) == 0) {
      if (!parse_u64_flag(val("--max-cycles="), spec.max_cycles)) return bad_value(a);
      wargs.max_cycles = spec.max_cycles;
    } else if (a.rfind("--golden-cycles=", 0) == 0) {
      if (!parse_u64_flag(val("--golden-cycles="), wargs.golden_cycles)) return bad_value(a);
    } else if (a.rfind("--site-wall-ms=", 0) == 0) {
      if (!parse_double_flag(val("--site-wall-ms="), spec.site_wall_ms)) return bad_value(a);
      wargs.site_wall_ms = spec.site_wall_ms;
    } else if (a.rfind("--assertions=", 0) == 0) {
      spec.assertions = val("--assertions=");
      wargs.assertions = spec.assertions;
    } else if (a.rfind("--feed=", 0) == 0) {
      feed_parts.push_back(val("--feed="));
    } else if (a.rfind("--priority=", 0) == 0) {
      std::string v = val("--priority=");
      errno = 0;
      char* end = nullptr;
      long prio = std::strtol(v.c_str(), &end, 10);
      if (end != v.c_str() + v.size() || v.empty() || errno != 0) return bad_value(a);
      spec.priority = static_cast<int>(prio);
    } else if (a.rfind("--crash-at-site=", 0) == 0) {
      std::uint32_t id = 0;
      if (!parse_u32_flag(val("--crash-at-site="), id)) return bad_value(a);
      spec.crash_at.push_back(id);
      wargs.crash_at.insert(id);
    } else if (a.rfind("--crash-limit=", 0) == 0) {
      if (!parse_u32_flag(val("--crash-limit="), spec.crash_limit)) return bad_value(a);
      wargs.crash_limit = spec.crash_limit;
    } else if (a.rfind("--stall-at-site=", 0) == 0) {
      std::uint32_t id = 0;
      if (!parse_u32_flag(val("--stall-at-site="), id)) return bad_value(a);
      spec.stall_at.push_back(id);
      wargs.stall_at.insert(id);
    } else if (a.rfind("--fault-token-dir=", 0) == 0) {
      wargs.fault_token_dir = val("--fault-token-dir=");
    } else if (a.rfind("--events-out=", 0) == 0) {
      sopt.events_out = val("--events-out=");
    } else if (a.rfind("--spool-dir=", 0) == 0) {
      sopt.spool_dir = val("--spool-dir=");
    } else if (a.rfind("--die-at=", 0) == 0) {
      sopt.die_at = val("--die-at=");
    } else if (a.rfind("--key=", 0) == 0) {
      spec.key = val("--key=");
    } else if (a.rfind("--deadline-ms=", 0) == 0) {
      if (!parse_u64_flag(val("--deadline-ms="), spec.deadline_ms)) return bad_value(a);
    } else if (a == "--retry") {
      subopt.retries = 5;
    } else if (a.rfind("--retry=", 0) == 0) {
      std::uint64_t v = 0;
      if (!parse_u64_flag(val("--retry="), v) || v > 1000) return bad_value(a);
      subopt.retries = static_cast<int>(v);
    } else if (a.rfind("--retry-base-ms=", 0) == 0) {
      if (!parse_u64_flag(val("--retry-base-ms="), subopt.retry_base_ms) ||
          subopt.retry_base_ms == 0) {
        return bad_value(a);
      }
    } else if (a.rfind("--job=", 0) == 0) {
      if (!parse_u64_flag(val("--job="), watch_job_id)) return bad_value(a);
      have_job_id = true;
    } else if (a.rfind("--wait-ms=", 0) == 0) {
      unsigned v = 0;
      if (!parse_unsigned_flag(val("--wait-ms="), v)) return bad_value(a);
      wopt.wait_ms = static_cast<int>(v);
    } else if (a.rfind("--stall-reads-ms=", 0) == 0) {
      unsigned v = 0;
      if (!parse_unsigned_flag(val("--stall-reads-ms="), v)) return bad_value(a);
      wopt.stall_reads_ms = static_cast<int>(v);
    } else if (a.rfind("--out=", 0) == 0) {
      out_path = val("--out=");
    } else if (a == "--quiet") {
      quiet = true;
    } else {
      std::cerr << "hlsavd: unknown option " << a << "\n";
      return false;
    }
    return true;
  };
  for (int i = 2; i < argc; ++i) {
    // --feed with a separate value argument, hlsavc-style.
    if (std::string(argv[i]) == "--feed" && i + 1 < argc) {
      feed_parts.push_back(argv[++i]);
      continue;
    }
    if (!parse(i, argv)) return usage();
  }
  spec.feeds = join(feed_parts, ";");
  wargs.feed_spec = spec.feeds;

  try {
    if (command == "worker") return run_worker(wargs);
    if (command == "serve") {
      if (socket_path.empty()) return usage();
      sopt.socket_path = socket_path;
      sopt.worker_binary = self_binary(argv[0]);
      return run_serve(sopt);
    }
    if (command == "submit") {
      if (socket_path.empty() || spec.design_path.empty()) return usage();
      subopt.out_path = out_path;
      subopt.quiet = quiet;
      return serve::submit_job(socket_path, spec, subopt);
    }
    if (command == "watch") {
      if (socket_path.empty() || !have_job_id || watch_job_id == 0) return usage();
      wopt.out_path = out_path;
      wopt.quiet = quiet;
      return serve::watch_job(socket_path, watch_job_id, wopt);
    }
    if (command == "metrics") {
      if (socket_path.empty()) return usage();
      StatusOr<std::string> snap = serve::query_metrics(socket_path);
      if (!snap.ok()) {
        std::cerr << "hlsavd: " << snap.status().to_string() << "\n";
        return 1;
      }
      std::cout << *snap << "\n";
      return 0;
    }
    if (command == "trace-out") {
      if (socket_path.empty() || !have_job_id) return usage();
      StatusOr<std::string> trace = serve::fetch_trace(socket_path, watch_job_id);
      if (!trace.ok()) {
        std::cerr << "hlsavd: " << trace.status().to_string() << "\n";
        return 1;
      }
      if (out_path.empty()) {
        std::cout << *trace;
      } else {
        std::ofstream out(out_path, std::ios::binary);
        if (!out) {
          std::cerr << "hlsavd: cannot open " << out_path << "\n";
          return 1;
        }
        out << *trace;
      }
      return 0;
    }
    if (command == "status") {
      if (socket_path.empty()) return usage();
      StatusOr<std::string> status = serve::query_status(socket_path);
      if (!status.ok()) {
        std::cerr << "hlsavd: " << status.status().to_string() << "\n";
        return 1;
      }
      std::cout << *status << "\n";
      return 0;
    }
    if (command == "shutdown") {
      if (socket_path.empty()) return usage();
      Status st = serve::request_shutdown(socket_path);
      if (!st.ok()) {
        std::cerr << "hlsavd: " << st.to_string() << "\n";
        return 1;
      }
      return 0;
    }
  } catch (const InternalError& e) {
    std::cerr << "hlsavd: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "hlsavd: internal error: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "hlsavd: unknown command '" << command << "'\n";
  return usage();
}
