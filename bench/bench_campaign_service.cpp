// Campaign-service bench: what crash containment costs.
//
// The hlsavd supervisor runs a fault campaign as worker subprocesses
// that pull sites one at a time and report them to the supervisor, the
// job journal's only writer, so a segfaulting or wedged site can be
// contained instead of killing the sweep. Containment is not free:
// workers re-compile and re-load the design, every site is fsync'd, and
// a crash costs a respawn (backoff + re-compile + golden re-run). This
// harness prices all of it against the in-process runner on the same
// design. Both sides run the engine the workers run (compiled where the
// host has a C compiler), so the rows price containment, not engines:
//
//   * in-process        -- run_campaign, one process, no journal
//   * in-process+journal-- the fsync-per-site baseline
//   * service W=1/2/4   -- supervisor + W worker subprocesses
//   * service+crashes   -- same, with sites that SIGKILL their worker
//     (the --crash-at-site hook), measuring contained-recovery cost
//   * daemon watch=0/8  -- a live hlsavd daemon, the same job with no
//     watchers vs 8 concurrent `watch` subscribers, gating the
//     progress-fan-out overhead (ratio must stay under 4x -- generous
//     because VM wall clocks swing 2x on their own)
//
// Every service row is checked byte-identical against the in-process
// report -- the bench doubles as the determinism contract's stopwatch.
//
// Usage: bench_campaign_service [--json <path>] [--quick]
//                               [--hlsavd <path>] [--inner N]
#include "bench/common.h"

#include <sys/stat.h>
#include <unistd.h>

#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>

#include "codegen/engine.h"
#include "pipeline/compile.h"
#include "serve/client.h"
#include "serve/shard.h"
#include "sim/campaign.h"
#include "support/io.h"
#include "support/subprocess.h"

#ifndef HLSAVD_PATH
#define HLSAVD_PATH "hlsavd"
#endif

namespace {

using namespace hlsav;

struct ServiceRow {
  std::string config;
  double wall_ms = 0.0;
  unsigned workers = 0;
  unsigned respawns = 0;
  std::size_t quarantined = 0;
  std::size_t sites = 0;
  bool identical = true;  // byte-identical to the in-process report
};

/// The benched design: an inner compute loop makes each site run
/// hundreds of thousands of cycles, so per-site work dominates the
/// supervisor's bookkeeping the way a real campaign's would.
std::string design_source(unsigned inner) {
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

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::string row_json(const ServiceRow& r) {
  std::ostringstream os;
  os << "{\"config\": \"" << r.config << "\", \"workers\": " << r.workers
     << ", \"wall_ms\": " << fmt_double(r.wall_ms, 2) << ", \"sites\": " << r.sites
     << ", \"respawns\": " << r.respawns << ", \"quarantined\": " << r.quarantined
     << ", \"byte_identical\": " << (r.identical ? "true" : "false") << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_campaign_service.json";
  std::string hlsavd = HLSAVD_PATH;
  bool quick = false;
  unsigned inner = 0;  // 0 = pick from quick
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--hlsavd" && i + 1 < argc) {
      hlsavd = argv[++i];
    } else if (arg == "--inner" && i + 1 < argc) {
      inner = static_cast<unsigned>(std::stoul(argv[++i]));
    } else if (arg == "--quick") {
      quick = true;
    } else {
      std::cerr << "usage: bench_campaign_service [--json <path>] [--quick]\n"
                   "                              [--hlsavd <path>] [--inner N]\n";
      return 2;
    }
  }
  if (inner == 0) inner = quick ? 500 : 5000;
  bench::print_provenance_banner("bench_campaign_service");

  // Scratch area: design source, journals, crash tokens.
  char tmpl[] = "/tmp/hlsav_bench_svc_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  if (dir == nullptr) {
    std::cerr << "cannot create scratch dir\n";
    return 1;
  }
  std::string design_path = std::string(dir) + "/bench_design.c";
  {
    Status st = write_file_atomic(design_path, design_source(inner));
    if (!st.ok()) {
      std::cerr << st.to_string() << "\n";
      return 1;
    }
  }

  serve::CampaignSpec spec;
  spec.design_path = design_path;
  spec.feeds = "f.in=1,2,3,4,5,6,7,8";
  spec.seed = 7;

  using clock = std::chrono::steady_clock;
  std::vector<ServiceRow> rows;

  // ---- in-process reference (no journal, then with journal) ----
  SourceManager sm;
  DiagnosticEngine diags(&sm);
  StatusOr<pipeline::Compiled> compiled =
      pipeline::compile_file(sm, diags, design_path, {});
  if (!compiled.ok()) {
    std::cerr << diags.render() << compiled.status().to_string() << "\n";
    return 1;
  }
  StatusOr<std::map<std::string, std::vector<std::uint64_t>>> feeds =
      serve::parse_feed_spec(spec.feeds);
  if (!feeds.ok()) {
    std::cerr << feeds.status().to_string() << "\n";
    return 1;
  }

  // The engine every hlsavd worker arms, prepared before the clock starts
  // as a worker prepares before its first site.
  sim::SimOptions engine_opts;
  std::unique_ptr<codegen::CompiledDesign> engine;
  for (const std::string& note : codegen::arm_engine(engine_opts, sim::SimEngine::kAuto,
                                                     compiled->design, compiled->schedule,
                                                     engine)) {
    std::cerr << "bench_campaign_service: " << note << "\n";
  }

  sim::ExternRegistry externs;
  std::string reference;
  {
    sim::CampaignOptions copt;
    copt.seed = spec.seed;
    copt.sim = engine_opts;
    auto t0 = clock::now();
    sim::CampaignReport rep =
        sim::run_campaign(compiled->design, compiled->schedule, externs, *feeds, copt);
    auto t1 = clock::now();
    reference = rep.render(compiled->design);
    rows.push_back({"in-process", ms_between(t0, t1), 1, 0, 0, rep.results.size(), true});
  }
  {
    sim::CampaignOptions copt;
    copt.seed = spec.seed;
    copt.sim = engine_opts;
    copt.journal = std::string(dir) + "/inproc.jsonl";
    auto t0 = clock::now();
    sim::CampaignReport rep =
        sim::run_campaign(compiled->design, compiled->schedule, externs, *feeds, copt);
    auto t1 = clock::now();
    rows.push_back({"in-process+journal", ms_between(t0, t1), 1, 0, 0, rep.results.size(),
                    rep.render(compiled->design) == reference});
  }

  // ---- service path (supervisor + workers) at several worker counts ----
  auto run_service = [&](const std::string& config, unsigned workers,
                         std::vector<std::uint32_t> crash_at) {
    std::string job_dir = std::string(dir) + "/" + config;
    ::mkdir(job_dir.c_str(), 0755);
    serve::CampaignSpec s = spec;
    s.crash_at = std::move(crash_at);
    serve::SupervisorOptions sup;
    sup.worker_binary = hlsavd;
    sup.job_dir = job_dir;
    sup.workers = workers;
    sup.backoff_base_ms = 1;
    sup.backoff_cap_ms = 20;
    // A pool of its own: every row spawns its workers, as a first job does.
    serve::WorkerPool pool;
    auto t0 = clock::now();
    StatusOr<serve::SupervisedResult> res = serve::run_sharded_campaign(s, sup, pool);
    auto t1 = clock::now();
    if (!res.ok()) {
      std::cerr << config << ": " << res.status().to_string() << "\n";
      return;
    }
    // With crash sites the report legitimately differs only if a site
    // was quarantined (kept out of these runs); otherwise every config
    // must reproduce the reference byte for byte.
    rows.push_back({config, ms_between(t0, t1), workers, res->respawns,
                    res->quarantined.size(), res->report.results.size(),
                    res->rendered == reference});
  };

  run_service("service-w1", 1, {});
  run_service("service-w2", 2, {});
  run_service("service-w4", 4, {});
  run_service("service-w2-crash2", 2, {2, 5});  // two contained worker kills

  // ---- watcher fan-out overhead against a live daemon ----
  // The same job through a real hlsavd daemon: once with nobody
  // watching, once with 8 concurrent subscribers draining the full
  // frame stream. The delta prices ProgressHub fan-out + the watcher
  // send threads; byte-identity of every watcher's report is checked
  // against the in-process reference.
  double watch0_ms = 0.0, watch8_ms = 0.0;
  auto run_daemon = [&](const std::string& config, unsigned n_watchers, double& wall_out) {
    std::string sock = std::string(dir) + "/" + config + ".sock";
    std::string work = std::string(dir) + "/" + config + ".work";
    std::vector<std::string> argv = {hlsavd, "serve", "--socket=" + sock, "--work-dir=" + work};
    StatusOr<Subprocess> daemon = Subprocess::spawn(argv, /*capture_stdout=*/false);
    if (!daemon.ok()) {
      std::cerr << config << ": " << daemon.status().to_string() << "\n";
      return;
    }
    for (int i = 0; i < 500 && ::access(sock.c_str(), F_OK) != 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    std::vector<std::thread> watchers;
    std::vector<std::string> watch_outs(n_watchers);
    std::vector<int> watch_rcs(n_watchers, -1);
    for (unsigned w = 0; w < n_watchers; ++w) {
      watch_outs[w] = std::string(dir) + "/" + config + ".watch" + std::to_string(w);
      watchers.emplace_back([&, w] {
        serve::WatchOptions wopt;
        wopt.wait_ms = 10'000;
        wopt.quiet = true;
        wopt.out_path = watch_outs[w];
        watch_rcs[w] = serve::watch_job(sock, 1, wopt);
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    serve::CampaignSpec s = spec;
    s.workers = 2;
    std::string out = std::string(dir) + "/" + config + ".report";
    auto t0 = clock::now();
    int rc = serve::submit_job(sock, s, out, /*quiet=*/true);
    auto t1 = clock::now();
    for (std::thread& t : watchers) t.join();
    (void)serve::request_shutdown(sock);
    (void)daemon->wait();
    if (rc != 0) {
      std::cerr << config << ": submit failed with rc " << rc << "\n";
      return;
    }
    wall_out = ms_between(t0, t1);

    bool identical = slurp(out) == reference;
    unsigned ok_watchers = 0;
    for (unsigned w = 0; w < n_watchers; ++w) {
      if (watch_rcs[w] == 0 && slurp(watch_outs[w]) == reference) ++ok_watchers;
    }
    identical = identical && ok_watchers == n_watchers;
    ServiceRow row{config, wall_out, 2, 0, 0, 0, identical};
    // Sites from the reference row: the daemon path reports the same sweep.
    row.sites = rows.front().sites;
    rows.push_back(row);
  };
  run_daemon("daemon-w2-watch0", 0, watch0_ms);
  run_daemon("daemon-w2-watch8", 8, watch8_ms);
  double watcher_overhead = watch0_ms > 0 ? watch8_ms / watch0_ms : 0.0;
  // Generous gate: VM wall clocks alone swing ~2x; fan-out to 8
  // never-blocking buffers should be lost in the noise, so 4x means a
  // real regression (publish blocking on subscriber I/O, say).
  constexpr double kWatcherOverheadGate = 4.0;
  bool watcher_overhead_ok = watch0_ms == 0.0 || watcher_overhead < kWatcherOverheadGate;

  // ---- report ----
  TextTable t("Campaign service: crash-containment cost (" +
              std::to_string(rows.front().sites) + " sites, inner=" + std::to_string(inner) +
              ")");
  t.header({"config", "workers", "wall ms", "respawns", "quarantined", "identical"});
  for (const ServiceRow& r : rows) {
    t.row({r.config, std::to_string(r.workers), fmt_double(r.wall_ms, 1),
           std::to_string(r.respawns), std::to_string(r.quarantined),
           r.identical ? "yes" : "NO"});
  }
  std::cout << t.render();

  std::cout << "watcher overhead (8 subscribers vs 0): " << fmt_double(watcher_overhead, 2)
            << "x (gate " << fmt_double(kWatcherOverheadGate, 1) << "x)\n";

  bool all_identical = true;
  for (const ServiceRow& r : rows) all_identical = all_identical && r.identical;
  if (!all_identical) {
    std::cerr << "BYTE-IDENTITY VIOLATION: a service run diverged from the in-process "
                 "report\n";
  }
  if (!watcher_overhead_ok) {
    std::cerr << "WATCHER OVERHEAD VIOLATION: 8 subscribers cost "
              << fmt_double(watcher_overhead, 2) << "x (gate "
              << fmt_double(kWatcherOverheadGate, 1) << "x)\n";
  }

  {
    bench::BenchJsonDoc doc(json_path, "campaign_service", "configs");
    for (const ServiceRow& r : rows) doc.item(row_json(r));
    doc.field("byte_identical", all_identical ? "true" : "false");
    doc.field("watcher_overhead", fmt_double(watcher_overhead, 3));
    doc.field("watcher_overhead_gate", fmt_double(kWatcherOverheadGate, 1));
  }
  std::cout << "wrote " << json_path << "\n";
  return all_identical && watcher_overhead_ok ? 0 : 1;
}
