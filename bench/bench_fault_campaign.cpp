// Fault-injection campaign bench: sweeps the enumerated fault space of
// the paper's case studies and measures how much of it the synthesized
// in-circuit assertions detect, under both Unoptimized (per-process
// checkers) and Parallelized/optimized assertion synthesis. The paper
// argues assertions catch what software simulation cannot (§5); this
// harness quantifies the claim per assertion and per fault kind, and
// shows that assertion *placement* -- not just presence -- determines
// coverage (the two synthesis configs check the same conditions, yet
// classify faults differently cycle-by-cycle).
//
// It also reproduces the §5.1 hang-debugging workflow: when a fault
// stalls the stream network, the wait-for-graph detector localizes the
// hang to the blocked process and stream immediately (NABORT keeps any
// assertion reports flowing while the design is stuck).
//
// Usage: bench_fault_campaign [--json <path>] [--quick] [--threads N]
//                             [--progress] [--profile]
#include "bench/common.h"

#include <sstream>

#include "apps/des.h"
#include "apps/edge.h"
#include "apps/loopback.h"
#include "sim/campaign.h"

namespace {

using namespace hlsav;

struct PreparedSim {
  std::string name;
  std::string config;
  ir::Design design;
  sched::DesignSchedule schedule;
  std::map<std::string, std::vector<std::uint64_t>> feeds;
};

struct CampaignRow {
  std::string name;
  std::string config;
  sim::CampaignPlan plan;
  sim::CampaignReport report;
};

PreparedSim prepare(const std::string& name, const std::string& config,
                    const ir::Design& lowered, const assertions::Options& opt,
                    const sched::SchedOptions& sched_opts = {}) {
  PreparedSim p{name, config, lowered.clone(), {}, {}};
  assertions::synthesize(p.design, opt);
  ir::verify(p.design);
  p.schedule = sched::schedule_design(p.design, sched_opts);
  return p;
}

std::vector<PreparedSim> workloads(bool quick) {
  std::vector<PreparedSim> out;

  auto add_both = [&out](const std::string& name, const apps::CompiledApp& app,
                         const sched::SchedOptions& sched_opts,
                         std::map<std::string, std::vector<std::uint64_t>> feeds) {
    assertions::Options unopt = assertions::Options::unoptimized();
    assertions::Options opt = assertions::Options::optimized();
    out.push_back(prepare(name, "unoptimized", app.design, unopt, sched_opts));
    out.back().feeds = feeds;
    out.push_back(prepare(name, "parallelized", app.design, opt, sched_opts));
    out.back().feeds = std::move(feeds);
  };

  {
    const unsigned stages = 4, words = 16;
    auto app = apps::loopback::build(stages, words);
    std::vector<std::uint64_t> data(words);
    for (unsigned i = 0; i < words; ++i) data[i] = i + 1;  // all > 0: golden is clean
    add_both("loopback_n4", *app, {}, {{apps::loopback::input_stream(stages), data}});
  }
  {
    const std::array<std::uint64_t, 3> keys = {0x0123456789ABCDEFull, 0x23456789ABCDEF01ull,
                                               0x456789ABCDEF0123ull};
    auto app = apps::compile_app("triple_des", "des3.c", apps::des::hlsc_decrypt_source(keys));
    std::vector<std::uint64_t> cipher;
    for (std::uint64_t b : apps::des::pack_text("Fault campaign.")) {
      cipher.push_back(apps::des::triple_des_encrypt(b, keys));
    }
    sched::SchedOptions sched_opts;
    sched_opts.chain_depth = 6;
    add_both("tripledes", *app, sched_opts,
             {{"des3.in", apps::des::to_word_stream(cipher)}});
  }
  {
    const unsigned w = quick ? 16 : 32, h = quick ? 12 : 24;
    auto app = apps::compile_app("edge_detect", "edge.c", apps::edge::hlsc_source(w, h));
    apps::img::Image input = apps::img::synthetic_image(w, h, 7);
    sched::SchedOptions sched_opts;
    sched_opts.chain_depth = 16;
    add_both("edge_detect", *app, sched_opts, {{"edge.in", apps::edge::to_word_stream(input)}});
  }
  return out;
}

/// Reruns one site of `row`'s campaign as the campaign ran it and
/// prints the hang report -- the §5.1 debugging workflow: the
/// wait-for-graph names the stuck process and stream instead of leaving
/// the user with a dead board.
void show_hang_localization(const CampaignRow& row, const sim::FaultSpec& fault) {
  const sim::CampaignPlan& plan = row.plan;
  sim::SiteObserver obs;
  (void)sim::run_fault(*plan.program, *plan.externs, *plan.feeds, plan.golden, fault, {},
                       plan.header.max_cycles, nullptr, 0.0, &obs);
  std::cout << "hang localization (" << row.name << "/" << row.config << ", s" << fault.id
            << ": " << fault.describe(plan.program->design()) << "):\n"
            << obs.run.hang_report;
}

void write_campaign_json(const std::string& path, const std::vector<CampaignRow>& rows) {
  bench::BenchJsonDoc doc(path, "fault_campaign", "campaigns");
  for (const CampaignRow& r : rows) {
    std::ostringstream os;
    os << "{\"name\": \"" << r.name << "\", \"config\": \"" << r.config
       << "\", \"threads\": " << r.report.threads << ", \"sites\": " << r.report.sites_total
       << ", \"run\": " << r.report.results.size()
       << ", \"benign\": " << r.report.count(sim::FaultOutcome::kBenign)
       << ", \"detected\": " << r.report.count(sim::FaultOutcome::kDetected)
       << ", \"silent_corruption\": " << r.report.count(sim::FaultOutcome::kSilentCorruption)
       << ", \"hang_detected\": " << r.report.count(sim::FaultOutcome::kHangDetected)
       << ", \"hang_timeout\": " << r.report.count(sim::FaultOutcome::kHangTimeout)
       << ", \"detection_rate\": " << fmt_double(r.report.detection_rate(), 4) << "}";
    doc.item(os.str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_fault_campaign.json";
  bool quick = false;
  bool progress = false;
  bool profile = false;
  unsigned threads = 0;  // 0 = one worker per hardware thread
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--progress") {
      progress = true;  // heartbeat to stderr; stdout stays machine-clean
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<unsigned>(std::stoul(argv[++i]));
    } else {
      std::cerr << "usage: bench_fault_campaign [--json <path>] [--quick] [--threads N]\n"
                   "                            [--progress] [--profile]\n";
      return 2;
    }
  }
  bench::print_provenance_banner("bench_fault_campaign");

  sim::ExternRegistry ext;
  std::vector<PreparedSim> ws = workloads(quick);
  std::vector<CampaignRow> rows;
  for (const PreparedSim& p : ws) {
    sim::CampaignOptions copt;
    copt.threads = threads;
    copt.progress = progress;
    copt.profile = profile;
    if (quick) copt.max_faults = 12;  // seeded sample, site ids stay stable
    StatusOr<sim::CampaignPlan> plan =
        sim::plan_campaign(p.design, p.schedule, ext, p.feeds, copt);
    StatusOr<sim::CampaignReport> report = plan.ok()
                                               ? sim::run_campaign_st(*plan, copt)
                                               : StatusOr<sim::CampaignReport>(plan.status());
    HLSAV_CHECK(report.ok(), "campaign failed: " + report.status().to_string());
    rows.push_back({p.name, p.config, *std::move(plan), *std::move(report)});
  }
  if (!rows.empty()) {
    std::cout << "campaign workers: " << rows.front().report.threads << "\n";
  }

  TextTable t("Fault-injection campaigns (assertion coverage per synthesis config)");
  t.header({"workload", "config", "sites run", "benign", "detected", "silent", "hang-det",
            "hang-t/o", "det rate"});
  for (const CampaignRow& r : rows) {
    t.row({r.name, r.config,
           std::to_string(r.report.results.size()) + "/" + std::to_string(r.report.sites_total),
           std::to_string(r.report.count(sim::FaultOutcome::kBenign)),
           std::to_string(r.report.count(sim::FaultOutcome::kDetected)),
           std::to_string(r.report.count(sim::FaultOutcome::kSilentCorruption)),
           std::to_string(r.report.count(sim::FaultOutcome::kHangDetected)),
           std::to_string(r.report.count(sim::FaultOutcome::kHangTimeout)),
           fmt_double(100.0 * r.report.detection_rate(), 1) + "%"});
  }
  std::cout << t.render();

  // Per-assertion attribution for the paper's two table-driving apps,
  // in both configs: the placement-determines-coverage evidence.
  for (std::size_t i = 0; i < ws.size(); ++i) {
    if (ws[i].name == "loopback_n4") continue;  // summary row is enough
    std::cout << "\n== " << rows[i].name << " / " << rows[i].config << " ==\n"
              << rows[i].report.render(ws[i].design);
  }

  // Hang localization demo: first hang the campaign detected, replayed
  // with the wait-for-graph report (NABORT keeps reports flowing).
  for (std::size_t i = 0; i < ws.size(); ++i) {
    const sim::FaultResult* hang = nullptr;
    for (const sim::FaultResult& f : rows[i].report.results) {
      if (f.outcome == sim::FaultOutcome::kHangDetected) {
        hang = &f;
        break;
      }
    }
    if (hang != nullptr) {
      std::cout << "\n";
      show_hang_localization(rows[i], hang->site);
      break;
    }
  }

  write_campaign_json(json_path, rows);
  std::cout << "wrote " << json_path << "\n";
  return 0;
}
