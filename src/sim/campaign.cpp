#include "sim/campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <thread>

#include "assertions/coverage.h"
#include "sim/journal.h"
#include "support/table.h"
#include "trace/binary.h"
#include "trace/replay.h"
#include "trace/vcd.h"

namespace hlsav::sim {

const char* fault_outcome_name(FaultOutcome o) {
  switch (o) {
    case FaultOutcome::kBenign: return "benign";
    case FaultOutcome::kDetected: return "detected";
    case FaultOutcome::kSilentCorruption: return "silent-corruption";
    case FaultOutcome::kHangDetected: return "hang-detected";
    case FaultOutcome::kHangTimeout: return "hang-timeout";
    case FaultOutcome::kBudgetExceeded: return "budget-exceeded";
    case FaultOutcome::kWorkerCrashed: return "worker-crashed";
  }
  HLSAV_UNREACHABLE("bad FaultOutcome");
}

std::string format_campaign_heartbeat(std::size_t done, std::size_t total, double elapsed_s,
                                      const std::size_t tally[kNumFaultOutcomes]) {
  double rate = elapsed_s > 0 ? static_cast<double>(done) / elapsed_s : 0.0;
  double eta = rate > 0 ? static_cast<double>(total - done) / rate : 0.0;
  std::ostringstream os;
  os << "campaign: " << done << "/" << total << " sites, " << fmt_double(rate, 1)
     << " sites/s, ETA ";
  if (rate > 0 && std::isfinite(eta)) {
    os << fmt_double(eta, 0) << "s";
  } else {
    os << "--:--";  // no rate yet: an unknown ETA, never inf/garbage
  }
  os << "; benign " << tally[static_cast<std::size_t>(FaultOutcome::kBenign)]
     << ", detected " << tally[static_cast<std::size_t>(FaultOutcome::kDetected)]
     << ", silent " << tally[static_cast<std::size_t>(FaultOutcome::kSilentCorruption)]
     << ", hang "
     << tally[static_cast<std::size_t>(FaultOutcome::kHangDetected)] +
            tally[static_cast<std::size_t>(FaultOutcome::kHangTimeout)]
     << ", budget " << tally[static_cast<std::size_t>(FaultOutcome::kBudgetExceeded)];
  return os.str();
}

namespace {

/// CPU-visible data outputs in stream-id order (the comparison basis
/// for silent-corruption classification).
std::vector<std::pair<std::string, std::vector<std::uint64_t>>> collect_outputs(
    const ir::Design& design, const Simulator& sim) {
  std::vector<std::pair<std::string, std::vector<std::uint64_t>>> out;
  for (ir::StreamId id : design.live_stream_ids()) {
    const ir::Stream& s = design.stream(id);
    if (s.consumer.kind != ir::StreamEndpoint::Kind::kCpu) continue;
    if (s.role != ir::StreamRole::kData) continue;
    out.emplace_back(s.name, sim.received(s.name));
  }
  return out;
}

/// Campaign runs keep only the attribution totals: timelines would cost
/// memory per site and nobody loads a thousand traces.
metrics::ProfileConfig campaign_profile_config() {
  metrics::ProfileConfig pc;
  pc.timeline = false;
  return pc;
}

/// Shared heartbeat state for the serial and parallel sweeps. Emission
/// is mutex-serialized; tallies update under the same lock, so a line
/// never reports a torn classification count.
class Heartbeat {
 public:
  Heartbeat(const CampaignOptions& opt, std::size_t total)
      : opt_(opt), total_(total), start_(std::chrono::steady_clock::now()),
        last_emit_(start_) {}

  void site_done(FaultOutcome o) {
    if (!opt_.progress) return;
    std::lock_guard<std::mutex> lock(mu_);
    ++done_;
    ++tally_[static_cast<std::size_t>(o)];
    auto now = std::chrono::steady_clock::now();
    double since_last = std::chrono::duration<double>(now - last_emit_).count();
    if (opt_.progress_interval_s > 0 && since_last < opt_.progress_interval_s &&
        done_ != total_) {
      return;
    }
    last_emit_ = now;
    emit(now);
  }

 private:
  void emit(std::chrono::steady_clock::time_point now) {
    double elapsed = std::chrono::duration<double>(now - start_).count();
    std::string line = format_campaign_heartbeat(done_, total_, elapsed, tally_);
    if (opt_.progress_sink) {
      opt_.progress_sink(line);
    } else {
      std::fprintf(stderr, "%s\n", line.c_str());
    }
  }

  const CampaignOptions& opt_;
  std::size_t total_;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point last_emit_;
  std::mutex mu_;
  std::size_t done_ = 0;
  std::size_t tally_[kNumFaultOutcomes] = {};
};

}  // namespace

GoldenRef golden_run(const ir::Design& design, const sched::DesignSchedule& schedule,
                     const ExternRegistry& externs,
                     const std::map<std::string, std::vector<std::uint64_t>>& feeds,
                     const SimOptions& base, metrics::ProfileSummary* profile_out) {
  SimOptions opts = base;
  opts.faults = FaultEngine{};
  std::optional<metrics::Profiler> prof;
  if (profile_out != nullptr) {
    prof.emplace(design, schedule, campaign_profile_config());
    opts.profile = &*prof;
  }
  Simulator sim(design, schedule, externs, opts);
  for (const auto& [name, values] : feeds) sim.feed(name, values);
  RunResult r = sim.run();
  if (profile_out != nullptr) *profile_out = prof->summary();
  const char* why = r.status == RunStatus::kHung       ? "hung (are all --feed inputs supplied?)"
                    : r.status == RunStatus::kAborted  ? "aborted on an assertion failure"
                    : r.status == RunStatus::kDeadline ? "exceeded its wall-clock budget"
                                                       : "logged assertion failures";
  HLSAV_CHECK(r.completed() && r.failures.empty(),
              "campaign golden run " + std::string(why) + " on design '" + design.name +
                  "' — the fault-free run must complete cleanly before a sweep can classify sites");
  GoldenRef g;
  g.cycles = r.cycles;
  g.outputs = collect_outputs(design, sim);
  return g;
}

FaultResult run_fault(const ir::Design& design, const sched::DesignSchedule& schedule,
                      const ExternRegistry& externs,
                      const std::map<std::string, std::vector<std::uint64_t>>& feeds,
                      const GoldenRef& golden, const FaultSpec& fault, const SimOptions& base,
                      std::uint64_t max_cycles, metrics::ProfileSummary* profile_out,
                      double site_wall_ms) {
  SimOptions opts = base;
  opts.mode = SimMode::kHardware;  // faults model circuit behaviour
  opts.max_cycles = max_cycles;
  opts.faults = FaultEngine{};
  opts.faults.add(fault);
  // The watchdog budget starts at simulator construction, not campaign
  // start: every site gets its own clock.
  std::optional<Deadline> deadline;
  if (site_wall_ms > 0.0) {
    deadline = Deadline::in_ms(site_wall_ms);
    opts.deadline = &*deadline;
  }
  // Each call owns its Profiler, so parallel workers never share one.
  std::optional<metrics::Profiler> prof;
  if (profile_out != nullptr) {
    prof.emplace(design, schedule, campaign_profile_config());
    opts.profile = &*prof;
  }

  Simulator sim(design, schedule, externs, opts);
  for (const auto& [name, values] : feeds) sim.feed(name, values);
  RunResult r = sim.run();

  FaultResult res;
  res.site = fault;
  res.cycles = r.cycles;
  res.ran_compiled = sim.engine_active();
  res.engine_note = sim.engine_note();
  if (profile_out != nullptr) {
    *profile_out = prof->summary();
    res.profile = *profile_out;
  }
  for (const assertions::Failure& f : r.failures) res.detected_by.push_back(f.assertion_id);
  std::sort(res.detected_by.begin(), res.detected_by.end());
  res.detected_by.erase(std::unique(res.detected_by.begin(), res.detected_by.end()),
                        res.detected_by.end());

  switch (r.status) {
    case RunStatus::kAborted:
      res.outcome = FaultOutcome::kDetected;
      break;
    case RunStatus::kDeadline:
      res.outcome = FaultOutcome::kBudgetExceeded;
      break;
    case RunStatus::kHung:
      res.outcome = r.hang && r.hang->kind == HangKind::kCycleLimit
                        ? FaultOutcome::kHangTimeout
                        : FaultOutcome::kHangDetected;
      break;
    case RunStatus::kCompleted:
      if (!r.failures.empty()) {
        res.outcome = FaultOutcome::kDetected;  // NABORT: reported, kept running
      } else if (collect_outputs(design, sim) == golden.outputs) {
        res.outcome = FaultOutcome::kBenign;
      } else {
        res.outcome = FaultOutcome::kSilentCorruption;
      }
      break;
  }
  return res;
}

StatusOr<CampaignPlan> plan_campaign(
    const ir::Design& design, const sched::DesignSchedule& schedule,
    const ExternRegistry& externs,
    const std::map<std::string, std::vector<std::uint64_t>>& feeds,
    const CampaignOptions& opt) {
  CampaignPlan plan;
  plan.design = &design;
  plan.schedule = &schedule;
  plan.externs = &externs;
  plan.feeds = &feeds;
  GoldenRef& golden = plan.golden;
  try {
    metrics::ProfileSummary golden_profile;
    golden = golden_run(design, schedule, externs, feeds, opt.sim,
                        opt.profile ? &golden_profile : nullptr);
    if (opt.profile) plan.golden_profile = golden_profile;
  } catch (const InternalError& e) {
    return Status::error(StatusCode::kSimError, e.what());
  }
  plan.sites = enumerate_fault_sites(design, schedule);

  std::vector<std::uint32_t> ids(plan.sites.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = plan.sites[i].id;
  if (opt.max_faults != 0 && opt.max_faults < ids.size()) {
    std::mt19937_64 rng(opt.seed);
    std::shuffle(ids.begin(), ids.end(), rng);
    ids.resize(opt.max_faults);
    std::sort(ids.begin(), ids.end());
  }
  plan.selected = std::move(ids);

  plan.header.design = design.name;
  plan.header.seed = opt.seed;
  plan.header.sites_total = plan.sites.size();
  plan.header.max_faults = opt.max_faults;
  plan.header.max_cycles =
      opt.max_cycles != 0 ? opt.max_cycles : std::max<std::uint64_t>(10'000, 16 * golden.cycles);
  plan.header.golden_cycles = golden.cycles;
  plan.header.site_wall_ms = opt.site_wall_ms;
  plan.header.profile = opt.profile;
  return plan;
}

FaultResult run_site(const CampaignPlan& plan, const FaultSpec& site, const CampaignOptions& opt,
                     metrics::ProfileSummary* profile_out) {
  // A retry never changes what a site *is*: a deterministic failure
  // fails again. It gives a flaky host a second chance.
  for (unsigned attempt = 0;; ++attempt) {
    try {
      return run_fault(*plan.design, *plan.schedule, *plan.externs, *plan.feeds, plan.golden,
                       site, opt.sim, plan.header.max_cycles, profile_out, opt.site_wall_ms);
    } catch (...) {
      if (attempt >= opt.site_retries) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(1u << attempt));
    }
  }
}

StatusOr<CampaignReport> run_campaign_st(
    const ir::Design& design, const sched::DesignSchedule& schedule,
    const ExternRegistry& externs,
    const std::map<std::string, std::vector<std::uint64_t>>& feeds,
    const CampaignOptions& opt) {
  StatusOr<CampaignPlan> planned = plan_campaign(design, schedule, externs, feeds, opt);
  HLSAV_RETURN_IF_ERROR(planned.status());
  const CampaignPlan& plan = *planned;

  CampaignReport report;
  report.seed = opt.seed;
  report.sites_total = plan.sites.size();
  report.golden_cycles = plan.golden.cycles;
  report.golden_profile = plan.golden_profile;

  std::vector<std::uint32_t> order = plan.selected;
  if (!opt.only_sites.empty()) {
    std::vector<std::uint32_t> wanted = opt.only_sites;
    std::sort(wanted.begin(), wanted.end());
    std::vector<std::uint32_t> filtered;
    for (std::uint32_t id : order) {
      if (std::binary_search(wanted.begin(), wanted.end(), id)) filtered.push_back(id);
    }
    if (filtered.size() != wanted.size()) {
      return Status::invalid_argument(
          "only_sites names " + std::to_string(wanted.size()) + " site(s) but only " +
          std::to_string(filtered.size()) + " are in this campaign's sampled selection");
    }
    order = std::move(filtered);
  }

  unsigned threads = opt.threads != 0 ? opt.threads
                                      : std::max(1u, std::thread::hardware_concurrency());
  threads = static_cast<unsigned>(std::min<std::size_t>(threads, std::max<std::size_t>(
                                                                     order.size(), 1)));
  report.threads = threads;

  // ---- crash-recovery journal (sim/journal.h). With --resume, sites
  // ---- the journal already classified are restored into their
  // ---- site-order slots and never re-run; the report still renders
  // ---- byte-identically to an uninterrupted campaign because slots,
  // ---- not completion order, define the output.
  std::unique_ptr<CampaignJournal> journal;
  report.results.assign(order.size(), FaultResult{});
  std::vector<char> done(order.size(), 0);  // restored or freshly classified
  if (!opt.journal.empty()) {
    StatusOr<OpenedJournal> opened = open_journal(plan, opt.journal, opt.resume);
    HLSAV_RETURN_IF_ERROR(opened.status());
    for (std::size_t i = 0; i < order.size(); ++i) {
      auto it = opened->restored.find(order[i]);
      if (it == opened->restored.end()) continue;
      report.results[i] = std::move(it->second);
      done[i] = 1;
    }
    journal = std::move(opened->journal);
  }
  std::vector<char> restored = done;

  Heartbeat heartbeat(opt, order.size());
  metrics::ProfileSummary site_profile;
  metrics::ProfileSummary* site_profile_ptr = opt.profile ? &site_profile : nullptr;

  auto cancelled = [&] {
    return opt.cancel != nullptr && opt.cancel->load(std::memory_order_relaxed);
  };
  // Journal durability gates everything downstream of a site run: the
  // sink and heartbeat only see a site once its record can no longer be
  // lost, and a failed write/fsync stops the sweep with the path named.
  auto record = [&](std::size_t i) -> Status {
    if (journal != nullptr) {
      Status st = journal->append(report.results[i]);
      if (!st.ok()) {
        return Status::error(st.code(),
                             "campaign journal append failed: " + st.message());
      }
    }
    done[i] = 1;
    if (opt.site_sink) opt.site_sink(report.results[i]);
    heartbeat.site_done(report.results[i].outcome);
    return Status::ok_status();
  };
  // An interrupted sweep keeps exactly the classified sites, still in
  // site order -- the shape a --resume continuation rebuilds from.
  auto finish = [&]() -> CampaignReport {
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (done[i] == 0 || restored[i] != 0) continue;
      const FaultResult& r = report.results[i];
      ++report.sites_run;
      if (r.ran_compiled) ++report.sites_compiled;
      if (report.engine_note.empty()) report.engine_note = r.engine_note;
    }
    if (report.interrupted) {
      std::vector<FaultResult> kept;
      for (std::size_t i = 0; i < order.size(); ++i) {
        if (done[i] != 0) kept.push_back(std::move(report.results[i]));
      }
      report.results = std::move(kept);
    }
    return std::move(report);
  };

  if (threads <= 1) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (cancelled()) {
        report.interrupted = true;
        break;
      }
      if (restored[i] != 0) {
        heartbeat.site_done(report.results[i].outcome);
        continue;
      }
      if (opt.site_start_hook) opt.site_start_hook(order[i]);
      try {
        report.results[i] = run_site(plan, plan.sites[order[i]], opt, site_profile_ptr);
      } catch (const InternalError& e) {
        return Status::internal(e.what());
      } catch (const std::exception& e) {
        return Status::internal(std::string("site run failed: ") + e.what());
      }
      HLSAV_RETURN_IF_ERROR(record(i));
    }
    return finish();
  }

  // Parallel sweep: every worker owns its Simulators (one fresh instance
  // per fault run); the shared design/schedule/externs/feeds/golden are
  // read-only. Results land in preallocated site-order slots, so the
  // report is byte-identical to the serial loop's. Journal appends
  // happen in completion order -- the loader keys by site id, so order
  // on disk is irrelevant.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  Status first_status;
  std::mutex error_mu;
  auto fail_with = [&](Status st) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (first_status.ok()) first_status = std::move(st);
    failed.store(true, std::memory_order_relaxed);
  };
  auto worker = [&] {
    // Worker-local summary slot; run_fault also copies it into the
    // FaultResult, which is all the report keeps.
    metrics::ProfileSummary local_profile;
    while (!failed.load(std::memory_order_relaxed) && !cancelled()) {
      std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= order.size()) return;
      if (restored[i] != 0) {
        heartbeat.site_done(report.results[i].outcome);
        continue;
      }
      if (opt.site_start_hook) opt.site_start_hook(order[i]);
      try {
        report.results[i] =
            run_site(plan, plan.sites[order[i]], opt, opt.profile ? &local_profile : nullptr);
      } catch (const InternalError& e) {
        fail_with(Status::internal(e.what()));
        return;
      } catch (const std::exception& e) {
        fail_with(Status::internal(std::string("site run failed: ") + e.what()));
        return;
      }
      Status st = record(i);
      if (!st.ok()) {
        fail_with(std::move(st));
        return;
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (!first_status.ok()) return first_status;
  if (cancelled() && next.load(std::memory_order_relaxed) < order.size() + threads) {
    // At least one slot was never dispatched (or was abandoned): the
    // sweep is incomplete. A cancel that lands after the last site
    // finished is indistinguishable from a clean run and stays one.
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (done[i] == 0) {
        report.interrupted = true;
        break;
      }
    }
  }
  return finish();
}

CampaignReport run_campaign(const ir::Design& design, const sched::DesignSchedule& schedule,
                            const ExternRegistry& externs,
                            const std::map<std::string, std::vector<std::uint64_t>>& feeds,
                            const CampaignOptions& opt) {
  StatusOr<CampaignReport> r = run_campaign_st(design, schedule, externs, feeds, opt);
  HLSAV_CHECK(r.ok(), "campaign failed: " + r.status().to_string());
  return *std::move(r);
}

std::size_t CampaignReport::count(FaultOutcome o) const {
  std::size_t n = 0;
  for (const FaultResult& r : results) {
    if (r.outcome == o) ++n;
  }
  return n;
}

double CampaignReport::detection_rate() const {
  std::size_t effectual = results.size() - count(FaultOutcome::kBenign);
  if (effectual == 0) return 0.0;
  return static_cast<double>(count(FaultOutcome::kDetected)) /
         static_cast<double>(effectual);
}

std::string CampaignReport::render(const ir::Design& design) const {
  std::ostringstream os;

  TextTable t("Fault-injection campaign: " + design.name + " (" + std::to_string(results.size()) +
              "/" + std::to_string(sites_total) + " sites, seed " + std::to_string(seed) + ")");
  t.header({"site", "fault", "outcome", "detected by", "cycles"});
  for (const FaultResult& r : results) {
    std::string by;
    for (std::uint32_t id : r.detected_by) {
      if (!by.empty()) by += ' ';
      by += '#';
      by += std::to_string(id);
    }
    std::string site = "s";
    site += std::to_string(r.site.id);
    t.row({site, r.site.describe(design), fault_outcome_name(r.outcome), by,
           std::to_string(r.cycles)});
  }
  os << t.render();

  os << "summary: benign " << count(FaultOutcome::kBenign) << ", detected "
     << count(FaultOutcome::kDetected) << ", silent-corruption "
     << count(FaultOutcome::kSilentCorruption) << ", hang-detected "
     << count(FaultOutcome::kHangDetected) << ", hang-timeout "
     << count(FaultOutcome::kHangTimeout) << ", budget-exceeded "
     << count(FaultOutcome::kBudgetExceeded) << " (golden run: " << golden_cycles
     << " cycles)\n";
  os << "assertion detection rate over effectual faults: "
     << fmt_double(100.0 * detection_rate(), 1) << "%\n";

  assertions::CoverageTable coverage(design);
  for (const FaultResult& r : results) {
    if (r.outcome == FaultOutcome::kBenign) continue;
    coverage.record_fault(fault_kind_name(r.site.kind),
                          r.outcome == FaultOutcome::kDetected);
    for (std::uint32_t id : r.detected_by) {
      coverage.record_detection(id, fault_kind_name(r.site.kind));
    }
  }
  os << coverage.render();

  // Where did the faulted cycles go? Benign sites track the golden run
  // by construction, so only the interesting sites get a delta line.
  if (golden_profile.has_value()) {
    bool any = false;
    for (const FaultResult& r : results) {
      if (r.outcome == FaultOutcome::kBenign || !r.profile.has_value()) continue;
      if (!any) {
        os << "profile deltas vs golden (non-benign sites):\n";
        any = true;
      }
      os << "  s" << r.site.id << " (" << fault_outcome_name(r.outcome)
         << "): " << metrics::render_profile_delta(*golden_profile, *r.profile) << "\n";
    }
  }
  return os.str();
}

std::vector<TraceArtifact> trace_nonbenign_sites(const CampaignPlan& plan,
                                                 const CampaignReport& report,
                                                 const CampaignOptions& opt,
                                                 const TraceRerunOptions& trace_opt) {
  const ir::Design& design = *plan.design;
  std::vector<TraceArtifact> out;
  std::filesystem::create_directories(trace_opt.dir);

  for (const FaultResult& r : report.results) {
    if (r.outcome == FaultOutcome::kBenign) continue;
    if (trace_opt.max_sites != 0 && out.size() >= trace_opt.max_sites) break;

    // Same deterministic run as the sweep, this time with capture armed
    // (the engine only observes; outcomes cannot shift).
    trace::TraceEngine engine(design, trace_opt.config);
    SimOptions opts = opt.sim;
    opts.mode = SimMode::kHardware;
    opts.max_cycles = plan.header.max_cycles;
    opts.faults = FaultEngine{};
    opts.faults.add(r.site);
    opts.ela = &engine;
    Simulator sim(design, *plan.schedule, *plan.externs, opts);
    for (const auto& [name, values] : *plan.feeds) sim.feed(name, values);
    RunResult rr = sim.run();
    std::vector<trace::TraceRecord> window = engine.window();

    TraceArtifact art;
    art.site = r.site;
    art.outcome = r.outcome;
    std::string base = (std::filesystem::path(trace_opt.dir) /
                        (trace_opt.stem + "_s" + std::to_string(r.site.id)))
                           .string();
    art.vcd_path = base + ".vcd";
    trace::VcdWriter writer(design, trace_opt.config.filter);
    writer.write_file(art.vcd_path, window);
    if (trace_opt.write_binary) {
      art.bin_path = base + ".bin";
      trace::write_binary_trace_file(art.bin_path, window);
    }

    std::ostringstream os;
    os << "site s" << r.site.id << " (" << r.site.describe(design)
       << "): " << fault_outcome_name(r.outcome) << "\n";
    trace::ReplayOptions ro;
    ro.last_cycles = trace_opt.last_cycles;
    ro.sm = trace_opt.sm;
    os << trace::render_replay(design, window, ro);
    if (r.outcome == FaultOutcome::kSilentCorruption) {
      auto outputs = collect_outputs(design, sim);
      const auto& golden = plan.golden.outputs;
      for (std::size_t i = 0; i < outputs.size() && i < golden.size(); ++i) {
        if (outputs[i] != golden[i]) {
          os << "first divergent output stream: '" << outputs[i].first << "' ("
             << outputs[i].second.size() << " words vs golden "
             << golden[i].second.size() << ")\n";
          break;
        }
      }
    }
    if (rr.status == RunStatus::kHung) os << rr.hang_report;
    art.replay = os.str();
    out.push_back(std::move(art));
  }
  return out;
}

}  // namespace hlsav::sim
