// Fault-injection campaign runner.
//
// Sweeps the enumerated fault-site list of a design (sim/fault.h), runs
// each single-fault variant against the golden un-faulted run, and
// classifies the outcome:
//
//   benign            -- same outputs, no assertion fired (the fault was
//                        masked: e.g. a flipped bit the application never
//                        reads back).
//   detected          -- an assertion failure reached the notification
//                        function (attributed to the AssertionRecord).
//   silent-corruption -- the run completed with different CPU-visible
//                        outputs and no assertion noticed: the paper's
//                        argument for *more* in-circuit assertions.
//   hang-detected     -- the hang was proven the moment progress
//                        stopped: a deadlock or starvation (the
//                        wait-for graph), or a livelock (a process
//                        entered a block it can never leave and where
//                        it can do nothing observable; sim::mark_traps).
//   hang-timeout      -- only the max_cycles backstop fired.
//   budget-exceeded   -- the per-site wall-clock watchdog
//                        (CampaignOptions::site_wall_ms) stopped the run.
//
// Determinism: the site list depends only on the design; the seed only
// chooses which sites a sampled campaign runs. Same seed + same design
// => byte-identical report.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ir/ir.h"
#include "metrics/profile.h"
#include "sched/schedule.h"
#include "sim/fault.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace hlsav::sim {

enum class FaultOutcome : std::uint8_t {
  kBenign,
  kDetected,
  kSilentCorruption,
  kHangDetected,
  kHangTimeout,
  kBudgetExceeded,  // per-site wall-clock watchdog fired (site_wall_ms)
  /// The site killed its worker subprocess repeatedly (segfault,
  /// OOM-kill, watchdog SIGKILL) and was quarantined by the campaign
  /// supervisor after the retry cap. Only the service path
  /// (serve/shard.h) produces this; in-process sweeps never do.
  kWorkerCrashed,
};

/// Number of FaultOutcome values (tally arrays, serialization).
inline constexpr std::size_t kNumFaultOutcomes = 7;

[[nodiscard]] const char* fault_outcome_name(FaultOutcome o);

/// Renders one progress-heartbeat line ("campaign: D/T sites, R sites/s,
/// ETA Es; benign ..., detected ..."). The rate/ETA clause is always
/// present; when the rate is still zero (first tick, elapsed ~0) or the
/// ETA would be non-finite, the ETA renders as "--:--" instead of inf.
/// `tally` is indexed by FaultOutcome (kNumFaultOutcomes entries).
[[nodiscard]] std::string format_campaign_heartbeat(std::size_t done, std::size_t total,
                                                    double elapsed_s,
                                                    const std::size_t tally[kNumFaultOutcomes]);

struct FaultResult {
  FaultSpec site;
  FaultOutcome outcome = FaultOutcome::kBenign;
  std::vector<std::uint32_t> detected_by;  // assertion ids, sorted, deduped
  /// RunResult::cycles of the faulted run: the cycle at which it stopped
  /// (the report's `cycles` column; `hlsavc faultsim --site=N` prints the
  /// same number). For a detected site that is where the failing process
  /// stopped, which can differ by a cycle from the notification cycle on
  /// the failure's own line.
  std::uint64_t cycles = 0;
  /// Cycle-attribution totals of the faulted run; only populated when
  /// CampaignOptions::profile is set (timelines stay off in campaigns).
  std::optional<metrics::ProfileSummary> profile;
  /// Which engine ran the site, and the simulator's engine note (why a
  /// compiled request interpreted). In memory only: never journaled or
  /// rendered, so reports and journals do not depend on the engine.
  bool ran_compiled = false;
  std::string engine_note;
};

struct CampaignOptions {
  std::uint64_t seed = 1;
  /// 0 = run every enumerated site; otherwise a seeded sample.
  std::size_t max_faults = 0;
  /// Livelock backstop per faulted run; 0 = derive it from the golden
  /// run (see plan_campaign).
  std::uint64_t max_cycles = 0;
  /// Worker threads running fault sites concurrently (one Simulator per
  /// site, all borrowing the plan's Program; results land in site order
  /// either way). 0 = one per hardware thread; 1 = the calling thread.
  unsigned threads = 1;
  /// Emit a stderr heartbeat while the sweep runs (sites/sec, ETA,
  /// classification tallies). Off by default so machine-readable output
  /// and tests stay quiet.
  bool progress = false;
  /// Seconds between heartbeats; <= 0 emits one line per completed site
  /// (deterministic, used by tests).
  double progress_interval_s = 2.0;
  /// Where heartbeat lines go; null means stderr.
  std::function<void(const std::string&)> progress_sink;
  /// Attribute every faulted run's cycles (compute / assert / stall /
  /// tail) and report per-site deltas vs the golden profile. Each run
  /// owns its Profiler, so the parallel sweep stays race-free.
  bool profile = false;
  /// Per-site wall-clock budget in milliseconds; 0 = unlimited. A site
  /// that exceeds it is classified budget-exceeded (an answer, not an
  /// error) and the sweep moves on -- one pathological site can no
  /// longer pin the whole campaign.
  double site_wall_ms = 0.0;
  /// Bounded retries (with exponential backoff) when a site run throws
  /// a transient failure; after the last attempt the error propagates.
  unsigned site_retries = 2;
  /// Path of the append-only crash-recovery journal (sim/journal.h);
  /// empty = no journal.
  std::string journal;
  /// With `journal` set: load it first and skip sites it already
  /// classified, provided its header fingerprint matches this campaign.
  bool resume = false;
  /// Restrict the sweep to these site ids (a subset of the sampled
  /// list); empty = run everything. Ids must belong to the campaign's
  /// sampled selection; the journal header keeps the full campaign's
  /// identity either way.
  std::vector<std::uint32_t> only_sites;
  /// Cooperative cancellation (SIGINT/SIGTERM): when the pointee turns
  /// true no further site starts; already-journaled work is kept and
  /// the report comes back with `interrupted` set. Null = never.
  const std::atomic<bool>* cancel = nullptr;
  /// Called after each freshly-run site is classified AND durably
  /// journaled (restored sites are skipped). Serialized by the journal
  /// append order.
  std::function<void(const FaultResult&)> site_sink;
  /// Called just before each freshly-run site starts.
  std::function<void(std::uint32_t site_id)> site_start_hook;
  /// Base simulation options (mode, channel mux) shared by every run.
  SimOptions sim;
};

/// The golden (un-faulted) reference: completion cycles plus every
/// CPU-visible data word, per output stream in id order.
struct GoldenRef {
  std::uint64_t cycles = 0;
  std::vector<std::pair<std::string, std::vector<std::uint64_t>>> outputs;
};

/// Version of what a simulated site reports: bump it whenever a
/// simulator change can move any site's outcome, detecting assertions
/// or cycle count. It is part of the journal fingerprint, so a journal
/// written under another version is started over, never spliced into a
/// new report. Journals from before the field read as 0.
///   1: assertion-failure words reach the CPU when they are sent, not
///      when the sending process next yields.
///   2: a proven livelock (sim::mark_traps) stops its process where it
///      enters the trap block: such a site is hang-detected at that
///      cycle, not hang-timeout past the backstop.
inline constexpr std::uint64_t kSimSemantics = 2;

/// Campaign identity, logged as the first line of a journal
/// (sim/journal.h). Two campaigns with equal fingerprints enumerate the
/// same sites with the same backstops under the same simulator
/// semantics, so their per-site outcomes are interchangeable.
struct JournalHeader {
  std::string design;
  std::uint64_t seed = 0;
  std::uint64_t sites_total = 0;
  std::uint64_t max_faults = 0;
  std::uint64_t max_cycles = 0;  // resolved livelock backstop
  std::uint64_t golden_cycles = 0;
  double site_wall_ms = 0.0;
  bool profile = false;
  std::uint64_t sim_semantics = kSimSemantics;

  /// Canonical one-line identity (also the serialized header payload).
  [[nodiscard]] std::string fingerprint() const;
};

/// What one campaign runs, computed once by plan_campaign() for every
/// caller (the in-process sweep, trace reruns, hlsavc's one-site
/// repros, the hlsavd supervisor and its workers). It points at the
/// inputs it was built from; they must outlive it.
struct CampaignPlan {
  /// The design's one Program: the golden run, every site and every
  /// trace rerun borrow it (workers share it read-only).
  std::shared_ptr<const Program> program;
  const ExternRegistry* externs = nullptr;
  const std::map<std::string, std::vector<std::uint64_t>>* feeds = nullptr;
  GoldenRef golden;
  /// Attribution of the golden run; set iff CampaignOptions::profile.
  std::optional<metrics::ProfileSummary> golden_profile;
  /// Every enumerated site; sites[i].id == i.
  std::vector<FaultSpec> sites;
  /// Ids of the sites the campaign runs, ascending: all, or a sample
  /// seeded by CampaignOptions::seed.
  std::vector<std::uint32_t> selected;
  /// Identity, including the resolved backstop `header.max_cycles`.
  JournalHeader header;
};

struct CampaignReport {
  std::uint64_t seed = 0;
  std::size_t sites_total = 0;  // enumerated, before sampling
  std::uint64_t golden_cycles = 0;
  unsigned threads = 1;              // workers the campaign actually used
  std::vector<FaultResult> results;  // in site-id order
  /// True when CampaignOptions::cancel stopped the sweep early: only
  /// the completed (journaled) sites are in `results`, and a journaled
  /// campaign resumes byte-identically with --resume.
  bool interrupted = false;
  /// Attribution of the un-faulted reference run; set iff
  /// CampaignOptions::profile was on.
  std::optional<metrics::ProfileSummary> golden_profile;
  /// Faulted sites this call ran (journal-restored ones excluded), how
  /// many of them ran on the compiled engine, and the first engine note
  /// of a site that interpreted. In memory only, like
  /// FaultResult::ran_compiled.
  std::size_t sites_run = 0;
  std::size_t sites_compiled = 0;
  std::string engine_note;

  /// Counts `r`, a site this call ran, into the three fields above.
  void count_run(const FaultResult& r);
  [[nodiscard]] std::size_t count(FaultOutcome o) const;
  /// Detected / (everything that was not benign).
  [[nodiscard]] double detection_rate() const;
  /// Full campaign table + summary + per-assertion coverage attribution.
  [[nodiscard]] std::string render(const ir::Design& design) const;
};

/// Runs the design un-faulted and records the reference outputs. Throws
/// InternalError if the golden run itself does not complete cleanly.
/// When `profile_out` is non-null the run is profiled (timeline off)
/// and its attribution summary stored there.
[[nodiscard]] GoldenRef golden_run(const Program& program, const ExternRegistry& externs,
                                   const std::map<std::string, std::vector<std::uint64_t>>& feeds,
                                   const SimOptions& base,
                                   metrics::ProfileSummary* profile_out = nullptr);

/// Runs one fault variant and classifies it against `golden`. When
/// `profile_out` is non-null the run is profiled (timeline off) and its
/// attribution summary stored there. A positive `site_wall_ms` arms the
/// simulator's wall-clock watchdog; an expired budget classifies as
/// FaultOutcome::kBudgetExceeded.
[[nodiscard]] FaultResult run_fault(const Program& program, const ExternRegistry& externs,
                                    const std::map<std::string, std::vector<std::uint64_t>>& feeds,
                                    const GoldenRef& golden, const FaultSpec& fault,
                                    const SimOptions& base, std::uint64_t max_cycles,
                                    metrics::ProfileSummary* profile_out = nullptr,
                                    double site_wall_ms = 0.0);

/// Builds the design's Program, runs the golden run on it, resolves the
/// backstop (max_cycles, or 16 golden runs' worth of cycles and at least
/// 10'000), enumerates and samples the sites. A golden run that does not
/// complete cleanly is a kSimError.
[[nodiscard]] StatusOr<CampaignPlan> plan_campaign(
    const ir::Design& design, const sched::DesignSchedule& schedule,
    const ExternRegistry& externs,
    const std::map<std::string, std::vector<std::uint64_t>>& feeds,
    const CampaignOptions& opt);

/// Runs one site of `plan` as every campaign does: with
/// CampaignOptions::site_wall_ms as its budget, and site_retries
/// retries with backoff when it throws (then the error propagates).
[[nodiscard]] FaultResult run_site(const CampaignPlan& plan, const FaultSpec& site,
                                   const CampaignOptions& opt,
                                   metrics::ProfileSummary* profile_out = nullptr);

/// The full campaign: enumerate sites, (optionally sample,) run each,
/// classify every one -- no fault is ever left unclassified. Journal
/// open/write/fsync failures (ENOSPC, EIO, unwritable directory) come
/// back as a Status naming the journal path -- a record is never
/// silently dropped; a cooperative cancel returns an ok report with
/// `interrupted` set.
[[nodiscard]] StatusOr<CampaignReport> run_campaign_st(
    const ir::Design& design, const sched::DesignSchedule& schedule,
    const ExternRegistry& externs,
    const std::map<std::string, std::vector<std::uint64_t>>& feeds,
    const CampaignOptions& opt = {});

/// The same campaign from a plan_campaign() plan made with `opt`.
[[nodiscard]] StatusOr<CampaignReport> run_campaign_st(const CampaignPlan& plan,
                                                       const CampaignOptions& opt);

/// Throwing convenience wrapper around run_campaign_st (library tests
/// and benches that treat any failure as fatal).
[[nodiscard]] CampaignReport run_campaign(
    const ir::Design& design, const sched::DesignSchedule& schedule,
    const ExternRegistry& externs,
    const std::map<std::string, std::vector<std::uint64_t>>& feeds,
    const CampaignOptions& opt = {});

// ------------------------------------------------- trace & replay reruns --

/// How to re-run non-benign sites with the ELA armed (see
/// trace_nonbenign_sites).
struct TraceRerunOptions {
  trace::TraceConfig config;
  /// Output directory for .vcd/.bin artifacts (must already exist, or be
  /// creatable); files are named "<stem>_s<site>.vcd".
  std::string dir = ".";
  std::string stem = "fault";
  /// Cycles of the window the replay narrates.
  std::size_t last_cycles = 16;
  /// Cap on re-traced sites, in site order; 0 = every non-benign site.
  std::size_t max_sites = 0;
  /// Also write the compact binary trace next to each VCD.
  bool write_binary = false;
  /// Resolves source file ids in the replay text; may be null.
  const SourceManager* sm = nullptr;
};

/// One re-traced site: where its artifacts went and the rendered
/// source-level replay (which names the implicated assertion/stream,
/// the first divergent output stream for silent corruption, and the
/// hang diagnosis for hangs).
struct TraceArtifact {
  FaultSpec site;
  FaultOutcome outcome = FaultOutcome::kBenign;
  std::string vcd_path;
  std::string bin_path;  // empty unless write_binary
  std::string replay;
};

/// Re-runs every non-benign site of `report` (a campaign of `plan`)
/// with a TraceEngine armed and exports the surviving capture window:
/// the campaign sweep stays cheap (tracing off), and only the
/// interesting sites pay for capture.
[[nodiscard]] std::vector<TraceArtifact> trace_nonbenign_sites(
    const CampaignPlan& plan, const CampaignReport& report, const CampaignOptions& opt,
    const TraceRerunOptions& trace_opt = {});

}  // namespace hlsav::sim
