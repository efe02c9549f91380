// Campaign supervisor: crash containment for fault sweeps.
//
// One campaign, W worker subprocesses, one journal. The supervisor
// compiles the design, plans the campaign exactly as the in-process
// runner does (sim::plan_campaign), and hands the selected sites out
// one at a time: each worker reads a site id on its stdin, runs it, and
// prints the result, and gets its next id as soon as that result is
// journaled. A slow site never holds back the sites behind it. The job
// ends when every site is classified and no worker has one in flight.
//
// Workers run their sites on the compiled engine where it applies. The
// supervisor builds the design into the JIT cache before it spawns a
// fresh worker (one host-compiler run on a miss) but loads no generated
// code, and its golden run interprets, so each worker's golden-cycles
// check compares the two engines; a worker that fails it fails the job.
//
//  * A worker outlives its job. Its argv fixes everything it computes
//    (design path, backstop, golden cycles, assertions mode, site
//    budget, feeds), so the job's fingerprint is that argv plus a hash
//    of the design bytes the supervisor compiled. A worker that ends
//    its job cleanly -- not crashed, broken, drained or awaiting a
//    respawn, and with no site in flight -- is parked in the caller's
//    WorkerPool under that fingerprint, its stdin still open, and the
//    next job with the same fingerprint hands its sites to it instead
//    of spawning. Every parked worker passed the golden check of its
//    fingerprint, so the cross-engine check holds for every job. A job
//    with a test fault schedule (--crash-at-site, --stall-at-site)
//    never parks a worker and never takes one.
//  * The supervisor is the only journal writer. JOB_DIR/journal.jsonl
//    is an ordinary campaign journal (sim/journal.h): same header
//    fingerprint, fsync per site, torn-tail truncation and resume as
//    `hlsavc faultsim --campaign --journal`. A re-adopted or
//    resubmitted job resumes it and hands out only unclassified sites.
//  * A worker that segfaults, gets OOM-killed, is kill -9'ed, overruns
//    its heartbeat watchdog, or reports a site it was not handed is
//    *contained*: the supervisor blames its in-flight site, requeues
//    it, and respawns the worker after a capped exponential backoff. A
//    parked worker that died while idle owes no site: the next job
//    drops it and spawns a fresh one, blaming nothing.
//  * A site that keeps killing workers is quarantined after
//    `quarantine_cap` crashes and classified worker-crashed -- one
//    poisonous site can never pin a campaign or respawn forever.
//
// The report renders byte-identically to an uninterrupted
// single-process sweep: CampaignReport::render depends only on
// seed/site outcomes, never on worker count, completion order or which
// workers were reused.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "serve/events.h"
#include "serve/protocol.h"
#include "sim/campaign.h"
#include "support/status.h"
#include "support/subprocess.h"

namespace hlsav::serve {

struct SupervisorOptions {
  /// The hlsavd binary (workers are `hlsavd worker ...` of the same
  /// build, so simulation determinism is guaranteed by construction).
  std::string worker_binary;
  /// Directory for this job's journal and fault-token files; must exist
  /// and be writable.
  std::string job_dir;
  unsigned workers = 2;
  /// Crashes a single site may cause before it is quarantined.
  unsigned quarantine_cap = 3;
  /// Respawn backoff: base * 2^attempt, capped. Keeps a crash-looping
  /// worker from busy-spinning the host while staying fast in tests.
  std::uint64_t backoff_base_ms = 25;
  std::uint64_t backoff_cap_ms = 1000;
  /// SIGKILL a worker silent for this long; 0 disables the watchdog.
  double heartbeat_timeout_ms = 0.0;
  /// The run's events (JobEvent kinds kPhaseBegin through kQuarantined,
  /// job id left 0 for the caller to fill); may be null.
  std::function<void(JobEvent)> event_sink;
  /// Graceful-degradation flag: when it turns true the supervisor
  /// SIGTERMs its workers (each reports its in-flight site and exits
  /// 21), stops handing out sites and respawning, and returns what was
  /// durably journaled.
  const std::atomic<bool>* drain = nullptr;
};

struct SupervisedResult {
  /// Its sites_run / sites_compiled / engine_note count the sites the
  /// workers ran for this call, as the in-process runner counts its own.
  sim::CampaignReport report;
  /// report.render(design) -- computed here because the caller has no
  /// compiled design; this is the byte-identity artifact.
  std::string rendered;
  /// Workers respawned after a crash (0 on an uneventful run).
  unsigned respawns = 0;
  /// Sites classified worker-crashed, ascending.
  std::vector<std::uint32_t> quarantined;
  /// True when the drain flag stopped the job early; `report` carries
  /// interrupted=true and only the journaled sites.
  bool drained = false;
  /// Size of the job journal at merge time (the durable footprint the
  /// metrics plane reports).
  std::uint64_t journal_bytes = 0;
};

/// Idle workers between jobs, all parked under one fingerprint. The
/// thread that owns a pool must be the one that runs its jobs: workers
/// are spawned with PR_SET_PDEATHSIG, which fires when the *spawning
/// thread* ends, so a pool's workers die with its thread and never
/// outlive a daemon killed by -9. Destroying the pool closes every idle
/// worker's stdin and reaps it.
class WorkerPool {
 public:
  WorkerPool() = default;
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;
  ~WorkerPool() { close(); }

  /// Up to `n` live workers parked under `key`, which becomes the
  /// pool's key. Another key first closes and reaps every idle worker.
  /// A worker that exited while parked is reaped and dropped: it owed
  /// no site.
  [[nodiscard]] std::vector<Subprocess> take(const std::string& key, std::size_t n);
  /// Parks a worker that ended its job -- the one that last called
  /// take() -- cleanly.
  void park(Subprocess worker) { idle_.push_back(std::move(worker)); }
  /// Closes every idle worker's stdin (it exits 0 at EOF) and reaps it.
  void close();

 private:
  std::string key_;
  std::vector<Subprocess> idle_;
};

/// Runs one campaign across worker subprocesses, taking parked workers
/// from `pool` and parking the clean ones there at the end. Compile
/// errors, unusable specs and supervision failures come back as
/// Status; worker deaths do not -- those are contained and classified.
[[nodiscard]] StatusOr<SupervisedResult> run_sharded_campaign(const CampaignSpec& spec,
                                                              const SupervisorOptions& opt,
                                                              WorkerPool& pool);

}  // namespace hlsav::serve
