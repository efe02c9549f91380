// Campaign supervisor: crash containment for fault sweeps.
//
// One campaign, W worker subprocesses, one journal. The supervisor
// compiles the design, plans the campaign exactly as the in-process
// runner does (sim::plan_campaign), and hands the selected sites out
// one at a time: each worker reads a site id on its stdin, runs it, and
// prints the result, and gets its next id as soon as that result is
// journaled. A slow site never holds back the sites behind it.
//
//  * The supervisor is the only journal writer. JOB_DIR/journal.jsonl
//    is an ordinary campaign journal (sim/journal.h): same header
//    fingerprint, fsync per site, torn-tail truncation and resume as
//    `hlsavc faultsim --campaign --journal`. A re-adopted or
//    resubmitted job resumes it and hands out only unclassified sites.
//  * A worker that segfaults, gets OOM-killed, is kill -9'ed, overruns
//    its heartbeat watchdog, or reports a site it was not handed is
//    *contained*: the supervisor blames its in-flight site, requeues
//    it, and respawns the worker after a capped exponential backoff.
//  * A site that keeps killing workers is quarantined after
//    `quarantine_cap` crashes and classified worker-crashed -- one
//    poisonous site can never pin a campaign or respawn forever.
//
// The report renders byte-identically to an uninterrupted
// single-process sweep: CampaignReport::render depends only on
// seed/site outcomes, never on worker count or completion order.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/events.h"
#include "serve/protocol.h"
#include "sim/campaign.h"
#include "support/status.h"

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

/// Runs one campaign across worker subprocesses. Compile
/// errors, unusable specs and supervision failures come back as
/// Status; worker deaths do not -- those are contained and classified.
[[nodiscard]] StatusOr<SupervisedResult> run_sharded_campaign(const CampaignSpec& spec,
                                                              const SupervisorOptions& opt);

}  // namespace hlsav::serve
