// Sharded campaign supervisor: crash containment for fault sweeps.
//
// One campaign, W worker subprocesses, one journal shard per worker.
// The supervisor compiles the design, samples the site list exactly as
// the in-process runner would, deals the selected sites round-robin
// across the workers, and then watches them:
//
//  * A worker that segfaults, gets OOM-killed, is kill -9'ed, or
//    overruns its heartbeat watchdog is *contained*: the supervisor
//    reloads its journal shard (the loader drops any torn tail),
//    blames the in-flight site, and respawns the worker on the
//    remaining sites after a capped exponential backoff.
//  * A site that keeps killing workers is quarantined after
//    `quarantine_cap` crashes and classified worker-crashed -- one
//    poisonous site can never pin a campaign or respawn forever.
//  * Every worker journal shard carries the *full campaign's* header
//    fingerprint, so shards can be merged -- and individually resumed
//    -- with the same identity check the single-process path uses.
//
// The merged report renders byte-identically to an uninterrupted
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
  /// Directory for this job's shard journals and fault-token files;
  /// must exist and be writable.
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
  /// SIGTERMs its workers (they flush + exit 21), stops respawning,
  /// and returns what was durably journaled.
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
  /// Bytes of shard journal written on disk at merge time (the durable
  /// footprint the metrics plane reports).
  std::uint64_t journal_bytes = 0;
};

/// Runs one campaign sharded across worker subprocesses. Compile
/// errors, unusable specs and supervision failures come back as
/// Status; worker deaths do not -- those are contained and classified.
[[nodiscard]] StatusOr<SupervisedResult> run_sharded_campaign(const CampaignSpec& spec,
                                                              const SupervisorOptions& opt);

}  // namespace hlsav::serve
