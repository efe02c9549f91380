// Write-ahead job spool: the daemon's durable memory of accepted work.
//
// Every job hlsavd accepts is recorded here *before* the accept line
// reaches the client, so the accept is a promise that survives the
// daemon: one file per job holding an atomically-written header (the
// canonical submit line, idempotency key, priority, deadline) followed
// by fsync'd append records for each state transition
// (queued -> running -> done/error/aborted/drained/deadline-expired).
// Each entry is a support/wal log, like the campaign journal: a crash
// can only tear the last record, so a loader that stops at the first
// unparseable line -- and truncates it away -- recovers exactly what
// was durable. A restarted daemon scans the
// spool, re-adopts every unfinished job (their journal shards resume
// byte-identically behind the fingerprint gate), and answers duplicate
// idempotency keys with the original job id so clients can blindly
// resubmit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/status.h"

namespace hlsav::serve {

/// One spooled job as recovered from disk (or about to be written).
struct SpoolEntry {
  std::uint64_t job = 0;
  /// Idempotency key: the client's handle for "this exact job".
  std::string key;
  /// Canonical submit request line (encode_submit of the decoded spec):
  /// re-decoded on recovery, byte-compared on duplicate submits.
  std::string submit_line;
  int priority = 0;
  /// TTL relative to submitted_unix_ms; 0 = none.
  std::uint64_t deadline_ms = 0;
  std::uint64_t submitted_unix_ms = 0;
  /// queued | running | done | error | aborted | drained |
  /// deadline-expired. Header-only entries are "queued": the daemon
  /// died after spooling but before (or during) the run.
  std::string state = "queued";
  /// Free-text detail from the last state record (error messages).
  std::string detail;
  /// On-disk path of this entry (filled by scan()).
  std::string path;

  /// True for states no restart should re-adopt automatically.
  [[nodiscard]] bool terminal() const;
};

/// What a boot-time scan found.
struct SpoolScan {
  /// All readable entries, sorted by job id.
  std::vector<SpoolEntry> entries;
  /// Unreadable entries moved to <dir>/quarantine/ with a .reason file
  /// -- counted, never a boot failure.
  std::size_t quarantined = 0;
  /// Entries whose torn tail record was truncated away.
  std::size_t torn_tails = 0;
};

/// The spool directory. The daemon is the sole writer, so loads may
/// truncate torn tails in place (exactly like CampaignJournal).
class JobSpool {
 public:
  /// Opens `dir`, creating it if needed.
  [[nodiscard]] static StatusOr<JobSpool> open(std::string dir);

  /// Scans every *.spool entry. See SpoolScan for the contract.
  [[nodiscard]] StatusOr<SpoolScan> scan() const;

  /// Durably records a newly accepted job: atomic header write, then a
  /// directory fsync so the entry itself survives power loss. Must
  /// complete before the accept line is sent -- the write-ahead rule.
  [[nodiscard]] Status record_accepted(const SpoolEntry& entry) const;

  /// Appends one fsync'd state-transition record to the job's entry.
  [[nodiscard]] Status record_state(std::uint64_t job, const std::string& state,
                                    const std::string& detail = "") const;

  [[nodiscard]] const std::string& dir() const { return dir_; }

  [[nodiscard]] static bool state_terminal(const std::string& state);

 private:
  explicit JobSpool(std::string dir) : dir_(std::move(dir)) {}

  [[nodiscard]] std::string entry_path(std::uint64_t job) const;

  std::string dir_;
};

}  // namespace hlsav::serve
