// Crash-safe campaign journal.
//
// A fault campaign over a real design can run for hours; a crash, OOM
// kill or pre-empted CI job must not throw the completed sites away.
// The journal is a write-ahead log (support/wal.h):
//
//  * One JSONL file. The first line is a header describing the campaign
//    (design, seed, sampling, resolved cycle backstop) -- its canonical
//    `fingerprint()` is what --resume matches against, so a journal can
//    never be replayed into a *different* campaign.
//  * One line per classified site, appended and fsync'd the moment the
//    site completes. Sites land in completion order; the aggregate
//    report is rebuilt in site order, so an interrupted-then-resumed
//    campaign renders byte-identically to an uninterrupted one at any
//    thread or worker count. hlsavc and an hlsavd job write the same
//    format: either can resume the other's journal.
//  * A crash during creation leaves either no journal or a valid one,
//    and a kill mid-append leaves at most one torn trailing line: the
//    loader reports how many bytes were valid, and resume truncates to
//    that point before it starts appending again. Tests fail the
//    appends through wal::set_io_hooks_for_test.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/campaign.h"
#include "support/status.h"
#include "support/wal.h"

namespace hlsav::sim {

/// Everything load_journal() recovers from disk. Restored FaultResults
/// carry only the site *id* in `site` -- the caller re-attaches the
/// full FaultSpec from its own deterministic enumeration.
struct JournalContents {
  JournalHeader header;
  std::map<std::uint32_t, FaultResult> results;
  /// Prefix of the file that parsed cleanly; anything past it is a torn
  /// trailing write and must be truncated before appending resumes.
  std::uint64_t valid_bytes = 0;
};

/// Parses a journal file. kIoError when unreadable; kInvalidArgument
/// when even the header line is unusable.
[[nodiscard]] StatusOr<JournalContents> load_journal(const std::string& path);

/// The append handle over a wal::Log (support/wal.h).
class CampaignJournal {
 public:
  /// Starts a fresh journal at `path`: header written atomically
  /// (temp + rename + directory fsync), then opened for appending.
  [[nodiscard]] static StatusOr<std::unique_ptr<CampaignJournal>> create(
      std::string path, const JournalHeader& header);

  /// Reopens an existing journal for appending, truncating to
  /// `valid_bytes` first (drops a torn trailing line, keeps everything
  /// that was durably recorded).
  [[nodiscard]] static StatusOr<std::unique_ptr<CampaignJournal>> append_to(
      std::string path, std::uint64_t valid_bytes);

  /// Appends one classified site and fsyncs. Thread-safe: parallel
  /// workers call this directly in completion order.
  [[nodiscard]] Status append(const FaultResult& r);

 private:
  explicit CampaignJournal(std::unique_ptr<wal::Log> log) : log_(std::move(log)) {}

  std::unique_ptr<wal::Log> log_;
};

/// A journal opened against a campaign plan.
struct OpenedJournal {
  std::unique_ptr<CampaignJournal> journal;
  /// Sites the file already classified, by id, each with its full
  /// FaultSpec from the plan. Empty unless an existing journal of the
  /// same campaign was resumed.
  std::map<std::uint32_t, FaultResult> restored;
};

/// Opens `path` as the journal of `plan`. With `resume`, an existing
/// journal whose header fingerprint matches plan.header is reopened for
/// appending (a torn tail is truncated) and its classified sites are
/// restored. An unreadable or foreign file is not this campaign's log:
/// it is replaced by a fresh one rather than mixing outcomes from a
/// different sweep. Open failures name the path.
[[nodiscard]] StatusOr<OpenedJournal> open_journal(const CampaignPlan& plan,
                                                   const std::string& path, bool resume);

/// Serialized JSONL form of one site outcome: the journal's site line,
/// and the payload of a worker's result line (serve/protocol.h).
[[nodiscard]] std::string journal_line(const FaultResult& r);

/// Parses a journal_line() payload into `r` (its site carries only the
/// id). False on any missing or malformed field.
[[nodiscard]] bool parse_journal_line(const std::string& line, FaultResult& r);

}  // namespace hlsav::sim
