#include "sim/journal.h"

#include "support/jsonl.h"

namespace hlsav::sim {

namespace {

// Serialization uses the shared flat-JSONL dialect (support/jsonl.h);
// this file only supplies the journal's field layout.

bool parse_outcome(const std::string& line, FaultOutcome& out) {
  std::string name;
  if (!jsonl::parse_string(line, "outcome", name)) return false;
  for (std::size_t i = 0; i < kNumFaultOutcomes; ++i) {
    auto o = static_cast<FaultOutcome>(i);
    if (name == fault_outcome_name(o)) {
      out = o;
      return true;
    }
  }
  return false;
}

}  // namespace

std::string JournalHeader::fingerprint() const {
  std::string out = "{\"type\":\"header\",\"design\":";
  jsonl::append_escaped(out, design);
  out += ",\"seed\":" + std::to_string(seed);
  out += ",\"sites_total\":" + std::to_string(sites_total);
  out += ",\"max_faults\":" + std::to_string(max_faults);
  out += ",\"max_cycles\":" + std::to_string(max_cycles);
  out += ",\"golden_cycles\":" + std::to_string(golden_cycles);
  out += ",\"site_wall_ms\":" + jsonl::format_double(site_wall_ms);
  out += ",\"profile\":";
  out += profile ? "true" : "false";
  out += '}';
  return out;
}

std::string journal_line(const FaultResult& r) {
  std::string out = "{\"site\":" + std::to_string(r.site.id);
  out += ",\"outcome\":";
  jsonl::append_escaped(out, fault_outcome_name(r.outcome));
  out += ",\"detected_by\":";
  jsonl::append_u32_list(out, r.detected_by);
  out += ",\"cycles\":" + std::to_string(r.cycles);
  if (r.profile.has_value()) {
    const metrics::ProfileSummary& p = *r.profile;
    out += ",\"profile\":{\"run_cycles\":" + std::to_string(p.run_cycles);
    out += ",\"compute_cycles\":" + std::to_string(p.compute_cycles);
    out += ",\"assert_cycles\":" + std::to_string(p.assert_cycles);
    out += ",\"stall_cycles\":" + std::to_string(p.stall_cycles);
    out += ",\"tail_cycles\":" + std::to_string(p.tail_cycles);
    out += ",\"discarded_stall_cycles\":" + std::to_string(p.discarded_stall_cycles);
    out += ",\"blocked_polls\":" + std::to_string(p.blocked_polls);
    out += ",\"assert_evals\":" + std::to_string(p.assert_evals);
    out += ",\"assert_failures\":" + std::to_string(p.assert_failures);
    out += ",\"hottest_stall_stream\":";
    jsonl::append_escaped(out, p.hottest_stall_stream);
    out += ",\"hottest_stall_cycles\":" + std::to_string(p.hottest_stall_cycles);
    out += '}';
  }
  out += '}';
  return out;
}

bool parse_journal_line(const std::string& line, FaultResult& r) {
  if (line.empty() || line.front() != '{' || line.back() != '}') return false;
  std::uint64_t site = 0;
  if (!jsonl::parse_u64(line, "site", site)) return false;
  r.site = FaultSpec{};
  r.site.id = static_cast<std::uint32_t>(site);
  if (!parse_outcome(line, r.outcome)) return false;
  if (!jsonl::parse_u32_list(line, "detected_by", r.detected_by)) return false;
  if (!jsonl::parse_u64(line, "cycles", r.cycles)) return false;
  r.profile.reset();
  std::size_t ppos = 0;
  if (jsonl::find_value(line, "profile", ppos)) {
    metrics::ProfileSummary p;
    bool ok = jsonl::parse_u64(line, "run_cycles", p.run_cycles) &&
              jsonl::parse_u64(line, "compute_cycles", p.compute_cycles) &&
              jsonl::parse_u64(line, "assert_cycles", p.assert_cycles) &&
              jsonl::parse_u64(line, "stall_cycles", p.stall_cycles) &&
              jsonl::parse_u64(line, "tail_cycles", p.tail_cycles) &&
              jsonl::parse_u64(line, "discarded_stall_cycles", p.discarded_stall_cycles) &&
              jsonl::parse_u64(line, "blocked_polls", p.blocked_polls) &&
              jsonl::parse_u64(line, "assert_evals", p.assert_evals) &&
              jsonl::parse_u64(line, "assert_failures", p.assert_failures) &&
              jsonl::parse_string(line, "hottest_stall_stream", p.hottest_stall_stream) &&
              jsonl::parse_u64(line, "hottest_stall_cycles", p.hottest_stall_cycles);
    if (!ok) return false;
    r.profile = std::move(p);
  }
  return true;
}

StatusOr<JournalContents> load_journal(const std::string& path) {
  JournalContents out;
  bool saw_header = false;
  // Site lines stop at the first torn/corrupt one: a crash can only
  // tear the *last* line, so everything before the stop point is real.
  StatusOr<wal::Prefix> prefix = wal::load(path, [&](const std::string& line) {
    if (!saw_header) {
      saw_header = true;
      return jsonl::parse_string(line, "design", out.header.design) &&
             jsonl::parse_u64(line, "seed", out.header.seed) &&
             jsonl::parse_u64(line, "sites_total", out.header.sites_total) &&
             jsonl::parse_u64(line, "max_faults", out.header.max_faults) &&
             jsonl::parse_u64(line, "max_cycles", out.header.max_cycles) &&
             jsonl::parse_u64(line, "golden_cycles", out.header.golden_cycles) &&
             jsonl::parse_double(line, "site_wall_ms", out.header.site_wall_ms) &&
             jsonl::parse_bool(line, "profile", out.header.profile);
    }
    // A malformed site line ends the valid prefix: the loader treats it,
    // and everything after it, as a torn tail.
    FaultResult r;
    if (!parse_journal_line(line, r)) return false;
    out.results.insert_or_assign(r.site.id, std::move(r));
    return true;
  });
  if (!prefix.ok()) return Status::io_error("cannot read journal '" + path + "'");
  if (prefix->lines.empty()) {
    return Status::invalid_argument("journal '" + path + "' has " +
                                    (saw_header ? "an unparseable header"
                                                : "no complete header line"));
  }
  out.valid_bytes = prefix->valid_bytes;
  return out;
}

StatusOr<std::unique_ptr<CampaignJournal>> CampaignJournal::create(std::string path,
                                                                   const JournalHeader& header) {
  HLSAV_RETURN_IF_ERROR(wal::create(path, header.fingerprint()));
  return append_to(std::move(path), wal::Log::kKeepAll);
}

StatusOr<std::unique_ptr<CampaignJournal>> CampaignJournal::append_to(std::string path,
                                                                      std::uint64_t valid_bytes) {
  StatusOr<std::unique_ptr<wal::Log>> log = wal::Log::open(std::move(path), valid_bytes);
  HLSAV_RETURN_IF_ERROR(log.status());
  return std::unique_ptr<CampaignJournal>(new CampaignJournal(std::move(*log)));
}

Status CampaignJournal::append(const FaultResult& r) { return log_->append(journal_line(r)); }

StatusOr<OpenedJournal> open_journal(const CampaignPlan& plan, const std::string& path,
                                     bool resume) {
  OpenedJournal out;
  bool reopen = false;
  std::uint64_t valid_bytes = 0;
  if (resume) {
    StatusOr<JournalContents> loaded = load_journal(path);
    if (loaded.ok() && loaded->header.fingerprint() == plan.header.fingerprint()) {
      reopen = true;
      valid_bytes = loaded->valid_bytes;
      for (auto& [id, r] : loaded->results) {
        if (id >= plan.sites.size()) continue;
        r.site = plan.sites[id];  // reattach the full spec
        out.restored.emplace(id, std::move(r));
      }
    }
  }
  StatusOr<std::unique_ptr<CampaignJournal>> j =
      reopen ? CampaignJournal::append_to(path, valid_bytes)
             : CampaignJournal::create(path, plan.header);
  if (!j.ok()) {
    return Status::error(j.status().code(),
                         "cannot open campaign journal '" + path + "': " + j.status().message());
  }
  out.journal = std::move(*j);
  return out;
}

}  // namespace hlsav::sim
