#include "serve/protocol.h"

#include <cstdlib>

#include "assertions/options.h"
#include "serve/hub.h"
#include "support/jsonl.h"
#include "support/str.h"

namespace hlsav::serve {

std::string encode_submit(const CampaignSpec& spec) {
  std::string out = "{\"type\":\"submit\",\"design\":";
  jsonl::append_escaped(out, spec.design_path);
  out += ",\"feeds\":";
  jsonl::append_escaped(out, spec.feeds);
  out += ",\"assertions\":";
  jsonl::append_escaped(out, spec.assertions);
  out += ",\"seed\":" + std::to_string(spec.seed);
  out += ",\"max_faults\":" + std::to_string(spec.max_faults);
  out += ",\"max_cycles\":" + std::to_string(spec.max_cycles);
  out += ",\"site_wall_ms\":" + jsonl::format_double(spec.site_wall_ms);
  out += ",\"workers\":" + std::to_string(spec.workers);
  out += ",\"priority\":" + std::to_string(spec.priority);
  out += ",\"crash_at\":";
  jsonl::append_u32_list(out, spec.crash_at);
  out += ",\"crash_limit\":" + std::to_string(spec.crash_limit);
  out += ",\"stall_at\":";
  jsonl::append_u32_list(out, spec.stall_at);
  out += ",\"key\":";
  jsonl::append_escaped(out, spec.key);
  out += ",\"deadline_ms\":" + std::to_string(spec.deadline_ms);
  out += '}';
  return out;
}

StatusOr<CampaignSpec> decode_submit(const std::string& line) {
  CampaignSpec spec;
  if (!jsonl::parse_string(line, "design", spec.design_path) || spec.design_path.empty()) {
    return Status::invalid_argument("submit request has no design path");
  }
  (void)jsonl::parse_string(line, "feeds", spec.feeds);
  (void)jsonl::parse_string(line, "assertions", spec.assertions);
  if (!assertions::Options::by_name(spec.assertions)) {
    return Status::invalid_argument("unknown assertions mode '" + spec.assertions + "'");
  }
  (void)jsonl::parse_u64(line, "seed", spec.seed);
  (void)jsonl::parse_u64(line, "max_faults", spec.max_faults);
  (void)jsonl::parse_u64(line, "max_cycles", spec.max_cycles);
  (void)jsonl::parse_double(line, "site_wall_ms", spec.site_wall_ms);
  std::uint64_t v = 0;
  if (jsonl::parse_u64(line, "workers", v)) spec.workers = static_cast<unsigned>(v);
  double prio = 0.0;
  if (jsonl::parse_double(line, "priority", prio)) spec.priority = static_cast<int>(prio);
  (void)jsonl::parse_u32_list(line, "crash_at", spec.crash_at);
  if (jsonl::parse_u64(line, "crash_limit", v)) {
    spec.crash_limit = static_cast<std::uint32_t>(v);
  }
  (void)jsonl::parse_u32_list(line, "stall_at", spec.stall_at);
  (void)jsonl::parse_string(line, "key", spec.key);
  (void)jsonl::parse_u64(line, "deadline_ms", spec.deadline_ms);
  return spec;
}

StatusOr<std::map<std::string, std::vector<std::uint64_t>>> parse_feed_spec(
    const std::string& spec) {
  std::map<std::string, std::vector<std::uint64_t>> feeds;
  if (spec.empty()) return feeds;
  for (const std::string& part : split(spec, ';')) {
    std::size_t eq = part.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::invalid_argument("bad feed spec '" + part + "' (want stream=v1,v2,...)");
    }
    std::vector<std::uint64_t> values;
    for (const std::string& tok : split(part.substr(eq + 1), ',')) {
      if (tok.empty()) continue;
      errno = 0;
      char* end = nullptr;
      std::uint64_t value = std::strtoull(tok.c_str(), &end, 10);
      if (end != tok.c_str() + tok.size() || errno != 0) {
        return Status::invalid_argument("bad feed value '" + tok + "' in '" + part + "'");
      }
      values.push_back(value);
    }
    feeds[part.substr(0, eq)] = std::move(values);
  }
  return feeds;
}

std::string encode_accepted(std::uint64_t job, bool duplicate) {
  std::string out = "{\"type\":\"accepted\",\"job\":" + std::to_string(job);
  if (duplicate) out += ",\"duplicate\":true";
  out += '}';
  return out;
}

std::string encode_rejected(const Status& status) {
  std::string out = "{\"type\":\"rejected\",\"code\":";
  jsonl::append_escaped(out, status_code_name(status.code()));
  out += ",\"message\":";
  jsonl::append_escaped(out, status.message());
  out += '}';
  return out;
}

std::string encode_progress(std::uint64_t job, std::uint64_t done, std::uint64_t total) {
  return "{\"type\":\"progress\",\"job\":" + std::to_string(job) +
         ",\"done\":" + std::to_string(done) + ",\"total\":" + std::to_string(total) + "}";
}

std::string encode_worker_crashed(std::uint64_t job, std::uint32_t site, int worker,
                                  const std::string& detail) {
  std::string out = "{\"type\":\"worker-crashed\",\"job\":" + std::to_string(job) +
                    ",\"site\":" + std::to_string(site) +
                    ",\"worker\":" + std::to_string(worker) + ",\"detail\":";
  jsonl::append_escaped(out, detail);
  out += '}';
  return out;
}

std::string encode_quarantined(std::uint64_t job, std::uint32_t site) {
  return "{\"type\":\"quarantined\",\"job\":" + std::to_string(job) +
         ",\"site\":" + std::to_string(site) + "}";
}

std::string encode_report_header(std::uint64_t job, std::size_t bytes) {
  return "{\"type\":\"report\",\"job\":" + std::to_string(job) +
         ",\"bytes\":" + std::to_string(bytes) + "}";
}

std::string encode_done(std::uint64_t job, const std::string& status,
                        const std::string& message) {
  std::string out = "{\"type\":\"done\",\"job\":" + std::to_string(job) + ",\"status\":";
  jsonl::append_escaped(out, status);
  if (!message.empty()) {
    out += ",\"message\":";
    jsonl::append_escaped(out, message);
  }
  out += '}';
  return out;
}

std::string encode_watch(std::uint64_t job) {
  return "{\"type\":\"watch\",\"job\":" + std::to_string(job) + "}";
}

std::string encode_snapshot(const JobView& view) {
  std::string out = "{\"type\":\"snapshot\",\"job\":" + std::to_string(view.id) + ",\"state\":";
  jsonl::append_escaped(out, view.state);
  out += ",\"design\":";
  jsonl::append_escaped(out, view.design);
  out += ",\"priority\":" + std::to_string(view.priority);
  out += ",\"done\":" + std::to_string(view.done);
  out += ",\"total\":" + std::to_string(view.total);
  out += ",\"respawns\":" + std::to_string(view.respawns);
  out += ",\"quarantined\":" + std::to_string(view.quarantined);
  out += '}';
  return out;
}

std::string encode_state(std::uint64_t job, const std::string& state) {
  std::string out = "{\"type\":\"state\",\"job\":" + std::to_string(job) + ",\"state\":";
  jsonl::append_escaped(out, state);
  out += '}';
  return out;
}

std::string encode_site_started(std::uint64_t job, std::uint32_t site, int worker) {
  return "{\"type\":\"site-started\",\"job\":" + std::to_string(job) +
         ",\"site\":" + std::to_string(site) + ",\"worker\":" + std::to_string(worker) + "}";
}

std::string encode_site_done(std::uint64_t job, std::uint32_t site, int worker,
                             const std::string& outcome) {
  std::string out = "{\"type\":\"site-done\",\"job\":" + std::to_string(job) +
                    ",\"site\":" + std::to_string(site) +
                    ",\"worker\":" + std::to_string(worker) + ",\"outcome\":";
  jsonl::append_escaped(out, outcome);
  out += '}';
  return out;
}

std::string encode_worker_starting(std::uint32_t site) {
  return "{\"type\":\"starting\",\"site\":" + std::to_string(site) + "}";
}

std::string encode_worker_site(const std::string& record) {
  return "{\"type\":\"site\"," + record.substr(1);
}

}  // namespace hlsav::serve
