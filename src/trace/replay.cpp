#include "trace/replay.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "ir/debug_info.h"
#include "trace/signals.h"

namespace hlsav::trace {

namespace {

std::string loc_text(const SourceLoc& loc, const SourceManager* sm) {
  std::string inner = ir::format_loc(loc, sm, /*basename=*/true);
  if (inner.empty()) return {};
  return "[" + inner + "]";
}

}  // namespace

std::uint32_t implicated_assertion(const std::vector<TraceRecord>& window) {
  for (auto it = window.rbegin(); it != window.rend(); ++it) {
    if (it->kind == TraceEventKind::kAssertVerdict && it->aux != 0) return it->subject;
  }
  return std::numeric_limits<std::uint32_t>::max();
}

ir::StreamId implicated_stream(const std::vector<TraceRecord>& window) {
  for (auto it = window.rbegin(); it != window.rend(); ++it) {
    if (it->kind == TraceEventKind::kStreamPush || it->kind == TraceEventKind::kStreamPop) {
      return it->subject;
    }
  }
  return ir::kNoStream;
}

std::string render_replay(const ir::Design& design, const std::vector<TraceRecord>& window,
                          const ReplayOptions& opt) {
  std::ostringstream os;
  if (window.empty()) {
    os << "trace replay: no events captured\n";
    return os.str();
  }

  const std::uint64_t last_cycle = window.back().cycle;
  const std::uint64_t lo =
      opt.last_cycles != 0 && last_cycle >= opt.last_cycles ? last_cycle - opt.last_cycles + 1 : 0;
  auto first =
      std::find_if(window.begin(), window.end(),
                   [lo](const TraceRecord& r) { return r.cycle >= lo; });
  const std::size_t shown = static_cast<std::size_t>(window.end() - first);

  os << "source-level replay: cycles " << lo << ".." << last_cycle << " (" << shown << " of "
     << window.size() << " captured events)\n";

  SignalCatalog names(design);

  std::uint64_t current = std::numeric_limits<std::uint64_t>::max();
  for (auto it = first; it != window.end(); ++it) {
    const TraceRecord& r = *it;
    if (r.cycle != current) {
      current = r.cycle;
      os << "cycle " << current << ":\n";
    }
    os << "  " << names.process_name(r.proc) << ": ";
    switch (r.kind) {
      case TraceEventKind::kFsmState:
        os << "enter state '" << names.block_name(r.proc, r.subject) << "'";
        break;
      case TraceEventKind::kRegWrite:
        os << names.reg_name(r.proc, r.subject) << " <= " << r.value.to_string_dec();
        break;
      case TraceEventKind::kStreamPush:
        os << "write '" << names.stream_name(r.subject) << "' <- " << r.value.to_string_dec();
        break;
      case TraceEventKind::kStreamPop:
        os << "read '" << names.stream_name(r.subject) << "' -> " << r.value.to_string_dec();
        break;
      case TraceEventKind::kBramRead:
        os << names.memory_name(r.subject) << "[" << r.aux << "] -> " << r.value.to_string_dec();
        break;
      case TraceEventKind::kBramWrite:
        os << names.memory_name(r.subject) << "[" << r.aux << "] <= " << r.value.to_string_dec();
        break;
      case TraceEventKind::kAssertVerdict: {
        const ir::AssertionRecord* rec = design.find_assertion(r.subject);
        os << "assertion #" << r.subject;
        if (rec != nullptr && !rec->condition_text.empty()) {
          os << " `" << rec->condition_text << "'";
        }
        os << (r.aux != 0 ? " FAILED" : " passed");
        break;
      }
    }
    std::string lt = loc_text(r.loc, opt.sm);
    if (!lt.empty()) os << "  " << lt;
    os << "\n";
  }

  // ---- implication summary ----
  std::uint32_t aid = implicated_assertion(window);
  if (aid != std::numeric_limits<std::uint32_t>::max()) {
    const ir::AssertionRecord* rec = design.find_assertion(aid);
    os << "implicated assertion: #" << aid;
    if (rec != nullptr) {
      if (!rec->condition_text.empty()) os << " `" << rec->condition_text << "'";
      os << " (process " << rec->process;
      if (rec->line != 0) os << ", " << rec->file << ":" << rec->line;
      os << ")";
    }
    os << "\n";
  }
  ir::StreamId sid = implicated_stream(window);
  if (!opt.livelock_block.empty()) {
    os << "implicated block: '" << opt.livelock_block << "' (livelock)\n";
  } else if (sid != ir::kNoStream) {
    os << "implicated stream: '" << design.stream(sid).name << "' (last handshake in window)\n";
  }
  return os.str();
}

}  // namespace hlsav::trace
