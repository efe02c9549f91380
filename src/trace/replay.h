// Source-level decode of a captured trace window.
//
// A VCD shows nets; the developer wrote C. This decoder replays the
// last N cycles of a capture back into HLS-C terms: variable names from
// the register file, `file:line` positions from the ops' source
// locations, assertion conditions from the design's assertion catalogue
// (the text assertions/synthesize preserved through synthesis), and
// stream names for every handshake. The rendered story ends with the
// implicated assertion -- the last failing verdict in the window --
// and the last stream the failing neighborhood touched (or, for a
// proven livelock, the block the process is trapped in), which is the
// information the paper's §5.1 debugging sessions had to reconstruct
// from assert(0)/NABORT markers by hand.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "ir/ir.h"
#include "support/source_manager.h"
#include "trace/trace.h"

namespace hlsav::trace {

struct ReplayOptions {
  /// How many trailing cycles of the window to narrate.
  std::size_t last_cycles = 16;
  /// Resolves SourceLoc file ids to names; may be null.
  const SourceManager* sm = nullptr;
  /// The trap block of a run that ended in a proven livelock
  /// (sim::HangInfo::livelock_block); empty otherwise. A livelocked
  /// process touches no stream, so the replay implicates this block
  /// instead of the last handshake in the window.
  std::string livelock_block;
};

/// Renders the annotated last-N-cycles story for a captured window.
[[nodiscard]] std::string render_replay(const ir::Design& design,
                                        const std::vector<TraceRecord>& window,
                                        const ReplayOptions& opt = {});

/// The assertion id of the last failing kAssertVerdict in the window,
/// or ir-catalogue-invalid (UINT32_MAX) if none failed.
[[nodiscard]] std::uint32_t implicated_assertion(const std::vector<TraceRecord>& window);

/// The stream id of the last handshake event in the window, or
/// ir::kNoStream when the window holds none.
[[nodiscard]] ir::StreamId implicated_stream(const std::vector<TraceRecord>& window);

}  // namespace hlsav::trace
