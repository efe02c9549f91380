// Compact binary trace format for large campaigns.
//
// VCD is for humans with a waveform viewer; a thousand-site campaign
// with tracing armed wants something cheaper. This is a dense
// little-endian record stream with a magic/version header:
//
//   "HLTRACE1"                       8-byte magic
//   u32 record_count
//   per record:
//     u64 cycle, u8 kind, u16 proc, u32 subject, u64 aux,
//     u32 loc_file, u32 loc_line, u32 loc_column,
//     u16 value_width, ceil(width/8) value bytes (LSB first)
//
// Round-trips exactly (modulo the engine-assigned `seq`, which is
// regenerated on read in record order -- the stream is already the
// merged window).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "trace/trace.h"

namespace hlsav::trace {

void write_binary_trace(std::ostream& os, const std::vector<TraceRecord>& window);
void write_binary_trace_file(const std::string& path, const std::vector<TraceRecord>& window);

/// Throws InternalError on a truncated or corrupt stream.
[[nodiscard]] std::vector<TraceRecord> read_binary_trace(std::istream& is);

}  // namespace hlsav::trace
