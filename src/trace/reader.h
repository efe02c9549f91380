// Status-returning trace reader: the miner's front door for recorded
// HLTRACE1 windows.
//
// read_binary_trace (trace/binary.h) throws InternalError on corrupt
// bytes, which is the right contract for "this cannot happen" internal
// streams but the wrong one for user-supplied --trace-in files.
// read_trace_file wraps it into the Status error model, and
// validate_window checks a window against the design it claims to
// describe before any invariant is mined from it:
// process/register/stream/memory ids must resolve and every carried value
// must match the declared signal width exactly (1-bit flags and 64-bit
// crypto state included -- width drift here would silently corrupt mined
// bounds).
#pragma once

#include <string>
#include <vector>

#include "support/status.h"
#include "trace/trace.h"

namespace hlsav::trace {

/// Reads an HLTRACE1 file. kIoError when the file cannot be opened,
/// kInvalidArgument when the bytes are truncated or corrupt.
[[nodiscard]] StatusOr<std::vector<TraceRecord>> read_trace_file(const std::string& path);

/// Checks every record against the design: ids in range, value widths
/// equal to the declared signal widths, assertion ids present in the
/// catalogue. Returns the first violation (with record index) or ok.
[[nodiscard]] Status validate_window(const ir::Design& design,
                                     const std::vector<TraceRecord>& window);

}  // namespace hlsav::trace
