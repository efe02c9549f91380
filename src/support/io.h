// Crash-safe file output.
//
// Every artifact the toolchain emits (BENCH_*.json, VCDs, binary
// traces, Chrome traces, campaign journals) goes through these helpers:
// content is written to a pid-unique temp sibling, fsync'd, and renamed
// into place, so a killed run leaves either the old file or the new one
// -- never a torn half-document.
#pragma once

#include <string>
#include <string_view>

#include "support/status.h"

namespace hlsav {

/// "<path>.tmp.<pid>" -- unique per process, same directory (so the
/// rename is atomic: same filesystem).
[[nodiscard]] std::string temp_sibling_path(const std::string& path);

/// Writes `content` to `path` atomically: temp sibling, fsync, rename.
/// The temp file is removed on any failure. The write and fsync go
/// through wal::write_and_sync, so wal's test hooks reach them.
[[nodiscard]] Status write_file_atomic(const std::string& path, std::string_view content);

/// fsyncs the directory itself so a just-renamed entry survives a
/// power loss (rename makes the *data* durable, but the new directory
/// entry needs its own fsync to be on disk).
[[nodiscard]] Status fsync_dir(const std::string& dir);

}  // namespace hlsav
