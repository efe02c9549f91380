// --emit: write top-ranked mined assertions back into the HLS-C source.
//
// The output of mining should not be a report the designer re-types by
// hand: a surviving candidate's condition is already C syntax over
// source-level names, so it can be inserted as a real `assert(...)`
// right after the line its anchor write came from. Candidates whose
// condition cannot be expressed at source level (stream-ordering state,
// compiler temporaries) are skipped with a reason -- the report still
// shows them, they just stay IR-only checkers.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "ir/ir.h"
#include "mine/score.h"

namespace hlsav::mine {

struct EmitResult {
  std::string source;  // rewritten program text
  std::size_t emitted = 0;
  /// "c3: reason" for each top-K candidate that could not be emitted.
  std::vector<std::string> skipped;
};

/// Inserts `assert(<condition>);` lines for the first `top` surviving
/// candidates of `ranked` (already in rank order) into `source`.
/// `design` resolves register names; candidates anchored outside
/// `source` (invalid/foreign file locations) are skipped.
[[nodiscard]] EmitResult emit_assertions(const std::string& source, const ir::Design& design,
                                         const std::vector<CandidateScore>& ranked,
                                         std::size_t top);

}  // namespace hlsav::mine
