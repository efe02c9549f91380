#include "mine/emit.h"

#include <algorithm>
#include <cctype>
#include <map>

#include "trace/signals.h"

namespace hlsav::mine {

namespace {

bool word_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True when `name` occurs as a whole identifier anywhere in `text`.
bool contains_word(const std::string& text, const std::string& name) {
  if (name.empty()) return false;
  std::size_t pos = 0;
  while ((pos = text.find(name, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !word_char(text[pos - 1]);
    const std::size_t end = pos + name.size();
    const bool right_ok = end >= text.size() || !word_char(text[end]);
    if (left_ok && right_ok) return true;
    pos += 1;
  }
  return false;
}

/// The source-level names a candidate's condition references.
std::vector<std::string> referenced_names(const trace::SignalCatalog& names,
                                          const Invariant& inv) {
  std::vector<std::string> out;
  switch (inv.kind) {
    case InvariantKind::kConst:
    case InvariantKind::kRange:
    case InvariantKind::kStreamConst:
    case InvariantKind::kStreamRange:
      out.push_back(names.reg_name(inv.proc, inv.reg_a));
      break;
    case InvariantKind::kEquality:
    case InvariantKind::kOrdering:
      out.push_back(names.reg_name(inv.proc, inv.reg_a));
      out.push_back(names.reg_name(inv.proc, inv.reg_b));
      break;
    case InvariantKind::kStreamOrdered:
      break;  // needs carried state; not expressible as one assert
  }
  return out;
}

}  // namespace

EmitResult emit_assertions(const std::string& source, const ir::Design& design,
                           const std::vector<CandidateScore>& ranked, std::size_t top) {
  trace::SignalCatalog names(design);

  std::vector<std::string> lines;
  {
    std::size_t start = 0;
    while (start <= source.size()) {
      std::size_t nl = source.find('\n', start);
      if (nl == std::string::npos) {
        lines.push_back(source.substr(start));
        break;
      }
      lines.push_back(source.substr(start, nl - start));
      start = nl + 1;
    }
  }

  EmitResult out;
  // line number (1-based) -> assert lines to insert after it, rank order.
  std::map<std::uint32_t, std::vector<std::string>> inserts;

  std::size_t taken = 0;
  for (const CandidateScore& c : ranked) {
    if (taken >= top) break;
    if (!c.survived) continue;
    ++taken;
    auto skip = [&](const std::string& why) {
      out.skipped.push_back("c" + std::to_string(c.index) + ": " + why);
    };
    const Invariant& inv = c.inv;
    if (inv.kind == InvariantKind::kStreamOrdered) {
      skip("stream-ordering checkers carry state and stay IR-only");
      continue;
    }
    if (inv.kind == InvariantKind::kEquality || inv.kind == InvariantKind::kOrdering) {
      // The scored checker evaluates after the LATER of the two writes
      // in IR order; no source line reproduces that evaluation point
      // (e.g. a loop counter's increment has no statement of its own),
      // so a textual assert could fire where the IR checker does not.
      skip("'" + inv.text + "' is anchored to an IR write point with no source equivalent");
      continue;
    }
    if (!inv.anchor.valid() || inv.anchor.line == 0 || inv.anchor.line > lines.size()) {
      skip("anchor line " + std::to_string(inv.anchor.line) + " is outside this source");
      continue;
    }
    const std::uint32_t anchor_at = inv.anchor.line;
    bool names_ok = true;
    for (const std::string& n : referenced_names(names, inv)) {
      if (!contains_word(source, n)) {
        skip("name '" + n + "' does not appear in the source (compiler temporary)");
        names_ok = false;
        break;
      }
    }
    if (!names_ok) continue;

    const std::string& anchor_line = lines[anchor_at - 1];
    std::string indent = anchor_line.substr(0, anchor_line.find_first_not_of(" \t"));
    if (indent.size() == anchor_line.size()) indent.clear();  // all-blank line
    const std::string assert_line = indent + "assert(" + inv.text + ");";
    if (contains_word(source, "assert(" + inv.text + ")")) {
      skip("an identical assert already exists in the source");
      continue;
    }
    inserts[anchor_at].push_back(assert_line);
    ++out.emitted;
  }

  // Insert bottom-up so earlier line numbers stay valid.
  for (auto it = inserts.rbegin(); it != inserts.rend(); ++it) {
    lines.insert(lines.begin() + it->first, it->second.begin(), it->second.end());
  }
  for (std::size_t i = 0; i < lines.size(); ++i) {
    out.source += lines[i];
    if (i + 1 < lines.size()) out.source += "\n";
  }
  if (!source.empty() && source.back() == '\n' && !out.source.empty() &&
      out.source.back() != '\n') {
    out.source += "\n";
  }
  return out;
}

}  // namespace hlsav::mine
