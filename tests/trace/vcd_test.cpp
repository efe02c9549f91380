// VCD export validated by a minimal in-tree VCD parser: header
// hierarchy, monotonic timestamps, one-cycle strobes, unknown initial
// values, and full 64-bit vector literals.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "trace/trace.h"
#include "trace/vcd.h"

namespace hlsav::trace {
namespace {

// ------------------------------------------------------ tiny VCD parser --
// Enough of IEEE 1364-2005 §18 to validate our own writer: $scope /
// $var / $enddefinitions, $dumpvars, #timestamps, scalar (0!/1!/x!)
// and vector (b101 !) value changes.

struct VcdVar {
  std::string scope;  // dotted path, e.g. "rig.a"
  std::string name;
  std::string id;
  unsigned width = 1;
};

struct ParsedVcd {
  std::vector<VcdVar> vars;
  /// id -> value in the $dumpvars initial block ("x" / "bx").
  std::map<std::string, std::string> initial;
  /// Timestamped changes in document order: (time, id, value). Scalar
  /// values are "0"/"1"/"x"; vectors keep their full bit string.
  struct Change {
    std::uint64_t time = 0;
    std::string id;
    std::string value;
  };
  std::vector<Change> changes;
  bool saw_enddefinitions = false;

  [[nodiscard]] const VcdVar* find(const std::string& scope, const std::string& name) const {
    for (const VcdVar& v : vars) {
      if (v.scope == scope && v.name == name) return &v;
    }
    return nullptr;
  }
  [[nodiscard]] std::vector<Change> changes_of(const std::string& id) const {
    std::vector<Change> out;
    for (const Change& c : changes) {
      if (c.id == id) out.push_back(c);
    }
    return out;
  }
};

ParsedVcd parse_vcd(const std::string& text) {
  ParsedVcd doc;
  std::istringstream is(text);
  std::vector<std::string> scope_stack;
  std::string tok;
  std::uint64_t now = 0;
  bool in_dumpvars = false;
  bool in_defs = true;

  auto parse_change = [&](const std::string& word, std::istringstream& line_rest) {
    char c = word[0];
    if (c == 'b' || c == 'B') {
      std::string id;
      line_rest >> id;
      ASSERT_FALSE(id.empty()) << "vector change without identifier: " << word;
      if (in_dumpvars) {
        doc.initial[id] = word;
      } else {
        doc.changes.push_back({now, id, word.substr(1)});
      }
    } else {
      ASSERT_TRUE(c == '0' || c == '1' || c == 'x' || c == 'z') << "bad change: " << word;
      std::string id = word.substr(1);
      ASSERT_FALSE(id.empty()) << "scalar change without identifier: " << word;
      if (in_dumpvars) {
        doc.initial[id] = std::string(1, c);
      } else {
        doc.changes.push_back({now, id, std::string(1, c)});
      }
    }
  };

  std::string line;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    if (!(ls >> tok)) continue;
    if (in_defs) {
      if (tok == "$scope") {
        std::string kind, name, end;
        ls >> kind >> name >> end;
        EXPECT_EQ(kind, "module");
        EXPECT_EQ(end, "$end");
        scope_stack.push_back(name);
      } else if (tok == "$upscope") {
        EXPECT_FALSE(scope_stack.empty());
        if (!scope_stack.empty()) scope_stack.pop_back();
      } else if (tok == "$var") {
        std::string type, id, name;
        unsigned width = 0;
        ls >> type >> width >> id >> name;
        EXPECT_EQ(type, "wire");
        EXPECT_GE(width, 1u);
        std::string path;
        for (const std::string& s : scope_stack) path += path.empty() ? s : "." + s;
        doc.vars.push_back({path, name, id, width});
      } else if (tok == "$enddefinitions") {
        doc.saw_enddefinitions = true;
        EXPECT_TRUE(scope_stack.empty()) << "unbalanced $scope at $enddefinitions";
        in_defs = false;
      }
      continue;
    }
    if (tok == "$dumpvars") {
      in_dumpvars = true;
    } else if (tok == "$end") {
      in_dumpvars = false;
    } else if (tok[0] == '#') {
      now = std::stoull(tok.substr(1));
    } else {
      parse_change(tok, ls);
    }
  }
  return doc;
}

// ------------------------------------------------------------- fixtures --

struct Rig {
  ir::Design design;
  ir::Process* a = nullptr;
  ir::RegId rx = ir::kNoReg;
  ir::RegId rwide = ir::kNoReg;
  ir::StreamId s = ir::kNoStream;

  Rig() {
    design.name = "rig";
    a = &design.add_process("a");
    rx = a->add_reg("x", 32, false);
    rwide = a->add_reg("wide", 64, false);
    s = design.add_stream("a.out", 32);
    ir::AssertionRecord rec;
    rec.id = 0;
    rec.process = "a";
    rec.condition_text = "x < 10";
    design.assertions.push_back(rec);
  }
};

std::string dump(const Rig& rig, TraceEngine& eng) {
  VcdWriter w(rig.design, eng.config().filter);
  std::ostringstream os;
  w.write(os, eng.window());
  return os.str();
}

TEST(Vcd, HeaderDeclaresRtlHierarchy) {
  Rig rig;
  TraceEngine eng(rig.design);
  std::string text = dump(rig, eng);
  ParsedVcd doc = parse_vcd(text);
  EXPECT_TRUE(doc.saw_enddefinitions);

  const VcdVar* x = doc.find("rig.a", "x");
  ASSERT_NE(x, nullptr);
  EXPECT_EQ(x->width, 32u);
  const VcdVar* data = doc.find("rig.streams", "a_out_data");
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->width, 32u);
  EXPECT_NE(doc.find("rig.streams", "a_out_push"), nullptr);
  EXPECT_NE(doc.find("rig.streams", "a_out_pop"), nullptr);
  const VcdVar* fail = doc.find("rig.assertions", "assert_0_fail");
  ASSERT_NE(fail, nullptr);
  EXPECT_EQ(fail->width, 1u);

  // Identifier codes are unique.
  for (std::size_t i = 0; i < doc.vars.size(); ++i) {
    for (std::size_t j = i + 1; j < doc.vars.size(); ++j) {
      EXPECT_NE(doc.vars[i].id, doc.vars[j].id);
    }
  }
  // Every net holds 'x' until its first captured change.
  for (const VcdVar& v : doc.vars) {
    ASSERT_TRUE(doc.initial.count(v.id)) << v.name;
    EXPECT_EQ(doc.initial[v.id], v.width == 1 ? "x" : "bx") << v.name;
  }
}

TEST(Vcd, VectorWiderThan64BitsRoundTrips) {
  Rig rig;
  TraceEngine eng(rig.design);
  // The widest value, with its top bit set (no leading-zero trimming can
  // hide a lost bit).
  const BitVector wide = BitVector::from_u64(64, 0x8000'0001'0000'0001ull);
  eng.reg_write(rig.a, rig.rwide, wide, 4, {});

  ParsedVcd doc = parse_vcd(dump(rig, eng));
  const VcdVar* v = doc.find("rig.a", "wide");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->width, 64u);
  auto ch = doc.changes_of(v->id);
  ASSERT_EQ(ch.size(), 1u);
  EXPECT_EQ(ch[0].time, 4u);
  ASSERT_EQ(ch[0].value.size(), 64u);  // writer keeps full width
  // MSB-first bit string: bit 63, then ... bit 32 ... then bit 0.
  for (unsigned bit = 0; bit < 64; ++bit) {
    char expect = (bit == 0 || bit == 32 || bit == 63) ? '1' : '0';
    EXPECT_EQ(ch[0].value[63 - bit], expect) << "bit " << bit;
  }
}

TEST(Vcd, HandshakeStrobesPulseForOneCycle) {
  Rig rig;
  TraceEngine eng(rig.design);
  eng.stream_push(rig.a, rig.s, BitVector::from_u64(32, 42), 5, {});

  ParsedVcd doc = parse_vcd(dump(rig, eng));
  const VcdVar* push = doc.find("rig.streams", "a_out_push");
  ASSERT_NE(push, nullptr);
  auto strobes = doc.changes_of(push->id);
  ASSERT_EQ(strobes.size(), 2u);
  EXPECT_EQ(strobes[0].time, 5u);
  EXPECT_EQ(strobes[0].value, "1");
  EXPECT_EQ(strobes[1].time, 6u);
  EXPECT_EQ(strobes[1].value, "0");

  const VcdVar* data = doc.find("rig.streams", "a_out_data");
  ASSERT_NE(data, nullptr);
  auto dch = doc.changes_of(data->id);
  ASSERT_EQ(dch.size(), 1u);
  EXPECT_EQ(std::stoull(dch[0].value, nullptr, 2), 42u);
}

TEST(Vcd, TimestampsAreStrictlyIncreasing) {
  Rig rig;
  TraceEngine eng(rig.design);
  for (std::uint64_t c : {0, 3, 3, 7, 12}) {
    eng.reg_write(rig.a, rig.rx, BitVector::from_u64(32, c), c, {});
  }
  eng.assert_verdict(rig.a, 0, true, 12, {});

  ParsedVcd doc = parse_vcd(dump(rig, eng));
  std::uint64_t prev = 0;
  bool first = true;
  for (const auto& c : doc.changes) {
    if (!first) {
      EXPECT_GE(c.time, prev);
    }
    prev = c.time;
    first = false;
  }
  // Same-cycle rewrites collapse to the last value per signal.
  const VcdVar* x = doc.find("rig.a", "x");
  ASSERT_NE(x, nullptr);
  auto ch = doc.changes_of(x->id);
  ASSERT_EQ(ch.size(), 4u);  // cycles 0, 3 (deduped), 7, 12
  EXPECT_EQ(std::stoull(ch[1].value, nullptr, 2), 3u);
  // The failing verdict pulses high then clears.
  const VcdVar* fail = doc.find("rig.assertions", "assert_0_fail");
  ASSERT_NE(fail, nullptr);
  auto f = doc.changes_of(fail->id);
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0].value, "1");
  EXPECT_EQ(f[1].value, "0");
}

}  // namespace
}  // namespace hlsav::trace
