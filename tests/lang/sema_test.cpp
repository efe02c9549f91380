#include <gtest/gtest.h>

#include "lang/parser.h"
#include "lang/sema.h"

namespace hlsav::lang {
namespace {

struct Analyzed {
  SourceManager sm;
  DiagnosticEngine diags;
  std::unique_ptr<Program> program;
  SemaResult result;
};

std::unique_ptr<Analyzed> analyze_src(const std::string& src, bool expect_ok = true) {
  auto a = std::make_unique<Analyzed>();
  a->diags.attach(&a->sm);
  a->program = parse_source(a->sm, a->diags, "test.c", src);
  EXPECT_FALSE(a->diags.has_errors()) << a->diags.render();
  a->result = analyze(*a->program, a->sm, a->diags);
  if (expect_ok) {
    EXPECT_TRUE(a->result.ok) << a->diags.render();
  } else {
    EXPECT_FALSE(a->result.ok);
  }
  return a;
}

TEST(Sema, TypesExpressions) {
  auto a = analyze_src(R"(
    void f(stream_in<16> in) {
      uint16 x;
      int32 y;
      x = stream_read(in);
      y = x + 1;
    }
  )");
  const Function& f = *a->program->functions[0];
  const Stmt& add = *f.body[3];
  // x:uint16 + 1:int32 -> common width 32, unsigned (mixed signedness).
  EXPECT_EQ(add.rhs->type.width(), 32u);
  EXPECT_FALSE(add.rhs->type.is_signed());
}

TEST(Sema, ComparisonIsBool) {
  auto a = analyze_src(R"(
    void f(stream_in<32> in) {
      uint32 x;
      bool b;
      b = x > 10;
    }
  )");
  const Stmt& s = *a->program->functions[0]->body[2];
  EXPECT_EQ(s.rhs->type.width(), 1u);
}

TEST(Sema, ShiftKeepsLhsType) {
  auto a = analyze_src(R"(
    void f(stream_in<32> in) {
      uint8 x;
      uint8 y;
      y = x << 4;
    }
  )");
  const Stmt& s = *a->program->functions[0]->body[2];
  EXPECT_EQ(s.rhs->type.width(), 8u);
}

TEST(Sema, AssertionsCatalogued) {
  auto a = analyze_src(R"(
    void p1(stream_in<32> in) {
      uint32 x;
      x = stream_read(in);
      assert(x > 0);
      assert(x < 100);
    }
    void p2(stream_in<32> in) {
      uint32 y;
      y = stream_read(in);
      assert(y != 7);
    }
  )");
  ASSERT_EQ(a->result.assertions.size(), 3u);
  EXPECT_EQ(a->result.assertions[0].id, 0u);
  EXPECT_EQ(a->result.assertions[0].function, "p1");
  EXPECT_EQ(a->result.assertions[2].function, "p2");
  EXPECT_EQ(a->result.assertions[1].condition_text, "x < 100");
}

TEST(Sema, FailureMessageFormat) {
  auto a = analyze_src(R"(
    void p(stream_in<32> in) {
      uint32 x;
      x = stream_read(in);
      assert(x > 0);
    }
  )");
  const AssertionInfo& info = a->result.assertions[0];
  EXPECT_EQ(info.failure_message(),
            "test.c:5: p: Assertion `x > 0' failed.");
}

TEST(Sema, UndeclaredIdentifier) {
  analyze_src("void f(stream_in<32> in) { x = 1; }", /*expect_ok=*/false);
}

TEST(Sema, RedeclarationRejected) {
  analyze_src("void f(stream_in<32> in) { uint32 x; uint8 x; }", /*expect_ok=*/false);
}

TEST(Sema, ConstAssignmentRejected) {
  analyze_src("void f(stream_in<32> in) { const uint32 c = 1; c = 2; }", /*expect_ok=*/false);
}

TEST(Sema, ConstRequiresInitializer) {
  analyze_src("void f(stream_in<32> in) { const uint32 c; }", /*expect_ok=*/false);
}

TEST(Sema, StreamDirectionEnforced) {
  analyze_src("void f(stream_in<32> in) { stream_write(in, 1); }", /*expect_ok=*/false);
  analyze_src("void f(stream_out<32> out) { uint32 x; x = stream_read(out); }",
              /*expect_ok=*/false);
}

TEST(Sema, StreamAsValueRejected) {
  analyze_src("void f(stream_in<32> in) { uint32 x; x = in + 1; }", /*expect_ok=*/false);
}

TEST(Sema, ArrayMustBeIndexed) {
  analyze_src("void f(stream_in<32> in) { uint32 a[4]; uint32 x; x = a; }",
              /*expect_ok=*/false);
}

TEST(Sema, WholeArrayAssignmentRejected) {
  analyze_src("void f(stream_in<32> in) { uint32 a[4]; a = 1; }", /*expect_ok=*/false);
}

TEST(Sema, ArrayInitializerSizeChecked) {
  analyze_src("void f(stream_in<32> in) { uint8 a[3] = {1, 2}; }", /*expect_ok=*/false);
}

TEST(Sema, BreakOutsideLoopRejected) {
  analyze_src("void f(stream_in<32> in) { break; }", /*expect_ok=*/false);
}

TEST(Sema, CallNonExternRejected) {
  analyze_src(R"(
    void g(stream_in<32> in) {}
    void f(stream_in<32> in) { uint32 x; x = g(1); }
  )", /*expect_ok=*/false);
}

TEST(Sema, ExternCallArityChecked) {
  analyze_src(R"(
    extern uint32 clz(uint32 v);
    void f(stream_in<32> in) { uint32 x; x = clz(1, 2); }
  )", /*expect_ok=*/false);
}

TEST(Sema, ExternCallWellTyped) {
  auto a = analyze_src(R"(
    extern uint8 popcount(uint32 v);
    void f(stream_in<32> in) {
      uint8 x;
      x = popcount(stream_read(in));
    }
  )");
  const Stmt& s = *a->program->functions[1]->body[1];
  EXPECT_EQ(s.rhs->type.width(), 8u);
}

TEST(Sema, PipelinePragmaOnNonLoopWarns) {
  auto a = std::make_unique<Analyzed>();
  a->diags.attach(&a->sm);
  a->program = parse_source(a->sm, a->diags, "t.c",
                            "void f(stream_in<32> in) {\n#pragma HLS pipeline\nuint32 x;\n}");
  EXPECT_TRUE(analyze(*a->program, a->sm, a->diags).ok);
  bool warned = false;
  for (const auto& d : a->diags.diagnostics()) {
    if (d.severity == Severity::kWarning) warned = true;
  }
  EXPECT_TRUE(warned);
  // And the pragma was stripped.
  EXPECT_FALSE(a->program->functions[0]->body[0]->pragmas.pipeline);
}

TEST(Sema, RedefinedFunctionRejected) {
  analyze_src(R"(
    void f(stream_in<32> in) {}
    void f(stream_in<32> in) {}
  )", /*expect_ok=*/false);
}

TEST(Sema, ExternMustReturnInteger) {
  analyze_src("extern void nothing(uint32 x);", /*expect_ok=*/false);
}

}  // namespace
}  // namespace hlsav::lang
