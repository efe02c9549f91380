// Framework-description (Fig. 1 rendering) tests.
#include <gtest/gtest.h>

#include "assertions/options.h"
#include "assertions/report.h"
#include "assertions/synthesize.h"
#include "common/test_util.h"

namespace hlsav::assertions {
namespace {

using hlsav::testing::compile;

const char* kSrc = R"(
  void f(stream_in<32> in, stream_out<32> out) {
    uint32 acc;
    acc = 0;
    #pragma HLS replicate
    uint32 b[8];
    uint32 x;
    x = stream_read(in);
    #pragma HLS pipeline
    for (uint32 i = 0; i < 8; i++) {
      acc = acc + b[i];
      b[i] = x;
      assert(b[i] < 999);
    }
    assert(acc != 1);
    stream_write(out, acc);
  }
)";

TEST(FrameworkReport, ListsAllComponents) {
  auto c = compile(kSrc);
  ir::Design d = c->design.clone();
  synthesize(d, Options::optimized());
  std::string s = describe_framework(d);
  EXPECT_NE(s.find("application tasks:"), std::string::npos);
  EXPECT_NE(s.find("f (2 assertions)"), std::string::npos);
  EXPECT_NE(s.find("assertion checkers"), std::string::npos);
  EXPECT_NE(s.find("failure collectors"), std::string::npos);
  EXPECT_NE(s.find("replicated RAMs"), std::string::npos)
      << s.substr(0, 200);
  EXPECT_NE(s.find("mirrors f.b"), std::string::npos);
  EXPECT_NE(s.find("notification decode table:"), std::string::npos);
  EXPECT_NE(s.find("bit 0"), std::string::npos);
}

TEST(FrameworkReport, StrippedDesignShowsNoChannels) {
  auto c = compile(kSrc);
  ir::Design d = c->design.clone();
  synthesize(d, Options::ndebug());
  std::string s = describe_framework(d);
  EXPECT_NE(s.find("(none"), std::string::npos);
}

}  // namespace
}  // namespace hlsav::assertions
