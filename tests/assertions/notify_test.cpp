#include <gtest/gtest.h>

#include "assertions/notify.h"
#include "assertions/options.h"
#include "assertions/synthesize.h"
#include "common/test_util.h"

namespace hlsav::assertions {
namespace {

using hlsav::testing::compile;

const char* kTwoAssertSrc = R"(
  void p(stream_in<32> in) {
    uint32 x;
    x = stream_read(in);
    assert(x > 0);
    assert(x < 100);
  }
)";

TEST(Notify, DecodesFailStreamIds) {
  auto c = compile(kTwoAssertSrc);
  ir::Design d = c->design.clone();
  synthesize(d, Options::unoptimized());
  ir::StreamId fs = d.assertions[0].fail_stream;
  auto ids = decode_failure_word(d, fs, 1);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], 1u);
}

TEST(Notify, DecodesPackedWords) {
  auto c = compile(kTwoAssertSrc);
  ir::Design d = c->design.clone();
  Options opt;
  opt.share_channels = true;
  synthesize(d, opt);
  ir::StreamId fs = d.assertions[0].fail_stream;
  // Bits 0 and 1 set: both assertions failed.
  auto ids = decode_failure_word(d, fs, 0b11);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], 0u);
  EXPECT_EQ(ids[1], 1u);
  // Only bit 1.
  ids = decode_failure_word(d, fs, 0b10);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], 1u);
}

TEST(Notify, HaltsOnFirstFailureByDefault) {
  auto c = compile(kTwoAssertSrc);
  ir::Design d = c->design.clone();
  synthesize(d, Options::unoptimized());
  NotificationIndex index(d);
  NotificationFunction notify(index);
  bool halt = notify.on_word(d.assertions[0].fail_stream, 0, /*cycle=*/42);
  EXPECT_TRUE(halt);
  EXPECT_TRUE(notify.aborted());
  ASSERT_EQ(notify.failures().size(), 1u);
  EXPECT_EQ(notify.failures()[0].cycle, 42u);
  EXPECT_NE(notify.failures()[0].message.find("Assertion `x > 0' failed."), std::string::npos);
  EXPECT_NE(notify.failures()[0].message.find("test.c:"), std::string::npos);
}

TEST(Notify, NabortKeepsRunning) {
  auto c = compile(kTwoAssertSrc);
  ir::Design d = c->design.clone();
  Options opt;
  opt.nabort = true;
  synthesize(d, opt);
  NotificationIndex index(d);
  NotificationFunction notify(index);
  EXPECT_FALSE(notify.on_word(d.assertions[0].fail_stream, 0, 1));
  EXPECT_FALSE(notify.on_word(d.assertions[1].fail_stream, 1, 2));
  EXPECT_FALSE(notify.aborted());
  EXPECT_EQ(notify.failures().size(), 2u);
}

TEST(Notify, SinkInvokedPerFailure) {
  auto c = compile(kTwoAssertSrc);
  ir::Design d = c->design.clone();
  Options opt;
  opt.nabort = true;
  synthesize(d, opt);
  NotificationIndex index(d);
  NotificationFunction notify(index);
  std::vector<std::uint32_t> seen;
  notify.set_sink([&seen](const Failure& f) { seen.push_back(f.assertion_id); });
  (void)notify.on_word(d.assertions[1].fail_stream, 1, 5);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], 1u);
}

TEST(Notify, RenderListsAllFailures) {
  auto c = compile(kTwoAssertSrc);
  ir::Design d = c->design.clone();
  synthesize(d, Options::unoptimized());
  NotificationIndex index(d);
  NotificationFunction notify(index);
  (void)notify.on_word(d.assertions[0].fail_stream, 0, 7);
  std::string out = notify.render();
  EXPECT_NE(out.find("x > 0"), std::string::npos);
  EXPECT_NE(out.find("[cycle 7]"), std::string::npos);
  EXPECT_NE(out.find("aborted"), std::string::npos);
}

}  // namespace
}  // namespace hlsav::assertions
