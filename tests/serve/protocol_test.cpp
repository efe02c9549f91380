// hlsavd wire protocol: submit round-trip, feed specs, reply lines.
#include "serve/protocol.h"

#include <gtest/gtest.h>

#include "support/jsonl.h"

namespace hlsav::serve {
namespace {

TEST(Protocol, SubmitRoundTripsEveryField) {
  CampaignSpec spec;
  spec.design_path = "/tmp/some dir/clamp.c";
  spec.feeds = "f.in=1,2,3;f.other=9";
  spec.assertions = "unoptimized";
  spec.seed = 42;
  spec.max_faults = 10;
  spec.max_cycles = 123456;
  spec.site_wall_ms = 2.5;
  spec.workers = 3;
  spec.priority = -2;
  spec.crash_at = {7, 11};
  spec.crash_limit = 4;
  spec.stall_at = {5};

  StatusOr<CampaignSpec> back = decode_submit(encode_submit(spec));
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back->design_path, spec.design_path);
  EXPECT_EQ(back->feeds, spec.feeds);
  EXPECT_EQ(back->assertions, spec.assertions);
  EXPECT_EQ(back->seed, spec.seed);
  EXPECT_EQ(back->max_faults, spec.max_faults);
  EXPECT_EQ(back->max_cycles, spec.max_cycles);
  EXPECT_EQ(back->site_wall_ms, spec.site_wall_ms);
  EXPECT_EQ(back->workers, spec.workers);
  EXPECT_EQ(back->priority, spec.priority);
  EXPECT_EQ(back->crash_at, spec.crash_at);
  EXPECT_EQ(back->crash_limit, spec.crash_limit);
  EXPECT_EQ(back->stall_at, spec.stall_at);
}

TEST(Protocol, SubmitDefaultsSurviveMinimalLine) {
  CampaignSpec spec;
  spec.design_path = "design.c";
  StatusOr<CampaignSpec> back = decode_submit(encode_submit(spec));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->assertions, "optimized");
  EXPECT_EQ(back->seed, 1u);
  EXPECT_EQ(back->priority, 0);
  EXPECT_TRUE(back->crash_at.empty());
}

TEST(Protocol, SubmitWithoutDesignIsInvalid) {
  StatusOr<CampaignSpec> back = decode_submit("{\"type\":\"submit\"}");
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
}

TEST(Protocol, SubmitWithBogusAssertionModeIsInvalid) {
  CampaignSpec spec;
  spec.design_path = "d.c";
  spec.assertions = "sometimes";
  StatusOr<CampaignSpec> back = decode_submit(encode_submit(spec));
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
}

TEST(Protocol, FeedSpecParsesMultipleStreams) {
  StatusOr<std::map<std::string, std::vector<std::uint64_t>>> feeds =
      parse_feed_spec("f.in=1,2,3;f.sel=0");
  ASSERT_TRUE(feeds.ok()) << feeds.status().to_string();
  ASSERT_EQ(feeds->size(), 2u);
  EXPECT_EQ(feeds->at("f.in"), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(feeds->at("f.sel"), (std::vector<std::uint64_t>{0}));
}

TEST(Protocol, EmptyFeedSpecMeansNoFeeds) {
  StatusOr<std::map<std::string, std::vector<std::uint64_t>>> feeds = parse_feed_spec("");
  ASSERT_TRUE(feeds.ok());
  EXPECT_TRUE(feeds->empty());
}

TEST(Protocol, MalformedFeedSpecIsInvalid) {
  EXPECT_FALSE(parse_feed_spec("noequals").ok());
  EXPECT_FALSE(parse_feed_spec("f.in=1,notanumber").ok());
}

TEST(Protocol, RejectedReplyCarriesCodeAndMessage) {
  std::string line = encode_rejected(Status::unavailable("queue full (cap 4)"));
  std::string type, code, message;
  ASSERT_TRUE(jsonl::parse_string(line, "type", type));
  ASSERT_TRUE(jsonl::parse_string(line, "code", code));
  ASSERT_TRUE(jsonl::parse_string(line, "message", message));
  EXPECT_EQ(type, "rejected");
  EXPECT_EQ(code, "unavailable");
  EXPECT_EQ(message, "queue full (cap 4)");
}

TEST(Protocol, WorkerHeartbeatLinesParse) {
  std::string starting = encode_worker_starting(17);
  // A result line is the site's journal record, tagged with its type.
  std::string site =
      encode_worker_site("{\"site\":17,\"outcome\":\"detected\",\"detected_by\":[2],\"cycles\":40}");
  std::string type, outcome;
  std::uint64_t s = 0;
  ASSERT_TRUE(jsonl::parse_string(starting, "type", type));
  EXPECT_EQ(type, "starting");
  ASSERT_TRUE(jsonl::parse_u64(starting, "site", s));
  EXPECT_EQ(s, 17u);
  ASSERT_TRUE(jsonl::parse_string(site, "type", type));
  EXPECT_EQ(type, "site");
  ASSERT_TRUE(jsonl::parse_u64(site, "site", s));
  EXPECT_EQ(s, 17u);
  ASSERT_TRUE(jsonl::parse_string(site, "outcome", outcome));
  EXPECT_EQ(outcome, "detected");
  ASSERT_TRUE(jsonl::parse_u64(site, "cycles", s));
  EXPECT_EQ(s, 40u);
}

}  // namespace
}  // namespace hlsav::serve
