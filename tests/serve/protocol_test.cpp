// hlsavd wire protocol: submit round-trip, feed specs, reply lines.
#include "serve/protocol.h"

#include <gtest/gtest.h>

#include "sim/journal.h"
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

TEST(Protocol, SubmitWithANegativeOrNonFiniteSiteWallMsIsInvalid) {
  // Such a budget would reach the job journal's header, and nan or inf
  // there is not JSON.
  for (const char* value : {"-5", "nan", "inf", "-inf", "1e999"}) {
    StatusOr<CampaignSpec> back = decode_submit(
        std::string("{\"type\":\"submit\",\"design\":\"d.c\",\"site_wall_ms\":") + value + "}");
    ASSERT_FALSE(back.ok()) << value;
    EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument) << value;
  }
  EXPECT_TRUE(decode_submit("{\"type\":\"submit\",\"design\":\"d.c\",\"site_wall_ms\":0}").ok());
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
  std::string site = encode_worker_site(
      "{\"site\":17,\"outcome\":\"detected\",\"detected_by\":[2],\"cycles\":40}", true, "");
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

TEST(Protocol, WorkerSiteLineNamesItsEngineAfterTheJournalRecord) {
  sim::FaultResult r;
  r.site.id = 4;
  r.outcome = sim::FaultOutcome::kDetected;
  r.detected_by = {1, 3};
  r.cycles = 99;
  const std::string record = sim::journal_line(r);
  const std::string body = "{\"type\":\"site\"," + record.substr(1, record.size() - 2);

  // A compiled site names its engine and never carries a note.
  EXPECT_EQ(encode_worker_site(record, true, "ignored"), body + ",\"engine\":\"compiled\"}");
  // An interpreted site carries the simulator's reason, escaped.
  std::string interp = encode_worker_site(record, false, "memory 'm' is \"wide\"");
  EXPECT_EQ(interp, body + ",\"engine\":\"interpreter\",\"engine_note\":"
                           "\"memory 'm' is \\\"wide\\\"\"}");
  std::string engine, note;
  ASSERT_TRUE(jsonl::parse_string(interp, "engine", engine));
  EXPECT_EQ(engine, "interpreter");
  ASSERT_TRUE(jsonl::parse_string(interp, "engine_note", note));
  EXPECT_EQ(note, "memory 'm' is \"wide\"");
  EXPECT_EQ(encode_worker_site(record, false, ""), body + ",\"engine\":\"interpreter\"}");

  // The journal parser ignores the engine keys: the supervisor's
  // re-encoded record is the worker's, byte for byte.
  sim::FaultResult back;
  ASSERT_TRUE(sim::parse_journal_line(interp, back));
  EXPECT_EQ(sim::journal_line(back), record);
}

}  // namespace
}  // namespace hlsav::serve
