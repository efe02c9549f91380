// ProgressHub unit tests: bounded-buffer coalescing under
// back-pressure, critical-frame delivery guarantees, and the
// snapshot-then-tail contract for late subscribers.
#include "serve/hub.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

namespace hlsav::serve {
namespace {

JobView make_view(std::uint64_t id) {
  JobView v;
  v.id = id;
  v.design = "/tmp/clamp.c";
  return v;
}

WatchFrame progress_frame(std::uint64_t done) {
  WatchFrame f;
  f.cls = WatchFrame::Cls::kProgress;
  f.line = "{\"type\":\"progress\",\"done\":" + std::to_string(done) + "}";
  return f;
}

WatchFrame site_frame(std::uint64_t site) {
  WatchFrame f;
  f.cls = WatchFrame::Cls::kSite;
  f.line = "{\"type\":\"site-done\",\"site\":" + std::to_string(site) + "}";
  return f;
}

WatchFrame critical_frame(const std::string& line, const std::string& payload = "") {
  WatchFrame f;
  f.cls = WatchFrame::Cls::kCritical;
  f.line = line;
  f.payload = payload;
  return f;
}

/// Drains every frame currently reachable for `sub` until end-of-stream
/// or timeout.
std::vector<WatchFrame> drain(ProgressHub& hub, const std::shared_ptr<ProgressHub::Subscription>& sub) {
  std::vector<WatchFrame> frames;
  for (;;) {
    std::optional<WatchFrame> f = hub.next(sub, 200);
    if (!f.has_value()) {
      if (sub->finished()) break;
      break;  // timeout: nothing more is coming in this test
    }
    frames.push_back(std::move(*f));
  }
  return frames;
}

TEST(ProgressHub, SubscribeToUnknownJobIsTyped) {
  ProgressHub hub;
  StatusOr<std::shared_ptr<ProgressHub::Subscription>> sub = hub.subscribe(42);
  EXPECT_FALSE(sub.ok());
  EXPECT_EQ(sub.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProgressHub, FramesFlowInOrderToAnActiveSubscriber) {
  ProgressHub hub;
  hub.open_job(make_view(1));
  StatusOr<std::shared_ptr<ProgressHub::Subscription>> sub = hub.subscribe(1);
  ASSERT_TRUE(sub.ok());

  hub.publish(make_view(1), {progress_frame(1)});
  hub.publish(make_view(1), {critical_frame("{\"type\":\"state\",\"state\":\"running\"}")});
  hub.publish(make_view(1), {progress_frame(2)});
  hub.close_job(1);

  std::vector<WatchFrame> frames = drain(hub, *sub);
  // snapshot + 3 published frames, in publish order.
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_NE(frames[0].line.find("\"type\":\"snapshot\""), std::string::npos) << frames[0].line;
  EXPECT_NE(frames[1].line.find("\"done\":1"), std::string::npos);
  EXPECT_NE(frames[2].line.find("\"state\":\"running\""), std::string::npos);
  EXPECT_NE(frames[3].line.find("\"done\":2"), std::string::npos);
  EXPECT_TRUE((*sub)->finished());
}

TEST(ProgressHub, SlowSubscriberCoalescesProgressButKeepsEveryCriticalFrame) {
  // Tiny coalesce threshold so the buffer saturates fast.
  ProgressHub hub(/*coalesce_after=*/4);
  hub.open_job(make_view(1));
  StatusOr<std::shared_ptr<ProgressHub::Subscription>> sub = hub.subscribe(1);
  ASSERT_TRUE(sub.ok());

  // A subscriber that never reads while 100 progress ticks, 100 site
  // heartbeats, and 10 critical frames land.
  for (int i = 0; i < 100; ++i) {
    hub.publish(make_view(1), {progress_frame(static_cast<std::uint64_t>(i))});
    hub.publish(make_view(1), {site_frame(static_cast<std::uint64_t>(i))});
  }
  std::vector<std::string> critical_lines;
  for (int i = 0; i < 10; ++i) {
    std::string line = "{\"type\":\"worker-crashed\",\"n\":" + std::to_string(i) + "}";
    critical_lines.push_back(line);
    hub.publish(make_view(1), {critical_frame(line)});
  }
  hub.publish(make_view(1), {critical_frame("{\"type\":\"done\",\"job\":1,\"status\":\"ok\"}")});
  hub.close_job(1);

  std::vector<WatchFrame> frames = drain(hub, *sub);
  EXPECT_TRUE((*sub)->finished());
  // The buffer never grew past snapshot + coalesce_after + criticals:
  // progress collapsed onto the newest same-class frame.
  EXPECT_LE(frames.size(), 1u + 4u + 11u);
  EXPECT_GT((*sub)->coalesced(), 0u);
  EXPECT_GT(hub.coalesced_total(), 0u);

  // The *latest* progress and site values survived.
  bool saw_latest_progress = false;
  bool saw_latest_site = false;
  std::size_t criticals_seen = 0;
  for (const WatchFrame& f : frames) {
    if (f.line.find("\"done\":99") != std::string::npos) saw_latest_progress = true;
    if (f.line.find("\"site\":99") != std::string::npos) saw_latest_site = true;
    if (f.cls == WatchFrame::Cls::kCritical) ++criticals_seen;
  }
  EXPECT_TRUE(saw_latest_progress);
  EXPECT_TRUE(saw_latest_site);
  // snapshot + 10 crash frames + done: every critical, byte-identical.
  EXPECT_EQ(criticals_seen, 12u);
  for (const std::string& line : critical_lines) {
    bool found = false;
    for (const WatchFrame& f : frames) {
      if (f.line == line) found = true;
    }
    EXPECT_TRUE(found) << "lost critical frame " << line;
  }
}

TEST(ProgressHub, LateSubscriberOfAClosedJobGetsSnapshotThenTerminalFrames) {
  ProgressHub hub;
  hub.open_job(make_view(7));
  JobView finished = make_view(7);
  finished.state = "done";
  finished.done = 19;
  finished.total = 19;
  // Report (critical, with payload) then done, as the service publishes.
  hub.publish(finished, {critical_frame("{\"type\":\"report\",\"job\":7,\"bytes\":11}",
                                        "report body")});
  hub.publish(finished, {critical_frame("{\"type\":\"done\",\"job\":7,\"status\":\"ok\"}")});
  hub.close_job(7);

  StatusOr<std::shared_ptr<ProgressHub::Subscription>> sub = hub.subscribe(7);
  ASSERT_TRUE(sub.ok());
  std::vector<WatchFrame> frames = drain(hub, *sub);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_NE(frames[0].line.find("\"type\":\"snapshot\""), std::string::npos);
  EXPECT_NE(frames[0].line.find("\"state\":\"done\""), std::string::npos) << frames[0].line;
  EXPECT_NE(frames[1].line.find("\"type\":\"report\""), std::string::npos);
  EXPECT_EQ(frames[1].payload, "report body");
  EXPECT_NE(frames[2].line.find("\"type\":\"done\""), std::string::npos);
  EXPECT_TRUE((*sub)->finished());
}

TEST(ProgressHub, PublishNeverBlocksOnAStuckSubscriber) {
  ProgressHub hub(/*coalesce_after=*/2);
  hub.open_job(make_view(1));
  StatusOr<std::shared_ptr<ProgressHub::Subscription>> sub = hub.subscribe(1);
  ASSERT_TRUE(sub.ok());

  // 10k publishes against a subscriber that never reads must finish
  // promptly; a blocking or unbounded hub would hang or balloon here.
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 10000; ++i) {
    hub.publish(make_view(1), {progress_frame(static_cast<std::uint64_t>(i))});
  }
  double ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(ms, 5000.0);
  EXPECT_EQ(hub.published_total(), 10000u);
  hub.close_job(1);
}

TEST(ProgressHub, ShutdownWakesABlockedNextCall) {
  ProgressHub hub;
  hub.open_job(make_view(1));
  StatusOr<std::shared_ptr<ProgressHub::Subscription>> sub = hub.subscribe(1);
  ASSERT_TRUE(sub.ok());
  // Eat the snapshot so the next call actually waits.
  (void)hub.next(*sub, 200);

  std::atomic<bool> done{false};
  std::thread waiter([&] {
    while (!(*sub)->finished()) {
      if (!hub.next(*sub, 10'000).has_value() && (*sub)->finished()) break;
    }
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  hub.shutdown();
  waiter.join();
  EXPECT_TRUE(done.load());
}

TEST(ProgressHub, UnsubscribeDropsTheSubscriberFromFanout) {
  ProgressHub hub;
  hub.open_job(make_view(1));
  StatusOr<std::shared_ptr<ProgressHub::Subscription>> sub = hub.subscribe(1);
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(hub.subscriber_count(), 1u);
  hub.unsubscribe(*sub);
  EXPECT_EQ(hub.subscriber_count(), 0u);
  hub.publish(make_view(1), {progress_frame(1)});  // must not crash or enqueue
  hub.close_job(1);
}

}  // namespace
}  // namespace hlsav::serve
