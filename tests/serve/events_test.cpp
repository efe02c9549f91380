// EventFold: the counters, job views, key table and event-log lines the
// daemon derives from its JobEvent stream, checked on scripted streams
// with no daemon, sockets or locks involved.
#include "serve/events.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

namespace hlsav::serve {
namespace {

using K = JobEvent::Kind;

struct Stream {
  EventFold fold{"test-incarnation"};
  std::vector<std::string> names;
  std::uint64_t now_us = 0;

  void feed(const JobEvent& e) {
    now_us += 1000;
    EventFold::LogLine line = fold.apply(e, now_us);
    if (!line.name.empty()) names.push_back(line.name);
  }
  std::uint64_t counter(const std::string& name) const {
    for (const metrics::Counter& c : fold.registry.counters()) {
      if (c.name == name) return c.value;
    }
    return ~0ull;
  }
  std::size_t logged(const std::string& name) const {
    std::size_t n = 0;
    for (const std::string& s : names) n += s == name ? 1 : 0;
    return n;
  }
};

CampaignSpec clamp_spec() {
  CampaignSpec spec;
  spec.design_path = "/tmp/clamp.c";
  spec.priority = 2;
  spec.key = "k1";
  return spec;
}

TEST(EventFold, ScriptedJobKeepsCountersEventsAndViewInAgreement) {
  Stream r;
  CampaignSpec spec = clamp_spec();
  r.feed({.kind = K::kAdmitted, .job = 1, .detail = "submit", .spec = &spec});
  r.feed({.kind = K::kQueued, .job = 1, .detail = "submit"});
  // The submitting client's own subscription, then a real watcher.
  r.feed({.kind = K::kWatchSubscribed, .job = 1, .submitter = true});
  r.feed({.kind = K::kWatchSubscribed, .job = 1});
  EXPECT_EQ(r.fold.queued, 1u);
  EXPECT_EQ(r.fold.view(1)->state, "queued");

  r.feed({.kind = K::kStarted, .job = 1});
  EXPECT_EQ(r.fold.queued, 0u);
  EXPECT_EQ(r.fold.running, 1u);
  EXPECT_EQ(r.fold.key_info("k1")->state, "running");
  r.feed({.kind = K::kPhaseBegin, .job = 1, .detail = "shard"});
  r.feed({.kind = K::kProgress, .job = 1, .done = 3, .total = 20});
  r.feed({.kind = K::kWorkerAssigned, .job = 1, .worker = 0, .detail = "reused"});
  r.feed({.kind = K::kWorkerAssigned, .job = 1, .worker = 1, .detail = "spawned"});
  r.feed({.kind = K::kSiteStarted, .job = 1, .site = 4, .worker = 1});
  r.feed({.kind = K::kWorkerCrashed, .job = 1, .site = 4, .worker = 1, .detail = "signal 9"});
  r.feed({.kind = K::kQuarantined, .job = 1, .site = 4, .worker = 1});
  r.feed({.kind = K::kSiteDone, .job = 1, .site = 5, .worker = 0, .detail = "benign"});
  r.feed({.kind = K::kPhaseBegin, .job = 1, .detail = "merge"});
  EXPECT_EQ(r.fold.view(1)->state, "merging");
  r.feed({.kind = K::kReport, .job = 1, .payload = "report"});
  for (int i = 0; i < 4; ++i) {
    r.feed({.kind = K::kWatchFrame, .job = 1, .submitter = true});
    r.feed({.kind = K::kWatchFrame, .job = 1});
  }
  r.feed({.kind = K::kFinished, .job = 1, .total = 1234, .state = "done"});
  r.feed({.kind = K::kWatchClosed, .job = 1, .done = 4, .total = 1, .submitter = true});
  r.feed({.kind = K::kWatchClosed, .job = 1, .done = 4, .total = 2});

  EXPECT_EQ(r.names, (std::vector<std::string>{"job-submitted", "watch-subscribed",
                                               "job-started", "worker-assigned",
                                               "worker-assigned", "worker-crashed",
                                               "site-quarantined", "job-completed",
                                               "watch-closed"}));
  // Each counter agrees with its event-log line count.
  EXPECT_EQ(r.counter("jobs_submitted"), r.logged("job-submitted"));
  EXPECT_EQ(r.counter("jobs_completed"), r.logged("job-completed"));
  EXPECT_EQ(r.counter("worker_respawns"), r.logged("worker-crashed"));
  EXPECT_EQ(r.counter("sites_quarantined"), r.logged("site-quarantined"));
  EXPECT_EQ(r.counter("watch_subscribers"), r.logged("watch-subscribed"));
  EXPECT_EQ(r.counter("workers_spawned") + r.counter("workers_reused"),
            r.logged("worker-assigned"));
  EXPECT_EQ(r.counter("workers_reused"), 1u);
  // The submitter is neither a watch subscriber nor a watch frame sink.
  EXPECT_EQ(r.counter("watch_subscribers"), 1u);
  EXPECT_EQ(r.counter("watch_frames_sent"), 4u);
  EXPECT_EQ(r.counter("watch_frames_coalesced"), 2u);
  EXPECT_EQ(r.counter("sites_done"), 1u);
  EXPECT_EQ(r.counter("journal_bytes"), 1234u);
  EXPECT_EQ(r.counter("jobs_failed"), 0u);

  const JobView* v = r.fold.view(1);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->state, "done");
  EXPECT_EQ(v->design, "/tmp/clamp.c");
  EXPECT_EQ(v->priority, 2);
  EXPECT_EQ(v->done, 3u);
  EXPECT_EQ(v->total, 20u);
  EXPECT_EQ(v->respawns, 1u);
  EXPECT_EQ(v->quarantined, 1u);
  EXPECT_EQ(r.fold.running, 0u);
  EXPECT_EQ(r.fold.completed, 1u);
  ASSERT_EQ(r.fold.worker_stats.size(), 2u);
  EXPECT_EQ(r.fold.worker_stats[1], (std::pair<std::uint64_t, std::uint64_t>{1, 1}));
  std::optional<EventFold::KeyInfo> key = r.fold.key_info("k1");
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(key->job, 1u);
  EXPECT_EQ(key->state, "done");
  EXPECT_EQ(key->submit_line, encode_submit(spec));
}

TEST(EventFold, CompiledSitesAreCountedAndAFallbackNoteIsLogged) {
  Stream r;
  CampaignSpec spec = clamp_spec();
  for (std::uint64_t job : {1u, 2u}) {
    r.feed({.kind = K::kAdmitted, .job = job, .detail = "submit", .spec = &spec});
    r.feed({.kind = K::kQueued, .job = job, .detail = "submit"});
    r.feed({.kind = K::kStarted, .job = job});
  }
  r.feed({.kind = K::kSiteDone, .job = 1, .site = 0, .detail = "benign", .compiled = true});
  r.feed({.kind = K::kSiteDone, .job = 1, .site = 1, .detail = "benign", .compiled = true});
  r.feed({.kind = K::kSiteDone, .job = 2, .site = 0, .detail = "benign"});
  EXPECT_EQ(r.counter("sites_done"), 3u);
  EXPECT_EQ(r.counter("sites_compiled"), 2u);
  // Only a job with a fallback note names one in its log line.
  auto note_of = [&](const EventFold::LogLine& line) {
    EXPECT_EQ(line.name, "job-completed");
    for (const EventLog::Field& f : line.fields) {
      if (f.key == "engine_note") return f.value;
    }
    return std::string("<none>");
  };
  EXPECT_EQ(note_of(r.fold.apply({.kind = K::kFinished, .job = 1, .state = "done"}, 1)),
            "<none>");
  EXPECT_EQ(note_of(r.fold.apply(
                {.kind = K::kFinished, .job = 2, .state = "done", .engine_note = "why"}, 2)),
            "why");
}

TEST(EventFold, JobsThatNeverRunLeaveTheQueueNotTheRunningCount) {
  Stream r;
  CampaignSpec a = clamp_spec();
  CampaignSpec b = clamp_spec();
  b.key = "k2";
  r.feed({.kind = K::kAdmitted, .job = 1, .detail = "submit", .spec = &a});
  r.feed({.kind = K::kQueued, .job = 1, .detail = "submit"});
  r.feed({.kind = K::kAdmitted, .job = 2, .detail = "submit", .spec = &b});
  r.feed({.kind = K::kQueued, .job = 2, .detail = "submit"});
  r.feed({.kind = K::kFinished, .job = 1, .state = "deadline-expired", .detail = "late"});
  r.feed({.kind = K::kAborted, .job = 2, .detail = "shutting down"});
  EXPECT_EQ(r.fold.queued, 0u);
  EXPECT_EQ(r.fold.running, 0u);
  EXPECT_EQ(r.fold.completed, 1u);
  EXPECT_EQ(r.fold.rejected, 1u);
  EXPECT_EQ(r.counter("jobs_deadline_expired"), 1u);
  EXPECT_EQ(r.counter("jobs_failed"), 1u);
  EXPECT_EQ(r.counter("jobs_rejected"), 1u);
  EXPECT_EQ(r.fold.key_info("k1")->state, "deadline-expired");
  EXPECT_EQ(r.fold.key_info("k2")->state, "aborted");
  EXPECT_EQ(r.fold.view(2)->state, "aborted");
  EXPECT_EQ(r.logged("job-aborted"), 1u);
}

TEST(EventFold, BootRecoveryRestoresKeysAndFlagsDuplicates) {
  Stream r;
  r.feed({.kind = K::kRestored, .job = 3, .state = "done", .detail = "{line}", .key = "k"});
  r.feed({.kind = K::kRestored, .job = 5, .state = "queued", .detail = "{other}", .key = "k"});
  EXPECT_EQ(r.fold.key_info("k")->job, 3u);  // the earliest job owns the key
  EXPECT_EQ(r.fold.key_info("k")->submit_line, "{line}");
  r.feed({.kind = K::kSettled, .job = 7, .state = "deadline-expired", .key = "gone"});
  r.feed({.kind = K::kRecovered, .done = 2, .total = 1});
  EXPECT_EQ(r.names, (std::vector<std::string>{"spool-duplicate-key", "job-deadline-expired",
                                               "daemon-recovered"}));
  EXPECT_EQ(r.counter("spool_quarantined"), 2u);
  EXPECT_EQ(r.counter("jobs_deadline_expired"), 1u);
}

}  // namespace
}  // namespace hlsav::serve
