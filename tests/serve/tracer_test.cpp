// ServiceTracer + EventLog unit tests: span trees that validate as
// Chrome trace JSON, crash-tolerant worker tracks, and the monotonic
// append-only event log.
#include "serve/tracer.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/test_util.h"
#include "metrics/chrometrace.h"
#include "serve/events.h"

namespace hlsav::serve {
namespace {

using hlsav::testing::temp_path;
using hlsav::testing::slurp;

TEST(ServiceTracer, LifecycleSpansExportAsAValidChromeTrace) {
  ServiceTracer tracer;
  tracer.name_job(1, "job 1 clamp.c");
  tracer.begin_span(1, ServiceTracer::kLifecycleTid, "queued");
  tracer.end_span(1, ServiceTracer::kLifecycleTid, "queued");
  tracer.begin_span(1, ServiceTracer::kLifecycleTid, "run");
  tracer.begin_span(1, ServiceTracer::kLifecycleTid, "compile");
  tracer.end_span(1, ServiceTracer::kLifecycleTid, "compile");
  tracer.begin_span(1, ServiceTracer::kWorkerTidBase + 0, "s0");
  tracer.instant(1, ServiceTracer::kWorkerTidBase + 0, "respawn site s0");
  tracer.end_span(1, ServiceTracer::kWorkerTidBase + 0, "s0");
  tracer.end_span(1, ServiceTracer::kLifecycleTid, "run");

  StatusOr<std::string> json = tracer.export_json(1);
  ASSERT_TRUE(json.ok()) << json.status().to_string();
  metrics::ChromeTraceCheck chk = metrics::validate_chrome_trace(*json);
  EXPECT_TRUE(chk.ok) << chk.error;
  EXPECT_NE(json->find("\"name\": \"queued\""), std::string::npos);
  EXPECT_NE(json->find("\"name\": \"run\""), std::string::npos);
  EXPECT_NE(json->find("\"name\": \"compile\""), std::string::npos);
  EXPECT_NE(json->find("\"name\": \"respawn site s0\""), std::string::npos);
  EXPECT_NE(json->find("job 1 clamp.c"), std::string::npos);
  EXPECT_EQ(tracer.span_count(), 4u);
}

TEST(ServiceTracer, UnknownJobIsTypedAndJobZeroMeansEverything) {
  ServiceTracer tracer;
  StatusOr<std::string> missing = tracer.export_json(99);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);

  tracer.begin_span(1, ServiceTracer::kLifecycleTid, "run");
  tracer.begin_span(2, ServiceTracer::kLifecycleTid, "run");
  StatusOr<std::string> all = tracer.export_json(0);
  ASSERT_TRUE(all.ok());
  // Both jobs appear as separate trace processes.
  EXPECT_NE(all->find("\"pid\": 1"), std::string::npos);
  EXPECT_NE(all->find("\"pid\": 2"), std::string::npos);
  metrics::ChromeTraceCheck chk = metrics::validate_chrome_trace(*all);
  EXPECT_TRUE(chk.ok) << chk.error;
}

TEST(ServiceTracer, OpenSpansCloseAtExportAndCrashEatenEndsAreRepaired) {
  ServiceTracer tracer;
  // A worker crash eats the end event of s3; the next site on the same
  // track must implicitly close it instead of nesting forever.
  tracer.begin_span(1, ServiceTracer::kWorkerTidBase + 2, "s3");
  tracer.begin_span(1, ServiceTracer::kWorkerTidBase + 2, "s4");
  // "run" stays open: the export renders it as running-up-to-now.
  tracer.begin_span(1, ServiceTracer::kLifecycleTid, "run");

  StatusOr<std::string> json = tracer.export_json(1);
  ASSERT_TRUE(json.ok());
  metrics::ChromeTraceCheck chk = metrics::validate_chrome_trace(*json);
  EXPECT_TRUE(chk.ok) << chk.error;
  // Every span made it out as a complete X event (dur present >= 0).
  EXPECT_NE(json->find("\"name\": \"s3\""), std::string::npos);
  EXPECT_NE(json->find("\"name\": \"s4\""), std::string::npos);
  EXPECT_NE(json->find("\"name\": \"run\""), std::string::npos);
}

TEST(ServiceTracer, ClockIsMonotonic) {
  ServiceTracer tracer;
  std::uint64_t a = tracer.now_us();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  std::uint64_t b = tracer.now_us();
  EXPECT_GT(b, a);
}

TEST(EventLog, RecordsMonotonicSequencesAndFlushesPerLine) {
  EventLog log;
  std::string path = temp_path("events_basic.jsonl");
  ASSERT_TRUE(log.open(path).ok());
  log.record(1000, "daemon-start", {EventLog::Field::str("socket", "/tmp/x.sock")});
  log.record(2500, "job-submitted",
             {EventLog::Field::num("job", 1), EventLog::Field::str("design", "clamp.c")});
  log.record(9000, "job-completed",
             {EventLog::Field::num("job", 1), EventLog::Field::str("status", "ok")});
  EXPECT_EQ(log.sequence(), 3u);
  // Flushed per line: visible before close.
  std::string before_close = slurp(path);
  EXPECT_NE(before_close.find("\"seq\":3"), std::string::npos);
  log.close();

  std::istringstream in(slurp(path));
  std::string line;
  std::uint64_t expect_seq = 1;
  while (std::getline(in, line)) {
    EXPECT_NE(line.find("\"seq\":" + std::to_string(expect_seq) + ","), std::string::npos) << line;
    EXPECT_NE(line.find("\"event\":"), std::string::npos) << line;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++expect_seq;
  }
  EXPECT_EQ(expect_seq, 4u);
}

TEST(EventLog, AppendModeExtendsAcrossIncarnations) {
  std::string path = temp_path("events_append.jsonl");
  {
    EventLog log;
    ASSERT_TRUE(log.open(path).ok());
    log.record(10, "daemon-start", {});
  }
  {
    EventLog log;
    ASSERT_TRUE(log.open(path).ok());
    log.record(20, "daemon-start", {});
    log.record(30, "daemon-stop", {});
  }
  std::istringstream in(slurp(path));
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 3u);  // 1 from the first incarnation, 2 from the second
}

TEST(EventLog, OpeningCutsALineTornByACrash) {
  // A daemon killed mid-append leaves a partial last line; the next
  // incarnation must not glue its first record onto it.
  std::string path = temp_path("events_torn.jsonl");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "{\"seq\":1,\"ts_ms\":1.000,\"event\":\"daemon-start\"}\n"
        << "{\"seq\":2,\"ts_ms\":2.000,\"event\":\"job-submitted\",\"job\":1}\n"
        << "{\"seq\":3,\"ts";
  }
  EventLog log;
  ASSERT_TRUE(log.open(path).ok());
  log.record(10, "daemon-start", {});
  log.close();

  std::istringstream in(slurp(path));
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_EQ(line.find('{', 1), std::string::npos) << "glued lines: " << line;
    EXPECT_NE(line.find("\"event\":"), std::string::npos) << line;
  }
  EXPECT_EQ(lines, 3u);
}

TEST(EventLog, ClosedLogIgnoresRecords) {
  EventLog log;
  log.record(10, "never-lands", {});
  EXPECT_EQ(log.sequence(), 0u);
  EXPECT_FALSE(log.is_open());
}

TEST(EventLog, StringFieldsAreEscaped) {
  EventLog log;
  std::string path = temp_path("events_escape.jsonl");
  ASSERT_TRUE(log.open(path).ok());
  log.record(10, "job-submitted", {EventLog::Field::str("design", "a\"b\\c\n")});
  log.close();
  std::string text = slurp(path);
  // The jsonl dialect escapes quotes/backslashes and renders control
  // characters as \uXXXX.
  EXPECT_NE(text.find("a\\\"b\\\\c\\u000a"), std::string::npos) << text;
}

}  // namespace
}  // namespace hlsav::serve
