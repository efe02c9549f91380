// Subprocess supervision primitives: spawn, poll, kill, classify.
#include "support/subprocess.h"

#include <gtest/gtest.h>
#include <signal.h>

#include <chrono>
#include <thread>

namespace hlsav {
namespace {

TEST(Subprocess, CleanExitIsClassified) {
  StatusOr<Subprocess> p = Subprocess::spawn({"true"}, /*capture_stdout=*/false);
  ASSERT_TRUE(p.ok()) << p.status().to_string();
  ExitInfo info = p->wait();
  EXPECT_TRUE(info.clean());
  EXPECT_EQ(info.describe(), "exit 0");
}

TEST(Subprocess, NonzeroExitCodeIsReported) {
  StatusOr<Subprocess> p = Subprocess::spawn({"sh", "-c", "exit 3"}, false);
  ASSERT_TRUE(p.ok());
  ExitInfo info = p->wait();
  EXPECT_FALSE(info.clean());
  EXPECT_FALSE(info.signaled);
  EXPECT_EQ(info.value, 3);
}

TEST(Subprocess, SignalDeathIsClassifiedAsSignal) {
  StatusOr<Subprocess> p = Subprocess::spawn({"sleep", "30"}, false);
  ASSERT_TRUE(p.ok());
  p->kill(SIGKILL);
  ExitInfo info = p->wait();
  EXPECT_TRUE(info.signaled);
  EXPECT_EQ(info.value, SIGKILL);
  EXPECT_NE(info.describe().find("signal 9"), std::string::npos) << info.describe();
}

TEST(Subprocess, ExecFailureSurfacesAsExit127) {
  StatusOr<Subprocess> p =
      Subprocess::spawn({"/nonexistent/binary/definitely-not-here"}, false);
  ASSERT_TRUE(p.ok());  // the fork succeeds; exec failure is the child's exit
  ExitInfo info = p->wait();
  EXPECT_FALSE(info.signaled);
  EXPECT_EQ(info.value, 127);
}

TEST(Subprocess, CapturedStdoutIsReadable) {
  StatusOr<Subprocess> p = Subprocess::spawn({"sh", "-c", "printf 'a\\nb\\n'"}, true);
  ASSERT_TRUE(p.ok());
  ASSERT_GE(p->stdout_fd(), 0);
  std::string buf;
  // Drain until EOF; the pipe outlives the child, so everything written
  // before death is recoverable.
  while (p->read_stdout(buf)) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(buf, "a\nb\n");
  EXPECT_TRUE(p->wait().clean());
}

TEST(Subprocess, StdinPipeFeedsTheChildUntilClosed) {
  StatusOr<Subprocess> p = Subprocess::spawn({"cat"}, /*capture_stdout=*/true,
                                             /*kill_on_parent_death=*/false, /*pipe_stdin=*/true);
  ASSERT_TRUE(p.ok()) << p.status().to_string();
  ASSERT_TRUE(p->write_stdin("7\n").ok());
  ASSERT_TRUE(p->write_stdin("8\n").ok());
  p->close_stdin();  // EOF: cat exits
  std::string buf;
  while (p->read_stdout(buf)) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(buf, "7\n8\n");
  EXPECT_TRUE(p->wait().clean());
}

TEST(Subprocess, WritingToAnExitedChildIsAnErrorNotSigpipe) {
  StatusOr<Subprocess> p = Subprocess::spawn({"true"}, /*capture_stdout=*/false,
                                             /*kill_on_parent_death=*/false, /*pipe_stdin=*/true);
  ASSERT_TRUE(p.ok()) << p.status().to_string();
  ASSERT_TRUE(p->wait().clean());
  // The reader is gone: EPIPE comes back as a Status and this process
  // survives the SIGPIPE the write raised.
  Status st = p->write_stdin("1\n");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

TEST(Subprocess, PollReportsRunningThenExit) {
  StatusOr<Subprocess> p = Subprocess::spawn({"sh", "-c", "sleep 0.1"}, false);
  ASSERT_TRUE(p.ok());
  // Either still running or already done; once done, poll() stays done.
  std::optional<ExitInfo> info;
  for (int i = 0; i < 500 && !info.has_value(); ++i) {
    info = p->poll();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(info.has_value());
  EXPECT_TRUE(info->clean());
  EXPECT_TRUE(p->poll().has_value());  // cached after the reap
}

}  // namespace
}  // namespace hlsav
