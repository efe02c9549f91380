// Shared by the end-to-end service tests: the clamp design they run as
// a campaign, its single-process hlsavc reference report, and a live
// hlsavd daemon that a test can kill and restart.
#pragma once

#include <gtest/gtest.h>

#include <signal.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/test_util.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "support/subprocess.h"

#ifndef HLSAVD_PATH
#define HLSAVD_PATH "hlsavd"
#endif
#ifndef HLSAVC_PATH
#define HLSAVC_PATH "hlsavc"
#endif

namespace hlsav::testing {

/// Six words through a clamp with one assertion: small enough that a
/// whole campaign takes milliseconds, with sites of every outcome.
inline constexpr const char* kClampSrc = R"(
void clamp(stream_in<32> in, stream_out<32> out) {
  for (uint32 i = 0; i < 6; i++) {
    uint32 v = stream_read(in);
    uint32 y = v;
    if (y > 255) { y = 255; }
    assert(y <= 255);
    stream_write(out, y);
  }
}
)";

inline constexpr const char* kClampFeed = "clamp.in=1,2,3,300,5,6";

/// The campaign the service tests submit: kClampFeed, seed 7.
inline serve::CampaignSpec clamp_spec(const std::string& design_path) {
  serve::CampaignSpec spec;
  spec.design_path = design_path;
  spec.feeds = kClampFeed;
  spec.seed = 7;
  return spec;
}

/// Runs hlsavc with `args` and returns its stdout (stderr is dropped).
inline std::string run_hlsavc(const std::string& args) {
  std::string cmd = std::string(HLSAVC_PATH) + " " + args + " 2>/dev/null";
  std::array<char, 4096> buf{};
  std::string out;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return out;
  while (fgets(buf.data(), static_cast<int>(buf.size()), pipe) != nullptr) out += buf.data();
  pclose(pipe);
  return out;
}

/// hlsavc's single-process report of clamp_spec(design), which every
/// daemon job on it must match byte for byte. The report names the
/// design path, so both sides must use the same string.
inline std::string clamp_reference(const std::string& design) {
  return run_hlsavc("faultsim " + design + " --campaign --seed=7 --feed " + kClampFeed);
}

/// A live hlsavd daemon for one test, serving on a private socket and
/// work dir with `flags`. The paths stay fixed, so restart() brings up a
/// new incarnation on the same spool. Readiness is a status round trip,
/// never the socket file: a stale socket survives kill -9. Destruction
/// asks for a shutdown and falls back to SIGKILL.
class Daemon {
 public:
  explicit Daemon(std::vector<std::string> flags = {}) : flags_(std::move(flags)) {
    const std::string n = std::to_string(counter_++);
    socket = temp_path("d" + n + ".sock");
    work_dir = daemon_work_dir("dwork" + n);
    start();
  }

  ~Daemon() {
    if (!proc.has_value()) return;
    if (!proc->poll().has_value()) {
      (void)serve::request_shutdown(socket);
      for (int i = 0; i < 500 && !proc->poll().has_value(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    if (!proc->poll().has_value()) proc->kill(SIGKILL);
    (void)proc->wait();
  }

  /// Graceful shutdown; returns the daemon's own exit info.
  ExitInfo shutdown() {
    EXPECT_TRUE(serve::request_shutdown(socket).ok());
    return proc->wait();
  }

  /// Blocks until a --die-at daemon's self-inflicted SIGKILL lands.
  ExitInfo wait_killed() {
    for (int i = 0; i < 3000 && !proc->poll().has_value(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_TRUE(proc->poll().has_value()) << "daemon outlived its --die-at phase";
    if (!proc->poll().has_value()) proc->kill(SIGKILL);
    return proc->wait();
  }

  /// A new incarnation with the same flags, once the old one has exited.
  /// A durable --die-at token makes it immune to the phase that killed
  /// its predecessor.
  void restart() {
    (void)proc->wait();
    start();
  }

  std::string socket;
  std::string work_dir;
  std::optional<Subprocess> proc;

 private:
  void start() {
    std::vector<std::string> argv = {HLSAVD_PATH, "serve", "--socket=" + socket,
                                     "--work-dir=" + work_dir};
    argv.insert(argv.end(), flags_.begin(), flags_.end());
    proc.reset();
    StatusOr<Subprocess> p = Subprocess::spawn(argv, /*capture_stdout=*/false);
    ASSERT_TRUE(p.ok()) << p.status().to_string();
    proc.emplace(std::move(*p));
    bool ready = false;
    for (int i = 0; i < 1000 && !ready; ++i) {
      ready = serve::query_status(socket).ok();
      if (!ready) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_TRUE(ready) << "daemon never answered status on " << socket;
  }

  std::vector<std::string> flags_;
  static inline int counter_ = 0;
};

}  // namespace hlsav::testing
