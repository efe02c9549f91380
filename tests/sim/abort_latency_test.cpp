// An assertion failure reaches the CPU when it is raised.
//
// The probe designs are one process that writes a CPU-consumed stream
// every loop iteration and never yields: a CPU stream never fills, so
// the process never blocks. Its assertion fails on iteration k. The
// notification function must still see that failure within iteration
// k, under every synthesis strategy and on both engines, and an abort
// must stop the run there: RunResult::cycles is the failing iteration's
// data-write cycle plus a fixed latency (the notification's, or in a
// pipelined loop the iteration's retirement), and the CPU holds exactly
// the words written before the failure. Delivered only when the sender
// yields, the failure would wait here for the end of the run (or for
// the cycle backstop, in a design that never ends).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "codegen/codegen_test_util.h"
#include "trace/trace.h"

namespace hlsav::sim {
namespace {

using assertions::Options;

constexpr unsigned kIters = 48;

/// Fails `i < k` on iteration k and on every later one.
std::string value_probe(unsigned k) {
  return R"(
    void probe(stream_out<32> out) {
      for (uint32 i = 0; i < 48; i++) {
        stream_write(out, i);
        assert(i < )" + std::to_string(k) + R"();
      }
    }
  )";
}

/// The same loop, pipelined: a halt lands at an iteration boundary.
std::string pipelined_probe(unsigned k) {
  return R"(
    void probe(stream_out<32> out) {
      #pragma HLS pipeline
      for (uint32 i = 0; i < 48; i++) {
        stream_write(out, i);
        assert(i < )" + std::to_string(k) + R"();
      }
    }
  )";
}

/// From iteration k on, each iteration runs an inner loop that blows
/// the per-iteration cycle budget of the timing assertion.
std::string timing_probe(unsigned k) {
  return R"(
    void probe(stream_out<32> out) {
      for (uint32 i = 0; i < 48; i++) {
        stream_write(out, i);
        uint32 acc;
        acc = 0;
        if (i >= )" + std::to_string(k) + R"() {
          for (uint32 j = 0; j < 8; j++) {
            acc = acc + j;
          }
        }
        assert_cycles(12);
      }
    }
  )";
}

struct ProbeCase {
  const char* name;
  std::string (*source)(unsigned);
  Options opt;
  bool pipelined = false;
};

std::vector<ProbeCase> probe_cases() {
  Options parallel;  // one checker process, one kAssertFail stream
  parallel.parallelize = true;
  Options grouped = Options::optimized();
  grouped.group_checkers = true;
  return {
      {"unoptimized", value_probe, Options::unoptimized()},
      {"parallelized", value_probe, parallel},
      {"optimized (shared channel)", value_probe, Options::optimized()},
      {"grouped checkers", value_probe, grouped},
      {"assert_cycles unoptimized", timing_probe, Options::unoptimized()},
      {"assert_cycles optimized", timing_probe, Options::optimized()},
      {"pipelined unoptimized", pipelined_probe, Options::unoptimized(), true},
      {"pipelined optimized", pipelined_probe, Options::optimized(), true},
  };
}

std::vector<std::uint64_t> iota(unsigned n) {
  std::vector<std::uint64_t> v(n);
  for (unsigned i = 0; i < n; ++i) v[i] = i;
  return v;
}

/// Cycle of every iteration's data write (`stream_write(out, i)`), from
/// the ELA window of an interpreter run of the NABORT build, which runs
/// them all. The ring holds the whole run: nothing is overwritten.
std::vector<std::uint64_t> data_write_cycles(const codegen::DiffRig& rig,
                                             const std::string& src) {
  const auto at = static_cast<std::ptrdiff_t>(src.find("stream_write(out, i)"));
  const auto line = static_cast<std::uint32_t>(std::count(src.begin(), src.begin() + at, '\n') + 1);
  trace::TraceConfig tc;
  tc.capacity = std::size_t{1} << 14;
  trace::TraceEngine engine(rig.design, tc);
  SimOptions so;
  so.ela = &engine;
  Simulator sim(rig.design, rig.schedule, rig.externs, so);
  RunResult r = sim.run();
  EXPECT_EQ(r.status, RunStatus::kCompleted);
  EXPECT_EQ(engine.dropped(), 0u);
  std::vector<std::uint64_t> out;
  for (const trace::TraceRecord& e : engine.window()) {
    if (e.kind == trace::TraceEventKind::kStreamPush && e.loc.line == line) out.push_back(e.cycle);
  }
  return out;
}

TEST(AbortLatency, FailureStopsTheRunInItsOwnIteration) {
  HLSAV_REQUIRE_COMPILER();
  for (const ProbeCase& c : probe_cases()) {
    SCOPED_TRACE(c.name);
    // Offsets from the failing iteration's data write: to the CPU's
    // notification, and to where the aborted run stops. Both belong to
    // the synthesized design, not to the iteration that failed.
    std::optional<std::uint64_t> notify;
    std::optional<std::uint64_t> stop;
    for (unsigned k : {3u, 7u}) {
      SCOPED_TRACE("k=" + std::to_string(k));
      const std::string src = c.source(k);
      codegen::DiffRig abort_rig = codegen::make_rig(src, c.opt);
      Options nabort_opt = c.opt;
      nabort_opt.nabort = true;
      codegen::DiffRig nabort_rig = codegen::make_rig(src, nabort_opt);
      ASSERT_EQ(abort_rig.prep_error, "");
      ASSERT_EQ(nabort_rig.prep_error, "");

      std::vector<std::uint64_t> writes = data_write_cycles(nabort_rig, src);
      ASSERT_EQ(writes.size(), kIters);

      for (SimEngine eng : {SimEngine::kInterpreter, SimEngine::kCompiled}) {
        SCOPED_TRACE(eng == SimEngine::kCompiled ? "compiled" : "interpreter");
        codegen::EngineRun ab = codegen::run_engine(abort_rig, eng, {}, {"probe.out"});
        EXPECT_EQ(ab.engine_active, eng == SimEngine::kCompiled) << ab.engine_note;
        const RunResult& r = ab.result;
        EXPECT_EQ(r.status, RunStatus::kAborted);
        ASSERT_EQ(r.failures.size(), 1u);
        const std::uint64_t notified = r.failures[0].cycle;
        ASSERT_GT(notified, writes[k]);
        if (!notify) notify = notified - writes[k];
        EXPECT_EQ(notified - writes[k], *notify);
        ASSERT_GE(r.cycles, writes[k]);
        if (!stop) stop = r.cycles - writes[k];
        EXPECT_EQ(r.cycles - writes[k], *stop);
        EXPECT_LE(r.cycles, notified);
        if (!c.pipelined) {
          // A sequential run stops on the cycle the CPU was notified,
          // before iteration k+1 writes. (A pipelined one stops where
          // iteration k retires, which overlaps later iterations.)
          EXPECT_EQ(r.cycles, notified);
          EXPECT_LT(notified, writes[k + 1]);
        }
        EXPECT_EQ(ab.outputs.at("probe.out"), iota(k + 1));

        // NABORT: the same first failure, then one more in each later
        // iteration at the same latency, and the run completes.
        codegen::EngineRun nb = codegen::run_engine(nabort_rig, eng, {}, {"probe.out"});
        EXPECT_EQ(nb.result.status, RunStatus::kCompleted);
        ASSERT_EQ(nb.result.failures.size(), kIters - k);
        for (std::size_t j = 0; j < nb.result.failures.size(); ++j) {
          EXPECT_EQ(nb.result.failures[j].cycle, writes[k + j] + *notify) << "failure " << j;
        }
        EXPECT_EQ(nb.outputs.at("probe.out"), iota(kIters));
      }
    }
  }
}

}  // namespace
}  // namespace hlsav::sim
