// Simulator tests: functional correctness, cycle accounting, blocking
// streams, hang detection, and the full §5.1 divergence scenarios
// (software simulation passes, in-circuit execution fails).
#include <gtest/gtest.h>

#include "assertions/options.h"
#include "assertions/synthesize.h"
#include "common/test_util.h"
#include "sim/simulator.h"

namespace hlsav::sim {
namespace {

using assertions::Options;
using hlsav::testing::compile;

struct Harness {
  ir::Design design;
  sched::DesignSchedule schedule;
  ExternRegistry externs;
  SimOptions opts;

  Simulator make() { return Simulator(design, schedule, externs, opts); }
};

Harness harness(const std::string& src, const Options& assert_opt, SimMode mode = SimMode::kHardware) {
  auto c = compile(src);
  Harness h;
  h.design = c->design.clone();
  assertions::synthesize(h.design, assert_opt);
  ir::verify(h.design);
  h.schedule = sched::schedule_design(h.design);
  h.opts.mode = mode;
  return h;
}

const char* kLoopbackSrc = R"(
  void loopback(stream_in<32> in, stream_out<32> out) {
    for (uint32 i = 0; i < 4; i++) {
      uint32 v;
      v = stream_read(in);
      stream_write(out, v + 1);
    }
  }
)";

TEST(Simulator, LoopbackRoundTrip) {
  Harness h = harness(kLoopbackSrc, Options::ndebug());
  Simulator sim = h.make();
  sim.feed("loopback.in", {10, 20, 30, 40});
  RunResult r = sim.run();
  EXPECT_EQ(r.status, RunStatus::kCompleted);
  EXPECT_EQ(sim.received("loopback.out"), (std::vector<std::uint64_t>{11, 21, 31, 41}));
  EXPECT_GT(r.cycles, 0u);
}

TEST(Simulator, CycleAccountingMatchesSchedule) {
  Harness h = harness(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 x;
      x = stream_read(in);
      stream_write(out, x + 1);
    }
  )", Options::ndebug());
  Simulator sim = h.make();
  sim.feed("f.in", {5});
  RunResult r = sim.run();
  EXPECT_EQ(r.status, RunStatus::kCompleted);
  // The schedule's passing-path states bound the run (single execution).
  const ir::Process& p = *h.design.find_process("f");
  unsigned expect = sched::passing_path_states(p, *h.schedule.find("f"));
  EXPECT_EQ(r.cycles, expect);
}

TEST(Simulator, ProcessToProcessStreams) {
  auto c = compile(R"(
    void producer(stream_in<32> in, stream_out<32> to_b) {
      for (uint32 i = 0; i < 4; i++) {
        stream_write(to_b, stream_read(in) * 2);
      }
    }
    void consumer(stream_in<32> from_a, stream_out<32> out) {
      for (uint32 i = 0; i < 4; i++) {
        stream_write(out, stream_read(from_a) + 1);
      }
    }
  )");
  ir::Design d = c->design.clone();
  // Rewire producer.to_b -> consumer.from_a through one stream.
  ir::StreamId link = d.find_process("producer")->find_port("to_b")->stream;
  d.connect_consumer(link, "consumer", "from_a");
  assertions::synthesize(d, Options::ndebug());
  ir::verify(d);
  sched::DesignSchedule sch = sched::schedule_design(d);
  ExternRegistry ext;
  Simulator sim(d, sch, ext, {});
  sim.feed("producer.in", {1, 2, 3, 4});
  RunResult r = sim.run();
  EXPECT_EQ(r.status, RunStatus::kCompleted);
  EXPECT_EQ(sim.received("consumer.out"), (std::vector<std::uint64_t>{3, 5, 7, 9}));
}

TEST(Simulator, PipelinedLoopCycleModel) {
  Harness h = harness(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 x;
      x = stream_read(in);
      uint32 acc;
      acc = 0;
      #pragma HLS pipeline
      for (uint32 i = 0; i < 10; i++) {
        acc = acc + x + i;
      }
      stream_write(out, acc);
    }
  )", Options::ndebug());
  Simulator sim = h.make();
  sim.feed("f.in", {3});
  RunResult r = sim.run();
  EXPECT_EQ(r.status, RunStatus::kCompleted);
  // acc = sum(3 + i) = 30 + 45.
  EXPECT_EQ(sim.received("f.out"), (std::vector<std::uint64_t>{75}));
  const ir::Process& p = *h.design.find_process("f");
  sched::LoopPerf perf = sched::loop_perf(*h.schedule.find("f"), p.loops[0].body);
  // 10 iterations: latency + 9 * rate cycles inside the loop.
  EXPECT_EQ(perf.rate, 1u);
  EXPECT_GE(r.cycles, perf.latency + 9 * perf.rate);
}

TEST(Simulator, HangDetectionWithReport) {
  Harness h = harness(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      for (uint32 i = 0; i < 8; i++) {
        stream_write(out, stream_read(in));
      }
    }
  )", Options::ndebug());
  Simulator sim = h.make();
  sim.feed("f.in", {1, 2});  // two of eight: the read on iteration 3 hangs
  RunResult r = sim.run();
  EXPECT_EQ(r.status, RunStatus::kHung);
  EXPECT_NE(r.hang_report.find("process 'f' stuck"), std::string::npos);
  EXPECT_NE(r.hang_report.find("stream_read"), std::string::npos);
}

// ------------------------------------------------ assertion reporting --

const char* kAssertSrc = R"(
  void f(stream_in<32> in, stream_out<32> out) {
    for (uint32 i = 0; i < 4; i++) {
      uint32 v;
      v = stream_read(in);
      assert(v < 100);
      stream_write(out, v);
    }
  }
)";

TEST(Simulator, UnoptimizedAssertionPassesCleanly) {
  Harness h = harness(kAssertSrc, Options::unoptimized());
  Simulator sim = h.make();
  sim.feed("f.in", {1, 2, 3, 4});
  RunResult r = sim.run();
  EXPECT_EQ(r.status, RunStatus::kCompleted);
  EXPECT_TRUE(r.failures.empty());
}

TEST(Simulator, UnoptimizedAssertionFailureAborts) {
  Harness h = harness(kAssertSrc, Options::unoptimized());
  Simulator sim = h.make();
  sim.feed("f.in", {1, 200, 3, 4});
  RunResult r = sim.run();
  EXPECT_EQ(r.status, RunStatus::kAborted);
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_NE(r.failures[0].message.find("Assertion `v < 100' failed."), std::string::npos);
}

TEST(Simulator, ParallelizedCheckerDetectsFailure) {
  Options opt;
  opt.parallelize = true;
  Harness h = harness(kAssertSrc, opt);
  Simulator sim = h.make();
  sim.feed("f.in", {1, 200, 3, 4});
  RunResult r = sim.run();
  EXPECT_EQ(r.status, RunStatus::kAborted);
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_EQ(r.failures[0].assertion_id, 0u);
}

TEST(Simulator, SharedChannelFailureDecoded) {
  Options opt;
  opt.share_channels = true;
  Harness h = harness(kAssertSrc, opt);
  Simulator sim = h.make();
  sim.feed("f.in", {1, 200, 3, 4});
  RunResult r = sim.run();
  EXPECT_EQ(r.status, RunStatus::kAborted);
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_NE(r.failures[0].message.find("v < 100"), std::string::npos);
}

TEST(Simulator, FullyOptimizedAssertions) {
  Harness h = harness(kAssertSrc, Options::optimized());
  Simulator sim = h.make();
  sim.feed("f.in", {1, 2, 300, 4});
  RunResult r = sim.run();
  EXPECT_EQ(r.status, RunStatus::kAborted);
  ASSERT_EQ(r.failures.size(), 1u);
}

TEST(Simulator, NabortContinuesAndCollectsAll) {
  Options opt = Options::unoptimized();
  opt.nabort = true;
  Harness h = harness(kAssertSrc, opt);
  Simulator sim = h.make();
  sim.feed("f.in", {200, 2, 300, 4});
  RunResult r = sim.run();
  EXPECT_EQ(r.status, RunStatus::kCompleted);
  EXPECT_EQ(r.failures.size(), 2u);
  EXPECT_EQ(sim.received("f.out"), (std::vector<std::uint64_t>{200, 2, 300, 4}));
}

TEST(Simulator, AssertZeroTraceMarkers) {
  // The paper's §5.1 hang-tracing idiom: assert(0) markers + NABORT.
  Options opt = Options::unoptimized();
  opt.nabort = true;
  Harness h = harness(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 v;
      v = stream_read(in);
      assert(0);
      stream_write(out, v);
      assert(0);
    }
  )", opt);
  Simulator sim = h.make();
  sim.feed("f.in", {7});
  RunResult r = sim.run();
  EXPECT_EQ(r.status, RunStatus::kCompleted);
  ASSERT_EQ(r.failures.size(), 2u);  // both markers reached
  EXPECT_EQ(r.failures[0].assertion_id, 0u);
  EXPECT_EQ(r.failures[1].assertion_id, 1u);
}

TEST(Simulator, ReplicatedArrayAssertionCoherent) {
  Options opt = Options::optimized();
  Harness h = harness(R"(
    void k(stream_in<32> in, stream_out<32> out) {
      uint32 x;
      x = stream_read(in);
      uint32 acc;
      acc = 0;
      uint32 b[16];
      #pragma HLS pipeline
      for (uint32 i = 0; i < 16; i++) {
        acc = acc + b[i];
        b[i] = x + i;
        assert(b[i] < 50);
      }
      stream_write(out, acc);
    }
  )", opt);
  {
    Simulator sim = h.make();
    sim.feed("k.in", {10});  // max written value 10+15=25 < 50: passes
    RunResult r = sim.run();
    EXPECT_EQ(r.status, RunStatus::kCompleted);
    EXPECT_TRUE(r.failures.empty());
  }
  {
    Simulator sim = h.make();
    sim.feed("k.in", {40});  // 40+10=50 fails at i=10
    RunResult r = sim.run();
    EXPECT_EQ(r.status, RunStatus::kAborted);
    ASSERT_EQ(r.failures.size(), 1u);
  }
}

// --------------------------------------------- §5.1 divergence studies --

const char* kNarrowCompareSrc = R"(
  void f(stream_in<32> in, stream_out<32> out) {
    uint32 mem[32];
    uint32 addr;
    uint64 c1;
    uint64 c2;
    c1 = 4294967296;
    c2 = stream_read(in);
    addr = 0;
    if (c2 > c1) {
      addr = 31;
    }
    assert(addr < 32);
    mem[addr] = 1;
    stream_write(out, mem[addr] + addr);
  }
)";

TEST(Simulator, NarrowCompareFaultDivergence) {
  // Software simulation: source semantics, assertion passes.
  {
    auto c = compile(kNarrowCompareSrc);
    ir::Design d = c->design.clone();
    ir::verify(d);
    sched::DesignSchedule sch = sched::schedule_design(d);
    ExternRegistry ext;
    SimOptions so;
    so.mode = SimMode::kSoftware;
    Simulator sim(d, sch, ext, so);
    sim.feed("f.in", {4294967286u});
    RunResult r = sim.run();
    EXPECT_EQ(r.status, RunStatus::kCompleted);
    EXPECT_TRUE(r.failures.empty());
  }
  // In-circuit execution with the Impulse-C narrowing fault injected:
  // 4294967286 > 4294967296 becomes 22 > 0 at 5 bits -> addr = 31, but
  // let's assert something the bug violates.
  {
    auto c = compile(R"(
      void f(stream_in<32> in, stream_out<32> out) {
        uint64 c1;
        uint64 c2;
        c1 = 4294967296;
        c2 = stream_read(in);
        uint32 addr;
        addr = 0;
        if (c2 > c1) {
          addr = 99;
        }
        assert(addr == 0);
        stream_write(out, addr);
      }
    )");
    ir::Design d = c->design.clone();
    assertions::synthesize(d, assertions::Options::unoptimized());
    ir::verify(d);
    sched::DesignSchedule sch = sched::schedule_design(d);
    ExternRegistry ext;
    SimOptions so;
    so.mode = SimMode::kHardware;
    so.faults.add(FaultSpec::narrow_compare("f", 0, 5));
    Simulator sim(d, sch, ext, so);
    sim.feed("f.in", {4294967286u});
    RunResult r = sim.run();
    EXPECT_EQ(r.status, RunStatus::kAborted);
    ASSERT_EQ(r.failures.size(), 1u);
    EXPECT_NE(r.failures[0].message.find("addr == 0"), std::string::npos);
  }
}

TEST(Simulator, ExternHdlModelDivergence) {
  // The C model and the HDL behaviour disagree (paper §5.1, second
  // example): software simulation passes, the circuit fails.
  const char* src = R"(
    extern uint32 accel(uint32 v);
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 r;
      r = accel(stream_read(in));
      assert(r < 100);
      stream_write(out, r);
    }
  )";
  ExternRegistry ext;
  ext.add("accel",
          [](const std::vector<BitVector>& a) {  // C model: halves
            return BitVector::from_u64(32, a[0].to_u64() / 2);
          },
          [](const std::vector<BitVector>& a) {  // HDL: doubles (buggy core)
            return BitVector::from_u64(32, a[0].to_u64() * 2);
          });
  auto c = compile(src);
  {
    ir::Design d = c->design.clone();
    sched::DesignSchedule sch = sched::schedule_design(d);
    SimOptions so;
    so.mode = SimMode::kSoftware;
    Simulator sim(d, sch, ext, so);
    sim.feed("f.in", {80});
    RunResult r = sim.run();
    EXPECT_EQ(r.status, RunStatus::kCompleted);  // 80/2 = 40 < 100
  }
  {
    ir::Design d = c->design.clone();
    assertions::synthesize(d, assertions::Options::optimized());
    ir::verify(d);
    sched::DesignSchedule sch = sched::schedule_design(d);
    Simulator sim(d, sch, ext, {});
    sim.feed("f.in", {80});
    RunResult r = sim.run();
    EXPECT_EQ(r.status, RunStatus::kAborted);  // 80*2 = 160 >= 100
  }
}

TEST(Simulator, RomLookups) {
  Harness h = harness(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      const uint32 lut[4] = {7, 11, 13, 17};
      for (uint32 i = 0; i < 4; i++) {
        uint32 k;
        k = stream_read(in);
        stream_write(out, lut[k]);
      }
    }
  )", Options::ndebug());
  Simulator sim = h.make();
  sim.feed("f.in", {3, 0, 1, 2});
  RunResult r = sim.run();
  EXPECT_EQ(r.status, RunStatus::kCompleted);
  EXPECT_EQ(sim.received("f.out"), (std::vector<std::uint64_t>{17, 7, 11, 13}));
}

TEST(Simulator, FailureCycleStamped) {
  Harness h = harness(kAssertSrc, Options::unoptimized());
  Simulator sim = h.make();
  sim.feed("f.in", {1, 2, 3, 400});
  RunResult r = sim.run();
  ASSERT_EQ(r.failures.size(), 1u);
  // The fourth element fails; the stamp must be later than three loop
  // iterations' worth of cycles.
  EXPECT_GT(r.failures[0].cycle, 3u);
}

TEST(Simulator, ConvenienceEntryPoint) {
  auto c = compile(kLoopbackSrc);
  ir::Design d = c->design.clone();
  assertions::synthesize(d, Options::ndebug());
  ExternRegistry ext;
  RunResult r = simulate(d, ext, {{"loopback.in", {1, 2, 3, 4}}});
  EXPECT_EQ(r.status, RunStatus::kCompleted);
}

}  // namespace
}  // namespace hlsav::sim
