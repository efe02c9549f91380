// Per-site wall-clock watchdog: the Deadline plumbing through the
// simulator, its campaign classification, and the bounded buffers that
// keep a pathological site from exhausting memory.
#include <gtest/gtest.h>

#include <string>

#include "assertions/options.h"
#include "assertions/synthesize.h"
#include "common/test_util.h"
#include "sim/campaign.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace hlsav::sim {
namespace {

using hlsav::testing::compile;

struct H {
  ir::Design design;
  sched::DesignSchedule schedule;
  ExternRegistry externs;
  std::map<std::string, std::vector<std::uint64_t>> feeds;
};

H make_clamp() {
  auto c = compile(R"(
    void clamp(stream_in<32> in, stream_out<32> out) {
      for (uint32 i = 0; i < 6; i++) {
        uint32 v = stream_read(in);
        uint32 y = v;
        if (y > 255) { y = 255; }
        assert(y <= 255);
        stream_write(out, y);
      }
    }
  )");
  H h;
  h.design = c->design.clone();
  assertions::synthesize(h.design, assertions::Options::optimized());
  ir::verify(h.design);
  h.schedule = sched::schedule_design(h.design);
  h.feeds = {{"clamp.in", {1, 2, 3, 300, 5, 6}}};
  return h;
}

TEST(Watchdog, ExpiredDeadlineStopsRunDeterministically) {
  H h = make_clamp();
  SimOptions so;
  Deadline dl = Deadline::in_ms(0.0);  // already expired: checked at entry
  so.deadline = &dl;
  Simulator simulator(h.design, h.schedule, h.externs, so);
  for (const auto& [stream, values] : h.feeds) {
    ASSERT_TRUE(simulator.try_feed(stream, values).ok());
  }
  RunResult r = simulator.run();
  EXPECT_EQ(r.status, RunStatus::kDeadline);
  EXPECT_EQ(r.cycles, 0u);
}

TEST(Watchdog, GenerousDeadlineDoesNotPerturbTheRun) {
  H h = make_clamp();
  RunResult plain;
  {
    Simulator simulator(h.design, h.schedule, h.externs, {});
    for (const auto& [stream, values] : h.feeds) {
      ASSERT_TRUE(simulator.try_feed(stream, values).ok());
    }
    plain = simulator.run();
  }
  SimOptions so;
  Deadline dl = Deadline::in_ms(60'000.0);
  so.deadline = &dl;
  Simulator simulator(h.design, h.schedule, h.externs, so);
  for (const auto& [stream, values] : h.feeds) {
    ASSERT_TRUE(simulator.try_feed(stream, values).ok());
  }
  RunResult r = simulator.run();
  EXPECT_EQ(r.status, plain.status);
  EXPECT_EQ(r.cycles, plain.cycles);
}

TEST(Watchdog, CampaignClassifiesExpiredBudgetAsBudgetExceeded) {
  H h = make_clamp();
  const Program program(h.design, h.schedule);
  GoldenRef golden = golden_run(program, h.externs, h.feeds, {});
  std::vector<FaultSpec> sites = enumerate_fault_sites(h.design, h.schedule);
  ASSERT_FALSE(sites.empty());
  // A 1e-9 ms budget has expired before the run starts: the watchdog
  // fires at the entry check, so the classification is deterministic.
  FaultResult r =
      run_fault(program, h.externs, h.feeds, golden, sites[0], {}, 100'000, nullptr, 1e-9);
  EXPECT_EQ(r.outcome, FaultOutcome::kBudgetExceeded);
  EXPECT_EQ(r.cycles, 0u);
}

TEST(Watchdog, CampaignReportRendersBudgetTally) {
  H h = make_clamp();
  CampaignOptions opt;
  opt.site_wall_ms = 1e-9;  // every site blows the budget immediately
  CampaignReport r = run_campaign(h.design, h.schedule, h.externs, h.feeds, opt);
  EXPECT_EQ(r.count(FaultOutcome::kBudgetExceeded), r.results.size());
  std::string rendered = r.render(h.design);
  EXPECT_NE(rendered.find("budget-exceeded"), std::string::npos) << rendered;
}

TEST(Watchdog, BudgetedCampaignIsDeterministicAcrossThreads) {
  H h = make_clamp();
  CampaignOptions serial;
  serial.site_wall_ms = 1e-9;
  serial.threads = 1;
  CampaignOptions par = serial;
  par.threads = 4;
  CampaignReport a = run_campaign(h.design, h.schedule, h.externs, h.feeds, serial);
  CampaignReport b = run_campaign(h.design, h.schedule, h.externs, h.feeds, par);
  b.threads = a.threads;
  EXPECT_EQ(a.render(h.design), b.render(h.design));
}

TEST(Watchdog, OutcomeNameIsStable) {
  // The journal serializes outcomes by name; renaming breaks resume.
  EXPECT_STREQ(fault_outcome_name(FaultOutcome::kBudgetExceeded), "budget-exceeded");
}

TEST(Watchdog, TraceEngineCapacityIsHardCapped) {
  trace::TraceConfig cfg;
  cfg.capacity = trace::TraceEngine::kMaxCapacity * 4;  // absurd request
  H h = make_clamp();
  trace::TraceEngine engine(h.design, cfg);
  EXPECT_TRUE(engine.capacity_clamped());
  EXPECT_EQ(engine.config().capacity, trace::TraceEngine::kMaxCapacity);

  trace::TraceConfig sane;
  sane.capacity = 64;
  trace::TraceEngine ok_engine(h.design, sane);
  EXPECT_FALSE(ok_engine.capacity_clamped());
  EXPECT_EQ(ok_engine.config().capacity, 64u);
}

TEST(Watchdog, DeadlineInMsIsMonotonicFutureInstant) {
  Deadline near = Deadline::in_ms(0.0);
  EXPECT_TRUE(near.expired());
  Deadline far = Deadline::in_ms(60'000.0);
  EXPECT_FALSE(far.expired());
}

}  // namespace
}  // namespace hlsav::sim
