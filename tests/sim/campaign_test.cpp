// Campaign runner: deterministic reports, seed-independent site lists,
// and sane outcome classification against the golden run.
#include <gtest/gtest.h>

#include <filesystem>

#include "assertions/options.h"
#include "assertions/synthesize.h"
#include "common/test_util.h"
#include "sim/campaign.h"

namespace hlsav::sim {
namespace {

using hlsav::testing::compile;

struct H {
  ir::Design design;
  sched::DesignSchedule schedule;
  ExternRegistry externs;
  std::map<std::string, std::vector<std::uint64_t>> feeds;
};

H make_clamp(const assertions::Options& aopt) {
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
  assertions::synthesize(h.design, aopt);
  ir::verify(h.design);
  h.schedule = sched::schedule_design(h.design);
  h.feeds = {{"clamp.in", {1, 2, 3, 300, 5, 6}}};
  return h;
}

TEST(Campaign, EverySiteIsClassified) {
  H h = make_clamp(assertions::Options::optimized());
  CampaignReport r = run_campaign(h.design, h.schedule, h.externs, h.feeds, {});
  EXPECT_GT(r.sites_total, 0u);
  // max_faults = 0 runs the whole site list: nothing left unclassified.
  EXPECT_EQ(r.results.size(), r.sites_total);
  for (std::size_t i = 0; i < r.results.size(); ++i) {
    EXPECT_EQ(r.results[i].site.id, i);
  }
}

TEST(Campaign, SameSeedGivesByteIdenticalReport) {
  H h = make_clamp(assertions::Options::optimized());
  CampaignOptions opt;
  opt.seed = 42;
  opt.max_faults = 5;  // force the sampling path
  CampaignReport a = run_campaign(h.design, h.schedule, h.externs, h.feeds, opt);
  CampaignReport b = run_campaign(h.design, h.schedule, h.externs, h.feeds, opt);
  EXPECT_EQ(a.render(h.design), b.render(h.design));
}

TEST(Campaign, SeedOnlySelectsSitesNeverRenumbersThem) {
  H h = make_clamp(assertions::Options::optimized());
  std::vector<FaultSpec> sites = enumerate_fault_sites(h.design, h.schedule);

  CampaignOptions a_opt, b_opt;
  a_opt.seed = 1;
  b_opt.seed = 2;
  a_opt.max_faults = b_opt.max_faults = 4;
  CampaignReport a = run_campaign(h.design, h.schedule, h.externs, h.feeds, a_opt);
  CampaignReport b = run_campaign(h.design, h.schedule, h.externs, h.feeds, b_opt);

  // Different seeds may pick different subsets...
  EXPECT_EQ(a.results.size(), 4u);
  EXPECT_EQ(b.results.size(), 4u);
  // ...but both draw from the identical enumerated list: every sampled
  // site id resolves to the same FaultSpec description.
  for (const CampaignReport* rep : {&a, &b}) {
    EXPECT_EQ(rep->sites_total, sites.size());
    for (const FaultResult& f : rep->results) {
      ASSERT_LT(f.site.id, sites.size());
      EXPECT_EQ(f.site.describe(h.design), sites[f.site.id].describe(h.design));
    }
  }
}

TEST(Campaign, ClassifiesDetectionAndAttributesAssertion) {
  H h = make_clamp(assertions::Options::optimized());
  // Skipping the clamp's 'then' block leaves y == 300 at the assert:
  // the campaign must classify it detected and name the assertion.
  std::vector<FaultSpec> sites = enumerate_fault_sites(h.design, h.schedule);
  const FaultSpec* skip_then = nullptr;
  for (const FaultSpec& f : sites) {
    if (f.kind == FaultKind::kFsmSkipBlock &&
        f.describe(h.design).find("then") != std::string::npos) {
      skip_then = &f;
    }
  }
  ASSERT_NE(skip_then, nullptr);

  GoldenRef golden = golden_run(h.design, h.schedule, h.externs, h.feeds, {});
  FaultResult r =
      run_fault(h.design, h.schedule, h.externs, h.feeds, golden, *skip_then, {}, 100'000);
  EXPECT_EQ(r.outcome, FaultOutcome::kDetected);
  ASSERT_EQ(r.detected_by.size(), 1u);
  EXPECT_FALSE(h.design.assertions.empty());
}

TEST(Campaign, ClassifiesSilentCorruption) {
  // With assertions stripped (ndebug) the same output-corrupting fault
  // has nothing to catch it: silent corruption.
  H h = make_clamp(assertions::Options::ndebug());
  ir::StreamId out = h.design.find_process("clamp")->find_port("out")->stream;
  GoldenRef golden = golden_run(h.design, h.schedule, h.externs, h.feeds, {});
  FaultResult r = run_fault(h.design, h.schedule, h.externs, h.feeds, golden,
                            FaultSpec::stream_stuck(out, 0, 99), {}, 100'000);
  EXPECT_EQ(r.outcome, FaultOutcome::kSilentCorruption);
  EXPECT_TRUE(r.detected_by.empty());
}

TEST(Campaign, GoldenRunMustBeClean) {
  H h = make_clamp(assertions::Options::optimized());
  h.feeds["clamp.in"] = {1, 2, 3};  // starves the loop: golden hangs
  EXPECT_THROW(golden_run(h.design, h.schedule, h.externs, h.feeds, {}), InternalError);
}

TEST(Campaign, ParallelWorkersMatchSerialByteForByte) {
  H h = make_clamp(assertions::Options::optimized());
  CampaignOptions serial;
  serial.threads = 1;
  CampaignOptions par;
  par.threads = 4;
  CampaignReport a = run_campaign(h.design, h.schedule, h.externs, h.feeds, serial);
  CampaignReport b = run_campaign(h.design, h.schedule, h.externs, h.feeds, par);
  EXPECT_EQ(a.threads, 1u);
  EXPECT_GT(b.threads, 1u);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].site.id, b.results[i].site.id);
    EXPECT_EQ(a.results[i].outcome, b.results[i].outcome) << "site " << i;
    EXPECT_EQ(a.results[i].detected_by, b.results[i].detected_by) << "site " << i;
    EXPECT_EQ(a.results[i].cycles, b.results[i].cycles) << "site " << i;
  }
  // The rendered report only differs in the worker count, so renders
  // compare equal once that is held fixed.
  b.threads = a.threads;
  EXPECT_EQ(a.render(h.design), b.render(h.design));
}

TEST(Campaign, ZeroThreadsMeansHardwareConcurrency) {
  H h = make_clamp(assertions::Options::optimized());
  CampaignOptions opt;
  opt.threads = 0;
  opt.max_faults = 3;
  CampaignReport r = run_campaign(h.design, h.schedule, h.externs, h.feeds, opt);
  EXPECT_GE(r.threads, 1u);
  EXPECT_EQ(r.results.size(), 3u);
}

TEST(Campaign, ProgressHeartbeatIsOffByDefault) {
  H h = make_clamp(assertions::Options::optimized());
  CampaignOptions opt;
  std::vector<std::string> lines;
  // A sink alone must not enable the heartbeat: progress gates it.
  opt.progress_sink = [&](const std::string& s) { lines.push_back(s); };
  (void)run_campaign(h.design, h.schedule, h.externs, h.feeds, opt);
  EXPECT_TRUE(lines.empty());
}

TEST(Campaign, ProgressHeartbeatReportsEverySiteWhenIntervalIsZero) {
  H h = make_clamp(assertions::Options::optimized());
  CampaignOptions opt;
  opt.progress = true;
  opt.progress_interval_s = 0;  // deterministic: one line per site
  std::vector<std::string> lines;
  opt.progress_sink = [&](const std::string& s) { lines.push_back(s); };
  CampaignReport r = run_campaign(h.design, h.schedule, h.externs, h.feeds, opt);
  ASSERT_EQ(lines.size(), r.results.size());
  std::string total = "/" + std::to_string(r.results.size()) + " sites";
  for (const std::string& l : lines) {
    EXPECT_NE(l.find("campaign: "), std::string::npos) << l;
    EXPECT_NE(l.find(total), std::string::npos) << l;
  }
  // The last line carries the final classification tallies.
  const std::string& last = lines.back();
  EXPECT_NE(last.find("benign " + std::to_string(r.count(FaultOutcome::kBenign))),
            std::string::npos)
      << last;
  EXPECT_NE(last.find("detected " + std::to_string(r.count(FaultOutcome::kDetected))),
            std::string::npos)
      << last;
}

TEST(Campaign, ProgressHeartbeatCoversParallelSweep) {
  H h = make_clamp(assertions::Options::optimized());
  CampaignOptions opt;
  opt.threads = 4;
  opt.progress = true;
  opt.progress_interval_s = 0;
  std::vector<std::string> lines;
  opt.progress_sink = [&](const std::string& s) { lines.push_back(s); };
  CampaignReport r = run_campaign(h.design, h.schedule, h.externs, h.feeds, opt);
  EXPECT_EQ(lines.size(), r.results.size());
}

TEST(Campaign, HeartbeatEtaIsClampedBeforeAnyRateExists) {
  // Regression: the first tick fires with elapsed == 0 (or no completed
  // sites), where done/elapsed is 0 and remaining/rate divides by zero.
  // The ETA must render as the unknown marker, never "inf"/"nan".
  std::size_t tally[kNumFaultOutcomes] = {0};
  std::string first = format_campaign_heartbeat(0, 12, 0.0, tally);
  EXPECT_NE(first.find("ETA --:--"), std::string::npos) << first;
  EXPECT_EQ(first.find("inf"), std::string::npos) << first;
  EXPECT_EQ(first.find("nan"), std::string::npos) << first;
  // Zero completed sites after measurable elapsed time: still no rate.
  std::string stalled = format_campaign_heartbeat(0, 12, 2.5, tally);
  EXPECT_NE(stalled.find("ETA --:--"), std::string::npos) << stalled;
  EXPECT_EQ(stalled.find("inf"), std::string::npos) << stalled;
}

TEST(Campaign, HeartbeatEtaAppearsOnceARateExists) {
  std::size_t tally[kNumFaultOutcomes] = {0};
  tally[static_cast<std::size_t>(FaultOutcome::kBenign)] = 6;
  // 6 sites in 2s = 3 sites/s; 6 remaining -> ETA 2s.
  std::string line = format_campaign_heartbeat(6, 12, 2.0, tally);
  EXPECT_NE(line.find("6/12 sites"), std::string::npos) << line;
  EXPECT_NE(line.find("3.0 sites/s"), std::string::npos) << line;
  EXPECT_NE(line.find("ETA 2s"), std::string::npos) << line;
  EXPECT_EQ(line.find("--:--"), std::string::npos) << line;
  EXPECT_NE(line.find("benign 6"), std::string::npos) << line;
}

TEST(Campaign, ProfiledCampaignAnnotatesNonBenignSites) {
  H h = make_clamp(assertions::Options::optimized());
  CampaignOptions opt;
  opt.profile = true;
  CampaignReport r = run_campaign(h.design, h.schedule, h.externs, h.feeds, opt);
  ASSERT_TRUE(r.golden_profile.has_value());
  EXPECT_EQ(r.golden_profile->run_cycles, r.golden_cycles);
  EXPECT_GT(r.golden_profile->compute_cycles, 0u);
  std::size_t nonbenign = 0;
  for (const FaultResult& f : r.results) {
    ASSERT_TRUE(f.profile.has_value()) << "site " << f.site.id;
    EXPECT_EQ(f.profile->run_cycles, f.cycles) << "site " << f.site.id;
    if (f.outcome != FaultOutcome::kBenign) ++nonbenign;
  }
  ASSERT_GT(nonbenign, 0u);
  std::string rendered = r.render(h.design);
  EXPECT_NE(rendered.find("profile deltas vs golden"), std::string::npos);
  // Every non-benign site gets exactly one delta line.
  std::size_t delta_lines = 0;
  for (std::size_t pos = rendered.find("): cycles "); pos != std::string::npos;
       pos = rendered.find("): cycles ", pos + 1)) {
    ++delta_lines;
  }
  EXPECT_EQ(delta_lines, nonbenign);
}

TEST(Campaign, UnprofiledCampaignCarriesNoProfiles) {
  H h = make_clamp(assertions::Options::optimized());
  CampaignOptions opt;
  opt.max_faults = 3;
  CampaignReport r = run_campaign(h.design, h.schedule, h.externs, h.feeds, opt);
  EXPECT_FALSE(r.golden_profile.has_value());
  for (const FaultResult& f : r.results) EXPECT_FALSE(f.profile.has_value());
  EXPECT_EQ(r.render(h.design).find("profile deltas"), std::string::npos);
}

TEST(Campaign, ProfiledParallelMatchesSerial) {
  H h = make_clamp(assertions::Options::optimized());
  CampaignOptions serial;
  serial.profile = true;
  serial.threads = 1;
  CampaignOptions par = serial;
  par.threads = 4;
  CampaignReport a = run_campaign(h.design, h.schedule, h.externs, h.feeds, serial);
  CampaignReport b = run_campaign(h.design, h.schedule, h.externs, h.feeds, par);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    ASSERT_TRUE(a.results[i].profile.has_value());
    ASSERT_TRUE(b.results[i].profile.has_value());
    EXPECT_EQ(a.results[i].profile->compute_cycles, b.results[i].profile->compute_cycles)
        << "site " << i;
    EXPECT_EQ(a.results[i].profile->stall_cycles, b.results[i].profile->stall_cycles)
        << "site " << i;
    EXPECT_EQ(a.results[i].profile->tail_cycles, b.results[i].profile->tail_cycles)
        << "site " << i;
  }
  b.threads = a.threads;
  EXPECT_EQ(a.render(h.design), b.render(h.design));
}

TEST(Campaign, TraceRerunsProduceArtifactsForNonBenignSites) {
  H h = make_clamp(assertions::Options::optimized());
  CampaignReport report = run_campaign(h.design, h.schedule, h.externs, h.feeds, {});
  std::size_t nonbenign = report.results.size() - report.count(FaultOutcome::kBenign);
  ASSERT_GT(nonbenign, 0u);

  StatusOr<CampaignPlan> plan = plan_campaign(h.design, h.schedule, h.externs, h.feeds, {});
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  TraceRerunOptions topt;
  topt.dir = ::testing::TempDir() + "campaign_traces";
  topt.stem = "clamp";
  topt.write_binary = true;
  std::vector<TraceArtifact> arts = trace_nonbenign_sites(*plan, report, {}, topt);
  ASSERT_EQ(arts.size(), nonbenign);
  for (const TraceArtifact& a : arts) {
    EXPECT_NE(a.outcome, FaultOutcome::kBenign);
    EXPECT_TRUE(std::filesystem::exists(a.vcd_path)) << a.vcd_path;
    EXPECT_TRUE(std::filesystem::exists(a.bin_path)) << a.bin_path;
    // The replay names the site, its outcome, and the capture story.
    EXPECT_NE(a.replay.find("s" + std::to_string(a.site.id)), std::string::npos);
    EXPECT_NE(a.replay.find(fault_outcome_name(a.outcome)), std::string::npos);
    EXPECT_NE(a.replay.find("source-level replay:"), std::string::npos);
    // Detected sites implicate the assertion that caught them.
    if (a.outcome == FaultOutcome::kDetected) {
      EXPECT_NE(a.replay.find("implicated assertion:"), std::string::npos);
    }
  }
  // max_sites caps the rerun list in site order.
  topt.max_sites = 1;
  std::vector<TraceArtifact> one = trace_nonbenign_sites(*plan, report, {}, topt);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].site.id, arts[0].site.id);
}

}  // namespace
}  // namespace hlsav::sim
