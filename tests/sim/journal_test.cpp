// Campaign journal: header fingerprints, torn-tail recovery, and
// kill -> resume determinism at multiple thread counts.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "assertions/options.h"
#include "assertions/synthesize.h"
#include "common/test_util.h"
#include "sim/campaign.h"
#include "sim/journal.h"

namespace hlsav::sim {
namespace {

using hlsav::testing::compile;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + std::to_string(::getpid()) + "_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

JournalHeader make_header() {
  JournalHeader h;
  h.design = "test_design";
  h.seed = 7;
  h.sites_total = 12;
  h.max_faults = 0;
  h.max_cycles = 10'000;
  h.golden_cycles = 42;
  h.site_wall_ms = 0.0;
  h.profile = false;
  return h;
}

TEST(Journal, FingerprintIsCanonicalAndSensitive) {
  JournalHeader a = make_header();
  JournalHeader b = a;
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  b.seed = 8;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  b = a;
  b.site_wall_ms = 1.5;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  b = a;
  b.design = "other";
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

FaultResult sample_result(std::uint32_t site, FaultOutcome outcome) {
  FaultResult r;
  r.site.id = site;
  r.outcome = outcome;
  r.cycles = 100 + site;
  if (outcome == FaultOutcome::kDetected) r.detected_by = {0, 3};
  return r;
}

TEST(Journal, AppendedLinesRoundTripThroughLoad) {
  std::string path = temp_path("journal_rt.jsonl");
  JournalHeader h = make_header();
  StatusOr<std::unique_ptr<CampaignJournal>> j = CampaignJournal::create(path, h);
  ASSERT_TRUE(j.ok()) << j.status().to_string();
  ASSERT_TRUE((*j)->append(sample_result(0, FaultOutcome::kBenign)).ok());
  ASSERT_TRUE((*j)->append(sample_result(5, FaultOutcome::kDetected)).ok());
  ASSERT_TRUE((*j)->append(sample_result(2, FaultOutcome::kBudgetExceeded)).ok());
  j->reset();  // close the fd before reading

  StatusOr<JournalContents> loaded = load_journal(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->header.fingerprint(), h.fingerprint());
  ASSERT_EQ(loaded->results.size(), 3u);
  EXPECT_EQ(loaded->results.at(0).outcome, FaultOutcome::kBenign);
  EXPECT_EQ(loaded->results.at(5).outcome, FaultOutcome::kDetected);
  EXPECT_EQ(loaded->results.at(5).detected_by, (std::vector<std::uint32_t>{0, 3}));
  EXPECT_EQ(loaded->results.at(2).outcome, FaultOutcome::kBudgetExceeded);
  EXPECT_EQ(loaded->results.at(2).cycles, 102u);
  EXPECT_EQ(loaded->valid_bytes, std::filesystem::file_size(path));
}

TEST(Journal, ProfileSummaryRoundTrips) {
  std::string path = temp_path("journal_prof.jsonl");
  JournalHeader h = make_header();
  h.profile = true;
  FaultResult r = sample_result(1, FaultOutcome::kDetected);
  r.profile.emplace();
  r.profile->run_cycles = 321;
  r.profile->compute_cycles = 200;
  r.profile->stall_cycles = 100;
  {
    StatusOr<std::unique_ptr<CampaignJournal>> j = CampaignJournal::create(path, h);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE((*j)->append(r).ok());
  }
  StatusOr<JournalContents> loaded = load_journal(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  ASSERT_TRUE(loaded->results.at(1).profile.has_value());
  EXPECT_EQ(loaded->results.at(1).profile->run_cycles, 321u);
  EXPECT_EQ(loaded->results.at(1).profile->compute_cycles, 200u);
  EXPECT_EQ(loaded->results.at(1).profile->stall_cycles, 100u);
}

TEST(Journal, TornTrailingLineIsDroppedNotFatal) {
  std::string path = temp_path("journal_torn.jsonl");
  {
    StatusOr<std::unique_ptr<CampaignJournal>> j =
        CampaignJournal::create(path, make_header());
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE((*j)->append(sample_result(0, FaultOutcome::kBenign)).ok());
    ASSERT_TRUE((*j)->append(sample_result(1, FaultOutcome::kDetected)).ok());
  }
  std::uint64_t intact = std::filesystem::file_size(path);
  {
    // A kill mid-append: half a JSON object, no trailing newline.
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "{\"site\":2,\"outco";
  }
  StatusOr<JournalContents> loaded = load_journal(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->results.size(), 2u);
  EXPECT_EQ(loaded->valid_bytes, intact);

  // append_to() must truncate the torn bytes before writing more.
  {
    StatusOr<std::unique_ptr<CampaignJournal>> j =
        CampaignJournal::append_to(path, loaded->valid_bytes);
    ASSERT_TRUE(j.ok()) << j.status().to_string();
    ASSERT_TRUE((*j)->append(sample_result(2, FaultOutcome::kBenign)).ok());
  }
  StatusOr<JournalContents> reloaded = load_journal(path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->results.size(), 3u);
  EXPECT_EQ(slurp(path).find("outco\""), std::string::npos);  // torn bytes gone
}

TEST(Journal, GarbageHeaderIsInvalidArgument) {
  std::string path = temp_path("journal_garbage.jsonl");
  {
    std::ofstream out(path);
    out << "this is not a journal\n";
  }
  StatusOr<JournalContents> loaded = load_journal(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(Journal, MissingFileIsIoError) {
  StatusOr<JournalContents> loaded = load_journal("/nonexistent/journal.jsonl");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

// ------------------------------------------------ campaign integration --

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

/// Chops `path` down to the header plus the first `keep` complete
/// result lines, plus optional torn garbage -- the on-disk state an
/// abrupt SIGKILL leaves behind.
void simulate_kill(const std::string& path, std::size_t keep, bool torn_tail) {
  std::string data = slurp(path);
  std::size_t pos = data.find('\n');  // end of header
  ASSERT_NE(pos, std::string::npos);
  for (std::size_t i = 0; i < keep; ++i) {
    pos = data.find('\n', pos + 1);
    ASSERT_NE(pos, std::string::npos) << "journal has fewer than " << keep << " lines";
  }
  std::string prefix = data.substr(0, pos + 1);
  if (torn_tail) prefix += "{\"site\":99,\"outc";
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << prefix;
}

void expect_same_report(const CampaignReport& a, CampaignReport b, const ir::Design& design) {
  b.threads = a.threads;  // renders embed the worker count
  EXPECT_EQ(a.render(design), b.render(design));
}

TEST(Journal, KillThenResumeRendersByteIdentical) {
  H h = make_clamp();
  for (unsigned resume_threads : {1u, 4u}) {
    SCOPED_TRACE("resume threads " + std::to_string(resume_threads));
    std::string path =
        temp_path("journal_resume_" + std::to_string(resume_threads) + ".jsonl");

    CampaignOptions opt;
    opt.journal = path;
    CampaignReport uninterrupted = run_campaign(h.design, h.schedule, h.externs, h.feeds, opt);
    ASSERT_GT(uninterrupted.results.size(), 4u);

    // Keep half the sites, leave a torn line: the SIGKILL disk state.
    simulate_kill(path, uninterrupted.results.size() / 2, /*torn_tail=*/true);

    CampaignOptions res = opt;
    res.resume = true;
    res.threads = resume_threads;
    CampaignReport resumed = run_campaign(h.design, h.schedule, h.externs, h.feeds, res);
    expect_same_report(uninterrupted, resumed, h.design);

    // The journal now holds every site again (restored + re-run).
    StatusOr<JournalContents> final_state = load_journal(path);
    ASSERT_TRUE(final_state.ok());
    EXPECT_EQ(final_state->results.size(), uninterrupted.results.size());
  }
}

TEST(Journal, ResumeSkipsCompletedSites) {
  H h = make_clamp();
  std::string path = temp_path("journal_skip.jsonl");
  CampaignOptions opt;
  opt.journal = path;
  opt.progress = true;
  opt.progress_interval_s = 0;  // one heartbeat line per site
  std::vector<std::string> lines;
  opt.progress_sink = [&](const std::string& s) { lines.push_back(s); };
  CampaignReport full = run_campaign(h.design, h.schedule, h.externs, h.feeds, opt);
  ASSERT_EQ(lines.size(), full.results.size());

  // Resume over a complete journal: every site restores, none re-runs,
  // and the heartbeat still walks all of them (restored counts shown).
  lines.clear();
  CampaignOptions res = opt;
  res.resume = true;
  CampaignReport resumed = run_campaign(h.design, h.schedule, h.externs, h.feeds, res);
  expect_same_report(full, resumed, h.design);
  EXPECT_EQ(lines.size(), full.results.size());
}

TEST(Journal, ResumeRejectsMismatchedCampaign) {
  H h = make_clamp();
  std::string path = temp_path("journal_mismatch.jsonl");
  CampaignOptions opt;
  opt.journal = path;
  (void)run_campaign(h.design, h.schedule, h.externs, h.feeds, opt);

  // Same journal, different seed + sampling: the fingerprint differs,
  // so resume must start the campaign over rather than splice in
  // results from a different site selection.
  CampaignOptions other = opt;
  other.resume = true;
  other.seed = 99;
  other.max_faults = 3;
  CampaignReport r = run_campaign(h.design, h.schedule, h.externs, h.feeds, other);
  EXPECT_EQ(r.results.size(), 3u);

  // And the journal was restarted for the new campaign.
  StatusOr<JournalContents> reloaded = load_journal(path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->header.seed, 99u);
  EXPECT_EQ(reloaded->results.size(), 3u);
}

TEST(Journal, ProfiledCampaignResumesWithProfiles) {
  H h = make_clamp();
  std::string path = temp_path("journal_profiled.jsonl");
  CampaignOptions opt;
  opt.journal = path;
  opt.profile = true;
  CampaignReport full = run_campaign(h.design, h.schedule, h.externs, h.feeds, opt);
  simulate_kill(path, full.results.size() / 2, /*torn_tail=*/false);
  CampaignOptions res = opt;
  res.resume = true;
  CampaignReport resumed = run_campaign(h.design, h.schedule, h.externs, h.feeds, res);
  for (const FaultResult& f : resumed.results) {
    EXPECT_TRUE(f.profile.has_value()) << "site " << f.site.id;
  }
  expect_same_report(full, resumed, h.design);
}

TEST(Journal, AnyCompletionOrderResumesByteIdentically) {
  // Parallel sweeps and hlsavd's workers append sites in completion
  // order. Any order, any classified subset (none included), with or
  // without a torn tail, must resume to the uninterrupted report.
  H h = make_clamp();
  std::string ref_path = temp_path("journal_order_ref.jsonl");
  CampaignOptions opt;
  opt.seed = 7;
  opt.journal = ref_path;
  CampaignReport ref = run_campaign(h.design, h.schedule, h.externs, h.feeds, opt);
  std::istringstream in(slurp(ref_path));
  std::string header;
  std::getline(in, header);
  std::vector<std::string> sites;
  for (std::string line; std::getline(in, line);) sites.push_back(line);
  ASSERT_EQ(sites.size(), ref.results.size());

  for (std::uint32_t trial = 0; trial < 8; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::mt19937 rng(trial);
    std::vector<std::string> order = sites;
    std::shuffle(order.begin(), order.end(), rng);
    order.resize(trial == 0 ? 0 : rng() % (order.size() + 1));
    std::string path = temp_path("journal_order_" + std::to_string(trial) + ".jsonl");
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << header << "\n";
      for (const std::string& l : order) out << l << "\n";
      if (rng() % 2 == 0) out << "{\"site\":99,\"outco";
    }
    CampaignOptions res = opt;
    res.journal = path;
    res.resume = true;
    std::size_t fresh = 0;
    res.site_sink = [&](const FaultResult&) { ++fresh; };
    CampaignReport resumed = run_campaign(h.design, h.schedule, h.externs, h.feeds, res);
    expect_same_report(ref, resumed, h.design);
    EXPECT_EQ(fresh, sites.size() - order.size());  // journaled sites never re-run
  }
}

TEST(Journal, OpenAgainstAPlanCreatesThenResumes) {
  H h = make_clamp();
  StatusOr<CampaignPlan> plan = plan_campaign(h.design, h.schedule, h.externs, h.feeds, {});
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  std::string path = temp_path("journal_open.jsonl");
  std::filesystem::remove(path);

  // Fresh: a header-only journal, which is already a resumable state.
  {
    StatusOr<OpenedJournal> fresh = open_journal(*plan, path, /*resume=*/true);
    ASSERT_TRUE(fresh.ok()) << fresh.status().to_string();
    EXPECT_TRUE(fresh->restored.empty());
  }
  StatusOr<JournalContents> header_only = load_journal(path);
  ASSERT_TRUE(header_only.ok()) << header_only.status().to_string();
  EXPECT_EQ(header_only->header.fingerprint(), plan->header.fingerprint());
  EXPECT_TRUE(header_only->results.empty());

  // Reopened: appended sites come back with their full FaultSpec.
  FaultResult r = run_site(*plan, plan->sites[1], {});
  {
    StatusOr<OpenedJournal> again = open_journal(*plan, path, /*resume=*/true);
    ASSERT_TRUE(again.ok()) << again.status().to_string();
    ASSERT_TRUE(again->journal->append(r).ok());
  }
  StatusOr<OpenedJournal> resumed = open_journal(*plan, path, /*resume=*/true);
  ASSERT_TRUE(resumed.ok()) << resumed.status().to_string();
  ASSERT_EQ(resumed->restored.size(), 1u);
  const FaultResult& back = resumed->restored.at(1);
  EXPECT_EQ(journal_line(back), journal_line(r));
  EXPECT_EQ(back.site.describe(h.design), plan->sites[1].describe(h.design));

  // Without resume the same path starts over.
  StatusOr<OpenedJournal> restarted = open_journal(*plan, path, /*resume=*/false);
  ASSERT_TRUE(restarted.ok());
  EXPECT_TRUE(restarted->restored.empty());
}

}  // namespace
}  // namespace hlsav::sim
