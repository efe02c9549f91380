// Mined-assertion economics bench: runs the full `hlsavc mine` pipeline
// (golden capture -> invariant mining -> per-candidate synthesis and
// fault-campaign scoring) over the paper's case studies and records what
// the trajectory tracking needs: how long mining takes, how many
// hypotheses survive the golden filter, the kill-rate uplift the best
// mined checker buys over the hand-written assertions, and what that
// checker costs in ALUTs and BRAM bits. It exits 1 when a workload's
// best mined checker catches no fault site that the hand-written
// assertions miss (0 uplift).
//
// Usage: bench_mine [--json <path>] [--quick] [--threads N]
#include "bench/common.h"

#include <sstream>

#include "apps/des.h"
#include "apps/edge.h"
#include "mine/miner.h"
#include "mine/score.h"
#include "trace/trace.h"

namespace {

using namespace hlsav;

// Buffered loopback: values cross a BRAM between the read loop and the
// write loop. The hand-written assert sees the words on the way in; only
// a mined bound on the read-back register can catch high-bit BRAM
// corruption, which is exactly the uplift this bench quantifies.
const char* kBufferedLoopback = R"(void loop(stream_in<32> in, stream_out<32> out) {
  uint32 buf[8];
  for (uint32 i = 0; i < 8; i++) {
    uint32 v = stream_read(in);
    assert(v > 0);
    buf[i & 7] = v;
  }
  for (uint32 j = 0; j < 8; j++) {
    uint32 w = buf[j & 7];
    stream_write(out, w);
  }
}
)";

struct Workload {
  std::string name;
  std::unique_ptr<apps::CompiledApp> app;
  sched::SchedOptions sched_opts;
  std::map<std::string, std::vector<std::uint64_t>> feeds;
};

std::vector<Workload> workloads(bool quick) {
  std::vector<Workload> out;
  {
    Workload w;
    w.name = "loopback_buffered";
    w.app = apps::compile_app("mine_loopback", "loop.c", kBufferedLoopback);
    w.feeds = {{"loop.in", {1, 2, 3, 4, 5, 6, 7, 8}}};
    out.push_back(std::move(w));
  }
  {
    const std::array<std::uint64_t, 3> keys = {0x0123456789ABCDEFull, 0x23456789ABCDEF01ull,
                                               0x456789ABCDEF0123ull};
    Workload w;
    w.name = "tripledes";
    w.app = apps::compile_app("triple_des", "des3.c", apps::des::hlsc_decrypt_source(keys));
    std::vector<std::uint64_t> cipher;
    for (std::uint64_t b : apps::des::pack_text("Fault campaign.")) {
      cipher.push_back(apps::des::triple_des_encrypt(b, keys));
    }
    w.sched_opts.chain_depth = 6;
    w.feeds = {{"des3.in", apps::des::to_word_stream(cipher)}};
    out.push_back(std::move(w));
  }
  {
    const unsigned iw = quick ? 16 : 32, ih = quick ? 12 : 24;
    Workload w;
    w.name = "edge_detect";
    w.app = apps::compile_app("edge_detect", "edge.c", apps::edge::hlsc_source(iw, ih));
    w.sched_opts.chain_depth = 16;
    w.feeds = {{"edge.in", apps::edge::to_word_stream(apps::img::synthetic_image(iw, ih, 7))}};
    out.push_back(std::move(w));
  }
  return out;
}

struct MineRow {
  std::string name;
  std::uint64_t records = 0;
  std::uint64_t dropped = 0;
  std::size_t candidates = 0;
  std::size_t survivors = 0;
  double mine_seconds = 0.0;
  double score_seconds = 0.0;
  std::size_t baseline_sites = 0;
  std::size_t baseline_detected = 0;
  // Best survivor by the ranking metric (gain per area unit).
  bool has_best = false;
  mine::CandidateScore best;

  [[nodiscard]] double baseline_rate() const {
    return baseline_sites > 0
               ? static_cast<double>(baseline_detected) / static_cast<double>(baseline_sites)
               : 0.0;
  }
  /// Kill-rate uplift of the best mined checker: newly detected sites
  /// as a fraction of the baseline's classified site set.
  [[nodiscard]] double uplift() const {
    return has_best && baseline_sites > 0
               ? static_cast<double>(best.newly_detected) / static_cast<double>(baseline_sites)
               : 0.0;
  }
};

std::string row_json(const MineRow& r) {
  std::ostringstream os;
  os << "{\"name\": \"" << r.name << "\", \"records\": " << r.records
     << ", \"dropped\": " << r.dropped << ", \"candidates\": " << r.candidates
     << ", \"survivors\": " << r.survivors
     << ", \"mine_seconds\": " << fmt_double(r.mine_seconds, 4)
     << ", \"score_seconds\": " << fmt_double(r.score_seconds, 4)
     << ", \"baseline_sites\": " << r.baseline_sites
     << ", \"baseline_detected\": " << r.baseline_detected
     << ", \"baseline_rate\": " << fmt_double(r.baseline_rate(), 4)
     << ", \"kill_rate_uplift\": " << fmt_double(r.uplift(), 4);
  if (r.has_best) {
    os << ", \"best\": {\"text\": \"" << r.best.inv.text
       << "\", \"newly_detected\": " << r.best.newly_detected
       << ", \"newly_harmful\": " << r.best.newly_harmful
       << ", \"delta_aluts\": " << r.best.delta_aluts
       << ", \"delta_bram_bits\": " << r.best.delta_bram_bits
       << ", \"gain_per_cost\": " << fmt_double(r.best.gain_per_cost(), 4) << "}";
  }
  os << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_mine.json";
  bool quick = false;
  unsigned threads = 1;  // single worker: scoring campaigns stay deterministic AND cheap
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<unsigned>(std::stoul(argv[++i]));
    } else {
      std::cerr << "usage: bench_mine [--json <path>] [--quick] [--threads N]\n";
      return 2;
    }
  }
  bench::print_provenance_banner("bench_mine");

  using clock = std::chrono::steady_clock;
  sim::ExternRegistry externs;
  std::vector<MineRow> rows;
  for (Workload& w : workloads(quick)) {
    const ir::Design& lowered = w.app->design;
    sched::DesignSchedule schedule = sched::schedule_design(lowered, w.sched_opts);

    // Golden capture of the pre-synthesis design: the same window
    // `hlsavc mine` records before hypothesizing.
    trace::TraceConfig tc;
    tc.capacity = std::size_t{1} << 16;
    trace::TraceEngine engine(lowered, tc);
    sim::SimOptions so;
    so.mode = sim::SimMode::kSoftware;
    so.ela = &engine;
    sim::Simulator s(lowered, schedule, externs, so);
    for (const auto& [stream, values] : w.feeds) s.feed(stream, values);
    sim::RunResult golden = s.run();
    if (!golden.completed() || !golden.failures.empty()) {
      std::cerr << w.name << ": golden run did not complete cleanly; skipping\n";
      continue;
    }

    MineRow row;
    row.name = w.name;
    row.dropped = engine.dropped();
    std::vector<trace::TraceRecord> window = engine.window();

    auto t0 = clock::now();
    mine::MineResult mined = mine::mine_invariants(lowered, window);
    row.mine_seconds = std::chrono::duration<double>(clock::now() - t0).count();
    row.records = mined.records;
    row.candidates = mined.candidates.size();

    mine::ScoreOptions sopt;
    sopt.sched = w.sched_opts;
    sopt.threads = threads;
    // Scoring runs one fault campaign per survivor; cap the sweep so the
    // bigger designs stay benchable. The cap takes candidates in miner
    // order, which is deterministic, so the JSON is comparable PR to PR.
    sopt.max_candidates = quick ? 8 : 24;
    if (quick) sopt.max_faults = 24;
    auto t1 = clock::now();
    StatusOr<mine::ScoreReport> rep =
        mine::score_candidates(lowered, externs, w.feeds, mined.candidates, sopt);
    row.score_seconds = std::chrono::duration<double>(clock::now() - t1).count();
    if (!rep.ok()) {
      std::cerr << w.name << ": scoring failed: " << rep.status().to_string() << "\n";
      continue;
    }
    row.survivors = rep->survivors();
    row.baseline_sites = rep->baseline_sites;
    row.baseline_detected = rep->baseline_detected;
    if (!rep->ranked.empty() && rep->ranked.front().survived) {
      row.has_best = true;
      row.best = rep->ranked.front();
    }
    rows.push_back(std::move(row));

    std::cout << "\n== " << w.name << " ==\n" << rep->render();
  }

  TextTable t("Trace-mined assertion economics (best checker per workload)");
  t.header({"workload", "records", "cands", "survive", "base det", "new", "harmful", "uplift",
            "dALUT", "dBRAM", "mine s", "score s"});
  for (const MineRow& r : rows) {
    t.row({r.name, std::to_string(r.records), std::to_string(r.candidates),
           std::to_string(r.survivors),
           std::to_string(r.baseline_detected) + "/" + std::to_string(r.baseline_sites),
           r.has_best ? std::to_string(r.best.newly_detected) : "-",
           r.has_best ? std::to_string(r.best.newly_harmful) : "-",
           fmt_double(100.0 * r.uplift(), 1) + "%",
           r.has_best ? std::to_string(r.best.delta_aluts) : "-",
           r.has_best ? std::to_string(r.best.delta_bram_bits) : "-",
           fmt_double(r.mine_seconds, 3), fmt_double(r.score_seconds, 3)});
  }
  std::cout << "\n" << t.render();

  {
    bench::BenchJsonDoc doc(json_path, "mine", "workloads");
    for (const MineRow& r : rows) doc.item(row_json(r));
  }
  std::cout << "wrote " << json_path << "\n";

  int rc = 0;
  for (const MineRow& r : rows) {
    if (r.uplift() == 0.0) {
      std::cerr << "bench_mine: " << r.name << " mined no detection uplift\n";
      rc = 1;
    }
  }
  return rc;
}
