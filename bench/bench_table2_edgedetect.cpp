// Reproduces Table 2: edge-detection assertion overhead on the EP2S180.
//
// Two optimized assertions check that the streamed image's width and
// height match the hardware configuration (128x96 here, mirroring the
// paper's fixed-size kernel).
#include "bench/common.h"

#include "apps/edge.h"

namespace {

using namespace hlsav;
using bench::Characterized;

constexpr unsigned kW = 128;
constexpr unsigned kH = 96;

const sched::SchedOptions kEdgeSched = [] {
  sched::SchedOptions o;
  // The 5x5 window datapath is fully combinational inside the
  // rate-limited pipeline (Impulse-C chains the whole 25-tap reduction),
  // which is what makes this kernel's Fmax much lower than the DES one.
  o.chain_depth = 16;
  return o;
}();

void print_table2() {
  auto app = apps::compile_app("edge_detect", "edge.c", apps::edge::hlsc_source(kW, kH));
  Characterized orig = bench::characterize(app->design, assertions::Options::ndebug(), kEdgeSched);
  Characterized asrt =
      bench::characterize(app->design, assertions::Options::optimized(), kEdgeSched);

  std::cout << bench::overhead_table(
      "Table 2: Edge-detection assertion overhead (measured by this implementation)", orig,
      asrt);

  TextTable paper("Paper's Table 2 (Curreri et al., measured on real Quartus/XD1000)");
  paper.header({"EP2S180", "Original", "Assert", "Overhead"});
  paper.row({"Logic Used", "12250 (8.54%)", "12273 (8.56%)", "+23 (+0.02%)"});
  paper.row({"Comb. ALUT", "6726 (4.69%)", "6809 (4.75%)", "+83 (+0.06%)"});
  paper.row({"Registers", "9371 (6.53%)", "9417 (6.56%)", "+46 (+0.03%)"});
  paper.row({"Block RAM bits", "141120 (1.50%)", "141696 (1.51%)", "+576 (+0.01%)"});
  paper.row({"Block interconnect", "19904 (3.71%)", "19994 (3.73%)", "+90 (+0.02%)"});
  paper.row({"Frequency (MHz)", "77.5", "79.3", "+1.8 (+2.32%)"});
  std::cout << paper.render();

  // Functional check on a small image with the same kernel structure.
  auto small = apps::compile_app("edge_small", "edge.c", apps::edge::hlsc_source(32, 24));
  Characterized cfg = bench::characterize(small->design, assertions::Options::optimized());
  apps::img::Image input = apps::img::synthetic_image(32, 24, 21);
  sim::ExternRegistry ext;
  sim::Simulator s(cfg.design, cfg.schedule, ext, {});
  s.feed("edge.in", apps::edge::to_word_stream(input));
  sim::RunResult r = s.run();
  apps::img::Image hw = apps::edge::from_word_stream(s.received("edge.out"), 32, 24);
  apps::img::Image gold = apps::edge::golden_edge(input);
  std::cout << "functional check (32x24 image): "
            << (hw.pixels == gold.pixels ? "matches golden model" : "MISMATCH") << ", "
            << r.cycles << " cycles, "
            << (r.failures.empty() ? "no assertion failures" : "ASSERTION FAILURES") << "\n\n";
}

}  // namespace

int main() {
  hlsav::bench::print_provenance_banner("bench_table2_edgedetect");
  print_table2();
  return 0;
}
