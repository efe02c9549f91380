// Edge detection with image-size assertions (the paper's Table 2 case
// study).
//
// A synthetic grayscale image is written to edge_input.bmp, streamed
// through the fixed-size 5x5 window kernel, and the edge map comes back
// as edge_output.bmp. The kernel's two in-circuit assertions check that
// the streamed image's width and height match the hardware
// configuration; feeding a wrongly-sized image trips them. Exits 1
// unless the edge map matches the golden model and the wrong size is
// caught.
#include <iostream>

#include "apps/appbuild.h"
#include "apps/edge.h"
#include "assertions/options.h"
#include "assertions/synthesize.h"
#include "sched/schedule.h"
#include "sim/simulator.h"

int main() {
  using namespace hlsav;
  using namespace hlsav::apps;

  constexpr unsigned kW = 64;
  constexpr unsigned kH = 48;

  auto app = compile_app("edge_detect", "edge.c", edge::hlsc_source(kW, kH));
  ir::Design design = app->design.clone();
  assertions::synthesize(design, assertions::Options::optimized());
  ir::verify(design);
  sched::DesignSchedule schedule = sched::schedule_design(design);
  sim::ExternRegistry externs;

  img::Image input = img::synthetic_image(kW, kH, 7);
  if (img::write_bmp_file("edge_input.bmp", input)) {
    std::cout << "wrote edge_input.bmp (" << kW << "x" << kH << ")\n";
  }

  // Matching image: clean run, output compared against the golden model.
  bool ok = true;
  {
    sim::Simulator s(design, schedule, externs, {});
    s.feed("edge.in", edge::to_word_stream(input));
    sim::RunResult r = s.run();
    img::Image hw = edge::from_word_stream(s.received("edge.out"), kW, kH);
    img::Image gold = edge::golden_edge(input);
    ok = ok && hw.pixels == gold.pixels;
    std::cout << "edge map computed in " << r.cycles << " FPGA cycles; "
              << (hw.pixels == gold.pixels ? "matches golden model" : "MISMATCH") << "\n";
    // Scale the response into 0..255 for viewing.
    img::Image view = hw;
    for (auto& p : view.pixels) p = static_cast<std::uint16_t>(std::min<unsigned>(p, 255));
    if (img::write_bmp_file("edge_output.bmp", view)) {
      std::cout << "wrote edge_output.bmp\n";
    }
  }

  // Wrong-size image: the in-circuit size assertions catch it.
  {
    img::Image wrong = img::synthetic_image(kW * 2, kH, 9);
    sim::Simulator s(design, schedule, externs, {});
    s.set_failure_sink([](const assertions::Failure& f) {
      std::cout << "in-circuit failure: " << f.message << "\n";
    });
    s.feed("edge.in", edge::to_word_stream(wrong));
    sim::RunResult r = s.run();
    ok = ok && r.status == sim::RunStatus::kAborted;
    std::cout << "wrong-size run: "
              << (r.status == sim::RunStatus::kAborted ? "aborted (size mismatch caught)"
                                                       : "completed (?)")
              << "\n";
  }
  return ok ? 0 : 1;
}
