// Reproduces Figure 5: ALUT overhead (% of the EP2S180) vs process count
// for the loopback application, unoptimized vs channel-shared
// assertions.
//
// Paper anchor: at 128 processes, unoptimized assertions cost 4.07% of
// the device's ALUTs; sharing 32 failure flags per stream reduces that
// to 1.34% -- over 3x.
#include "bench/common.h"

#include "apps/loopback.h"

namespace {

using namespace hlsav;
using assertions::Options;

Options shared_only() {
  Options o;
  o.share_channels = true;
  return o;
}

void print_fig5() {
  const fpga::Device dev = fpga::Device::ep2s180();
  TextTable t("Figure 5: Assertion ALUT overhead scalability (% of EP2S180 ALUTs)");
  t.header({"processes", "unoptimized ovh %", "optimized ovh %", "ratio", "paper anchor"});
  double last_ratio = 0;
  for (unsigned n : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    auto app = apps::loopback::build(n, 8);
    bench::Characterized orig = bench::characterize(app->design, Options::ndebug());
    bench::Characterized unopt = bench::characterize(app->design, Options::unoptimized());
    bench::Characterized opt = bench::characterize(app->design, shared_only());
    double u = 100.0 *
               static_cast<double>(unopt.area.aluts - orig.area.aluts) /
               static_cast<double>(dev.aluts);
    double o = 100.0 *
               static_cast<double>(opt.area.aluts - orig.area.aluts) /
               static_cast<double>(dev.aluts);
    last_ratio = o > 0 ? u / o : 0;
    t.row({std::to_string(n), fmt_double(u, 2), fmt_double(o, 2), fmt_double(last_ratio, 2),
           n == 128 ? "4.07 / 1.34 (>3x)" : ""});
  }
  std::cout << t.render();
  std::cout << "measured 128-process reduction: " << fmt_double(last_ratio, 2)
            << "x (paper: over 3x)\n\n";

  // Ablation (DESIGN.md decision #3): sweep flags-per-stream.
  TextTable a("Ablation: failure flags packed per 32-bit stream (128 processes)");
  a.header({"flags/stream", "streams created", "optimized ALUT ovh %"});
  auto app = apps::loopback::build(128, 8);
  bench::Characterized orig = bench::characterize(app->design, Options::ndebug());
  for (unsigned w : {1u, 4u, 8u, 16u, 32u}) {
    Options o = shared_only();
    o.channel_width = w;
    bench::Characterized cfg = bench::characterize(app->design, o);
    double ovh = 100.0 *
                 static_cast<double>(cfg.area.aluts - orig.area.aluts) /
                 static_cast<double>(dev.aluts);
    a.row({std::to_string(w), std::to_string(cfg.synth.fail_streams_created),
           fmt_double(ovh, 2)});
  }
  std::cout << a.render() << '\n';
}

}  // namespace

int main() {
  hlsav::bench::print_provenance_banner("bench_fig5_resource_scalability");
  print_fig5();
  return 0;
}
