// Reproduces Figure 4: maximum clock frequency vs process count for the
// streaming-loopback application (original / unoptimized assertions /
// channel-shared "optimized" assertions).
//
// Paper anchor points: 128 processes -> original 190.6 MHz, unoptimized
// 154 MHz (-18.8%), optimized 189.3 MHz.
#include "bench/common.h"

#include "apps/loopback.h"

namespace {

using namespace hlsav;
using assertions::Options;

Options shared_only() {
  Options o;
  o.share_channels = true;  // Fig. 4/5 apply sharing to the channels only
  return o;
}

void print_fig4() {
  TextTable t("Figure 4: Assertion frequency scalability (Fmax, MHz)");
  t.header({"processes", "original", "unoptimized", "optimized (shared channels)",
            "unopt overhead %", "paper anchor"});
  for (unsigned n : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    auto app = apps::loopback::build(n, 8);
    bench::Characterized orig = bench::characterize(app->design, Options::ndebug());
    bench::Characterized unopt = bench::characterize(app->design, Options::unoptimized());
    bench::Characterized opt = bench::characterize(app->design, shared_only());
    double ovh = 100.0 * (orig.timing.fmax_mhz - unopt.timing.fmax_mhz) / orig.timing.fmax_mhz;
    std::string anchor = n == 128 ? "190.6 / 154 / 189.3" : "";
    t.row({std::to_string(n), fmt_double(orig.timing.fmax_mhz, 1),
           fmt_double(unopt.timing.fmax_mhz, 1), fmt_double(opt.timing.fmax_mhz, 1),
           fmt_double(ovh, 1), anchor});
  }
  std::cout << t.render();
  std::cout << "paper: unoptimized assertions cost 18.8% Fmax at 128 processes; the\n"
               "channel-sharing optimization recovers it to within ~1% of the original.\n\n";
}

}  // namespace

int main() {
  hlsav::bench::print_provenance_banner("bench_fig4_freq_scalability");
  print_fig4();
  return 0;
}
