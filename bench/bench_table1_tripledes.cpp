// Reproduces Table 1: Triple-DES assertion overhead on the EP2S180.
//
// The paper adds two optimized (parallelized + shared-channel) ASCII
// bound assertions to an Impulse-C Triple-DES decryptor and reports the
// area and Fmax deltas. Here the decryptor is our generated HLS-C
// kernel, assertion synthesis is real, and the area/Fmax columns come
// from the analytic EP2S180 model (see DESIGN.md's calibration policy).
#include "bench/common.h"

#include "apps/des.h"

namespace {

using namespace hlsav;
using bench::Characterized;

const std::array<std::uint64_t, 3> kKeys = {0x0123456789ABCDEFull, 0x23456789ABCDEF01ull,
                                            0x456789ABCDEF0123ull};

const sched::SchedOptions kDesSched = [] {
  sched::SchedOptions o;
  o.chain_depth = 6;  // Impulse-C chains aggressively in this kernel
  return o;
}();

void print_table1() {
  auto app = apps::compile_app("triple_des", "des3.c", apps::des::hlsc_decrypt_source(kKeys));
  Characterized orig = bench::characterize(app->design, assertions::Options::ndebug(), kDesSched);
  Characterized asrt =
      bench::characterize(app->design, assertions::Options::optimized(), kDesSched);

  std::cout << bench::overhead_table(
      "Table 1: Triple-DES assertion overhead (measured by this implementation)", orig, asrt);

  TextTable paper("Paper's Table 1 (Curreri et al., measured on real Quartus/XD1000)");
  paper.header({"EP2S180", "Original", "Assert", "Overhead"});
  paper.row({"Logic Used", "13677 (9.53%)", "13851 (9.65%)", "+174 (+0.12%)"});
  paper.row({"Comb. ALUT", "7929 (5.52%)", "8025 (5.59%)", "+96 (+0.07%)"});
  paper.row({"Registers", "10019 (6.98%)", "10055 (7.01%)", "+36 (+0.03%)"});
  paper.row({"Block RAM bits", "222912 (2.37%)", "223488 (2.38%)", "+576 (+0.01%)"});
  paper.row({"Block interconnect", "24657 (4.60%)", "24878 (4.64%)", "+221 (+0.04%)"});
  paper.row({"Frequency (MHz)", "145.7", "142.0", "-3.7 (-2.54%)"});
  std::cout << paper.render();

  // Ablation: grouped checkers (the paper's §3.3 proposed extension) --
  // one shared checker process for both assertions instead of two.
  assertions::Options grouped = assertions::Options::optimized();
  grouped.group_checkers = true;
  Characterized grp = bench::characterize(app->design, grouped, kDesSched);
  std::cout << "ablation group_checkers=on: ALUT overhead "
            << (asrt.area.aluts - orig.area.aluts) << " -> " << (grp.area.aluts - orig.area.aluts)
            << ", register overhead " << (asrt.area.registers - orig.area.registers) << " -> "
            << (grp.area.registers - orig.area.registers)
            << " (one checker wrapper + one failure channel for the whole process)\n\n";

  // Functional sanity: the characterized assert design actually decrypts.
  sim::ExternRegistry ext;
  sim::Simulator s(asrt.design, asrt.schedule, ext, {});
  std::string text = "FPGA in-circuit assertion-based verification.";
  std::vector<std::uint64_t> blocks = apps::des::pack_text(text);
  std::vector<std::uint64_t> cipher;
  for (std::uint64_t b : blocks) cipher.push_back(apps::des::triple_des_encrypt(b, kKeys));
  s.feed("des3.in", apps::des::to_word_stream(cipher));
  sim::RunResult r = s.run();
  std::cout << "functional check: decrypted " << s.received("des3.txt").size()
            << " characters in " << r.cycles << " cycles, "
            << (r.failures.empty() ? "no assertion failures" : "ASSERTION FAILURES") << "\n\n";
}

}  // namespace

int main() {
  hlsav::bench::print_provenance_banner("bench_table1_tripledes");
  print_table1();
  return 0;
}
