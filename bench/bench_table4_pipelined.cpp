// Reproduces Table 4: pipelined single-comparison assertion overhead
// (latency and rate), plus the throughput-recovery claims of §5.4
// (100% for scalars, 33% for arrays) and an ablation of the stream-
// write controller occupancy that causes the rate degradation.
#include "bench/common.h"

namespace {

using namespace hlsav;
using assertions::Options;

const char* kScalarKernel = R"(
  void k(stream_in<32> in, stream_out<32> out) {
    uint32 x;
    x = stream_read(in);
    uint32 acc;
    acc = 0;
    #pragma HLS pipeline
    for (uint32 i = 0; i < 64; i++) {
      uint32 t;
      t = x * 23 + i;
      acc = acc + t;
      assert(t > 0);
    }
    stream_write(out, acc);
  }
)";

const char* kArrayKernel = R"(
  void k(stream_in<32> in, stream_out<32> out) {
    uint32 x;
    x = stream_read(in);
    uint32 acc;
    acc = 0;
    #pragma HLS replicate
    uint32 b[64];
    #pragma HLS pipeline
    for (uint32 i = 0; i < 64; i++) {
      acc = acc + b[i];
      b[i] = x + i;
      assert(b[i] > 0);
    }
    stream_write(out, acc);
  }
)";

sched::LoopPerf perf_of(const char* src, const Options& opt,
                        const sched::SchedOptions& so = {}) {
  auto app = apps::compile_app("t4", "t4.c", src);
  ir::Design d = app->design.clone();
  assertions::synthesize(d, opt);
  ir::verify(d);
  const ir::Process& p = *d.find_process("k");
  sched::ProcessSchedule s = sched::schedule_process(d, p, so);
  return sched::loop_perf(s, p.loops[0].body);
}

void print_table4() {
  sched::LoopPerf s_orig = perf_of(kScalarKernel, Options::ndebug());
  sched::LoopPerf s_unopt = perf_of(kScalarKernel, Options::unoptimized());
  sched::LoopPerf s_opt = perf_of(kScalarKernel, Options::optimized());
  sched::LoopPerf a_orig = perf_of(kArrayKernel, Options::ndebug());
  sched::LoopPerf a_unopt = perf_of(kArrayKernel, Options::unoptimized());
  sched::LoopPerf a_opt = perf_of(kArrayKernel, Options::optimized());

  TextTable t("Table 4: Pipelined single-comparison assertion overhead (latency/rate)");
  t.header({"Assertion data structure", "Original", "Unopt (paper lat/rate ovh)",
            "Unopt (measured)", "Opt (paper)", "Opt (measured)"});
  auto fmt = [](const sched::LoopPerf& base, const sched::LoopPerf& cfg) {
    return std::to_string(cfg.latency - base.latency) + "/" +
           std::to_string(cfg.rate - base.rate);
  };
  t.row({"Scalar variable",
         std::to_string(s_orig.latency) + "/" + std::to_string(s_orig.rate), "1/1",
         fmt(s_orig, s_unopt), "0/0", fmt(s_orig, s_opt)});
  t.row({"Array (replicated when optimized)",
         std::to_string(a_orig.latency) + "/" + std::to_string(a_orig.rate), "2/1",
         fmt(a_orig, a_unopt), "1/0", fmt(a_orig, a_opt)});
  std::cout << t.render();

  // §5.4 throughput-recovery claims: the paper reports the scalar case
  // as a 2x speedup (+100%) and the array case as a 33% rate improvement
  // (cycles per iteration 3 -> 2).
  double scalar_speedup =
      static_cast<double>(s_unopt.rate) / static_cast<double>(s_opt.rate) - 1.0;
  double array_rate_cut = 100.0 *
                          static_cast<double>(a_unopt.rate - a_opt.rate) /
                          static_cast<double>(a_unopt.rate);
  std::cout << "optimization gain vs unoptimized: scalar +" << fmt_double(100 * scalar_speedup, 0)
            << "% throughput (paper: +100%), array rate improved by "
            << fmt_double(array_rate_cut, 0) << "% (" << a_unopt.rate << " -> " << a_opt.rate
            << " cycles/iteration; paper: 33% via resource replication)\n";

  // Ablation (DESIGN.md decision #1): with a 1-slot stream-write
  // controller, the inlined failure send would NOT halve the rate.
  sched::SchedOptions occ1;
  occ1.stream_write_occupancy = 1;
  sched::LoopPerf abl = perf_of(kScalarKernel, Options::unoptimized(), occ1);
  std::cout << "ablation stream_write_occupancy=1: unoptimized scalar rate "
            << s_unopt.rate << " -> " << abl.rate
            << " (the 2-slot handshake is what reproduces the paper's 2x slowdown)\n";

  // Ablation (DESIGN.md decision #2): with both BRAM ports available to
  // the application, the array kernel's original rate halves and the
  // assertion's extra access no longer forces II=3.
  sched::SchedOptions ports2;
  ports2.mem_ports = 2;
  sched::LoopPerf a2_orig = perf_of(kArrayKernel, Options::ndebug(), ports2);
  sched::LoopPerf a2_unopt = perf_of(kArrayKernel, Options::unoptimized(), ports2);
  std::cout << "ablation mem_ports=2: array original rate " << a_orig.rate << " -> "
            << a2_orig.rate << ", unoptimized rate " << a_unopt.rate << " -> " << a2_unopt.rate
            << " (the single shared port is the paper's §3.2 contention)\n\n";
}

}  // namespace

int main() {
  hlsav::bench::print_provenance_banner("bench_table4_pipelined");
  print_table4();
  return 0;
}
