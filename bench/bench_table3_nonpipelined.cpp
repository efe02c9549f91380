// Reproduces Table 3: latency overhead of non-pipelined single-comparison
// assertions.
//
// The numbers are *emergent*: each micro-kernel is compiled, assertion-
// synthesized (unoptimized vs parallelized), scheduled, and the FSM
// states on the passing path are counted. Cycle counts are additionally
// cross-checked by actually running the cycle simulator.
#include "bench/common.h"

namespace {

using namespace hlsav;
using assertions::Options;

struct Kernel {
  const char* name;
  const char* paper_unopt;
  const char* paper_opt;
  std::string src;
};

std::vector<Kernel> kernels() {
  return {
      {"Scalar variable", "1", "0",
       R"(void k(stream_in<32> in, stream_out<32> out) {
            uint32 x;
            x = stream_read(in);
            uint32 y;
            y = x + 1;
            assert(x > 0);
            stream_write(out, y);
          })"},
      {"Array (non-consecutive)", "1", "0",
       R"(void k(stream_in<32> in, stream_out<32> out) {
            uint32 b[8];
            uint32 c[8];
            uint32 x;
            x = stream_read(in);
            b[0] = x;
            c[0] = x;
            uint32 w;
            w = c[0] + 1;
            assert(b[1] >= 0);
            stream_write(out, w);
          })"},
      {"Array (consecutive)", "2", "1",
       R"(void k(stream_in<32> in, stream_out<32> out) {
            uint32 b[8];
            uint32 x;
            x = stream_read(in);
            b[0] = x;
            assert(b[0] > 0);
            uint32 y;
            y = b[1];
            stream_write(out, y);
          })"},
  };
}

struct Measured {
  unsigned states = 0;
  std::uint64_t sim_cycles = 0;
};

Measured measure(const std::string& src, const Options& opt) {
  auto app = apps::compile_app("t3", "t3.c", src);
  bench::Characterized c = bench::characterize(app->design, opt);
  Measured m;
  m.states = sched::passing_path_states(*c.design.find_process("k"), *c.schedule.find("k"));
  sim::ExternRegistry ext;
  sim::Simulator s(c.design, c.schedule, ext, {});
  s.feed("k.in", {7});
  sim::RunResult r = s.run();
  m.sim_cycles = r.cycles;
  return m;
}

void print_table3() {
  Options opt_parallel;
  opt_parallel.parallelize = true;  // Table 3 uses parallelization only

  TextTable t("Table 3: Non-pipelined single-comparison assertion latency overhead");
  t.header({"Assertion data structure", "Unoptimized (paper)", "Unoptimized (measured)",
            "Optimized (paper)", "Optimized (measured)", "sim-cycles orig/unopt/opt"});
  for (const Kernel& k : kernels()) {
    Measured base = measure(k.src, Options::ndebug());
    Measured unopt = measure(k.src, Options::unoptimized());
    Measured opt = measure(k.src, opt_parallel);
    t.row({k.name, k.paper_unopt, std::to_string(unopt.states - base.states), k.paper_opt,
           std::to_string(opt.states - base.states),
           std::to_string(base.sim_cycles) + "/" + std::to_string(unopt.sim_cycles) + "/" +
               std::to_string(opt.sim_cycles)});
  }
  std::cout << t.render() << '\n';
}

}  // namespace

int main() {
  hlsav::bench::print_provenance_banner("bench_table3_nonpipelined");
  print_table3();
  return 0;
}
