// Reproduces §5.1: in-circuit verification catching bugs that software
// simulation misses.
//
//  (a) Translation fault: Impulse-C erroneously narrowed a 64-bit
//      comparison to 5 bits (4294967286 > 4294967296 became 22 > 0).
//      Software simulation executes source semantics and passes; the
//      injected-fault circuit fails the assertion.
//  (b) External HDL function whose C simulation model diverges from the
//      core's real behaviour.
//  (c) Hang tracing: assert(0) markers + NABORT localize where a process
//      stopped making progress (the paper's DES read-instead-of-write
//      bug).
#include "bench/common.h"

namespace {

using namespace hlsav;
using assertions::Options;

const char* kNarrowSrc = R"(
  // Fig. 3-style kernel: a 64-bit guard computes a RAM address.
  void f(stream_in<32> in, stream_out<32> out) {
    uint32 mem[32];
    uint64 c1;
    uint64 c2;
    c1 = 4294967296;
    c2 = stream_read(in);
    uint32 addr;
    addr = 0;
    if (c2 > c1) {
      addr = 99;
    }
    assert(addr < 32);
    mem[addr & 31] = 1;
    stream_write(out, addr);
  }
)";

struct Outcome {
  std::string status;
  std::string detail;
};

Outcome run_case(const ir::Design& lowered, sim::SimMode mode, bool inject,
                 const sim::ExternRegistry& ext, const std::string& in_stream,
                 const std::vector<std::uint64_t>& feed, bool synthesize_asserts) {
  ir::Design d = lowered.clone();
  if (synthesize_asserts) assertions::synthesize(d, Options::unoptimized());
  ir::verify(d);
  sched::DesignSchedule sch = sched::schedule_design(d);
  sim::SimOptions so;
  so.mode = mode;
  if (inject) so.faults.add(sim::FaultSpec::narrow_compare("", 11, 5));
  sim::Simulator s(d, sch, ext, so);
  s.feed(in_stream, feed);
  sim::RunResult r = s.run();
  Outcome o;
  switch (r.status) {
    case sim::RunStatus::kCompleted: o.status = "completed"; break;
    case sim::RunStatus::kAborted: o.status = "ABORTED"; break;
    case sim::RunStatus::kHung: o.status = "HUNG"; break;
    case sim::RunStatus::kDeadline: o.status = "BUDGET"; break;
  }
  if (!r.failures.empty()) o.detail = r.failures[0].message;
  return o;
}

void case_a_narrow_compare() {
  auto app = apps::compile_app("sec51a", "fig3.c", kNarrowSrc);
  sim::ExternRegistry ext;
  std::vector<std::uint64_t> feed = {4294967286u};

  Outcome sw = run_case(app->design, sim::SimMode::kSoftware, false, ext, "f.in", feed, false);
  Outcome hw = run_case(app->design, sim::SimMode::kHardware, true, ext, "f.in", feed, true);

  TextTable t("S5.1(a): erroneously narrowed 64-bit comparison (translation fault)");
  t.header({"execution", "result", "assertion report"});
  t.row({"software simulation (source semantics)", sw.status, sw.detail});
  t.row({"in-circuit (5-bit narrowed compare)", hw.status, hw.detail});
  std::cout << t.render();
  std::cout << "paper: the assertion never fails in simulation but fails on the XD1000;\n"
               "4294967286 > 4294967296 becomes 22 > 0 after the 5-bit narrowing.\n\n";
}

void case_b_extern_divergence() {
  const char* src = R"(
    extern uint32 accel(uint32 v);
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 r;
      r = accel(stream_read(in));
      assert(r < 1000);
      stream_write(out, r);
    }
  )";
  auto app = apps::compile_app("sec51b", "extern.c", src);
  sim::ExternRegistry ext;
  ext.add("accel",
          [](const std::vector<BitVector>& a) {  // C model used in simulation
            return BitVector::from_u64(32, a[0].to_u64() / 4);
          },
          [](const std::vector<BitVector>& a) {  // real HDL core behaviour
            return BitVector::from_u64(32, a[0].to_u64() * 4);
          });
  std::vector<std::uint64_t> feed = {900};
  Outcome sw = run_case(app->design, sim::SimMode::kSoftware, false, ext, "f.in", feed, false);
  Outcome hw = run_case(app->design, sim::SimMode::kHardware, false, ext, "f.in", feed, true);
  TextTable t("S5.1(b): external HDL function vs its C simulation model");
  t.header({"execution", "result", "assertion report"});
  t.row({"software simulation (C model: v/4)", sw.status, sw.detail});
  t.row({"in-circuit (HDL core: v*4)", hw.status, hw.detail});
  std::cout << t.render() << '\n';
}

void case_c_hang_trace() {
  // A two-process pipeline where the consumer reads one more word than
  // the producer sends (the paper's read-instead-of-write class of bug):
  // software-ish reasoning says it completes, the circuit hangs.
  const char* src = R"(
    void producer(stream_in<32> in, stream_out<32> link) {
      for (uint32 i = 0; i < 4; i++) {
        stream_write(link, stream_read(in));
      }
    }
    void consumer(stream_in<32> link, stream_out<32> out) {
      uint32 acc;
      acc = 0;
      assert(0);
      for (uint32 i = 0; i < 5; i++) {
        acc = acc + stream_read(link);
        assert(0);
      }
      stream_write(out, acc);
      assert(0);
    }
  )";
  auto app = apps::compile_app("sec51c", "hang.c", src);
  ir::StreamId link = app->design.find_process("producer")->find_port("link")->stream;
  app->design.connect_consumer(link, "consumer", "link");

  ir::Design d = app->design.clone();
  Options opt = Options::unoptimized();
  opt.nabort = true;  // trace markers must not abort
  assertions::synthesize(d, opt);
  ir::verify(d);
  sched::DesignSchedule sch = sched::schedule_design(d);
  sim::ExternRegistry ext;
  sim::Simulator s(d, sch, ext, {});
  s.feed("producer.in", {1, 2, 3, 4});
  sim::RunResult r = s.run();

  TextTable t("S5.1(c): hang localization with assert(0) markers + NABORT");
  t.header({"what", "value"});
  t.row({"run status", r.status == sim::RunStatus::kHung ? "HUNG (as on the XD1000)" : "??"});
  t.row({"trace markers reached", std::to_string(r.failures.size())});
  for (const auto& f : r.failures) {
    t.row({"  marker", f.message});
  }
  std::cout << t.render();
  std::cout << "hang report:\n" << r.hang_report
            << "comparing reached markers against a run of the correct code pinpoints\n"
               "the blocking statement, as in the paper's DES hang case study.\n\n";
}

}  // namespace

int main() {
  hlsav::bench::print_provenance_banner("bench_sec51_divergence");
  case_a_narrow_compare();
  case_b_extern_divergence();
  case_c_hang_trace();
  return 0;
}
