// Software simulation vs in-circuit execution (paper §5.1, Fig. 3).
//
// Two divergence sources the paper demonstrates:
//  (a) a hardware translation fault -- Impulse-C narrowed a 64-bit
//      comparison to 5 bits, so 4294967286 > 4294967296 evaluated true
//      in circuit -- modelled by the simulator's fault injection;
//  (b) an external HDL function whose C simulation model disagrees with
//      the silicon.
// In both cases the program passes software simulation and fails in
// circuit; in-circuit assertions are what surface the bug.
#include <iostream>

#include "apps/appbuild.h"
#include "assertions/options.h"
#include "assertions/synthesize.h"
#include "sched/schedule.h"
#include "sim/simulator.h"

namespace {

using namespace hlsav;

void report(const char* label, const sim::RunResult& r) {
  std::cout << label << ": ";
  switch (r.status) {
    case sim::RunStatus::kCompleted: std::cout << "completed, assertion passed"; break;
    case sim::RunStatus::kAborted:
      std::cout << "ABORTED -- " << r.failures[0].message;
      break;
    case sim::RunStatus::kHung: std::cout << "hung"; break;
    case sim::RunStatus::kDeadline: std::cout << "stopped by the wall-clock deadline"; break;
  }
  std::cout << '\n';
}

}  // namespace

int main() {
  // (a) The Fig. 3 kernel: a 64-bit guard protects a RAM address.
  const char* narrow_src = R"(
    void f(stream_in<32> in, stream_out<32> out) {
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
      stream_write(out, addr);
    }
  )";
  auto app = apps::compile_app("fig3", "fig3.c", narrow_src);
  sim::ExternRegistry externs;

  {
    // Software simulation executes source semantics: passes.
    ir::Design d = app->design.clone();
    sched::DesignSchedule sch = sched::schedule_design(d);
    sim::SimOptions so;
    so.mode = sim::SimMode::kSoftware;
    sim::Simulator s(d, sch, externs, so);
    s.feed("f.in", {4294967286u});
    report("(a) software simulation          ", s.run());
  }
  {
    // In circuit, with the translation fault injected on the guard
    // comparison (source line 9): 22 > 0 -- the guard misfires.
    ir::Design d = app->design.clone();
    assertions::synthesize(d, assertions::Options::unoptimized());
    ir::verify(d);
    sched::DesignSchedule sch = sched::schedule_design(d);
    sim::SimOptions so;
    so.faults.add_narrow_compare("f", 9, 5);
    sim::Simulator s(d, sch, externs, so);
    s.feed("f.in", {4294967286u});
    report("(a) in-circuit (narrowed compare)", s.run());
  }

  // (b) External HDL function with a divergent C model.
  const char* extern_src = R"(
    extern uint32 norm(uint32 v);
    void g(stream_in<32> in, stream_out<32> out) {
      uint32 r;
      r = norm(stream_read(in));
      assert(r <= 255);
      stream_write(out, r);
    }
  )";
  auto app2 = apps::compile_app("extdiv", "extdiv.c", extern_src);
  sim::ExternRegistry ext2;
  ext2.add("norm",
           [](const std::vector<BitVector>& a) {  // C model: clamps
             return BitVector::from_u64(32, std::min<std::uint64_t>(a[0].to_u64(), 255));
           },
           [](const std::vector<BitVector>& a) {  // HDL core: wraps instead
             return BitVector::from_u64(32, a[0].to_u64() & 0x3ff);
           });
  {
    ir::Design d = app2->design.clone();
    sched::DesignSchedule sch = sched::schedule_design(d);
    sim::SimOptions so;
    so.mode = sim::SimMode::kSoftware;
    sim::Simulator s(d, sch, ext2, so);
    s.feed("g.in", {600});
    report("(b) software simulation          ", s.run());
  }
  {
    ir::Design d = app2->design.clone();
    assertions::synthesize(d, assertions::Options::optimized());
    ir::verify(d);
    sched::DesignSchedule sch = sched::schedule_design(d);
    sim::Simulator s(d, sch, ext2, {});
    s.feed("g.in", {600});
    report("(b) in-circuit (real HDL core)   ", s.run());
  }

  std::cout << "\nboth bugs are invisible to software simulation and caught by the same\n"
               "source-level assert() once it executes in circuit.\n";
  return 0;
}
