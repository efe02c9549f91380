// Quickstart: the whole hlsav flow in one file.
//
// 1. Write an HLS-C process containing a plain ANSI-C assert.
// 2. Compile it (parse -> sema -> lower to IR).
// 3. Synthesize the assertion into in-circuit checkers (the paper's
//    optimized configuration: parallelized checker, shared channels).
// 4. Schedule the design and characterize area/Fmax on the EP2S180.
// 5. Run it in the cycle simulator: first a clean run, then one where
//    the assertion fires and the CPU-side notification function prints
//    the standard ANSI-C failure message.
// Exits 1 unless the clean run completes and the failing one aborts.
#include <iostream>

#include "apps/appbuild.h"
#include "assertions/options.h"
#include "assertions/report.h"
#include "assertions/synthesize.h"
#include "fpga/area.h"
#include "fpga/timing.h"
#include "rtl/netlist.h"
#include "sched/schedule.h"
#include "sim/simulator.h"
#include "support/table.h"

int main() {
  using namespace hlsav;

  // 1. An HLS-C process: reads words, clamps them, asserts an invariant.
  const char* source = R"(
    void clamp(stream_in<32> in, stream_out<32> out) {
      for (uint32 i = 0; i < 8; i++) {
        uint32 v;
        v = stream_read(in);
        uint32 y;
        y = v;
        if (v > 1000) {
          y = 1000;
        }
        assert(y <= 1000);
        assert(v != 42);
        stream_write(out, y);
      }
    }
  )";

  // 2. Compile.
  auto app = apps::compile_app("quickstart", "clamp.c", source);
  std::cout << "compiled " << app->design.processes.size() << " process(es), "
            << app->design.assertions.size() << " assertion(s)\n";

  // 3. Synthesize assertions in circuit.
  ir::Design design = app->design.clone();
  assertions::SynthesisReport report =
      assertions::synthesize(design, assertions::Options::optimized());
  ir::verify(design);
  std::cout << "assertion synthesis: " << report.to_string() << "\n\n"
            << assertions::describe_framework(design) << "\n";

  // 4. Schedule + characterize.
  sched::DesignSchedule schedule = sched::schedule_design(design);
  rtl::Netlist netlist = rtl::build_netlist(design, schedule);
  fpga::Device device = fpga::Device::ep2s180();
  fpga::AreaReport area = fpga::estimate_area(netlist);
  fpga::TimingReport timing = fpga::estimate_fmax(netlist, device);
  std::cout << "area: " << area.to_string(device) << "\n"
            << "fmax: " << fmt_double(timing.fmax_mhz, 1) << " MHz\n\n";

  // 5a. Clean run.
  sim::ExternRegistry externs;
  bool ok = true;
  {
    sim::Simulator s(design, schedule, externs, {});
    s.feed("clamp.in", {1, 2, 3, 4, 2000, 6, 7, 8});
    sim::RunResult r = s.run();
    ok = ok && r.completed();
    std::cout << "clean run: " << (r.completed() ? "completed" : "failed") << " in "
              << r.cycles << " cycles; outputs:";
    for (std::uint64_t v : s.received("clamp.out")) std::cout << ' ' << v;
    std::cout << "\n";
  }

  // 5b. A run that trips the second assertion: the notification function
  // prints the ANSI-C message and halts the application.
  {
    sim::Simulator s(design, schedule, externs, {});
    s.set_failure_sink([](const assertions::Failure& f) {
      std::cout << "notification function: " << f.message << " [cycle " << f.cycle << "]\n";
    });
    s.feed("clamp.in", {1, 2, 42, 4, 5, 6, 7, 8});
    sim::RunResult r = s.run();
    ok = ok && r.status == sim::RunStatus::kAborted;
    std::cout << "failing run: " << (r.status == sim::RunStatus::kAborted ? "aborted" : "??")
              << " after " << r.failures.size() << " failure(s)\n";
  }
  return ok ? 0 : 1;
}
