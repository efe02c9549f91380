// Timing assertions: the paper's §6 future-work feature, implemented.
//
// `assert_cycles(N)` checks that no more than N cycles elapsed since the
// previous marker in the same process (or process start). The marker is
// free on the application's state machine -- a micro-checker process
// carries the counter, comparator and failure channel -- so performance
// contracts can be verified in circuit the same way value invariants are.
// Exits 1 unless the run completes with exactly the two violations.
#include <iostream>

#include "apps/appbuild.h"
#include "assertions/options.h"
#include "assertions/synthesize.h"
#include "sched/schedule.h"
#include "sim/simulator.h"

int main() {
  using namespace hlsav;

  // The consumer contracts to produce each result within 24 cycles of
  // the previous one. A "slow path" in the kernel (the inner while loop
  // runs longer for large inputs) violates it.
  const char* source = R"(
    void worker(stream_in<32> in, stream_out<32> out) {
      for (uint32 i = 0; i < 6; i++) {
        uint32 v;
        v = stream_read(in);
        uint32 r;
        r = 0;
        while (v > 0) {
          r = r + v;
          v = v - 1;
        }
        assert_cycles(24);
        stream_write(out, r);
      }
    }
  )";

  auto app = apps::compile_app("timing", "worker.c", source);
  ir::Design design = app->design.clone();
  assertions::Options opt = assertions::Options::unoptimized();
  opt.nabort = true;  // report every violation, keep running
  assertions::SynthesisReport rep = assertions::synthesize(design, opt);
  ir::verify(design);
  std::cout << "synthesis: " << rep.to_string() << "\n";
  sched::DesignSchedule schedule = sched::schedule_design(design);
  sim::ExternRegistry externs;

  // Small inputs meet the 24-cycle budget; 11 and 14 do not.
  sim::Simulator s(design, schedule, externs, {});
  s.set_failure_sink([](const assertions::Failure& f) {
    std::cout << "timing violation: " << f.message << " [cycle " << f.cycle << "]\n";
  });
  s.feed("worker.in", {2, 3, 11, 1, 14, 2});
  sim::RunResult r = s.run();
  std::cout << "run " << (r.completed() ? "completed" : "stopped") << " in " << r.cycles
            << " cycles with " << r.failures.size() << " timing violations\n"
            << "outputs:";
  for (std::uint64_t v : s.received("worker.out")) std::cout << ' ' << v;
  std::cout << "\n\nthe markers cost zero application states: the same design without\n"
               "them completes in exactly the same number of cycles.\n";
  return r.completed() && r.failures.size() == 2 ? 0 : 1;
}
