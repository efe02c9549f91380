// Hang debugging with assert(0) trace markers and NABORT (paper §5.1).
//
// A modified streaming pipeline contains the paper's class of bug: a
// stage performs one extra blocking read (the original bug was a memory
// read where a write was intended). The application completes under
// idealized reasoning but hangs in circuit. assert(0) markers with
// NABORT act as a breadcrumb trail: the last marker reached, compared
// between runs, pinpoints the hanging statement -- no HDL needed.
// Exits 1 unless the correct pipeline completes and the buggy one hangs.
#include <iostream>

#include "apps/appbuild.h"
#include "assertions/options.h"
#include "assertions/synthesize.h"
#include "sched/schedule.h"
#include "sim/simulator.h"

namespace {

using namespace hlsav;

// `extra_read` injects the bug.
std::string pipeline_source(bool extra_read) {
  std::string consumer_trip = extra_read ? "5" : "4";
  return R"(
    void feeder(stream_in<32> in, stream_out<32> link) {
      for (uint32 i = 0; i < 4; i++) {
        uint32 v;
        v = stream_read(in);
        stream_write(link, v + 1);
      }
    }
    void reducer(stream_in<32> link, stream_out<32> out) {
      uint32 acc;
      acc = 0;
      assert(0);
      for (uint32 i = 0; i < )" + consumer_trip + R"(; i++) {
        acc = acc + stream_read(link);
        assert(0);
      }
      assert(0);
      stream_write(out, acc);
    }
  )";
}

sim::RunStatus run_pipeline(bool buggy) {
  auto app = apps::compile_app(buggy ? "buggy" : "correct", "pipeline.c",
                               pipeline_source(buggy));
  ir::StreamId link = app->design.find_process("feeder")->find_port("link")->stream;
  app->design.connect_consumer(link, "reducer", "link");

  ir::Design design = app->design.clone();
  assertions::Options opt = assertions::Options::unoptimized();
  opt.nabort = true;  // trace mode: report markers, never abort
  assertions::synthesize(design, opt);
  ir::verify(design);
  sched::DesignSchedule schedule = sched::schedule_design(design);
  sim::ExternRegistry externs;
  sim::Simulator s(design, schedule, externs, {});
  s.feed("feeder.in", {10, 20, 30, 40});
  sim::RunResult r = s.run();

  std::cout << (buggy ? "--- buggy pipeline ---\n" : "--- correct pipeline ---\n");
  std::cout << "status: "
            << (r.status == sim::RunStatus::kCompleted ? "completed"
                : r.status == sim::RunStatus::kHung    ? "HUNG"
                                                       : "aborted")
            << ", trace markers reached: " << r.failures.size() << "\n";
  for (const assertions::Failure& f : r.failures) {
    std::cout << "  marker at line "
              << design.find_assertion(f.assertion_id)->line << " (cycle " << f.cycle << ")\n";
  }
  if (r.status == sim::RunStatus::kHung) {
    std::cout << r.hang_report;
  }
  std::cout << '\n';
  return r.status;
}

}  // namespace

int main() {
  // Reference run: every marker fires, including the one after the loop.
  const bool completed = run_pipeline(/*buggy=*/false) == sim::RunStatus::kCompleted;
  // Buggy run: the post-loop marker never fires and the hang report
  // names the exact blocking statement -- the paper's methodology.
  const bool hung = run_pipeline(/*buggy=*/true) == sim::RunStatus::kHung;
  std::cout << "diagnosis: the marker after the loop was never reached in the buggy run,\n"
               "and the hang report points at the extra blocking stream_read -- the same\n"
               "procedure that located the read-instead-of-write bug in the paper's DES\n"
               "case study, without touching any HDL.\n";
  return completed && hung ? 0 : 1;
}
