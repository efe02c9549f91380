// Triple-DES in-circuit verification (the paper's Table 1 case study).
//
// The CPU encrypts a text file with 3DES, streams the ciphertext to the
// "FPGA" (our cycle simulator running the generated HLS-C decryptor),
// and the decryptor's two in-circuit assertions bound-check every
// decrypted character as printable ASCII. A corrupted ciphertext block
// shows the failure path: the assertion fires in circuit and the
// notification function names the file, line, function and expression.
// Exits 1 unless the round trip is exact and the corrupted run aborts.
#include <iostream>

#include "apps/appbuild.h"
#include "apps/des.h"
#include "assertions/options.h"
#include "assertions/synthesize.h"
#include "sched/schedule.h"
#include "sim/simulator.h"

int main() {
  using namespace hlsav;
  using namespace hlsav::apps;

  const std::array<std::uint64_t, 3> keys = {0x0123456789ABCDEFull, 0x23456789ABCDEF01ull,
                                             0x456789ABCDEF0123ull};
  const std::string text =
      "High-level synthesis lets software engineers target FPGAs; "
      "in-circuit assertions let them debug there too.";

  // Build the decryptor with optimized in-circuit assertions.
  auto app = compile_app("triple_des", "des3.c", des::hlsc_decrypt_source(keys));
  ir::Design design = app->design.clone();
  assertions::synthesize(design, assertions::Options::optimized());
  ir::verify(design);
  sched::DesignSchedule schedule = sched::schedule_design(design);
  sim::ExternRegistry externs;

  // Encrypt on the CPU.
  std::vector<std::uint64_t> blocks = des::pack_text(text);
  std::vector<std::uint64_t> cipher;
  for (std::uint64_t b : blocks) cipher.push_back(des::triple_des_encrypt(b, keys));
  std::cout << "encrypted " << blocks.size() << " blocks (" << text.size() << " chars)\n";

  // Decrypt in circuit.
  bool ok = true;
  {
    sim::Simulator s(design, schedule, externs, {});
    s.feed("des3.in", des::to_word_stream(cipher));
    sim::RunResult r = s.run();
    std::string out;
    for (std::uint64_t c : s.received("des3.txt")) out.push_back(static_cast<char>(c));
    const bool round_trip = out.substr(0, text.size()) == text;
    ok = ok && round_trip;
    std::cout << "decrypted in " << r.cycles << " FPGA cycles, "
              << r.failures.size() << " assertion failures\n"
              << "plaintext: " << out.substr(0, 60) << "...\n"
              << "round-trip " << (round_trip ? "OK" : "FAILED") << "\n\n";
  }

  // Corrupt one ciphertext block: the decrypted garbage violates the
  // ASCII bounds and the in-circuit assertion halts the run.
  {
    std::vector<std::uint64_t> corrupted = cipher;
    corrupted[2] ^= 0x40000001ull;
    sim::Simulator s(design, schedule, externs, {});
    s.set_failure_sink([](const assertions::Failure& f) {
      std::cout << "in-circuit failure: " << f.message << "\n";
    });
    s.feed("des3.in", des::to_word_stream(corrupted));
    sim::RunResult r = s.run();
    ok = ok && r.status == sim::RunStatus::kAborted;
    std::cout << "corrupted run: "
              << (r.status == sim::RunStatus::kAborted ? "aborted (bug caught in circuit)"
                                                       : "completed (?)")
              << "\n";
  }
  return ok ? 0 : 1;
}
