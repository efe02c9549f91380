#include "fpga/area.h"

#include <cmath>
#include <sstream>

#include "support/table.h"

namespace hlsav::fpga {

namespace {

double fu_aluts(const rtl::FuInst& fu, const CostModel& m) {
  switch (fu.kind) {
    case ir::OpKind::kBin:
      switch (ir::bin_traits(fu.bin).area) {
        case ir::BinArea::kAddSub:
          return m.alut_per_addsub_bit * fu.width;
        case ir::BinArea::kLogic:
          return m.alut_per_logic_bit * fu.width;
        case ir::BinArea::kShift:
          // Barrel shifter: width x log2(width) mux levels.
          return m.alut_per_varshift * fu.width *
                 std::max(1.0, std::log2(static_cast<double>(fu.width)));
        case ir::BinArea::kMul:
          return m.alut_mul_fixed;  // DSP block + glue
        case ir::BinArea::kDiv:
          return m.alut_div_per_bit * fu.width;
        case ir::BinArea::kCmp:
          return m.alut_per_cmp_bit * fu.width + 1.0;
      }
      return fu.width;
    case ir::OpKind::kUn:
      return fu.un == ir::UnKind::kNeg ? m.alut_per_addsub_bit * fu.width
                                       : 0.0;  // bitwise NOT folds into LUTs
    case ir::OpKind::kLoad:
    case ir::OpKind::kStore:
      return m.alut_mem_port;
    case ir::OpKind::kStreamRead:
    case ir::OpKind::kStreamWrite:
      return m.alut_stream_op;
    case ir::OpKind::kCallExtern:
      return m.alut_call_fixed;
    case ir::OpKind::kResize:  // wiring: the netlist never makes an FU of these
    case ir::OpKind::kCopy:
    case ir::OpKind::kAssert:
    case ir::OpKind::kAssertTap:
    case ir::OpKind::kAssertFailWire:
    case ir::OpKind::kAssertCycles:
      return 0.0;
  }
  return 0.0;
}

}  // namespace

unsigned m4k_width(unsigned width) { return ((width + 8) / 9) * 9; }

AreaReport estimate_area(const rtl::Netlist& n, const CostModel& m) {
  double aluts = 0;
  double regs = 0;
  double interconnect = 0;
  std::uint64_t bram = 0;

  for (const rtl::ProcessNetlist& p : n.processes) {
    bool assert_glue = p.role != ir::ProcessRole::kApplication;
    aluts += assert_glue ? m.alut_assert_proc_base : m.alut_process_base;
    regs += assert_glue ? m.reg_assert_proc_base : m.reg_process_base;

    for (const rtl::FuInst& fu : p.fus) aluts += fu_aluts(fu, m);

    // FSM: one-hot-ish state register plus next-state logic.
    regs += std::max(1.0, std::ceil(std::log2(std::max(2u, p.fsm.states))));
    aluts += m.alut_per_state * p.fsm.states + m.alut_per_transition * p.fsm.transitions;

    for (const rtl::RegInst& r : p.regs) {
      regs += r.width;
      if (r.fanin > 1) aluts += m.alut_per_mux_input_bit * (r.fanin - 1) * r.width;
    }
    regs += static_cast<double>(p.pipeline_stage_reg_bits);
  }

  for (const rtl::MemInst& mem : n.memories) {
    // Data is stored in M4K 9-bit columns.
    bram += static_cast<std::uint64_t>(m4k_width(mem.width)) * mem.size;
  }

  for (const rtl::StreamInst& s : n.streams) {
    aluts += m.alut_per_stream;
    regs += m.reg_per_stream;
    bram += static_cast<std::uint64_t>(s.depth) * m4k_width(s.width + 4);
    interconnect += m.interconnect_per_stream;
  }

  interconnect += m.interconnect_per_alut * aluts + m.interconnect_per_reg * regs +
                  m.interconnect_per_memory * static_cast<double>(n.memories.size());

  AreaReport r;
  r.aluts = static_cast<std::uint64_t>(aluts);
  r.registers = static_cast<std::uint64_t>(regs);
  r.logic = static_cast<std::uint64_t>(aluts + m.logic_reg_packing * regs);
  r.bram_bits = bram;
  r.interconnect = static_cast<std::uint64_t>(interconnect);
  return r;
}

double AreaReport::logic_pct(const Device& d) const {
  return 100.0 * static_cast<double>(logic) / static_cast<double>(d.logic);
}
double AreaReport::aluts_pct(const Device& d) const {
  return 100.0 * static_cast<double>(aluts) / static_cast<double>(d.aluts);
}
double AreaReport::registers_pct(const Device& d) const {
  return 100.0 * static_cast<double>(registers) / static_cast<double>(d.registers);
}
double AreaReport::bram_pct(const Device& d) const {
  return 100.0 * static_cast<double>(bram_bits) / static_cast<double>(d.bram_bits);
}
double AreaReport::interconnect_pct(const Device& d) const {
  return 100.0 * static_cast<double>(interconnect) / static_cast<double>(d.interconnect);
}

std::string AreaReport::to_string(const Device& d) const {
  std::ostringstream os;
  os << "logic " << fmt_count_pct(static_cast<long long>(logic), logic_pct(d)) << ", aluts "
     << fmt_count_pct(static_cast<long long>(aluts), aluts_pct(d)) << ", regs "
     << fmt_count_pct(static_cast<long long>(registers), registers_pct(d)) << ", bram "
     << fmt_count_pct(static_cast<long long>(bram_bits), bram_pct(d)) << ", interconnect "
     << fmt_count_pct(static_cast<long long>(interconnect), interconnect_pct(d));
  return os.str();
}

}  // namespace hlsav::fpga
