#include "mine/miner.h"

#include <map>
#include <utility>

#include "trace/signals.h"

namespace hlsav::mine {

namespace {

struct RegStat {
  std::uint64_t count = 0;
  BitVector min{1};
  BitVector max{1};
  BitVector last{1};
  SourceLoc first_loc;
};

struct PairStat {
  std::uint64_t samples = 0;
  std::uint64_t eq = 0;
  std::uint64_t ab_le = 0;  // lower-id reg <= higher-id reg
  std::uint64_t ba_le = 0;
};

struct StreamStat {
  std::uint64_t count = 0;
  BitVector min{1};
  BitVector max{1};
  BitVector last{1};
  bool ordered = true;  // successive words nondecreasing (unsigned)
  SourceLoc first_loc;
};

/// "lo <= name && name <= hi" with the vacuous halves dropped.
std::string range_text(const std::string& name, const BitVector& lo, const BitVector& hi) {
  const bool has_lo = !lo.is_zero();
  const bool has_hi = !hi.eq(BitVector::all_ones(hi.width()));
  std::string s;
  if (has_lo) s += lo.to_string_dec() + " <= " + name;
  if (has_lo && has_hi) s += " && ";
  if (has_hi) s += name + " <= " + hi.to_string_dec();
  return s;
}

/// True for names an emitted C assert could reference.
bool identifier_like(const std::string& name) {
  if (name.empty()) return false;
  char c = name[0];
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

/// The op performing the first push/pop on this stream: its value
/// register names the word in rendered conditions.
const ir::Op* find_stream_op(const ir::Design& design, ir::StreamId sid, bool push) {
  const ir::OpKind want = push ? ir::OpKind::kStreamWrite : ir::OpKind::kStreamRead;
  for (const auto& p : design.processes) {
    for (const ir::BasicBlock& b : p->blocks) {
      for (const ir::Op& op : b.ops) {
        if (op.kind == want && op.stream == sid) return &op;
      }
    }
  }
  return nullptr;
}

}  // namespace

MineResult mine_invariants(const ir::Design& design,
                           const std::vector<trace::TraceRecord>& window,
                           const MineOptions& opt) {
  trace::SignalCatalog names(design);
  MineResult out;
  out.records = window.size();

  // ---- per-process register stats, pair stats ----
  std::vector<std::vector<RegStat>> reg_stats(design.processes.size());
  std::vector<std::map<std::pair<ir::RegId, ir::RegId>, PairStat>> pair_stats(
      design.processes.size());
  // Pair-eligible regs per process: the first max_pair_regs source-named
  // registers, in id order (deterministic, bounds the O(n^2) join).
  std::vector<std::vector<ir::RegId>> pair_regs(design.processes.size());
  for (std::size_t pi = 0; pi < design.processes.size(); ++pi) {
    const ir::Process& p = *design.processes[pi];
    reg_stats[pi].resize(p.regs.size());
    for (const ir::Register& r : p.regs) {
      if (pair_regs[pi].size() >= opt.max_pair_regs) break;
      if (identifier_like(r.name)) pair_regs[pi].push_back(r.id);
    }
  }

  // ---- per-(stream, side) stats ----
  std::map<std::pair<ir::StreamId, bool>, StreamStat> stream_stats;  // (id, at_push)

  for (const trace::TraceRecord& r : window) {
    switch (r.kind) {
      case trace::TraceEventKind::kRegWrite: {
        if (r.proc >= reg_stats.size() || r.subject >= reg_stats[r.proc].size()) break;
        RegStat& st = reg_stats[r.proc][r.subject];
        if (st.count == 0) {
          st.min = r.value;
          st.max = r.value;
          st.first_loc = r.loc;
          ++out.reg_signals;
        } else {
          if (r.value.ult(st.min)) st.min = r.value;
          if (st.max.ult(r.value)) st.max = r.value;
        }
        st.last = r.value;
        ++st.count;

        if (opt.relations) {
          // Sample every relation this write participates in, against the
          // partner's last-seen value.
          for (ir::RegId other : pair_regs[r.proc]) {
            if (other == r.subject) continue;
            const RegStat& os = reg_stats[r.proc][other];
            if (os.count == 0) continue;
            if (os.last.width() != r.value.width()) continue;
            ir::RegId a = std::min<ir::RegId>(r.subject, other);
            ir::RegId b = std::max<ir::RegId>(r.subject, other);
            const BitVector& va = a == r.subject ? r.value : os.last;
            const BitVector& vb = b == r.subject ? r.value : os.last;
            PairStat& ps = pair_stats[r.proc][{a, b}];
            ++ps.samples;
            if (va.eq(vb)) ++ps.eq;
            if (va.ule(vb)) ++ps.ab_le;
            if (vb.ule(va)) ++ps.ba_le;
          }
        }
        break;
      }
      case trace::TraceEventKind::kStreamPush:
      case trace::TraceEventKind::kStreamPop: {
        const bool at_push = r.kind == trace::TraceEventKind::kStreamPush;
        StreamStat& st = stream_stats[{r.subject, at_push}];
        if (st.count == 0) {
          st.min = r.value;
          st.max = r.value;
          st.first_loc = r.loc;
          ++out.stream_signals;
        } else {
          if (r.value.ult(st.min)) st.min = r.value;
          if (st.max.ult(r.value)) st.max = r.value;
          if (r.value.ult(st.last)) st.ordered = false;
        }
        st.last = r.value;
        ++st.count;
        break;
      }
      default:
        break;
    }
  }

  // ---- generation: deterministic order (proc, reg) -> pairs -> streams --
  auto is_const = [](const RegStat& st) { return st.count > 0 && st.min.eq(st.max); };

  for (std::size_t pi = 0; pi < design.processes.size(); ++pi) {
    const ir::Process& p = *design.processes[pi];
    if (opt.ranges) {
      for (ir::RegId rid = 0; rid < reg_stats[pi].size(); ++rid) {
        const RegStat& st = reg_stats[pi][rid];
        if (st.count < opt.min_support) continue;
        const std::string rn = names.reg_name(static_cast<std::uint16_t>(pi), rid);
        Invariant inv;
        inv.proc = static_cast<std::uint16_t>(pi);
        inv.process = p.name;
        inv.reg_a = rid;
        inv.support = st.count;
        inv.anchor = st.first_loc;
        inv.lo = st.min;
        inv.hi = st.max;
        if (st.min.eq(st.max)) {
          inv.kind = InvariantKind::kConst;
          inv.text = rn + " == " + st.min.to_string_dec();
        } else {
          if (st.min.is_zero() && st.max.eq(BitVector::all_ones(st.max.width()))) {
            continue;  // vacuous full-width range
          }
          inv.kind = InvariantKind::kRange;
          inv.text = range_text(rn, st.min, st.max);
        }
        out.candidates.push_back(std::move(inv));
      }
    }
    if (opt.relations) {
      for (const auto& [key, ps] : pair_stats[pi]) {
        if (ps.samples < opt.min_support) continue;
        const auto [a, b] = key;
        // Two constants relate trivially; both facts are already proposed.
        if (is_const(reg_stats[pi][a]) && is_const(reg_stats[pi][b])) continue;
        const std::string an = names.reg_name(static_cast<std::uint16_t>(pi), a);
        const std::string bn = names.reg_name(static_cast<std::uint16_t>(pi), b);
        Invariant inv;
        inv.proc = static_cast<std::uint16_t>(pi);
        inv.process = p.name;
        inv.support = ps.samples;
        inv.anchor = reg_stats[pi][a].first_loc;
        if (ps.eq == ps.samples) {
          inv.kind = InvariantKind::kEquality;
          inv.reg_a = a;
          inv.reg_b = b;
          inv.text = an + " == " + bn;
        } else if (ps.ab_le == ps.samples) {
          inv.kind = InvariantKind::kOrdering;
          inv.reg_a = a;
          inv.reg_b = b;
          inv.text = an + " <= " + bn;
        } else if (ps.ba_le == ps.samples) {
          inv.kind = InvariantKind::kOrdering;
          inv.reg_a = b;
          inv.reg_b = a;
          inv.text = bn + " <= " + an;
        } else {
          continue;
        }
        out.candidates.push_back(std::move(inv));
      }
    }
  }

  if (opt.streams) {
    for (const auto& [key, st] : stream_stats) {
      const auto [sid, at_push] = key;
      if (st.count < opt.min_support) continue;
      if (sid >= design.streams.size()) continue;
      const std::string sn = names.stream_name(sid);
      // The word's source-level name, when the handshake op names one.
      const ir::Op* op = find_stream_op(design, sid, at_push);
      std::string vn;
      std::uint16_t vproc = 0;
      ir::RegId vreg = ir::kNoReg;
      if (op != nullptr) {
        if (at_push && !op->args.empty() && op->args[0].is_reg()) vreg = op->args[0].reg;
        if (!at_push) vreg = op->dest;
      }
      if (vreg != ir::kNoReg) {
        for (std::size_t pi = 0; pi < design.processes.size(); ++pi) {
          // Find the process owning that op again to name the reg.
          const ir::Process& p = *design.processes[pi];
          bool owns = false;
          for (const ir::BasicBlock& b : p.blocks) {
            for (const ir::Op& o : b.ops) {
              if (&o == op) owns = true;
            }
          }
          if (owns) {
            vproc = static_cast<std::uint16_t>(pi);
            vn = names.reg_name(vproc, vreg);
            break;
          }
        }
      }
      const std::string word = !vn.empty() ? vn : "word('" + sn + "')";

      // Skip stream const/range hypotheses that duplicate an already
      // proposed register invariant over the handshake's value register.
      auto duplicate_of_reg = [&]() {
        if (vreg == ir::kNoReg) return false;
        for (const Invariant& c : out.candidates) {
          if ((c.kind == InvariantKind::kConst || c.kind == InvariantKind::kRange) &&
              c.proc == vproc && c.reg_a == vreg && c.lo.width() == st.min.width() &&
              c.lo.eq(st.min) && c.hi.eq(st.max)) {
            return true;
          }
        }
        return false;
      };

      Invariant base;
      base.proc = vproc;
      base.process = vreg != ir::kNoReg ? design.processes[vproc]->name : "";
      base.reg_a = vreg;
      base.stream = sid;
      base.at_push = at_push;
      base.support = st.count;
      base.anchor = st.first_loc;
      base.lo = st.min;
      base.hi = st.max;

      if (st.min.eq(st.max)) {
        if (!duplicate_of_reg()) {
          Invariant inv = base;
          inv.kind = InvariantKind::kStreamConst;
          inv.text = word + " == " + st.min.to_string_dec();
          out.candidates.push_back(std::move(inv));
        }
      } else if (!(st.min.is_zero() && st.max.eq(BitVector::all_ones(st.max.width())))) {
        if (!duplicate_of_reg()) {
          Invariant inv = base;
          inv.kind = InvariantKind::kStreamRange;
          inv.text = range_text(word, st.min, st.max);
          out.candidates.push_back(std::move(inv));
        }
      }
      // Ordering needs at least two transitions and a non-constant word.
      if (st.ordered && st.count >= opt.min_support + 1 && !st.min.eq(st.max)) {
        Invariant inv = base;
        inv.kind = InvariantKind::kStreamOrdered;
        inv.text = "'" + sn + "' nondecreasing (" + (at_push ? "push" : "pop") + ")";
        out.candidates.push_back(std::move(inv));
      }
    }
  }

  return out;
}

}  // namespace hlsav::mine
