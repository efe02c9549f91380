#include "assertions/synthesize.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace hlsav::assertions {

using hlsav::BitVector;
using ir::BasicBlock;
using ir::Design;
using ir::MemId;
using ir::Op;
using ir::OpKind;
using ir::Operand;
using ir::Process;
using ir::RegId;
using ir::StreamId;

namespace {

constexpr unsigned kFailIdWidth = 32;

SynthesisReport strip_all(Design& d) {
  SynthesisReport rep;
  rep.assertions_stripped = static_cast<unsigned>(d.assertions.size());
  for (auto& proc : d.processes) {
    for (BasicBlock& b : proc->blocks) {
      std::erase_if(b.ops, [](const Op& op) {
        return op.assert_tag != ir::kNoAssertTag || ir::op_traits(op.kind).zero_cost;
      });
    }
  }
  d.assertions.clear();
  return rep;
}

class Synthesizer {
 public:
  Synthesizer(Design& d, const Options& opt) : d_(d), opt_(opt) {}

  SynthesisReport run() {
    d_.continue_on_failure = opt_.nabort;
    // Snapshot: checkers/collectors appended during the pass must not be
    // re-scanned.
    std::vector<Process*> app_procs;
    for (auto& p : d_.processes) app_procs.push_back(p.get());
    for (Process* p : app_procs) transform_process(*p);
    return rep_;
  }

 private:
  Design& d_;
  const Options& opt_;
  SynthesisReport rep_;
  std::unordered_map<std::string, StreamId> process_fail_stream_;
  std::unordered_map<MemId, MemId> replica_of_;
  std::map<unsigned, StreamId> collector_stream_;  // group -> packed stream

  // ------------------------------------------------ failure channels --

  /// One kAssertFail stream per process (the unshared configuration the
  /// paper measures in Fig. 4/5 as "unoptimized").
  StreamId fail_stream_for(Process& p) {
    auto it = process_fail_stream_.find(p.name);
    if (it != process_fail_stream_.end()) return it->second;
    StreamId s = d_.add_stream(p.name + ".assert_fail", kFailIdWidth, /*depth=*/16,
                               ir::StreamRole::kAssertFail);
    p.ports.push_back(ir::StreamPort{"__afail", /*is_input=*/false, kFailIdWidth, s});
    d_.stream(s).producer =
        ir::StreamEndpoint{ir::StreamEndpoint::Kind::kProcess, p.name, "__afail"};
    d_.connect_cpu_consumer(s);
    process_fail_stream_[p.name] = s;
    ++rep_.fail_streams_created;
    return s;
  }

  /// Collector process + packed stream for assertion group `group`
  /// (§4.2: `channel_width` failure bits share one stream).
  StreamId collector_stream_for(unsigned group) {
    auto it = collector_stream_.find(group);
    if (it != collector_stream_.end()) return it->second;

    std::string name = "assert_collector" + std::to_string(group);
    Process& col = d_.add_process(name);
    col.role = ir::ProcessRole::kAssertCollector;
    StreamId s = d_.add_stream(name + ".out", opt_.channel_width, /*depth=*/16,
                               ir::StreamRole::kAssertPacked);
    col.ports.push_back(ir::StreamPort{"out", /*is_input=*/false, opt_.channel_width, s});
    d_.stream(s).producer = ir::StreamEndpoint{ir::StreamEndpoint::Kind::kProcess, name, "out"};
    d_.connect_cpu_consumer(s);

    // Synthetic datapath so the area model sees the real cost of the
    // collector: per-assertion flag registers, an OR-reduce, the packed
    // word register and the guarded send.
    unsigned flags = std::min<unsigned>(
        opt_.channel_width,
        std::max<unsigned>(1, static_cast<unsigned>(d_.assertions.size()) -
                                   group * opt_.channel_width));
    ir::BlockId b = col.add_block("entry");
    col.entry = b;
    RegId any = col.add_reg("any", 1, false);
    std::vector<RegId> flag_regs;
    for (unsigned i = 0; i < flags; ++i) {
      flag_regs.push_back(col.add_reg("f" + std::to_string(i), 1, false));
    }
    Operand acc = Operand::make_reg(flag_regs[0]);
    for (unsigned i = 1; i < flags; ++i) {
      RegId t = col.add_reg("t" + std::to_string(i), 1, false);
      Op orop;
      orop.kind = OpKind::kBin;
      orop.bin = ir::BinKind::kOr;
      orop.args = {acc, Operand::make_reg(flag_regs[i])};
      orop.dest = t;
      col.block(b).ops.push_back(orop);
      acc = Operand::make_reg(t);
    }
    Op cp;
    cp.kind = OpKind::kCopy;
    cp.args = {acc};
    cp.dest = any;
    col.block(b).ops.push_back(cp);
    // The packed word is wired straight from the flag registers; the
    // simulator synthesizes the real word when a fail wire fires.
    Op send;
    send.kind = OpKind::kStreamWrite;
    send.stream = s;
    send.args = {Operand::make_imm(BitVector(opt_.channel_width))};
    send.pred = Operand::make_reg(any);
    col.block(b).ops.push_back(send);
    col.block(b).term.kind = ir::TermKind::kReturn;

    collector_stream_[group] = s;
    ++rep_.collector_processes;
    ++rep_.fail_streams_created;
    return s;
  }

  /// Appends the failure-signalling op for assertion `id` with condition
  /// `cond` to `ops`. In shared mode this is a zero-cost wire into the
  /// collector; otherwise a predicated stream write of the assertion id.
  void emit_failure_op(Process& sender, std::vector<Op>& ops, std::uint32_t id,
                       const Operand& cond, SourceLoc loc) {
    ir::AssertionRecord* rec = find_record(id);
    if (opt_.share_channels) {
      unsigned group = id / opt_.channel_width;
      rec->fail_stream = collector_stream_for(group);
      rec->fail_bit = id % opt_.channel_width;
      Op wire;
      wire.kind = OpKind::kAssertFailWire;
      wire.loc = loc;
      wire.assert_id = id;
      wire.assert_tag = id;
      wire.args = {cond};
      ops.push_back(std::move(wire));
    } else {
      StreamId s = sender.role == ir::ProcessRole::kAssertChecker ? checker_fail_stream(sender)
                                                                  : fail_stream_for(sender);
      rec->fail_stream = s;
      rec->fail_code = id;
      Op send;
      send.kind = OpKind::kStreamWrite;
      send.loc = loc;
      send.stream = s;
      send.args = {Operand::make_imm(BitVector::from_u64(kFailIdWidth, id))};
      send.pred = cond;
      send.pred_negated = true;  // fire when the condition is false
      send.assert_tag = id;
      ops.push_back(std::move(send));
    }
  }

  StreamId checker_fail_stream(Process& checker) {
    // Checkers have their own dedicated failure stream in unshared mode.
    if (const ir::StreamPort* port = checker.find_port("fail"); port != nullptr) {
      return port->stream;
    }
    StreamId s = d_.add_stream(checker.name + ".fail", kFailIdWidth, 16,
                               ir::StreamRole::kAssertFail);
    checker.ports.push_back(ir::StreamPort{"fail", false, kFailIdWidth, s});
    d_.stream(s).producer =
        ir::StreamEndpoint{ir::StreamEndpoint::Kind::kProcess, checker.name, "fail"};
    d_.connect_cpu_consumer(s);
    ++rep_.fail_streams_created;
    return s;
  }

  ir::AssertionRecord* find_record(std::uint32_t id) {
    for (ir::AssertionRecord& r : d_.assertions) {
      if (r.id == id) return &r;
    }
    HLSAV_UNREACHABLE("assertion id missing from catalogue");
  }

  // ------------------------------------------------------ replication --

  MemId replica_for(Process& owner, MemId mem) {
    if (auto it = replica_of_.find(mem); it != replica_of_.end()) return it->second;
    const ir::Memory orig = d_.memory(mem);  // copy: add_memory may realloc
    MemId rep = d_.add_memory(orig.name + "__rep", orig.owner_process, orig.width,
                              orig.is_signed, orig.size);
    ir::Memory& r = d_.memory(rep);
    r.role = ir::MemRole::kReplica;
    r.replica_of = mem;
    r.init = orig.init;
    replica_of_[mem] = rep;
    ++rep_.replicas_created;

    // Mirror every application store so the replica stays coherent; the
    // mirror writes use the replica's own port and merge into existing
    // states (is_extraction).
    for (BasicBlock& b : owner.blocks) {
      std::vector<Op> rebuilt;
      rebuilt.reserve(b.ops.size());
      for (const Op& op : b.ops) {
        rebuilt.push_back(op);
        if (op.kind == OpKind::kStore && op.mem == mem && !op.is_extraction) {
          Op mirror = op;
          mirror.mem = rep;
          mirror.is_extraction = true;
          rebuilt.push_back(std::move(mirror));
        }
      }
      b.ops = std::move(rebuilt);
    }
    return rep;
  }

  // ------------------------------------------------- per-process pass --

  void transform_process(Process& p) {
    // Blocks are appended during splitting; index-iterate.
    for (ir::BlockId bi = 0; bi < p.blocks.size(); ++bi) {
      bool restart = true;
      while (restart) {
        restart = false;
        BasicBlock& b = p.block(bi);
        for (std::size_t k = 0; k < b.ops.size(); ++k) {
          if (b.ops[k].kind != OpKind::kAssert) continue;
          bool block_continues = transform_assert(p, bi, k);
          ++rep_.assertions_synthesized;
          restart = block_continues;  // rescan: ops/block were rewritten
          break;
        }
      }
    }
    // Timing assertions (assert_cycles): the marker stays in place (it
    // costs no application states); a dedicated micro-checker carrying
    // the free-running counter, comparator and failure channel is added
    // for each one.
    for (ir::BlockId bi = 0; bi < p.blocks.size(); ++bi) {
      for (std::size_t k = 0; k < p.block(bi).ops.size(); ++k) {
        if (p.block(bi).ops[k].kind != OpKind::kAssertCycles) continue;
        synthesize_cycles_checker(p, p.block(bi).ops[k]);
        ++rep_.assertions_synthesized;
      }
    }
  }

  /// Timing assertion (paper §6 future work, implemented here): a tiny
  /// checker process holds the free-running cycle counter, the
  /// comparator against the marker's budget, and the failure channel.
  /// The application-side marker op is zero-cost.
  void synthesize_cycles_checker(Process& p, const Op& marker) {
    const std::uint32_t id = marker.assert_id;
    std::string chk_name = "chk_cyc_" + p.name + "_a" + std::to_string(id);
    Process& chk = d_.add_process(chk_name);
    chk.role = ir::ProcessRole::kAssertChecker;
    ir::BlockId cb = chk.add_block("entry");
    chk.entry = cb;
    ++rep_.checker_processes;

    RegId counter = chk.add_reg("cycle_counter", 32, false);
    RegId ok = chk.add_reg("within_budget", 1, false);
    Op cmp;
    cmp.kind = OpKind::kBin;
    cmp.loc = marker.loc;
    cmp.bin = ir::BinKind::kCmpLeU;
    cmp.args = {Operand::make_reg(counter),
                Operand::make_imm(BitVector::from_u64(32, marker.cycle_bound))};
    cmp.dest = ok;
    chk.block(cb).ops.push_back(std::move(cmp));
    emit_failure_op(chk, chk.block(cb).ops, id, Operand::make_reg(ok), marker.loc);
    chk.block(cb).term.kind = ir::TermKind::kReturn;

    ir::AssertionRecord* rec = find_record(id);
    rec->checker_process = chk_name;
  }

  /// Rewrites the assert at p.block(bi).ops[k]. Returns true if the same
  /// block should be rescanned for further asserts (no split happened).
  bool transform_assert(Process& p, ir::BlockId bi, std::size_t k) {
    BasicBlock& b = p.block(bi);
    Op assert_op = b.ops[k];
    const std::uint32_t id = assert_op.assert_id;
    const bool pipelined = p.loop_with_body(bi) != nullptr;

    if (opt_.parallelize) {
      parallelize_assert(p, bi, k, assert_op, pipelined);
      return true;
    }

    // ---- Unoptimized: straightforward if-statement conversion. ----
    if (opt_.share_channels || pipelined) {
      // The failure send stays inline (predicated / wired); the block is
      // not split, so pipelined bodies keep their single-block shape.
      std::vector<Op> fail_ops;
      emit_failure_op(p, fail_ops, id, assert_op.args[0], assert_op.loc);
      b.ops[k] = std::move(fail_ops[0]);
      return true;
    }

    // Sequential, one stream per process: split the block and branch to a
    // failure block that sends the assertion id. Copy the name first:
    // add_block may reallocate the block vector and invalidate `b`.
    const std::string base_name = b.name;
    ir::BlockId cont = p.add_block(base_name + "_cont" + std::to_string(id));
    ir::BlockId fail = p.add_block(base_name + "_fail" + std::to_string(id));
    {
      // Re-fetch: add_block may have reallocated the block vector.
      BasicBlock& blk = p.block(bi);
      BasicBlock& cont_blk = p.block(cont);
      BasicBlock& fail_blk = p.block(fail);

      cont_blk.ops.assign(blk.ops.begin() + static_cast<long>(k) + 1, blk.ops.end());
      cont_blk.term = blk.term;
      blk.ops.resize(k);

      std::vector<Op> fail_ops;
      // In unshared mode the send is unconditional inside the failure
      // block (the branch is the predicate).
      {
        StreamId s = fail_stream_for(p);
        ir::AssertionRecord* rec = find_record(id);
        rec->fail_stream = s;
        rec->fail_code = id;
        Op send;
        send.kind = OpKind::kStreamWrite;
        send.loc = assert_op.loc;
        send.stream = s;
        send.args = {Operand::make_imm(BitVector::from_u64(kFailIdWidth, id))};
        send.assert_tag = id;
        fail_ops.push_back(std::move(send));
      }
      fail_blk.ops = std::move(fail_ops);
      fail_blk.term = ir::Terminator{ir::TermKind::kJump, Operand::none(), cont, ir::kNoBlock};

      blk.term = ir::Terminator{ir::TermKind::kBranch, assert_op.args[0], cont, fail};
    }
    return false;  // rest of the block moved; outer loop reaches `cont` later
  }

  // --------------------------------------------- parallelization (§3.1) --

  void parallelize_assert(Process& p, ir::BlockId bi, std::size_t k, const Op& assert_op,
                          bool pipelined) {
    const std::uint32_t id = assert_op.assert_id;

    // First decide which memories need replicas, then create them:
    // replica creation inserts mirror stores and shifts op indices, so it
    // must happen before the slice indices are collected.
    std::unordered_map<MemId, MemId> use_replica;
    {
      const BasicBlock& b = p.block(bi);
      for (std::size_t i = 0; i < k; ++i) {
        const Op& op = b.ops[i];
        if (op.assert_tag != id || op.is_extraction || op.kind != OpKind::kLoad) continue;
        bool want_replica =
            opt_.replicate && (d_.memory(op.mem).replicate_for_assertions || pipelined);
        if (want_replica) use_replica.emplace(op.mem, ir::kNoMem);
      }
    }
    for (auto& [mem, rep] : use_replica) rep = replica_for(p, mem);

    // The condition slice: ops in this block tagged with this assertion.
    BasicBlock& b = p.block(bi);
    std::size_t assert_idx = 0;
    for (std::size_t i = 0; i < b.ops.size(); ++i) {
      if (b.ops[i].kind == OpKind::kAssert && b.ops[i].assert_id == id) assert_idx = i;
    }
    k = assert_idx;
    std::vector<std::size_t> slice;
    for (std::size_t i = 0; i < k; ++i) {
      if (b.ops[i].assert_tag == id && !b.ops[i].is_extraction) slice.push_back(i);
    }

    // Split the slice into ops that move to the checker and loads that
    // either stay as application-side extraction or retarget to replicas.
    std::unordered_set<std::size_t> moved;  // indices into b.ops
    for (std::size_t i : slice) {
      Op& op = b.ops[i];
      if (op.kind == OpKind::kLoad) {
        if (use_replica.contains(op.mem)) {
          moved.insert(i);  // the checker reads the replica
        } else {
          op.is_extraction = true;  // stays in the application
        }
      } else {
        moved.insert(i);
      }
    }

    // Build (or extend) the checker process. With group_checkers (§3.3's
    // proposed extension) every assertion of the process shares one
    // checker: per-assertion sub-blocks, one wrapper, one failure
    // channel.
    std::string chk_name;
    Process* chk_ptr = nullptr;
    ir::BlockId cb = ir::kNoBlock;
    if (opt_.group_checkers) {
      chk_name = "chk_" + p.name;
      chk_ptr = d_.find_process(chk_name);
      if (chk_ptr == nullptr) {
        chk_ptr = &d_.add_process(chk_name);
        chk_ptr->role = ir::ProcessRole::kAssertChecker;
        ++rep_.checker_processes;
        cb = chk_ptr->add_block("a" + std::to_string(id));
        chk_ptr->entry = cb;
      } else {
        cb = chk_ptr->add_block("a" + std::to_string(id));
      }
      chk_ptr->block(cb).term.kind = ir::TermKind::kReturn;
    } else {
      chk_name = "chk_" + p.name + "_a" + std::to_string(id);
      chk_ptr = &d_.add_process(chk_name);
      chk_ptr->role = ir::ProcessRole::kAssertChecker;
      cb = chk_ptr->add_block("entry");
      chk_ptr->entry = cb;
      ++rep_.checker_processes;
    }
    Process& chk = *chk_ptr;

    std::unordered_map<RegId, RegId> reg_map;  // app reg -> checker reg
    std::vector<RegId> input_app_regs;         // tap source order
    std::vector<RegId> input_chk_regs;

    auto map_operand = [&](const Operand& o) -> Operand {
      if (!o.is_reg()) return o;
      if (auto it = reg_map.find(o.reg); it != reg_map.end()) {
        return Operand::make_reg(it->second);
      }
      // Not defined by a moved op: it is an input tapped from the app.
      const ir::Register& r = p.reg(o.reg);
      RegId nr = chk.add_reg("in_" + r.name, r.width, r.is_signed);
      reg_map[o.reg] = nr;
      input_app_regs.push_back(o.reg);
      input_chk_regs.push_back(nr);
      return Operand::make_reg(nr);
    };

    for (std::size_t i : slice) {
      if (!moved.contains(i)) continue;
      Op op = b.ops[i];  // copy
      for (Operand& a : op.args) a = map_operand(a);
      if (!op.pred.is_none()) op.pred = map_operand(op.pred);
      if (op.kind == OpKind::kLoad) op.mem = use_replica.at(op.mem);
      if (op.dest != ir::kNoReg) {
        const ir::Register& r = p.reg(op.dest);
        RegId nr = chk.add_reg(r.name, r.width, r.is_signed);
        reg_map[op.dest] = nr;
        op.dest = nr;
      }
      chk.block(cb).ops.push_back(std::move(op));
    }

    // The condition itself, as seen from the checker.
    Operand chk_cond = assert_op.args[0];
    if (chk_cond.is_reg()) chk_cond = map_operand(chk_cond);
    emit_failure_op(chk, chk.block(cb).ops, id, chk_cond, assert_op.loc);
    chk.block(cb).term.kind = ir::TermKind::kReturn;

    ir::AssertionRecord* rec = find_record(id);
    rec->checker_process = chk_name;
    rec->checker_inputs = input_chk_regs;
    rec->checker_block = cb;

    // Rewrite the application block: drop moved ops, replace the assert
    // with a zero-cost tap carrying the input values.
    Op tap;
    tap.kind = OpKind::kAssertTap;
    tap.loc = assert_op.loc;
    tap.assert_id = id;
    tap.assert_tag = id;
    tap.is_extraction = true;
    for (RegId r : input_app_regs) tap.args.push_back(Operand::make_reg(r));
    if (!use_replica.empty()) tap.mem = use_replica.begin()->second;

    std::vector<Op> rebuilt;
    rebuilt.reserve(b.ops.size());
    for (std::size_t i = 0; i < b.ops.size(); ++i) {
      if (moved.contains(i)) continue;
      if (i == k) {
        rebuilt.push_back(tap);
        continue;
      }
      rebuilt.push_back(std::move(b.ops[i]));
    }
    b.ops = std::move(rebuilt);
  }
};

}  // namespace

std::string SynthesisReport::to_string() const {
  std::ostringstream os;
  os << "assertions synthesized: " << assertions_synthesized
     << ", stripped: " << assertions_stripped
     << ", failure streams: " << fail_streams_created
     << ", checkers: " << checker_processes
     << ", collectors: " << collector_processes
     << ", replicas: " << replicas_created;
  return os.str();
}

SynthesisReport synthesize(Design& design, const Options& options) {
  if (!options.enabled) return strip_all(design);
  Synthesizer s(design, options);
  return s.run();
}

}  // namespace hlsav::assertions
