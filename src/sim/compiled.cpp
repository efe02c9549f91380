#include "sim/compiled.h"

#include <algorithm>
#include <array>

namespace hlsav::sim {

namespace {

using ir::BlockId;

/// `b`'s successors in the CFG as written (kNoBlock-padded).
std::array<BlockId, 2> successors(const ir::BasicBlock& b) {
  switch (b.term.kind) {
    case ir::TermKind::kJump:
      return {b.term.on_true, ir::kNoBlock};
    case ir::TermKind::kBranch:
      return {b.term.on_true, b.term.on_false};
    case ir::TermKind::kReturn:
      break;
  }
  return {ir::kNoBlock, ir::kNoBlock};
}

/// True when `x`'s branch condition keeps its value on every pass while
/// the process stays in `region` (the blocks it can reach with x's exit
/// edge dead), starting from the pass that first led into the region.
/// `hollow` marks skipped blocks, whose ops never run.
bool condition_is_stable(const ir::Process& p, BlockId x, const std::vector<bool>& region,
                         const std::vector<bool>& hollow) {
  const ir::Operand& cond = p.blocks[x].term.cond;
  if (!cond.is_reg()) return true;
  // A register no op of the region writes keeps its value from the start
  // of x's first pass on.
  std::vector<bool> stable(p.regs.size(), true);
  for (BlockId b = 0; b < region.size(); ++b) {
    if (!region[b] || hollow[b]) continue;
    for (const ir::Op& op : p.blocks[b].ops) {
      if (ir::op_traits(op.kind).has_dest) stable[op.dest] = false;
    }
  }
  // x rewrites a register to the same value on every pass when an
  // unpredicated register op computes it from operands that are stable
  // at that point of x.
  if (!hollow[x]) {
    for (const ir::Op& op : p.blocks[x].ops) {
      if (!ir::op_traits(op.kind).has_dest) continue;
      const bool pure = op.kind == ir::OpKind::kBin || op.kind == ir::OpKind::kUn ||
                        op.kind == ir::OpKind::kCopy || op.kind == ir::OpKind::kResize;
      bool same = pure && op.pred.is_none();
      for (const ir::Operand& a : op.args) same = same && (!a.is_reg() || stable[a.reg]);
      stable[op.dest] = same;
    }
  }
  return stable[cond.reg];
}

}  // namespace

std::vector<bool> trap_sites(const ir::Process& p) {
  const std::size_t n = p.blocks.size();
  std::vector<bool> site(n);
  if (p.entry >= n) return site;
  // Back edges of a depth-first walk: their sources are each header's
  // latches.
  std::vector<std::vector<BlockId>> latches(n);
  std::vector<std::uint8_t> state(n);  // 0 unseen, 1 on the walk, 2 done
  std::vector<std::pair<BlockId, unsigned>> walk{{p.entry, 0}};
  state[p.entry] = 1;
  while (!walk.empty()) {
    const BlockId b = walk.back().first;
    const unsigned i = walk.back().second++;
    if (i == 2) {
      state[b] = 2;
      walk.pop_back();
      continue;
    }
    const BlockId t = successors(p.blocks[b])[i];
    if (t == ir::kNoBlock) continue;
    if (state[t] == 1) {
      latches[t].push_back(b);
    } else if (state[t] == 0) {
      state[t] = 1;
      walk.push_back({t, 0});
    }
  }
  std::vector<bool> seen(n);
  std::vector<BlockId> stack;
  for (BlockId h = 0; h < n; ++h) {
    if (latches[h].empty()) continue;
    site[h] = true;
    for (BlockId s : successors(p.blocks[h])) {
      if (s == ir::kNoBlock || s == h) continue;
      // In the loop: some latch of h is reachable from s without h.
      std::fill(seen.begin(), seen.end(), false);
      seen[h] = true;
      seen[s] = true;
      stack.assign(1, s);
      while (!site[s] && !stack.empty()) {
        const BlockId b = stack.back();
        stack.pop_back();
        site[s] = std::find(latches[h].begin(), latches[h].end(), b) != latches[h].end();
        for (BlockId t : successors(p.blocks[b])) {
          if (t == ir::kNoBlock || seen[t]) continue;
          seen[t] = true;
          stack.push_back(t);
        }
      }
    }
  }
  return site;
}

void mark_traps(const ir::Process& p, std::uint64_t* block_words) {
  const std::size_t n = p.blocks.size();
  const std::vector<bool> site = trap_sites(p);
  std::vector<bool> hollow(n);
  for (BlockId b = 0; b < n; ++b) hollow[b] = (block_words[b] & kBlockSkip) != 0;
  for (const ir::LoopInfo& l : p.loops) {
    if (!l.pipelined) continue;
    hollow[l.header] = false;
    hollow[l.body] = false;
  }

  // The faulted CFG: successors, and the blocks that return or hold an
  // observable op.
  std::vector<std::array<BlockId, 2>> succ(n, {ir::kNoBlock, ir::kNoBlock});
  std::vector<bool> visible(n);
  std::vector<std::uint32_t> npred(n);
  std::vector<BlockId> pred(n, ir::kNoBlock);  // the only one when npred == 1
  for (BlockId b = 0; b < n; ++b) {
    const ir::Terminator& t = p.blocks[b].term;
    visible[b] = t.kind == ir::TermKind::kReturn;
    if (t.kind != ir::TermKind::kBranch) {
      succ[b] = successors(p.blocks[b]);
    } else {
      // The edges the block word can select for a condition value.
      for (std::uint64_t c : {0u, 1u}) {
        if (t.cond.is_imm() && t.cond.imm.any() != (c == 1)) continue;
        const BlockId to = ((block_words[b] >> c) & 1u) != 0 ? t.on_true : t.on_false;
        if (succ[b][0] == ir::kNoBlock) {
          succ[b][0] = to;
        } else if (succ[b][0] != to) {
          succ[b][1] = to;
        }
      }
    }
    if (!hollow[b]) {
      for (const ir::Op& op : p.blocks[b].ops) {
        if (ir::op_traits(op.kind).side_effect) visible[b] = true;
      }
    }
    for (BlockId s : succ[b]) {
      if (s == ir::kNoBlock) continue;
      ++npred[s];
      pred[s] = b;
    }
  }

  // Blocks that can reach a visible one: the fixpoint over successors.
  std::vector<bool> escapes = visible;
  for (bool changed = true; changed;) {
    changed = false;
    for (BlockId b = 0; b < n; ++b) {
      if (escapes[b]) continue;
      for (BlockId s : succ[b]) {
        if (s != ir::kNoBlock && escapes[s]) {
          escapes[b] = true;
          changed = true;
          break;
        }
      }
    }
  }

  std::vector<bool> region(n);
  std::vector<BlockId> stack;
  for (BlockId s = 0; s < n; ++s) {
    if (!site[s]) continue;
    if (!escapes[s]) {
      block_words[s] |= kBlockTrap;
      continue;
    }
    // Stable exit: entering s means its only predecessor x just chose it.
    if (s == p.entry || npred[s] != 1 || succ[pred[s]][1] == ir::kNoBlock) continue;
    const BlockId x = pred[s];
    const BlockId exit = succ[x][0] == s ? succ[x][1] : succ[x][0];
    std::fill(region.begin(), region.end(), false);
    region[s] = true;
    stack.assign(1, s);
    bool hidden = true;
    while (hidden && !stack.empty()) {
      const BlockId b = stack.back();
      stack.pop_back();
      hidden = !visible[b];
      for (BlockId t : succ[b]) {
        if (t == ir::kNoBlock || region[t] || (b == x && t == exit)) continue;
        region[t] = true;
        stack.push_back(t);
      }
    }
    if (hidden && condition_is_stable(p, x, region, hollow)) block_words[s] |= kBlockTrap;
  }
}

}  // namespace hlsav::sim
