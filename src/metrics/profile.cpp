#include "metrics/profile.h"

#include <algorithm>
#include <sstream>

#include "rtl/names.h"
#include "support/source_manager.h"
#include "support/table.h"

namespace hlsav::metrics {

namespace {

/// An op that exists only for assertion machinery: the inlined condition
/// slice of an unoptimized assertion (extraction ops excluded -- the
/// scheduler merges those into application states) or one of the
/// dedicated assertion op kinds.
bool is_assert_op(const ir::Op& op) {
  return ir::op_traits(op.kind).zero_cost ||
         (op.assert_tag != ir::kNoAssertTag && !op.is_extraction);
}

std::uint64_t state_key(ir::BlockId block, unsigned state) {
  return (static_cast<std::uint64_t>(block) << 16) | (state & 0xFFFFu);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string pct_of(std::uint64_t part, std::uint64_t total) {
  if (total == 0) return "0.0%";
  return fmt_double(100.0 * static_cast<double>(part) / static_cast<double>(total), 1) + "%";
}

std::string signed_delta(std::uint64_t golden, std::uint64_t faulted) {
  if (faulted >= golden) return "+" + std::to_string(faulted - golden);
  return "-" + std::to_string(golden - faulted);
}

}  // namespace

const char* end_kind_name(EndKind k) {
  switch (k) {
    case EndKind::kFinished: return "finished";
    case EndKind::kBlockedRead: return "blocked-read";
    case EndKind::kBlockedWrite: return "blocked-write";
    case EndKind::kCycleLimit: return "cycle-limit";
    case EndKind::kHalted: return "halted";
  }
  HLSAV_UNREACHABLE("bad EndKind");
}

Profiler::Profiler(const ir::Design& design, const sched::DesignSchedule& schedule,
                   ProfileConfig config)
    : design_(design), schedule_(schedule), config_(config) {
  // Hot-path handles first (registration order fixes the render order).
  c_blocks_ = registry_.counter("sim.blocks_retired");
  c_pipes_ = registry_.counter("sim.pipelines_retired");
  c_stall_cycles_ = registry_.counter("sim.read_stall_cycles");
  c_stall_events_ = registry_.counter("sim.read_stall_events");
  c_polls_read_ = registry_.counter("sim.blocked_polls_read");
  c_polls_write_ = registry_.counter("sim.blocked_polls_write");
  c_assert_evals_ = registry_.counter("sim.assert_evals");
  c_assert_failures_ = registry_.counter("sim.assert_failures");
  c_discarded_ = registry_.counter("sim.discarded_stall_cycles");
  h_stall_ = registry_.histogram("sim.stall_cycles_per_event");
  h_pipe_iters_ = registry_.histogram("sim.pipeline_iterations");

  std::vector<const ir::Process*> apps = design_.application_processes();
  std::size_t total_blocks = 0;
  for (const ir::Process* p : apps) total_blocks += p->blocks.size();
  block_static_.reserve(total_blocks);

  procs_.reserve(apps.size());
  for (const ir::Process* p : apps) {
    const sched::ProcessSchedule* ps = schedule_.find(p->name);
    HLSAV_CHECK(ps != nullptr, "profiler: no schedule for process " + p->name);
    ProcAccum a;
    a.proc = p;
    a.dbg = sched::debug_info(*p, *ps);
    a.block_execs.assign(p->blocks.size(), 0);
    std::size_t off = block_static_.size();
    for (const ir::BasicBlock& b : p->blocks) {
      const sched::BlockSchedule& bs = ps->of(b.id);
      BlockStatic st;
      st.num_states = bs.num_states;
      st.pipelined = bs.pipelined;
      st.ii = bs.ii;
      st.latency = bs.latency;
      if (!bs.pipelined) {
        // A state is assertion-attributed iff every op it issues is
        // assertion machinery (states with no ops are schedule padding:
        // compute). Matches the scheduler's no-sharing rule for
        // assert-tagged ops, so unoptimized inlined assertions land
        // here state-exactly.
        for (unsigned s = 0; s < st.num_states; ++s) {
          const std::vector<std::size_t>& issued = a.dbg.ops_in_state(b.id, s);
          bool all_assert = !issued.empty();
          for (std::size_t i : issued) all_assert &= is_assert_op(b.ops[i]);
          if (all_assert) ++st.assert_states;
        }
      }
      block_static_.push_back(st);
    }
    // Second pass: unoptimized inline assertions run as a branch into a
    // failure block (no assert op executes). A failure block's ops are
    // all machinery of one assertion; the block branching into it on
    // the false edge is the evaluation site.
    for (const ir::BasicBlock& b : p->blocks) {
      if (b.ops.empty()) continue;
      std::uint32_t tag = b.ops.front().assert_tag;
      if (tag == ir::kNoAssertTag) continue;
      bool all = true;
      for (const ir::Op& op : b.ops) all &= op.assert_tag == tag && is_assert_op(op);
      if (all) block_static_[off + b.id].assert_fail = tag;
    }
    for (const ir::BasicBlock& b : p->blocks) {
      if (b.term.kind != ir::TermKind::kBranch || b.term.on_false == ir::kNoBlock) continue;
      std::uint32_t tag = block_static_[off + b.term.on_false].assert_fail;
      if (tag != ir::kNoAssertTag) block_static_[off + b.id].assert_branch = tag;
    }
    a.blocks = block_static_.data() + off;
    index_.emplace(p, procs_.size());
    procs_.push_back(std::move(a));
  }
}

std::size_t Profiler::index_of(const ir::Process* proc) const {
  auto it = index_.find(proc);
  HLSAV_CHECK(it != index_.end(), "profiler: unregistered process");
  return it->second;
}

void Profiler::commit_pending(ProcAccum& a) {
  if (a.pending_total == 0) return;
  for (const auto& [stream, cycles] : a.pending) a.stall_by_stream[stream] += cycles;
  a.stall_committed += a.pending_total;
  a.clock += a.pending_total;
  a.pending.clear();
  a.pending_total = 0;
}

void Profiler::add_span(const ProcAccum& a, bool stall, std::string name, std::uint64_t start,
                        std::uint64_t end) {
  if (!config_.timeline || end <= start) return;
  if (spans_.size() >= config_.timeline_limit) {
    ++spans_dropped_;
    return;
  }
  spans_.push_back(ProfileReport::Span{a.proc->name, stall, std::move(name), start, end});
}

void Profiler::block_retired(std::size_t idx, ir::BlockId block, std::uint64_t retire_cycle) {
  ProcAccum& a = procs_[idx];
  const BlockStatic& st = a.blocks[block];
  std::uint64_t entry = a.clock;
  commit_pending(a);
  a.clock += st.num_states;
  // The simulator's timing algebra: entry clock + read stalls + block
  // states is exactly the retire clock. A mismatch means a hook site
  // regressed, and the attribution would silently drift -- fail loudly.
  HLSAV_CHECK(a.clock == retire_cycle,
              "profiler: attribution drift on '" + a.proc->name + "' block " +
                  std::to_string(block) + " (attributed " + std::to_string(a.clock) +
                  ", simulator at " + std::to_string(retire_cycle) + ")");
  a.compute += st.num_states - st.assert_states;
  a.assert_cycles += st.assert_states;
  a.seq_state_cycles += st.num_states;
  ++a.block_execs[block];
  c_blocks_->add();
  if (st.assert_branch != ir::kNoAssertTag) {
    ++asserts_[st.assert_branch].evals;
    c_assert_evals_->add();
  }
  if (st.assert_fail != ir::kNoAssertTag) {
    ++asserts_[st.assert_fail].failures;
    c_assert_failures_->add();
    if (config_.timeline) {
      instants_.push_back(ProfileReport::Instant{
          a.proc->name, "assert #" + std::to_string(st.assert_fail) + " FAIL", retire_cycle});
    }
  }
  if (st.num_states != 0) {
    add_span(a, false, rtl::sanitize_net_name(a.proc->blocks[block].name), entry, retire_cycle);
  }
}

void Profiler::pipe_retired(std::size_t idx, ir::BlockId body, std::uint64_t retire_cycle,
                            std::uint64_t iters) {
  ProcAccum& a = procs_[idx];
  const BlockStatic& st = a.blocks[body];
  std::uint64_t consumed =
      iters == 0 ? 1 : st.latency + (iters - 1) * static_cast<std::uint64_t>(st.ii);
  std::uint64_t entry = a.clock;
  commit_pending(a);
  a.clock += consumed;
  HLSAV_CHECK(a.clock == retire_cycle,
              "profiler: attribution drift on pipelined loop of '" + a.proc->name + "'");
  a.compute += consumed;
  a.pipe_cycles += consumed;
  a.block_execs[body] += iters;
  c_pipes_->add();
  h_pipe_iters_->record(iters);
  add_span(a, false, rtl::sanitize_net_name(a.proc->blocks[body].name) + "_pipe", entry,
           retire_cycle);
}

void Profiler::read_stall(std::size_t idx, ir::BlockId block, unsigned state,
                          ir::StreamId stream, std::uint64_t at, std::uint64_t cycles) {
  ProcAccum& a = procs_[idx];
  bool found = false;
  for (auto& [s, c] : a.pending) {
    if (s == stream) {
      c += cycles;
      found = true;
      break;
    }
  }
  if (!found) a.pending.emplace_back(stream, cycles);
  a.pending_total += cycles;
  ++a.stall_events_by_stream[stream];
  a.stall_by_state[state_key(block, state)] += cycles;
  c_stall_cycles_->add(cycles);
  c_stall_events_->add();
  h_stall_->record(cycles);
  if (config_.timeline) {
    add_span(a, true, "stall '" + design_.stream(stream).name + "'", at, at + cycles);
  }
}

void Profiler::blocked_poll(std::size_t idx, ir::StreamId stream, bool write) {
  ProcAccum& a = procs_[idx];
  if (write) {
    ++a.write_polls[stream];
    c_polls_write_->add();
  } else {
    ++a.read_polls[stream];
    c_polls_read_->add();
  }
}

void Profiler::assert_eval(std::size_t idx, std::uint32_t assert_id, bool failed,
                           std::uint64_t at) {
  AssertAccum& aa = asserts_[assert_id];
  ++aa.evals;
  c_assert_evals_->add();
  if (failed) {
    ++aa.failures;
    c_assert_failures_->add();
    if (config_.timeline) {
      instants_.push_back(ProfileReport::Instant{
          procs_[idx].proc->name, "assert #" + std::to_string(assert_id) + " FAIL", at});
    }
  }
}

void Profiler::process_end(std::size_t idx, std::uint64_t local_clock, EndKind end,
                           ir::StreamId blocked_stream) {
  ProcAccum& a = procs_[idx];
  HLSAV_CHECK(a.clock == local_clock,
              "profiler: final clock drift on '" + a.proc->name + "' (attributed " +
                  std::to_string(a.clock) + ", simulator at " + std::to_string(local_clock) +
                  ")");
  // Stalls of a block that never retired: counted, never attributed.
  a.discarded += a.pending_total;
  c_discarded_->add(a.pending_total);
  a.pending.clear();
  a.pending_total = 0;
  a.end = end;
  a.end_stream = blocked_stream;
}

void Profiler::run_end(std::uint64_t run_cycles, bool completed) {
  run_cycles_ = run_cycles;
  completed_ = completed;
  ended_ = true;
  for (ProcAccum& a : procs_) {
    HLSAV_CHECK(run_cycles >= a.clock, "profiler: run cycles below a process clock");
    a.tail = run_cycles - a.clock;
  }
}

ProfileSummary Profiler::summary() const {
  HLSAV_CHECK(ended_, "profiler: summary() before run_end()");
  ProfileSummary s;
  s.run_cycles = run_cycles_;
  std::unordered_map<ir::StreamId, std::uint64_t> stalls;
  for (const ProcAccum& a : procs_) {
    s.compute_cycles += a.compute;
    s.assert_cycles += a.assert_cycles;
    s.stall_cycles += a.stall_committed;
    s.tail_cycles += a.tail;
    s.discarded_stall_cycles += a.discarded;
    for (const auto& [id, c] : a.stall_by_stream) stalls[id] += c;
    for (const auto& [id, c] : a.read_polls) s.blocked_polls += c;
    for (const auto& [id, c] : a.write_polls) s.blocked_polls += c;
  }
  for (const auto& [id, aa] : asserts_) {
    s.assert_evals += aa.evals;
    s.assert_failures += aa.failures;
  }
  ir::StreamId best = ir::kNoStream;
  for (const auto& [id, c] : stalls) {
    if (c > s.hottest_stall_cycles ||
        (c == s.hottest_stall_cycles && c != 0 && id < best)) {
      s.hottest_stall_cycles = c;
      best = id;
    }
  }
  if (best != ir::kNoStream) s.hottest_stall_stream = design_.stream(best).name;
  return s;
}

ProfileReport Profiler::report(const SourceManager* sm) const {
  HLSAV_CHECK(ended_, "profiler: report() before run_end()");
  ProfileReport r;
  r.run_cycles = run_cycles_;
  r.completed = completed_;

  auto loc_text = [sm](const SourceLoc& loc) { return ir::format_loc(loc, sm); };

  for (const ProcAccum& a : procs_) {
    ProfileReport::ProcRow row;
    row.process = a.proc->name;
    row.compute_cycles = a.compute;
    row.assert_cycles = a.assert_cycles;
    row.stall_cycles = a.stall_committed;
    row.tail_cycles = a.tail;
    row.end = a.end;
    if (a.end_stream != ir::kNoStream) row.end_stream = design_.stream(a.end_stream).name;
    row.discarded_stall_cycles = a.discarded;
    row.seq_state_cycles = a.seq_state_cycles;
    row.pipe_cycles = a.pipe_cycles;

    std::vector<ir::StreamId> ids;
    auto note = [&ids](const auto& m) {
      for (const auto& [id, c] : m) {
        if (std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
      }
    };
    note(a.stall_by_stream);
    note(a.stall_events_by_stream);
    note(a.read_polls);
    note(a.write_polls);
    std::sort(ids.begin(), ids.end());
    auto get = [](const auto& m, ir::StreamId id) -> std::uint64_t {
      auto it = m.find(id);
      return it == m.end() ? 0 : it->second;
    };
    for (ir::StreamId id : ids) {
      ProfileReport::StreamStall ss;
      ss.stream = design_.stream(id).name;
      ss.read_stall_cycles = get(a.stall_by_stream, id);
      ss.read_stall_events = get(a.stall_events_by_stream, id);
      ss.read_polls = get(a.read_polls, id);
      ss.write_polls = get(a.write_polls, id);
      row.streams.push_back(std::move(ss));
    }
    r.processes.push_back(std::move(row));
  }

  // Hottest states: every (block, state) with nonzero cost. Occupancy
  // of a sequential state is the block's execution count (each state is
  // occupied once per execution); stalls are charged to the state that
  // issued the stalling read. Pipelined bodies collapse to one row
  // (occupancy = iterations), their stage structure being a modulo
  // schedule rather than an FSM walk.
  for (const ProcAccum& a : procs_) {
    for (const ir::BasicBlock& b : a.proc->blocks) {
      const BlockStatic& st = a.blocks[b.id];
      std::uint64_t execs = a.block_execs[b.id];
      auto state_stall = [&a, &b](unsigned s) -> std::uint64_t {
        auto it = a.stall_by_state.find(state_key(b.id, s));
        return it == a.stall_by_state.end() ? 0 : it->second;
      };
      if (st.pipelined) {
        std::uint64_t stall = 0;
        for (const auto& [key, c] : a.stall_by_state) {
          if ((key >> 16) == b.id) stall += c;
        }
        if (execs == 0 && stall == 0) continue;
        ProfileReport::StateRow sr;
        sr.process = a.proc->name;
        sr.block = rtl::sanitize_net_name(b.name) + "_pipe";
        sr.state = 0;
        sr.occupancy = execs;
        sr.stall_cycles = stall;
        sr.source = loc_text(a.dbg.first_source(b.id));
        r.hottest_states.push_back(std::move(sr));
        continue;
      }
      for (unsigned s = 0; s < st.num_states; ++s) {
        std::uint64_t stall = state_stall(s);
        if (execs == 0 && stall == 0) continue;
        ProfileReport::StateRow sr;
        sr.process = a.proc->name;
        sr.block = rtl::sanitize_net_name(b.name);
        sr.state = s;
        sr.occupancy = execs;
        sr.stall_cycles = stall;
        sr.source = loc_text(a.dbg.source_of_state(b.id, s));
        r.hottest_states.push_back(std::move(sr));
      }
    }
  }
  std::stable_sort(r.hottest_states.begin(), r.hottest_states.end(),
                   [](const ProfileReport::StateRow& x, const ProfileReport::StateRow& y) {
                     if (x.cost() != y.cost()) return x.cost() > y.cost();
                     if (x.process != y.process) return x.process < y.process;
                     if (x.block != y.block) return x.block < y.block;
                     return x.state < y.state;
                   });
  if (r.hottest_states.size() > config_.max_hot_states) {
    r.hottest_states.resize(config_.max_hot_states);
  }

  std::vector<std::uint32_t> aids;
  for (const auto& [id, aa] : asserts_) aids.push_back(id);
  std::sort(aids.begin(), aids.end());
  for (std::uint32_t id : aids) {
    const AssertAccum& aa = asserts_.at(id);
    ProfileReport::AssertStat st;
    st.id = id;
    st.evals = aa.evals;
    st.failures = aa.failures;
    if (const ir::AssertionRecord* rec = design_.find_assertion(id)) {
      st.label = rec->function + ":" + std::to_string(rec->line) + " '" +
                 rec->condition_text + "'";
    }
    r.assertions.push_back(std::move(st));
  }

  r.spans = spans_;
  r.instants = instants_;
  r.spans_dropped = spans_dropped_;
  for (const Counter& c : registry_.counters()) r.counters.push_back(c);
  for (const Histogram& h : registry_.histograms()) r.histograms.push_back(h);
  return r;
}

bool ProfileReport::attribution_exact() const {
  for (const ProcRow& p : processes) {
    if (p.attributed() != run_cycles) return false;
    if (p.seq_state_cycles + p.pipe_cycles != p.compute_cycles + p.assert_cycles) return false;
    if (completed && p.discarded_stall_cycles != 0) return false;
  }
  return true;
}

ProfileSummary ProfileReport::summary() const {
  ProfileSummary s;
  s.run_cycles = run_cycles;
  std::unordered_map<std::string, std::uint64_t> stalls;
  for (const ProcRow& p : processes) {
    s.compute_cycles += p.compute_cycles;
    s.assert_cycles += p.assert_cycles;
    s.stall_cycles += p.stall_cycles;
    s.tail_cycles += p.tail_cycles;
    s.discarded_stall_cycles += p.discarded_stall_cycles;
    for (const StreamStall& ss : p.streams) {
      s.blocked_polls += ss.read_polls + ss.write_polls;
      stalls[ss.stream] += ss.read_stall_cycles;
    }
  }
  for (const AssertStat& a : assertions) {
    s.assert_evals += a.evals;
    s.assert_failures += a.failures;
  }
  for (const auto& [name, c] : stalls) {
    if (c > s.hottest_stall_cycles ||
        (c == s.hottest_stall_cycles && c != 0 && name < s.hottest_stall_stream)) {
      s.hottest_stall_cycles = c;
      s.hottest_stall_stream = name;
    }
  }
  return s;
}

std::string ProfileReport::render_table() const {
  std::ostringstream os;

  TextTable t("Cycle attribution (" + std::to_string(run_cycles) + " cycles, " +
              (completed ? "completed" : "not completed") + ")");
  t.header({"process", "compute", "assert", "stall", "tail", "tail kind", "attributed"});
  for (const ProcRow& p : processes) {
    std::string tail_kind = end_kind_name(p.end);
    if (!p.end_stream.empty()) tail_kind += " '" + p.end_stream + "'";
    std::string attributed = std::to_string(p.attributed());
    if (p.discarded_stall_cycles != 0) {
      attributed += " (+" + std::to_string(p.discarded_stall_cycles) + " discarded)";
    }
    t.row({p.process, std::to_string(p.compute_cycles) + " " + pct_of(p.compute_cycles, run_cycles),
           std::to_string(p.assert_cycles) + " " + pct_of(p.assert_cycles, run_cycles),
           std::to_string(p.stall_cycles) + " " + pct_of(p.stall_cycles, run_cycles),
           std::to_string(p.tail_cycles) + " " + pct_of(p.tail_cycles, run_cycles), tail_kind,
           attributed});
  }
  os << t.render();

  if (!hottest_states.empty()) {
    TextTable h("Hottest FSM states (occupancy + read-stall cycles)");
    h.header({"process", "state", "occupancy", "stall", "cost", "source"});
    for (const StateRow& s : hottest_states) {
      h.row({s.process, s.block + "/s" + std::to_string(s.state), std::to_string(s.occupancy),
             std::to_string(s.stall_cycles), std::to_string(s.cost()), s.source});
    }
    os << h.render();
  }

  bool any_stream = false;
  for (const ProcRow& p : processes) any_stream |= !p.streams.empty();
  if (any_stream) {
    TextTable st("Stream stalls and blocked polls");
    st.header({"process", "stream", "stall cycles", "stall events", "read polls",
               "write polls"});
    for (const ProcRow& p : processes) {
      for (const StreamStall& ss : p.streams) {
        st.row({p.process, ss.stream, std::to_string(ss.read_stall_cycles),
                std::to_string(ss.read_stall_events), std::to_string(ss.read_polls),
                std::to_string(ss.write_polls)});
      }
    }
    os << st.render();
  }

  if (!assertions.empty()) {
    TextTable at("Assertion activity");
    at.header({"assertion", "label", "evals", "failures"});
    for (const AssertStat& a : assertions) {
      at.row({"#" + std::to_string(a.id), a.label, std::to_string(a.evals),
              std::to_string(a.failures)});
    }
    os << at.render();
  }
  return os.str();
}

std::string ProfileReport::to_json() const {
  std::ostringstream os;
  os << "{\"run_cycles\": " << run_cycles << ", \"completed\": " << (completed ? "true" : "false")
     << ", \"attribution_exact\": " << (attribution_exact() ? "true" : "false")
     << ", \"processes\": [";
  for (std::size_t i = 0; i < processes.size(); ++i) {
    const ProcRow& p = processes[i];
    if (i != 0) os << ", ";
    os << "{\"name\": \"" << json_escape(p.process) << "\", \"compute\": " << p.compute_cycles
       << ", \"assert\": " << p.assert_cycles << ", \"stall\": " << p.stall_cycles
       << ", \"tail\": " << p.tail_cycles << ", \"end\": \"" << end_kind_name(p.end) << "\""
       << ", \"discarded\": " << p.discarded_stall_cycles
       << ", \"seq_state_cycles\": " << p.seq_state_cycles
       << ", \"pipe_cycles\": " << p.pipe_cycles << ", \"streams\": [";
    for (std::size_t j = 0; j < p.streams.size(); ++j) {
      const StreamStall& ss = p.streams[j];
      if (j != 0) os << ", ";
      os << "{\"name\": \"" << json_escape(ss.stream)
         << "\", \"read_stall_cycles\": " << ss.read_stall_cycles
         << ", \"read_stall_events\": " << ss.read_stall_events
         << ", \"read_polls\": " << ss.read_polls << ", \"write_polls\": " << ss.write_polls
         << "}";
    }
    os << "]}";
  }
  os << "], \"hottest_states\": [";
  for (std::size_t i = 0; i < hottest_states.size(); ++i) {
    const StateRow& s = hottest_states[i];
    if (i != 0) os << ", ";
    os << "{\"process\": \"" << json_escape(s.process) << "\", \"block\": \""
       << json_escape(s.block) << "\", \"state\": " << s.state
       << ", \"occupancy\": " << s.occupancy << ", \"stall\": " << s.stall_cycles
       << ", \"source\": \"" << json_escape(s.source) << "\"}";
  }
  os << "], \"assertions\": [";
  for (std::size_t i = 0; i < assertions.size(); ++i) {
    const AssertStat& a = assertions[i];
    if (i != 0) os << ", ";
    os << "{\"id\": " << a.id << ", \"label\": \"" << json_escape(a.label)
       << "\", \"evals\": " << a.evals << ", \"failures\": " << a.failures << "}";
  }
  os << "], ";
  // Registry snapshot, same fragment shape MetricsRegistry::to_json emits.
  os << "\"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i != 0) os << ", ";
    os << "\"" << counters[i].name << "\": " << counters[i].value;
  }
  os << "}, \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const Histogram& h = histograms[i];
    if (i != 0) os << ", ";
    os << "\"" << h.name << "\": {\"count\": " << h.count << ", \"sum\": " << h.sum
       << ", \"max\": " << h.max << "}";
  }
  os << "}, \"spans\": " << spans.size() << ", \"spans_dropped\": " << spans_dropped << "}";
  return os.str();
}

std::string render_profile_delta(const ProfileSummary& golden, const ProfileSummary& faulted) {
  std::ostringstream os;
  os << "cycles " << signed_delta(golden.run_cycles, faulted.run_cycles) << ", compute "
     << signed_delta(golden.compute_cycles, faulted.compute_cycles) << ", assert "
     << signed_delta(golden.assert_cycles, faulted.assert_cycles) << ", stall "
     << signed_delta(golden.stall_cycles, faulted.stall_cycles) << ", tail "
     << signed_delta(golden.tail_cycles, faulted.tail_cycles);
  if (faulted.assert_failures != 0) os << ", assert failures " << faulted.assert_failures;
  if (!faulted.hottest_stall_stream.empty()) {
    os << "; stalls peak on '" << faulted.hottest_stall_stream << "' ("
       << faulted.hottest_stall_cycles << ")";
  }
  return os.str();
}

}  // namespace hlsav::metrics
