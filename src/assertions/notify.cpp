#include "assertions/notify.h"

#include <sstream>

namespace hlsav::assertions {

std::vector<std::uint32_t> decode_failure_word(const ir::Design& design, ir::StreamId stream,
                                               std::uint64_t word) {
  std::vector<std::uint32_t> ids;
  const ir::Stream& s = design.stream(stream);
  switch (s.role) {
    case ir::StreamRole::kAssertFail:
      // The word is the assertion id itself.
      ids.push_back(static_cast<std::uint32_t>(word));
      break;
    case ir::StreamRole::kAssertPacked:
      // One bit per assertion of this collector's group.
      for (const ir::AssertionRecord& rec : design.assertions) {
        if (rec.fail_stream != stream) continue;
        if ((word >> rec.fail_bit) & 1) ids.push_back(rec.id);
      }
      break;
    default:
      internal_error("assertions/notify", 0,
                     "decode_failure_word on non-assertion stream '" + s.name + "'");
  }
  return ids;
}

NotificationIndex::NotificationIndex(const ir::Design& d) : design(&d) {
  for (const ir::AssertionRecord& rec : d.assertions) {
    by_id.emplace(rec.id, &rec);
    if (rec.fail_stream != ir::kNoStream &&
        d.stream(rec.fail_stream).role == ir::StreamRole::kAssertPacked) {
      packed_groups[rec.fail_stream].push_back(&rec);
    }
  }
}

bool NotificationFunction::on_word(ir::StreamId stream, std::uint64_t word,
                                   std::uint64_t cycle) {
  bool halt = false;
  switch (index_->design->stream(stream).role) {
    case ir::StreamRole::kAssertFail:
      // The word is the assertion id itself.
      halt = on_direct(static_cast<std::uint32_t>(word), cycle);
      break;
    case ir::StreamRole::kAssertPacked: {
      // One bit per assertion of this collector's group.
      auto it = index_->packed_groups.find(stream);
      if (it != index_->packed_groups.end()) {
        for (const ir::AssertionRecord* rec : it->second) {
          if ((word >> rec->fail_bit) & 1) halt |= on_direct(rec->id, cycle);
        }
      }
      break;
    }
    default:
      internal_error("assertions/notify", 0,
                     "decode_failure_word on non-assertion stream '" +
                         index_->design->stream(stream).name + "'");
  }
  return halt;
}

bool NotificationFunction::on_direct(std::uint32_t assertion_id, std::uint64_t cycle) {
  auto it = index_->by_id.find(assertion_id);
  const ir::AssertionRecord* rec = it == index_->by_id.end() ? nullptr : it->second;
  Failure f;
  f.assertion_id = assertion_id;
  f.cycle = cycle;
  f.message = rec != nullptr
                  ? rec->failure_message()
                  : "<unknown assertion #" + std::to_string(assertion_id) + "> failed.";
  if (sink_) sink_(f);
  failures_.push_back(std::move(f));
  if (!index_->design->continue_on_failure) {
    aborted_ = true;
    return true;
  }
  return false;
}

std::string NotificationFunction::render() const {
  std::ostringstream os;
  for (const Failure& f : failures_) {
    os << f.message << "  [cycle " << f.cycle << "]\n";
  }
  if (aborted_) os << "Application aborted on first assertion failure.\n";
  return os.str();
}

}  // namespace hlsav::assertions
