// CPU-side assertion notification function (paper Fig. 1, §4.1).
//
// The notification function is the software task that monitors the
// failure streams coming back from the FPGA over the multiplexed
// channel, decodes assertion identifiers (or packed failure-bit words),
// and prints the standard ANSI-C failure message. Unless NABORT is set,
// the first failure halts the application.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/ir.h"

namespace hlsav::assertions {

/// One decoded assertion failure.
struct Failure {
  std::uint32_t assertion_id = 0;
  std::string message;
  std::uint64_t cycle = 0;  // FPGA cycle at which the failure was sent
};

/// Decodes one word received on `stream` into the assertion ids it
/// reports. kAssertFail streams carry one id per word; kAssertPacked
/// streams carry one bit per assertion of the collector's group.
[[nodiscard]] std::vector<std::uint32_t> decode_failure_word(const ir::Design& design,
                                                             ir::StreamId stream,
                                                             std::uint64_t word);

/// What the notification function decodes with: the id -> record and
/// packed-stream -> group lookups. Built once per design and read-only
/// after, so any number of NotificationFunctions (one per simulated run,
/// on any thread) share one. It borrows the design.
struct NotificationIndex {
  explicit NotificationIndex(const ir::Design& design);

  const ir::Design* design = nullptr;
  std::unordered_map<std::uint32_t, const ir::AssertionRecord*> by_id;
  /// Group members per kAssertPacked stream, in catalogue order (the
  /// order decode_failure_word reports them).
  std::unordered_map<ir::StreamId, std::vector<const ir::AssertionRecord*>> packed_groups;
};

/// The notification function: collects failures, renders messages,
/// decides whether to halt. Thread-free; the simulator drives it.
class NotificationFunction {
 public:
  using Sink = std::function<void(const Failure&)>;

  /// Borrows `index`, which must outlive it.
  explicit NotificationFunction(const NotificationIndex& index) : index_(&index) {}

  /// Optional callback invoked on every failure (e.g. to print to
  /// stderr); failures are recorded regardless.
  void set_sink(Sink sink) { sink_ = std::move(sink); }

  /// Feeds one received word from a failure stream. Returns true if the
  /// application should halt (first failure and NABORT is off).
  bool on_word(ir::StreamId stream, std::uint64_t word, std::uint64_t cycle);

  /// Reports a failure by assertion id directly (software simulation,
  /// where assert statements are evaluated in place). Same halt rules.
  bool on_direct(std::uint32_t assertion_id, std::uint64_t cycle);

  [[nodiscard]] const std::vector<Failure>& failures() const { return failures_; }
  [[nodiscard]] bool aborted() const { return aborted_; }

  /// Renders all collected failures, one message per line.
  [[nodiscard]] std::string render() const;

 private:
  const NotificationIndex* index_;
  Sink sink_;
  std::vector<Failure> failures_;
  bool aborted_ = false;
};

}  // namespace hlsav::assertions
