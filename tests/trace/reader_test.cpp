// Status-returning trace reader tests: HLTRACE1 files round-trip
// through read_trace_file at the width extremes (1-bit flags, 64-bit
// crypto state), user-level errors arrive as typed Statuses instead of
// InternalError, and validate_window refuses windows whose ids or
// widths drifted from the design they claim to describe.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "common/test_util.h"
#include "trace/binary.h"
#include "trace/reader.h"
#include "trace/trace.h"

namespace hlsav::trace {
namespace {

using hlsav::testing::compile;
using hlsav::testing::temp_path;

TraceRecord rec(TraceEventKind kind, std::uint16_t proc, std::uint32_t subject,
                BitVector value) {
  TraceRecord r;
  r.kind = kind;
  r.proc = proc;
  r.subject = subject;
  r.value = std::move(value);
  return r;
}

TEST(TraceReader, RoundTripsOneBitAndWiderThan64BitValues) {
  std::vector<TraceRecord> window;
  // 1-bit flag toggles (a condition register).
  window.push_back(rec(TraceEventKind::kRegWrite, 0, 3, BitVector::from_u64(1, 1)));
  window.push_back(rec(TraceEventKind::kRegWrite, 0, 3, BitVector::from_u64(1, 0)));
  // 64-bit crypto-state word (the widest value) with bits set in its top
  // byte.
  window.push_back(rec(TraceEventKind::kBramWrite, 1, 0,
                       BitVector::from_u64(64, 0x8100'0001'0000'0001ull)));

  std::string path = temp_path("roundtrip.bin");
  write_binary_trace_file(path, window);
  StatusOr<std::vector<TraceRecord>> back = read_trace_file(path);
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  ASSERT_EQ(back->size(), window.size());
  for (std::size_t i = 0; i < window.size(); ++i) {
    EXPECT_EQ((*back)[i].kind, window[i].kind) << i;
    EXPECT_EQ((*back)[i].value.width(), window[i].value.width()) << i;
    EXPECT_TRUE((*back)[i].value.eq(window[i].value)) << i;
  }
  EXPECT_TRUE((*back)[2].value.bit(63));
  EXPECT_TRUE((*back)[2].value.bit(56));
  EXPECT_TRUE((*back)[2].value.bit(32));
  EXPECT_FALSE((*back)[2].value.bit(40));
}

TEST(TraceReader, MissingFileIsIoErrorAndCorruptBytesAreInvalid) {
  StatusOr<std::vector<TraceRecord>> gone = read_trace_file(temp_path("never_written.bin"));
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kIoError);

  // A real header followed by torn record bytes: user input, so a typed
  // kInvalidArgument -- never the InternalError the in-process reader
  // throws for impossible streams.
  std::string path = temp_path("corrupt.bin");
  {
    std::vector<TraceRecord> one;
    one.push_back(rec(TraceEventKind::kRegWrite, 0, 0, BitVector::from_u64(32, 5)));
    write_binary_trace_file(path, one);
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes.substr(0, bytes.size() - 3);
  }
  StatusOr<std::vector<TraceRecord>> torn = read_trace_file(path);
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), StatusCode::kInvalidArgument);

  std::string junk = temp_path("junk.bin");
  std::ofstream(junk, std::ios::binary) << "not a trace at all";
  StatusOr<std::vector<TraceRecord>> bad = read_trace_file(junk);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(TraceReader, ValidateWindowAcceptsMatchingWidths) {
  auto c = compile(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 a = stream_read(in);
      stream_write(out, a);
    }
  )");
  ir::RegId a = ir::kNoReg;
  ir::RegId one_bit = ir::kNoReg;
  for (const ir::Register& r : c->process("f").regs) {
    if (r.name == "a") a = r.id;
    if (r.width == 1 && one_bit == ir::kNoReg) one_bit = r.id;
  }
  ASSERT_NE(a, ir::kNoReg);

  std::vector<TraceRecord> window;
  window.push_back(rec(TraceEventKind::kRegWrite, 0, a, BitVector::from_u64(32, 7)));
  if (one_bit != ir::kNoReg) {
    window.push_back(rec(TraceEventKind::kRegWrite, 0, one_bit, BitVector::from_u64(1, 1)));
  }
  EXPECT_TRUE(validate_window(c->design, window).ok());
}

TEST(TraceReader, ValidateWindowRejectsDriftedIdsAndWidths) {
  auto c = compile(R"(
    void f(stream_in<32> in, stream_out<32> out) {
      uint32 a = stream_read(in);
      stream_write(out, a);
    }
  )");
  ir::RegId a = ir::kNoReg;
  for (const ir::Register& r : c->process("f").regs) {
    if (r.name == "a") a = r.id;
  }

  // Width drift: a 16-bit value on a 32-bit register.
  {
    std::vector<TraceRecord> w{rec(TraceEventKind::kRegWrite, 0, a,
                                   BitVector::from_u64(16, 7))};
    Status st = validate_window(c->design, w);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.message().find("record 0"), std::string::npos) << st.message();
  }
  // Foreign process index.
  {
    std::vector<TraceRecord> w{rec(TraceEventKind::kRegWrite, 42, a,
                                   BitVector::from_u64(32, 7))};
    EXPECT_FALSE(validate_window(c->design, w).ok());
  }
  // Register id past the process's file.
  {
    std::vector<TraceRecord> w{rec(TraceEventKind::kRegWrite, 0, 10'000,
                                   BitVector::from_u64(32, 7))};
    EXPECT_FALSE(validate_window(c->design, w).ok());
  }
  // Stream id out of range.
  {
    std::vector<TraceRecord> w{rec(TraceEventKind::kStreamPush, 0, 99,
                                   BitVector::from_u64(32, 7))};
    EXPECT_FALSE(validate_window(c->design, w).ok());
  }
  // Assertion id absent from the catalogue.
  {
    std::vector<TraceRecord> w{rec(TraceEventKind::kAssertVerdict, 0, 7,
                                   BitVector::from_u64(1, 1))};
    EXPECT_FALSE(validate_window(c->design, w).ok());
  }
}

}  // namespace
}  // namespace hlsav::trace
