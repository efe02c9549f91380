// Compact binary trace format: exact round-trip (including full 64-bit
// values and source locations) and corruption detection.
#include <gtest/gtest.h>

#include <sstream>

#include "support/diagnostics.h"
#include "trace/binary.h"

namespace hlsav::trace {
namespace {

std::vector<TraceRecord> sample_window() {
  std::vector<TraceRecord> w;
  TraceRecord a;
  a.cycle = 3;
  a.kind = TraceEventKind::kRegWrite;
  a.proc = 1;
  a.subject = 7;
  a.value = BitVector::from_u64(32, 0xDEADBEEF);
  a.loc = SourceLoc{2, 14, 5};
  w.push_back(a);

  TraceRecord b;
  b.cycle = 4;
  b.kind = TraceEventKind::kBramWrite;
  b.proc = 0;
  b.subject = 0;
  b.aux = 1023;  // address
  b.value = BitVector::from_u64(16, 0x1234);
  w.push_back(b);

  TraceRecord c;
  c.cycle = 9;
  c.kind = TraceEventKind::kAssertVerdict;
  c.subject = 2;
  c.aux = 1;  // failed
  c.value = BitVector(1);
  w.push_back(c);

  TraceRecord d;
  d.cycle = 12;
  d.kind = TraceEventKind::kStreamPush;
  d.subject = 5;
  d.value = BitVector::from_u64(64, 0xA500'0100'0000'0001ull);  // top byte set
  w.push_back(d);
  return w;
}

TEST(BinaryTrace, RoundTripsExactly) {
  std::vector<TraceRecord> w = sample_window();
  std::ostringstream os(std::ios::binary);
  write_binary_trace(os, w);
  std::string bytes = os.str();
  EXPECT_EQ(bytes.substr(0, 8), "HLTRACE1");

  std::istringstream is(bytes, std::ios::binary);
  std::vector<TraceRecord> back = read_binary_trace(is);
  ASSERT_EQ(back.size(), w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    // seq is regenerated in record order; everything else is exact.
    TraceRecord expect = w[i];
    expect.seq = back[i].seq;
    EXPECT_EQ(back[i], expect) << "record " << i;
    EXPECT_EQ(back[i].seq, i);
  }
  EXPECT_EQ(back[3].value.width(), 64u);
  EXPECT_TRUE(back[3].value.bit(63));
  EXPECT_TRUE(back[3].value.bit(40));
  EXPECT_FALSE(back[3].value.bit(41));
}

TEST(BinaryTrace, EmptyWindowRoundTrips) {
  std::ostringstream os(std::ios::binary);
  write_binary_trace(os, {});
  std::istringstream is(os.str(), std::ios::binary);
  EXPECT_TRUE(read_binary_trace(is).empty());
}

TEST(BinaryTrace, RejectsBadMagic) {
  std::istringstream is(std::string("NOTATRACE\0\0\0", 12), std::ios::binary);
  EXPECT_THROW((void)read_binary_trace(is), InternalError);
}

TEST(BinaryTrace, RejectsValueWiderThanMaxWidth) {
  // One 64-bit record, its width field patched to 65 and one value byte
  // appended: a well-formed stream whose value no BitVector can hold.
  TraceRecord r;
  r.value = BitVector::all_ones(64);
  std::ostringstream os(std::ios::binary);
  write_binary_trace(os, {r});
  std::string bytes = os.str();
  // magic, count, then cycle/kind/proc/subject/aux/file/line/column.
  const std::size_t width_at = 8 + 4 + 8 + 1 + 2 + 4 + 8 + 4 + 4 + 4;
  ASSERT_EQ(bytes.size(), width_at + 2 + 8);
  ASSERT_EQ(bytes[width_at], 64);
  bytes[width_at] = static_cast<char>(BitVector::kMaxWidth + 1);
  bytes.push_back('\x01');
  std::istringstream is(bytes, std::ios::binary);
  try {
    (void)read_binary_trace(is);
    ADD_FAILURE() << "a 65-bit value was accepted";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("bad value width"), std::string::npos) << e.what();
  }
}

TEST(BinaryTrace, RejectsTruncatedStream) {
  std::ostringstream os(std::ios::binary);
  write_binary_trace(os, sample_window());
  std::string bytes = os.str();
  std::istringstream is(bytes.substr(0, bytes.size() - 7), std::ios::binary);
  EXPECT_THROW((void)read_binary_trace(is), InternalError);
}

}  // namespace
}  // namespace hlsav::trace
