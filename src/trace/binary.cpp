#include "trace/binary.h"

#include <array>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>

#include "support/io.h"

namespace hlsav::trace {

namespace {

constexpr char kMagic[8] = {'H', 'L', 'T', 'R', 'A', 'C', 'E', '1'};

template <typename T>
void put(std::ostream& os, T v) {
  // Serialize little-endian regardless of host order.
  std::array<unsigned char, sizeof(T)> bytes{};
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    bytes[i] = static_cast<unsigned char>((static_cast<std::uint64_t>(v) >> (8 * i)) & 0xFF);
  }
  os.write(reinterpret_cast<const char*>(bytes.data()), static_cast<std::streamsize>(sizeof(T)));
}

template <typename T>
T get(std::istream& is) {
  std::array<unsigned char, sizeof(T)> bytes{};
  is.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(sizeof(T)));
  HLSAV_CHECK(is.gcount() == static_cast<std::streamsize>(sizeof(T)),
              "truncated binary trace stream");
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
  }
  return static_cast<T>(v);
}

}  // namespace

void write_binary_trace(std::ostream& os, const std::vector<TraceRecord>& window) {
  os.write(kMagic, sizeof(kMagic));
  put<std::uint32_t>(os, static_cast<std::uint32_t>(window.size()));
  for (const TraceRecord& r : window) {
    put<std::uint64_t>(os, r.cycle);
    put<std::uint8_t>(os, static_cast<std::uint8_t>(r.kind));
    put<std::uint16_t>(os, r.proc);
    put<std::uint32_t>(os, r.subject);
    put<std::uint64_t>(os, r.aux);
    put<std::uint32_t>(os, r.loc.file);
    put<std::uint32_t>(os, r.loc.line);
    put<std::uint32_t>(os, r.loc.column);
    put<std::uint16_t>(os, static_cast<std::uint16_t>(r.value.width()));
    const unsigned nbytes = (r.value.width() + 7) / 8;
    for (unsigned i = 0; i < nbytes; ++i) put<std::uint8_t>(os, r.value.to_u64() >> (8 * i));
  }
}

std::vector<TraceRecord> read_binary_trace(std::istream& is) {
  char magic[sizeof(kMagic)] = {};
  is.read(magic, sizeof(kMagic));
  HLSAV_CHECK(is.gcount() == static_cast<std::streamsize>(sizeof(kMagic)) &&
                  std::memcmp(magic, kMagic, sizeof(kMagic)) == 0,
              "bad binary trace magic");
  const std::uint32_t count = get<std::uint32_t>(is);
  std::vector<TraceRecord> out;
  out.reserve(count);
  for (std::uint32_t n = 0; n < count; ++n) {
    TraceRecord r;
    r.cycle = get<std::uint64_t>(is);
    const std::uint8_t kind = get<std::uint8_t>(is);
    HLSAV_CHECK(kind <= static_cast<std::uint8_t>(TraceEventKind::kAssertVerdict),
                "bad trace event kind in binary stream");
    r.kind = static_cast<TraceEventKind>(kind);
    r.proc = get<std::uint16_t>(is);
    r.subject = get<std::uint32_t>(is);
    r.aux = get<std::uint64_t>(is);
    r.loc.file = get<std::uint32_t>(is);
    r.loc.line = get<std::uint32_t>(is);
    r.loc.column = get<std::uint32_t>(is);
    const std::uint16_t width = get<std::uint16_t>(is);
    HLSAV_CHECK(width >= 1 && width <= BitVector::kMaxWidth,
                "bad value width in binary trace stream");
    std::uint64_t v = 0;
    const unsigned nbytes = (width + 7u) / 8;
    for (unsigned i = 0; i < nbytes; ++i) v |= std::uint64_t{get<std::uint8_t>(is)} << (8 * i);
    r.value = BitVector::from_u64(width, v);
    r.seq = n;
    out.push_back(std::move(r));
  }
  return out;
}

void write_binary_trace_file(const std::string& path, const std::vector<TraceRecord>& window) {
  std::ostringstream os(std::ios::binary);
  write_binary_trace(os, window);
  Status st = write_file_atomic(path, os.str());
  HLSAV_CHECK(st.ok(), "error writing binary trace file: " + st.to_string());
}

}  // namespace hlsav::trace
