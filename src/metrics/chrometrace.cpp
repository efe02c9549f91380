#include "metrics/chrometrace.h"

#include "support/io.h"
#include "support/jsonl.h"

#include <cctype>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

namespace hlsav::metrics {

void write_trace_events(const std::vector<TraceEvent>& events, std::ostream& os) {
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"ph\": \"" << e.ph << "\", \"pid\": " << e.pid << ", \"tid\": " << e.tid
       << ", \"name\": " << jsonl::quoted(e.name);
    switch (e.ph) {
      case 'X':
        os << ", \"ts\": " << e.ts_us << ", \"dur\": " << e.dur_us;
        break;
      case 'i':
        os << ", \"s\": \"t\", \"ts\": " << e.ts_us;
        break;
      case 'M':
        os << ", \"args\": {\"name\": " << jsonl::quoted(e.label) << "}";
        break;
      default:
        break;
    }
    os << "}";
  }
  os << "\n]}\n";
}

void write_chrome_trace(const ProfileReport& report, std::ostream& os) {
  // Track ids: process i -> compute tid 2i+1, stall tid 2i+2 (tid 0
  // renders oddly in some viewers).
  std::map<std::string, std::uint64_t> track;
  for (std::size_t i = 0; i < report.processes.size(); ++i) {
    track[report.processes[i].process] = 2 * i + 1;
  }
  // Spans may mention a process with no ProcRow only if the report was
  // assembled by hand; give it a track past the known ones.
  std::uint64_t next = 2 * report.processes.size() + 1;
  auto tid_of = [&track, &next](const std::string& process) {
    auto it = track.find(process);
    if (it == track.end()) it = track.emplace(process, (next += 2) - 2).first;
    return it->second;
  };
  std::vector<TraceEvent> events;
  auto meta = [&events](std::uint64_t tid, const char* name, std::string label) {
    events.push_back({'M', 1, tid, name, std::move(label), 0, 0});
  };

  meta(1, "process_name", "hlsav simulation");
  for (const ProfileReport::ProcRow& p : report.processes) {
    std::uint64_t tid = tid_of(p.process);
    meta(tid, "thread_name", p.process);
    meta(tid + 1, "thread_name", p.process + " stalls");
  }
  for (const ProfileReport::Span& s : report.spans) {
    events.push_back({'X', 1, tid_of(s.process) + (s.stall ? 1 : 0), s.name, "", s.start,
                      s.end - s.start});
  }
  for (const ProfileReport::Instant& in : report.instants) {
    events.push_back({'i', 1, tid_of(in.process), in.name, "", in.cycle, 0});
  }
  write_trace_events(events, os);
}

bool write_chrome_trace_file(const ProfileReport& report, const std::string& path,
                             std::string* error) {
  std::ostringstream os;
  write_chrome_trace(report, os);
  Status st = write_file_atomic(path, os.str());
  if (!st.ok()) {
    if (error != nullptr) *error = st.to_string();
    return false;
  }
  return true;
}

namespace {

// Minimal recursive-descent JSON parser: validates syntax and lets the
// caller walk just enough structure for the trace-event contract. Values
// are parsed into a tiny variant good enough for field checks.
class JsonParser {
 public:
  struct Value {
    enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
    std::string str;                               // kString
    double num = 0;                                // kNumber
    std::vector<Value> items;                      // kArray
    std::vector<std::pair<std::string, Value>> fields;  // kObject

    [[nodiscard]] const Value* field(std::string_view name) const {
      for (const auto& [k, v] : fields) {
        if (k == name) return &v;
      }
      return nullptr;
    }
  };

  explicit JsonParser(std::string_view text) : text_(text) {}

  bool parse(Value& out, std::string& error) {
    pos_ = 0;
    if (!value(out, error)) return false;
    ws();
    if (pos_ != text_.size()) {
      error = at() + "trailing content after JSON value";
      return false;
    }
    return true;
  }

 private:
  std::string at() const { return "offset " + std::to_string(pos_) + ": "; }

  void ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  bool lit(std::string_view s) {
    if (text_.substr(pos_, s.size()) != s) return false;
    pos_ += s.size();
    return true;
  }

  bool string(std::string& out, std::string& error) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      error = at() + "expected string";
      return false;
    }
    ++pos_;
    out.clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              error = at() + "truncated \\u escape";
              return false;
            }
            for (int i = 0; i < 4; ++i) {
              if (!std::isxdigit(static_cast<unsigned char>(text_[pos_ + i]))) {
                error = at() + "bad \\u escape";
                return false;
              }
            }
            out += '?';  // code point value irrelevant for validation
            pos_ += 4;
            break;
          }
          default:
            error = at() + "bad escape '\\" + std::string(1, e) + "'";
            return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        error = at() + "raw control character in string";
        return false;
      } else {
        out += c;
      }
    }
    error = at() + "unterminated string";
    return false;
  }

  bool number(Value& out, std::string& error) {
    std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      error = at() + "expected number";
      return false;
    }
    try {
      out.num = std::stod(std::string(text_.substr(start, pos_ - start)));
    } catch (...) {
      error = "offset " + std::to_string(start) + ": malformed number";
      return false;
    }
    out.kind = Value::kNumber;
    return true;
  }

  bool value(Value& out, std::string& error) {
    ws();
    if (pos_ >= text_.size()) {
      error = at() + "unexpected end of input";
      return false;
    }
    char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out.kind = Value::kObject;
      ws();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        ws();
        std::string key;
        if (!string(key, error)) return false;
        ws();
        if (!lit(":")) {
          error = at() + "expected ':'";
          return false;
        }
        Value v;
        if (!value(v, error)) return false;
        out.fields.emplace_back(std::move(key), std::move(v));
        ws();
        if (lit(",")) continue;
        if (lit("}")) return true;
        error = at() + "expected ',' or '}'";
        return false;
      }
    }
    if (c == '[') {
      ++pos_;
      out.kind = Value::kArray;
      ws();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        Value v;
        if (!value(v, error)) return false;
        out.items.push_back(std::move(v));
        ws();
        if (lit(",")) continue;
        if (lit("]")) return true;
        error = at() + "expected ',' or ']'";
        return false;
      }
    }
    if (c == '"') {
      out.kind = Value::kString;
      return string(out.str, error);
    }
    if (lit("true")) {
      out.kind = Value::kBool;
      return true;
    }
    if (lit("false")) {
      out.kind = Value::kBool;
      return true;
    }
    if (lit("null")) {
      out.kind = Value::kNull;
      return true;
    }
    return number(out, error);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

bool require_number(const JsonParser::Value& ev, std::string_view field, std::size_t index,
                    std::string& error) {
  const JsonParser::Value* v = ev.field(field);
  if (v == nullptr || v->kind != JsonParser::Value::kNumber) {
    error = "traceEvents[" + std::to_string(index) + "]: missing numeric \"" +
            std::string(field) + "\"";
    return false;
  }
  return true;
}

}  // namespace

ChromeTraceCheck validate_chrome_trace(std::string_view json) {
  ChromeTraceCheck check;
  JsonParser::Value root;
  JsonParser parser(json);
  if (!parser.parse(root, check.error)) return check;
  if (root.kind != JsonParser::Value::kObject) {
    check.error = "top-level value is not an object";
    return check;
  }
  const JsonParser::Value* events = root.field("traceEvents");
  if (events == nullptr || events->kind != JsonParser::Value::kArray) {
    check.error = "missing \"traceEvents\" array";
    return check;
  }
  for (std::size_t i = 0; i < events->items.size(); ++i) {
    const JsonParser::Value& ev = events->items[i];
    std::string where = "traceEvents[" + std::to_string(i) + "]";
    if (ev.kind != JsonParser::Value::kObject) {
      check.error = where + ": not an object";
      return check;
    }
    const JsonParser::Value* ph = ev.field("ph");
    if (ph == nullptr || ph->kind != JsonParser::Value::kString || ph->str.size() != 1) {
      check.error = where + ": missing one-char \"ph\"";
      return check;
    }
    const JsonParser::Value* name = ev.field("name");
    if (name == nullptr || name->kind != JsonParser::Value::kString || name->str.empty()) {
      check.error = where + ": missing \"name\"";
      return check;
    }
    switch (ph->str[0]) {
      case 'X':
        if (!require_number(ev, "ts", i, check.error) ||
            !require_number(ev, "dur", i, check.error) ||
            !require_number(ev, "pid", i, check.error) ||
            !require_number(ev, "tid", i, check.error)) {
          return check;
        }
        if (ev.field("dur")->num < 0) {
          check.error = where + ": negative \"dur\"";
          return check;
        }
        break;
      case 'i':
        if (!require_number(ev, "ts", i, check.error) ||
            !require_number(ev, "pid", i, check.error) ||
            !require_number(ev, "tid", i, check.error)) {
          return check;
        }
        break;
      case 'M':
        if (!require_number(ev, "pid", i, check.error)) return check;
        break;
      default:
        check.error = where + ": unsupported phase '" + ph->str + "'";
        return check;
    }
    ++check.events;
  }
  check.ok = true;
  return check;
}

ChromeTraceCheck validate_chrome_trace_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    ChromeTraceCheck check;
    check.error = "cannot open '" + path + "'";
    return check;
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  return validate_chrome_trace(buf.str());
}

}  // namespace hlsav::metrics
