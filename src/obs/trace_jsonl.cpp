#include "sdcm/obs/trace_jsonl.hpp"

#include <cinttypes>
#include <cstdio>
#include <istream>
#include <limits>
#include <ostream>

namespace sdcm::obs {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out += buf;
}

/// Strict cursor over one record line. The format is rigid (fixed key
/// order, exactly the seven fields the writer emits), so the parser is a
/// matcher, not a general JSON reader. Numbers accept exactly the range
/// the writer can emit; a wider one fails the match and names its field
/// in out_of_range().
class LineParser {
 public:
  explicit LineParser(std::string_view text) : text_(text) {}

  bool literal(std::string_view expect) {
    if (text_.compare(pos_, expect.size(), expect) != 0) return false;
    pos_ += expect.size();
    return true;
  }

  bool u64(std::string_view field, std::uint64_t& out) {
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    const std::size_t begin = pos_;
    std::uint64_t v = 0;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      const auto digit = static_cast<std::uint64_t>(text_[pos_] - '0');
      if (v > (kMax - digit) / 10) {
        out_of_range_ = field;
        return false;
      }
      v = v * 10 + digit;
      ++pos_;
    }
    if (pos_ == begin) return false;
    out = v;
    return true;
  }

  bool i64(std::string_view field, std::int64_t& out) {
    const bool negative = pos_ < text_.size() && text_[pos_] == '-';
    if (negative) ++pos_;
    std::uint64_t magnitude = 0;
    if (!u64(field, magnitude)) return false;
    // |INT64_MIN| is one more than INT64_MAX.
    const std::uint64_t limit =
        static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) +
        (negative ? 1 : 0);
    if (magnitude > limit) {
      out_of_range_ = field;
      return false;
    }
    // Negating in unsigned arithmetic keeps INT64_MIN defined: the
    // conversion back to int64 is modular.
    out = static_cast<std::int64_t>(negative ? 0 - magnitude : magnitude);
    return true;
  }

  bool quoted(std::string& out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        c = text_[pos_];
        // Only the escapes append_json_string emits.
        if (c == 'u' && decode_json_control_escape(text_.substr(pos_ + 1), c)) {
          pos_ += 4;
        } else if (c != '"' && c != '\\') {
          return false;
        }
      }
      out += c;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  [[nodiscard]] bool at_end() const noexcept { return pos_ == text_.size(); }

  /// The field whose number overflowed its type, or empty.
  [[nodiscard]] std::string_view out_of_range() const noexcept {
    return out_of_range_;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::string_view out_of_range_;
};

}  // namespace

void append_json_string(std::string& out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte < 0x20) {
      out += "\\u00";
      out += kHex[byte >> 4];
      out += kHex[byte & 0xF];
      continue;
    }
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

bool decode_json_control_escape(std::string_view hex, char& out) {
  // "00", then '0' or '1', then one lowercase hex digit: 0x00-0x1f.
  if (hex.size() < 4 || hex.substr(0, 2) != "00" ||
      (hex[2] != '0' && hex[2] != '1')) {
    return false;
  }
  const char low = hex[3];
  const bool digit = low >= '0' && low <= '9';
  if (!digit && !(low >= 'a' && low <= 'f')) return false;
  out = static_cast<char>((hex[2] - '0') * 16 +
                          (digit ? low - '0' : low - 'a' + 10));
  return true;
}

std::string trace_record_to_jsonl(const sim::TraceRecord& record) {
  std::string line = "{\"at\":";
  append_i64(line, record.at);
  line += ",\"node\":";
  append_u64(line, record.node);
  line += ",\"category\":";
  append_json_string(line, to_string(record.category));
  line += ",\"span\":";
  append_u64(line, record.span);
  line += ",\"parent\":";
  append_u64(line, record.parent);
  line += ",\"event\":";
  append_json_string(line, record.event);
  line += ",\"detail\":";
  append_json_string(line, record.detail);
  line += '}';
  return line;
}

std::optional<sim::TraceRecord> parse_trace_record(std::string_view line,
                                                   std::string& error) {
  LineParser p(line);
  sim::TraceRecord record;
  std::uint64_t node = 0;
  std::string category;
  const bool shape =
      p.literal("{\"at\":") && p.i64("at", record.at) &&
      p.literal(",\"node\":") && p.u64("node", node) &&
      p.literal(",\"category\":") && p.quoted(category) &&
      p.literal(",\"span\":") && p.u64("span", record.span) &&
      p.literal(",\"parent\":") && p.u64("parent", record.parent) &&
      p.literal(",\"event\":") && p.quoted(record.event) &&
      p.literal(",\"detail\":") && p.quoted(record.detail) &&
      p.literal("}") && p.at_end();
  if (!p.out_of_range().empty()) {
    error = "field '" + std::string(p.out_of_range()) + "' out of range";
    return std::nullopt;
  }
  if (!shape) {
    error = "malformed trace record line";
    return std::nullopt;
  }
  if (node > std::uint64_t{0xffffffff}) {
    error = "node id out of range";
    return std::nullopt;
  }
  record.node = static_cast<sim::NodeId>(node);
  const auto cat = sim::category_from_string(category);
  if (!cat) {
    error = "unknown trace category '" + category + "'";
    return std::nullopt;
  }
  record.category = *cat;
  return record;
}

void JsonlTraceWriter::on_record(const sim::TraceRecord& record) {
  std::string line = trace_record_to_jsonl(record);
  line += '\n';
  out_ << line;
  ++records_;
  bytes_ += line.size();
}

bool read_trace_jsonl(std::istream& in, sim::TraceLog& log,
                      std::string& error) {
  if (log.appended() != 0) {
    error = "target trace log is not empty";
    return false;
  }
  std::string line;
  std::uint64_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    const auto record = parse_trace_record(line, error);
    if (!record) {
      error = "line " + std::to_string(line_number) + ": " + error;
      return false;
    }
    const sim::SpanId span =
        log.record_child(record->parent, record->at, record->node,
                         record->category, record->event, record->detail);
    if (span != record->span) {
      error = "line " + std::to_string(line_number) +
              ": span id " + std::to_string(record->span) +
              " does not match replay order (expected " +
              std::to_string(span) + ")";
      return false;
    }
  }
  return true;
}

}  // namespace sdcm::obs
