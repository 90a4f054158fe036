#pragma once

// Internal JSON utilities shared by the experiment module's JSONL
// writers and readers (campaign logs in sink.cpp, campaign profiles in
// profile.cpp). Not installed: the public surface is the sink/profile
// APIs, this is their implementation idiom.
//
// Writing: append_* emitters produce byte-exact round-trippable text -
// integers in full, doubles via %.17g, strings through
// obs::append_json_string. Reading: a minimal strict parser with numbers
// kept as raw tokens so 64-bit integers and doubles reparse without
// precision loss.

#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sdcm/obs/trace_jsonl.hpp"

namespace sdcm::experiment::jsonu {

inline void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

inline void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out += buf;
}

inline void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

struct JsonValue {
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject
  };
  Type type = Type::kNull;
  bool boolean = false;
  std::string number;  // raw token
  std::string text;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> members;

  [[nodiscard]] const JsonValue* find(std::string_view key) const {
    for (const auto& [name, value] : members) {
      if (name == key) return &value;
    }
    return nullptr;
  }

  [[nodiscard]] bool as_u64(std::uint64_t& out) const {
    if (type != Type::kNumber || number.empty() ||
        number.find_first_not_of("0123456789") != std::string::npos) {
      return false;
    }
    errno = 0;
    char* end = nullptr;
    out = std::strtoull(number.c_str(), &end, 10);
    return errno == 0 && end == number.c_str() + number.size();
  }

  [[nodiscard]] bool as_i64(std::int64_t& out) const {
    if (type != Type::kNumber || number.empty()) return false;
    errno = 0;
    char* end = nullptr;
    out = std::strtoll(number.c_str(), &end, 10);
    return errno == 0 && end == number.c_str() + number.size();
  }

  [[nodiscard]] bool as_double(double& out) const {
    if (type != Type::kNumber || number.empty()) return false;
    char* end = nullptr;
    out = std::strtod(number.c_str(), &end);
    return end == number.c_str() + number.size();
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool parse(JsonValue& out, std::string& error) {
    skip_ws();
    if (!parse_value(out, error)) return false;
    skip_ws();
    if (pos_ != text_.size()) {
      error = "trailing characters after JSON value";
      return false;
    }
    return true;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\r' ||
            text_[pos_] == '\n')) {
      ++pos_;
    }
  }

  bool parse_value(JsonValue& out, std::string& error) {
    if (pos_ >= text_.size()) {
      error = "unexpected end of input";
      return false;
    }
    const char c = text_[pos_];
    if (c == '{') return parse_object(out, error);
    if (c == '[') return parse_array(out, error);
    if (c == '"') {
      out.type = JsonValue::Type::kString;
      return parse_string(out.text, error);
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      out.type = JsonValue::Type::kNull;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out.type = JsonValue::Type::kBool;
      out.boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out.type = JsonValue::Type::kBool;
      out.boolean = false;
      pos_ += 5;
      return true;
    }
    return parse_number(out, error);
  }

  bool parse_object(JsonValue& out, std::string& error) {
    out.type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key, error)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        error = "expected ':' in object";
        return false;
      }
      ++pos_;
      skip_ws();
      JsonValue value;
      if (!parse_value(value, error)) return false;
      out.members.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) {
        error = "unterminated object";
        return false;
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      error = "expected ',' or '}' in object";
      return false;
    }
  }

  bool parse_array(JsonValue& out, std::string& error) {
    out.type = JsonValue::Type::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue value;
      if (!parse_value(value, error)) return false;
      out.items.push_back(std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) {
        error = "unterminated array";
        return false;
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      error = "expected ',' or ']' in array";
      return false;
    }
  }

  bool parse_string(std::string& out, std::string& error) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      error = "expected string";
      return false;
    }
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) {
        error = "raw control character in string";
        return false;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) break;
        c = text_[pos_];
        // Only the escapes obs::append_json_string emits.
        if (c == 'u' &&
            obs::decode_json_control_escape(text_.substr(pos_ + 1), c)) {
          pos_ += 4;
        } else if (c != '"' && c != '\\') {
          error = "unsupported string escape";
          return false;
        }
      }
      out += c;
      ++pos_;
    }
    if (pos_ >= text_.size()) {
      error = "unterminated string";
      return false;
    }
    ++pos_;  // closing quote
    return true;
  }

  bool parse_number(JsonValue& out, std::string& error) {
    const std::size_t begin = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == begin) {
      error = "expected a JSON value";
      return false;
    }
    out.type = JsonValue::Type::kNumber;
    out.number.assign(text_.substr(begin, pos_ - begin));
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace sdcm::experiment::jsonu
