#include "report/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "core/check.h"

namespace sustainai::report {

// --- JsonValue -----------------------------------------------------------

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::number(double value) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = value;
  return v;
}

JsonValue JsonValue::string(std::string value) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(value);
  return v;
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

const char* JsonValue::kind_name() const {
  switch (kind_) {
    case Kind::kNull:
      return "null";
    case Kind::kBool:
      return "bool";
    case Kind::kNumber:
      return "number";
    case Kind::kString:
      return "string";
    case Kind::kArray:
      return "array";
    case Kind::kObject:
      return "object";
  }
  return "?";
}

namespace {

// The dynamic message is built only on the throwing path. The accessors sit
// on the Spec/canonical_json hot paths (hundreds of thousands of calls per
// scenario run), where an eagerly concatenated std::string argument costs an
// allocation per call even when the check passes.
[[noreturn]] void wrong_kind(const char* kind, const char* what) {
  throw std::invalid_argument(std::string("JsonValue: ") + kind + what);
}

}  // namespace

bool JsonValue::as_bool() const {
  if (!is_bool()) {
    wrong_kind(kind_name(), " is not a bool");
  }
  return bool_;
}

double JsonValue::as_number() const {
  if (!is_number()) {
    wrong_kind(kind_name(), " is not a number");
  }
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (!is_string()) {
    wrong_kind(kind_name(), " is not a string");
  }
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (!is_array()) {
    wrong_kind(kind_name(), " is not an array");
  }
  return items_;
}

const std::vector<JsonValue::Member>& JsonValue::members() const {
  if (!is_object()) {
    wrong_kind(kind_name(), " is not an object");
  }
  return members_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  for (const Member& m : members()) {
    if (m.first == key) {
      return &m.second;
    }
  }
  return nullptr;
}

JsonValue* JsonValue::find(const std::string& key) {
  return const_cast<JsonValue*>(std::as_const(*this).find(key));
}

JsonValue& JsonValue::append(JsonValue element) {
  if (!is_array()) {
    throw std::invalid_argument(std::string("JsonValue: cannot append to ") +
                                kind_name());
  }
  items_.push_back(std::move(element));
  return *this;
}

JsonValue& JsonValue::set(const std::string& key, JsonValue value) {
  if (!is_object()) {
    throw std::invalid_argument(std::string("JsonValue: cannot set key on ") +
                                kind_name());
  }
  for (Member& m : members_) {
    if (m.first == key) {
      m.second = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(key, std::move(value));
  return *this;
}

// --- Parser --------------------------------------------------------------

JsonParseError::JsonParseError(int line, int column, const std::string& what)
    : std::runtime_error("JSON parse error at line " + std::to_string(line) +
                         ", column " + std::to_string(column) + ": " + what),
      line_(line),
      column_(column) {}

namespace {

// The double nearest to the decimal text [first, last). std::from_chars
// and glibc's strtod both round correctly, so they agree wherever
// from_chars succeeds; on any error code (underflow to zero, overflow) the
// strtod result decides, as it always did: 1e-400 reads as 0, 1e999 as inf.
double parse_double(const char* first, const char* last) {
  double value = 0.0;
  const std::from_chars_result r = std::from_chars(first, last, value);
  if (r.ec == std::errc() && r.ptr == last) {
    return value;
  }
  const std::string token(first, last);
  return std::strtod(token.c_str(), nullptr);
}

// Longest canonical number text: "-1.7976931348623157e+308" is 24 chars.
constexpr std::size_t kNumberChars = 32;

// Writes the canonical text of finite `value` into `buf` and returns its
// end: "%.0f" for integral doubles inside the exactly representable range
// (canonical specs should read naturally), otherwise the first of "%.15g",
// "%.16g", "%.17g" that parses back to the same double. std::to_chars with
// an explicit format and precision is specified to produce exactly
// printf's text for that conversion, so these are the bytes snprintf wrote
// (tests/oracles/json_reference.h keeps that version).
char* format_shortest(char (&buf)[kNumberChars], double value) {
  check_arg(std::isfinite(value), "shortest_double: value must be finite");
  char* const last = buf + kNumberChars;
  if (value == std::floor(value) && std::fabs(value) < 9.007199254740992e15) {
    return std::to_chars(buf, last, value, std::chars_format::fixed, 0).ptr;
  }
  char* end = buf;
  for (int precision = 15; precision <= 17; ++precision) {
    end = std::to_chars(buf, last, value, std::chars_format::general, precision)
              .ptr;
    if (parse_double(buf, end) == value) {
      break;
    }
  }
  return end;
}

// Strict recursive-descent parser over the RFC 8259 grammar. Tracks only
// the byte offset; the 1-based line/column of an error are counted from
// the text when it is thrown.
class JsonParser {
 public:
  JsonParser(std::string_view text, int max_depth)
      : text_(text), max_depth_(max_depth) {}

  JsonValue parse_document() {
    skip_whitespace();
    JsonValue v = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) {
      fail("unexpected content after the document");
    }
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    // Line = 1 + newlines before pos_; column = 1 + bytes since the last.
    const std::string_view consumed = text_.substr(0, pos_);
    const std::size_t last_newline = consumed.rfind('\n');
    const std::size_t line_start =
        last_newline == std::string_view::npos ? 0 : last_newline + 1;
    const auto newlines = std::count(consumed.begin(), consumed.end(), '\n');
    throw JsonParseError(1 + static_cast<int>(newlines),
                         1 + static_cast<int>(pos_ - line_start), what);
  }

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }

  [[nodiscard]] char peek() const {
    return eof() ? '\0' : text_[pos_];
  }

  char advance() {
    if (eof()) {
      fail("unexpected end of input");
    }
    return text_[pos_++];
  }

  void expect(char wanted, const char* context) {
    if (peek() != wanted) {
      fail(std::string("expected '") + wanted + "' " + context +
           (eof() ? " but reached end of input"
                  : std::string(" but found '") + peek() + "'"));
    }
    advance();
  }

  void skip_whitespace() {
    while (!eof()) {
      const char ch = peek();
      if (ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r') {
        advance();
      } else {
        return;
      }
    }
  }

  void expect_keyword(const char* keyword) {
    for (const char* p = keyword; *p != '\0'; ++p) {
      if (eof() || peek() != *p) {
        fail(std::string("invalid literal (expected '") + keyword + "')");
      }
      advance();
    }
  }

  JsonValue parse_value(int depth) {
    if (depth > max_depth_) {
      fail("nesting deeper than " + std::to_string(max_depth_) + " levels");
    }
    switch (peek()) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        return JsonValue::string(parse_string());
      case 't':
        expect_keyword("true");
        return JsonValue::boolean(true);
      case 'f':
        expect_keyword("false");
        return JsonValue::boolean(false);
      case 'n':
        expect_keyword("null");
        return JsonValue::null();
      default:
        if (peek() == '-' || (peek() >= '0' && peek() <= '9')) {
          return JsonValue::number(parse_number());
        }
        if (eof()) {
          fail("unexpected end of input (expected a value)");
        }
        fail(std::string("unexpected character '") + peek() + "'");
    }
  }

  JsonValue parse_object(int depth) {
    expect('{', "to open an object");
    JsonValue obj = JsonValue::object();
    skip_whitespace();
    if (peek() == '}') {
      advance();
      return obj;
    }
    while (true) {
      skip_whitespace();
      if (peek() != '"') {
        fail(eof() ? "unterminated object"
                   : "expected a quoted object key");
      }
      std::string key = parse_string();
      skip_whitespace();
      expect(':', "after object key");
      skip_whitespace();
      if (obj.find(key) != nullptr) {
        fail("duplicate object key \"" + key + "\"");
      }
      obj.set(key, parse_value(depth + 1));
      skip_whitespace();
      if (peek() == ',') {
        advance();
        skip_whitespace();
        if (peek() == '}') {
          fail("trailing comma before '}'");
        }
        continue;
      }
      expect('}', "to close the object");
      return obj;
    }
  }

  JsonValue parse_array(int depth) {
    expect('[', "to open an array");
    JsonValue arr = JsonValue::array();
    skip_whitespace();
    if (peek() == ']') {
      advance();
      return arr;
    }
    while (true) {
      skip_whitespace();
      arr.append(parse_value(depth + 1));
      skip_whitespace();
      if (peek() == ',') {
        advance();
        skip_whitespace();
        if (peek() == ']') {
          fail("trailing comma before ']'");
        }
        continue;
      }
      expect(']', "to close the array");
      return arr;
    }
  }

  // Consumes the 4 hex digits of a \u escape.
  unsigned parse_hex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      if (eof()) {
        fail("unterminated \\u escape");
      }
      const char ch = advance();
      code <<= 4;
      if (ch >= '0' && ch <= '9') {
        code |= static_cast<unsigned>(ch - '0');
      } else if (ch >= 'a' && ch <= 'f') {
        code |= static_cast<unsigned>(ch - 'a' + 10);
      } else if (ch >= 'A' && ch <= 'F') {
        code |= static_cast<unsigned>(ch - 'A' + 10);
      } else {
        fail(std::string("invalid hex digit '") + ch + "' in \\u escape");
      }
    }
    return code;
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  std::string parse_string() {
    expect('"', "to open a string");
    std::string out;
    while (true) {
      if (eof()) {
        fail("unterminated string");
      }
      const char ch = advance();
      if (ch == '"') {
        return out;
      }
      if (static_cast<unsigned char>(ch) < 0x20) {
        fail("raw control character in string (use \\u escapes)");
      }
      if (ch != '\\') {
        out += ch;
        continue;
      }
      if (eof()) {
        fail("unterminated escape sequence");
      }
      const char esc = advance();
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          unsigned code = parse_hex4();
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: a low surrogate escape must follow.
            if (peek() != '\\') {
              fail("unpaired high surrogate in \\u escape");
            }
            advance();
            if (peek() != 'u') {
              fail("unpaired high surrogate in \\u escape");
            }
            advance();
            const unsigned low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) {
              fail("invalid low surrogate in \\u escape pair");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("unpaired low surrogate in \\u escape");
          }
          append_utf8(out, code);
          break;
        }
        default:
          fail(std::string("invalid escape sequence '\\") + esc + "'");
      }
    }
  }

  double parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      advance();
    }
    // Integer part: a single 0, or [1-9][0-9]*.
    if (peek() == '0') {
      advance();
      if (peek() >= '0' && peek() <= '9') {
        fail("numbers may not have leading zeros");
      }
    } else if (peek() >= '1' && peek() <= '9') {
      while (peek() >= '0' && peek() <= '9') {
        advance();
      }
    } else {
      fail("invalid number (expected a digit)");
    }
    if (peek() == '.') {
      advance();
      if (!(peek() >= '0' && peek() <= '9')) {
        fail("invalid number (expected a digit after '.')");
      }
      while (peek() >= '0' && peek() <= '9') {
        advance();
      }
    }
    if (peek() == 'e' || peek() == 'E') {
      advance();
      if (peek() == '+' || peek() == '-') {
        advance();
      }
      if (!(peek() >= '0' && peek() <= '9')) {
        fail("invalid number (expected an exponent digit)");
      }
      while (peek() >= '0' && peek() <= '9') {
        advance();
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    const double value =
        parse_double(token.data(), token.data() + token.size());
    if (!std::isfinite(value)) {
      fail("number '" + std::string(token) + "' overflows a double");
    }
    return value;
  }

  std::string_view text_;
  int max_depth_;
  std::size_t pos_ = 0;
};

// Appends 2*indent spaces without materializing a pad string; leaf nodes
// (the vast majority) never pay for indentation at all.
void append_indent(std::string& out, int indent) {
  out.append(static_cast<std::size_t>(indent) * 2, ' ');
}

void canonical_render(const JsonValue& value, int indent, std::string& out) {
  switch (value.kind()) {
    case JsonValue::Kind::kNull:
      out += "null";
      return;
    case JsonValue::Kind::kBool:
      out += value.as_bool() ? "true" : "false";
      return;
    case JsonValue::Kind::kNumber: {
      char buf[kNumberChars];
      out.append(buf, format_shortest(buf, value.as_number()));
      return;
    }
    case JsonValue::Kind::kString:
      quote_json_string_to(out, value.as_string());
      return;
    case JsonValue::Kind::kArray: {
      if (value.items().empty()) {
        out += "[]";
        return;
      }
      out += "[\n";
      bool first = true;
      for (const JsonValue& item : value.items()) {
        if (!first) {
          out += ",\n";
        }
        first = false;
        append_indent(out, indent + 1);
        canonical_render(item, indent + 1, out);
      }
      out += '\n';
      append_indent(out, indent);
      out += ']';
      return;
    }
    case JsonValue::Kind::kObject: {
      if (value.members().empty()) {
        out += "{}";
        return;
      }
      std::vector<const JsonValue::Member*> sorted;
      sorted.reserve(value.members().size());
      for (const JsonValue::Member& m : value.members()) {
        sorted.push_back(&m);
      }
      std::sort(sorted.begin(), sorted.end(),
                [](const JsonValue::Member* a, const JsonValue::Member* b) {
                  return a->first < b->first;
                });
      out += "{\n";
      bool first = true;
      for (const JsonValue::Member* m : sorted) {
        if (!first) {
          out += ",\n";
        }
        first = false;
        append_indent(out, indent + 1);
        quote_json_string_to(out, m->first);
        out += ": ";
        canonical_render(m->second, indent + 1, out);
      }
      out += '\n';
      append_indent(out, indent);
      out += '}';
      return;
    }
  }
}

}  // namespace

JsonValue parse_json(std::string_view text, int max_depth) {
  return JsonParser(text, max_depth).parse_document();
}

std::string shortest_double(double value) {
  char buf[kNumberChars];
  return std::string(buf, format_shortest(buf, value));
}

std::string canonical_json(const JsonValue& value) {
  std::string out;
  canonical_render(value, 0, out);
  out += '\n';
  return out;
}

JsonWriter::JsonWriter() = default;

void JsonWriter::comma() {
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) {
      out_ += ',';
    }
    needs_comma_.back() = true;
  }
}

void JsonWriter::write_string(const std::string& s) {
  quote_json_string_to(out_, s);
}

std::string quote_json_string(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  quote_json_string_to(out, s);
  return out;
}

void quote_json_string_to(std::string& out, const std::string& s) {
  out += '"';
  for (char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_ += '{';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::begin_object(const std::string& key) {
  comma();
  write_string(key);
  out_ += ":{";
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  check_arg(!needs_comma_.empty(), "JsonWriter: unbalanced end_object");
  out_ += '}';
  needs_comma_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array(const std::string& key) {
  comma();
  write_string(key);
  out_ += ":[";
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  check_arg(!needs_comma_.empty(), "JsonWriter: unbalanced end_array");
  out_ += ']';
  needs_comma_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::field(const std::string& key, const std::string& value) {
  comma();
  write_string(key);
  out_ += ':';
  write_string(value);
  return *this;
}

JsonWriter& JsonWriter::field(const std::string& key, const char* value) {
  return field(key, std::string(value));
}

JsonWriter& JsonWriter::field(const std::string& key, double value) {
  comma();
  write_string(key);
  char buf[64];
  if (std::isfinite(value)) {
    std::snprintf(buf, sizeof(buf), ":%.10g", value);
  } else {
    std::snprintf(buf, sizeof(buf), ":null");
  }
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::field(const std::string& key, long value) {
  comma();
  write_string(key);
  out_ += ':' + std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::field(const std::string& key, bool value) {
  comma();
  write_string(key);
  out_ += value ? ":true" : ":false";
  return *this;
}

JsonWriter& JsonWriter::element(double value) {
  comma();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::element(const std::string& value) {
  comma();
  write_string(value);
  return *this;
}

std::string JsonWriter::str() const {
  check_arg(needs_comma_.empty(), "JsonWriter: unclosed containers");
  return out_;
}

}  // namespace sustainai::report
