#include "report/json.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

#include "core/check.h"

namespace sustainai::report {

// --- JsonValue -----------------------------------------------------------

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.data_ = b;
  return v;
}

JsonValue JsonValue::number(double value) {
  JsonValue v;
  v.data_ = value;
  return v;
}

JsonValue JsonValue::string(std::string value) {
  JsonValue v;
  v.data_ = std::move(value);
  return v;
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.data_.emplace<std::vector<JsonValue>>();
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.data_.emplace<std::vector<Member>>();
  return v;
}

const char* JsonValue::kind_name() const {
  switch (kind()) {
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
  return *std::get_if<bool>(&data_);
}

double JsonValue::as_number() const {
  if (!is_number()) {
    wrong_kind(kind_name(), " is not a number");
  }
  return *std::get_if<double>(&data_);
}

const std::string& JsonValue::as_string() const {
  if (!is_string()) {
    wrong_kind(kind_name(), " is not a string");
  }
  return *std::get_if<std::string>(&data_);
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (!is_array()) {
    wrong_kind(kind_name(), " is not an array");
  }
  return *std::get_if<std::vector<JsonValue>>(&data_);
}

const std::vector<JsonValue::Member>& JsonValue::members() const {
  if (!is_object()) {
    wrong_kind(kind_name(), " is not an object");
  }
  return *std::get_if<std::vector<Member>>(&data_);
}

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const Member& m : members()) {
    if (m.first == key) {
      return &m.second;
    }
  }
  return nullptr;
}

JsonValue* JsonValue::find(std::string_view key) {
  return const_cast<JsonValue*>(std::as_const(*this).find(key));
}

JsonValue& JsonValue::append(JsonValue element) {
  if (!is_array()) {
    throw std::invalid_argument(std::string("JsonValue: cannot append to ") +
                                kind_name());
  }
  std::get_if<std::vector<JsonValue>>(&data_)->push_back(std::move(element));
  return *this;
}

JsonValue& JsonValue::set(const std::string& key, JsonValue value) {
  if (!is_object()) {
    throw std::invalid_argument(std::string("JsonValue: cannot set key on ") +
                                kind_name());
  }
  JsonValue* existing = find(key);
  if (existing != nullptr) {
    *existing = std::move(value);
  } else {
    std::get_if<std::vector<Member>>(&data_)->emplace_back(key,
                                                           std::move(value));
  }
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

bool is_digit(char ch) { return ch >= '0' && ch <= '9'; }

}  // namespace

// Strict recursive-descent parser over the RFC 8259 grammar. Tracks only
// the byte offset; the 1-based line/column of an error are counted from
// the text when it is thrown. Whitespace, digits and the plain bytes of a
// string are consumed in runs; containers are filled in place (a friend of
// JsonValue), so a member costs one duplicate scan and no key copy.
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
    ++pos_;
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char ch = text_[pos_];
      if (ch != ' ' && ch != '\n' && ch != '\t' && ch != '\r') {
        return;
      }
      ++pos_;
    }
  }

  void skip_digits() {
    while (pos_ < text_.size() && is_digit(text_[pos_])) {
      ++pos_;
    }
  }

  void expect_keyword(const char* keyword) {
    for (const char* p = keyword; *p != '\0'; ++p) {
      if (eof() || peek() != *p) {
        fail(std::string("invalid literal (expected '") + keyword + "')");
      }
      ++pos_;
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
        if (peek() == '-' || is_digit(peek())) {
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
      ++pos_;
      return obj;
    }
    auto& members = *std::get_if<std::vector<JsonValue::Member>>(&obj.data_);
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
      for (const JsonValue::Member& m : members) {
        if (m.first == key) {
          fail("duplicate object key \"" + key + "\"");
        }
      }
      JsonValue value = parse_value(depth + 1);
      members.emplace_back(std::move(key), std::move(value));
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
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
      ++pos_;
      return arr;
    }
    auto& items = *std::get_if<std::vector<JsonValue>>(&arr.data_);
    while (true) {
      skip_whitespace();
      items.push_back(parse_value(depth + 1));
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
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
      // The run of bytes that need no decoding, appended at once.
      const std::size_t run = pos_;
      while (pos_ < text_.size()) {
        const auto ch = static_cast<unsigned char>(text_[pos_]);
        if (ch == '"' || ch == '\\' || ch < 0x20) {
          break;
        }
        ++pos_;
      }
      out.append(text_.data() + run, pos_ - run);
      if (eof()) {
        fail("unterminated string");
      }
      const char ch = text_[pos_++];
      if (ch == '"') {
        return out;
      }
      if (ch != '\\') {
        fail("raw control character in string (use \\u escapes)");
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
      ++pos_;
    }
    // Integer part: a single 0, or [1-9][0-9]*.
    if (peek() == '0') {
      ++pos_;
      if (is_digit(peek())) {
        fail("numbers may not have leading zeros");
      }
    } else if (is_digit(peek())) {
      skip_digits();
    } else {
      fail("invalid number (expected a digit)");
    }
    if (peek() == '.') {
      ++pos_;
      if (!is_digit(peek())) {
        fail("invalid number (expected a digit after '.')");
      }
      skip_digits();
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') {
        ++pos_;
      }
      if (!is_digit(peek())) {
        fail("invalid number (expected an exponent digit)");
      }
      skip_digits();
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

JsonValue parse_json(std::string_view text, int max_depth) {
  return JsonParser(text, max_depth).parse_document();
}

// --- Number text ------------------------------------------------------------

namespace {

// Longest canonical number text: "-1.7976931348623157e+308" is 24 chars.
constexpr std::size_t kNumberChars = 32;

// Writes the canonical text of finite `value` into `buf` and returns its
// end. The bytes are the snprintf/strtod version's
// (tests/oracles/json_reference.h): "%.0f" for integral doubles inside the
// exactly representable range, otherwise the first of "%.15g", "%.16g",
// "%.17g" that parses back to the same double. Three shortcuts reach them
// with less work:
//   * an integral |value| < 2^53 is an exact int64, and its decimal digits
//     are "%.0f"'s; only -0.0 needs its sign spelled out;
//   * for a normal double off a power of two, whose round-trip interval is
//     symmetric, that text is "%.{max(15, d)}g", d the digit count of the
//     shortest round-trip form S: "%.15g" rounds to a grid coarser than
//     twice the double's rounding error, so it lands on S (padded with
//     zeros, which %g strips) whenever d <= 15, and for d of 16 or 17 the
//     d-digit rounding is at least as close as S, so it reads back and is
//     S. The text is laid out from S's digits and exponent by %g's rules;
//   * a power of two (a lopsided interval) or a subnormal (too few bits)
//     searches instead: a "%.{p}g" with p below d cannot read back, so the
//     search starts at max(15, d), and 17 significant digits always read
//     back, so "%.17g" is not checked.
// std::to_chars with an explicit format and precision is specified to
// produce exactly printf's text for that conversion.
// CanonicalJson.ShortestDoubleMatchesPrintfOracle holds both paths to the
// oracle.
char* format_shortest(char (&buf)[kNumberChars], double value) {
  check_arg(std::isfinite(value), "shortest_double: value must be finite");
  char* const last = buf + kNumberChars;
  if (value == std::floor(value) && std::fabs(value) < 9.007199254740992e15) {
    if (value == 0.0 && std::signbit(value)) {
      buf[0] = '-';
      buf[1] = '0';
      return buf + 2;
    }
    return std::to_chars(buf, last, static_cast<std::int64_t>(value)).ptr;
  }
  // S as "[-]d[.ddd]e(+|-)xx[x]".
  char* const end =
      std::to_chars(buf, last, value, std::chars_format::scientific).ptr;
  const bool negative = buf[0] == '-';
  char digits[17];
  int d = 0;
  const char* p = buf + (negative ? 1 : 0);
  for (; *p != 'e'; ++p) {
    if (is_digit(*p)) {
      digits[d++] = *p;
    }
  }
  constexpr std::uint64_t kMantissa = (std::uint64_t{1} << 52) - 1;
  if ((std::bit_cast<std::uint64_t>(value) & kMantissa) == 0 ||
      std::fabs(value) < std::numeric_limits<double>::min()) {
    for (int precision = std::max(15, d);; ++precision) {
      char* const text =
          std::to_chars(buf, last, value, std::chars_format::general, precision)
              .ptr;
      if (precision >= 17 || parse_double(buf, text) == value) {
        return text;
      }
    }
  }
  int exponent = 0;
  for (const char* q = p + 2; q != end; ++q) {
    exponent = exponent * 10 + (*q - '0');
  }
  if (p[1] == '-') {
    exponent = -exponent;
  }
  // %g prints "%e" (S's own text, trailing zeros stripped) outside
  // [-4, precision), and the fixed form inside it.
  if (exponent < -4 || exponent >= std::max(15, d)) {
    return end;
  }
  char* out = buf + (negative ? 1 : 0);
  if (exponent < 0) {
    *out++ = '0';
    *out++ = '.';
    out = std::fill_n(out, -exponent - 1, '0');
    return std::copy_n(digits, d, out);
  }
  const int whole = exponent + 1;
  out = std::copy_n(digits, std::min(d, whole), out);
  if (d <= whole) {
    return std::fill_n(out, whole - d, '0');
  }
  *out++ = '.';
  return std::copy_n(digits + whole, d - whole, out);
}

}  // namespace

std::string shortest_double(double value) {
  char buf[kNumberChars];
  return std::string(buf, format_shortest(buf, value));
}

void append_shortest_double(std::string& out, double value) {
  char buf[kNumberChars];
  out.append(buf, format_shortest(buf, value));
}

void append_general10(std::string& out, double value) {
  char buf[kNumberChars];
  out.append(buf, std::to_chars(buf, buf + kNumberChars, value,
                                std::chars_format::general, 10)
                      .ptr);
}

std::string quote_json_string(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  quote_json_string_to(out, s);
  return out;
}

void quote_json_string_to(std::string& out, std::string_view s) {
  out += '"';
  // Bytes that need no escape are appended a run at a time.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char ch = s[i];
    if (static_cast<unsigned char>(ch) >= 0x20 && ch != '"' && ch != '\\') {
      continue;
    }
    out.append(s.data() + run, i - run);
    run = i + 1;
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
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
        out += buf;
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
  out += '"';
}

// --- CanonicalWriter --------------------------------------------------------

void CanonicalWriter::before_value() {
  if (depth_ == 0) {
    check_arg(!root_written_, "CanonicalWriter: a second root value");
    root_written_ = true;
    return;
  }
  Level& level = levels_[depth_ - 1];
  if (level.object) {
    check_arg(level.keyed, "CanonicalWriter: object value without a key");
    level.keyed = false;
    return;
  }
  out_ += level.empty ? "\n" : ",\n";
  level.empty = false;
  out_.append(depth_ * 2, ' ');
}

void CanonicalWriter::open(char bracket, bool object) {
  before_value();
  out_ += bracket;
  if (levels_.size() == depth_) {
    levels_.emplace_back();
  }
  Level& level = levels_[depth_++];
  level.object = object;
  level.empty = true;
  level.keyed = false;
}

void CanonicalWriter::close(char bracket, bool object) {
  check_arg(depth_ > 0 && levels_[depth_ - 1].object == object &&
                !levels_[depth_ - 1].keyed,
            "CanonicalWriter: unbalanced end of a container");
  const bool empty = levels_[depth_ - 1].empty;
  --depth_;
  if (!empty) {
    out_ += '\n';
    out_.append(depth_ * 2, ' ');
  }
  out_ += bracket;
}

CanonicalWriter& CanonicalWriter::begin_object() {
  open('{', true);
  return *this;
}

CanonicalWriter& CanonicalWriter::end_object() {
  close('}', true);
  return *this;
}

CanonicalWriter& CanonicalWriter::begin_array() {
  open('[', false);
  return *this;
}

CanonicalWriter& CanonicalWriter::end_array() {
  close(']', false);
  return *this;
}

CanonicalWriter& CanonicalWriter::key(std::string_view key) {
  check_arg(depth_ > 0 && levels_[depth_ - 1].object &&
                !levels_[depth_ - 1].keyed,
            "CanonicalWriter: key outside an object");
  Level& level = levels_[depth_ - 1];
  if (!level.empty && !(level.last_key < key)) {
    throw std::invalid_argument(
        "CanonicalWriter: key \"" + std::string(key) + "\" after \"" +
        level.last_key + "\" is not in ascending byte order");
  }
  out_ += level.empty ? "\n" : ",\n";
  out_.append(depth_ * 2, ' ');
  quote_json_string_to(out_, key);
  out_ += ": ";
  level.empty = false;
  level.keyed = true;
  level.last_key.assign(key);
  return *this;
}

CanonicalWriter& CanonicalWriter::null() {
  before_value();
  out_ += "null";
  return *this;
}

CanonicalWriter& CanonicalWriter::boolean(bool b) {
  before_value();
  out_ += b ? "true" : "false";
  return *this;
}

CanonicalWriter& CanonicalWriter::number(double value) {
  before_value();
  append_shortest_double(out_, value);
  return *this;
}

CanonicalWriter& CanonicalWriter::string(std::string_view s) {
  before_value();
  quote_json_string_to(out_, s);
  return *this;
}

CanonicalWriter& CanonicalWriter::value(const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull:
      return null();
    case JsonValue::Kind::kBool:
      return boolean(v.as_bool());
    case JsonValue::Kind::kNumber:
      return number(v.as_number());
    case JsonValue::Kind::kString:
      return string(v.as_string());
    case JsonValue::Kind::kArray:
      begin_array();
      for (const JsonValue& item : v.items()) {
        value(item);
      }
      return end_array();
    case JsonValue::Kind::kObject: {
      std::vector<const JsonValue::Member*> sorted;
      sorted.reserve(v.members().size());
      for (const JsonValue::Member& m : v.members()) {
        sorted.push_back(&m);
      }
      std::sort(sorted.begin(), sorted.end(),
                [](const JsonValue::Member* a, const JsonValue::Member* b) {
                  return a->first < b->first;
                });
      begin_object();
      for (const JsonValue::Member* m : sorted) {
        key(m->first);
        value(m->second);
      }
      return end_object();
    }
  }
  return *this;
}

std::string CanonicalWriter::finish() && {
  check_arg(root_written_ && depth_ == 0,
            "CanonicalWriter: document is not complete");
  out_ += '\n';
  return std::move(out_);
}

std::string canonical_json(const JsonValue& value) {
  CanonicalWriter w;
  w.value(value);
  return std::move(w).finish();
}

// --- JsonWriter -------------------------------------------------------------

JsonWriter::JsonWriter() = default;

void JsonWriter::comma() {
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) {
      out_ += ',';
    }
    needs_comma_.back() = true;
  }
}

void JsonWriter::write_string(std::string_view s) {
  quote_json_string_to(out_, s);
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
  out_ += ':';
  if (std::isfinite(value)) {
    append_general10(out_, value);
  } else {
    out_ += "null";
  }
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
  append_general10(out_, value);
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
