// JSON support for machine-readable carbon reports (Section V-A's
// "easy-to-adopt telemetry" needs outputs dashboards can ingest).
//
// Three parts:
//   * JsonWriter — streaming write-only builder: values are appended in
//     document order; nesting via begin_object/begin_array.
//   * JsonValue + parse_json — a DOM with a strict recursive-descent parser
//     (RFC 8259 grammar: no trailing commas, no comments, no loose numbers)
//     reporting precise line/column positions on error.
//   * CanonicalWriter — the one writer of canonical text (sorted object
//     keys, shortest round-trip numbers), so a parsed document re-emits
//     byte-identically — the contract the scenario engine's spec.json
//     artifacts and the checkpoint journal rely on (src/scenario/,
//     src/engine/). canonical_json walks a DOM through it; a writer that
//     knows its key order streams records through it without a DOM.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace sustainai::report {

// --- DOM -----------------------------------------------------------------

// One JSON value. Object members keep insertion order for inspection;
// canonical serialization sorts them by key. Numbers are IEEE doubles (the
// only number type JSON interoperably supports). Scalars live inline and a
// string, array or object is one handle, so a value moves in a few words.
class JsonValue {
 public:
  // The order of Data's alternatives.
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;  // null

  static JsonValue null() { return JsonValue(); }
  static JsonValue boolean(bool b);
  static JsonValue number(double value);
  static JsonValue string(std::string value);
  static JsonValue array();
  static JsonValue object();

  [[nodiscard]] Kind kind() const { return static_cast<Kind>(data_.index()); }
  [[nodiscard]] const char* kind_name() const;
  [[nodiscard]] bool is_null() const { return kind() == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind() == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind() == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind() == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind() == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind() == Kind::kObject; }

  // Typed accessors; throw std::invalid_argument on a kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& items() const;   // arrays
  [[nodiscard]] const std::vector<Member>& members() const;    // objects

  // Object lookup; nullptr when the key is absent (objects only). The
  // mutable overload lets owners move large subtrees in and back out
  // (scenario::Runner envelopes a report without deep-copying it).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  [[nodiscard]] JsonValue* find(std::string_view key);

  // Builders (arrays/objects only; throw on kind mismatch). `set` replaces
  // an existing member with the same key in place.
  JsonValue& append(JsonValue element);
  JsonValue& set(const std::string& key, JsonValue value);

 private:
  friend class JsonParser;  // fills containers without the builders' checks

  using Data = std::variant<std::monostate, bool, double, std::string,
                            std::vector<JsonValue>, std::vector<Member>>;
  Data data_;
};

// Parse failure with the exact 1-based document position of the offense.
class JsonParseError : public std::runtime_error {
 public:
  JsonParseError(int line, int column, const std::string& what);
  [[nodiscard]] int line() const { return line_; }
  [[nodiscard]] int column() const { return column_; }

 private:
  int line_;
  int column_;
};

// Parses exactly one JSON document (any value type at the root); trailing
// non-whitespace is an error. Containers deeper than `max_depth` are
// rejected so hostile inputs cannot overflow the stack.
[[nodiscard]] JsonValue parse_json(std::string_view text, int max_depth = 64);

// Streams canonical JSON into one buffer: object keys in ascending byte
// order, 2-space indentation, "\n" separators, numbers in shortest_double
// form, and a closing "\n". It is the only code that writes canonical
// bytes. value() walks a DOM (members sorted); a caller that knows its key
// order writes keys and values directly, with no DOM. Keys of one object
// must come in strictly ascending byte order: any other order, a value
// where a key is due, a key outside an object, an unbalanced end or a
// second root throws std::invalid_argument, so a writer cannot emit
// non-canonical text.
class CanonicalWriter {
 public:
  CanonicalWriter& begin_object();
  CanonicalWriter& end_object();
  CanonicalWriter& begin_array();
  CanonicalWriter& end_array();
  CanonicalWriter& key(std::string_view key);

  CanonicalWriter& null();
  CanonicalWriter& boolean(bool b);
  CanonicalWriter& number(double value);  // finite only
  CanonicalWriter& string(std::string_view s);
  CanonicalWriter& value(const JsonValue& v);

  // The finished document; throws if no root was written or a container
  // is still open.
  [[nodiscard]] std::string finish() &&;

 private:
  struct Level {
    bool object = false;
    bool empty = true;   // nothing written inside yet
    bool keyed = false;  // object: a key waits for its value
    std::string last_key;
  };

  void before_value();
  void open(char bracket, bool object);
  void close(char bracket, bool object);

  std::string out_;
  std::vector<Level> levels_;  // grows only; depth_ are open
  std::size_t depth_ = 0;
  bool root_written_ = false;
};

// canonical_json(v) is CanonicalWriter().value(v).finish():
// parse_json(canonical_json(v)) reproduces v, and canonical_json is a pure
// function of the value — the basis of the scenario engine's byte-identical
// artifact contract.
[[nodiscard]] std::string canonical_json(const JsonValue& value);

// Shortest decimal form of `value` that parses back to the same double
// (integral doubles render without exponent or decimal point). Shared by
// canonical_json and anything needing value-faithful number text.
[[nodiscard]] std::string shortest_double(double value);
// Appends shortest_double(value) to `out` without a temporary.
void append_shortest_double(std::string& out, double value);

// "%.10g" text of `value` (std::to_chars, general, precision 10): the
// JsonWriter's and CsvWriter::add_row_values' number form.
void append_general10(std::string& out, double value);

// `s` as a quoted, escaped JSON string literal (the writer's escaping).
[[nodiscard]] std::string quote_json_string(std::string_view s);

// Appends the quoted form of `s` to `out` without a temporary — the
// serialization hot path (canonical_json, JsonWriter) quotes thousands of
// strings per report.
void quote_json_string_to(std::string& out, std::string_view s);

class JsonWriter {
 public:
  JsonWriter();

  // Object/array structure. `key` variants are for use inside objects,
  // keyless variants inside arrays (or for the root).
  JsonWriter& begin_object();
  JsonWriter& begin_object(const std::string& key);
  JsonWriter& end_object();
  JsonWriter& begin_array(const std::string& key);
  JsonWriter& end_array();

  JsonWriter& field(const std::string& key, const std::string& value);
  JsonWriter& field(const std::string& key, const char* value);
  JsonWriter& field(const std::string& key, double value);
  JsonWriter& field(const std::string& key, long value);
  JsonWriter& field(const std::string& key, bool value);
  JsonWriter& element(double value);
  JsonWriter& element(const std::string& value);

  // Finishes the document; throws if containers are still open.
  [[nodiscard]] std::string str() const;

 private:
  void comma();
  void write_string(std::string_view s);

  std::string out_;
  std::vector<bool> needs_comma_;  // one entry per open container
};

}  // namespace sustainai::report
