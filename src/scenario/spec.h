// Typed, path-aware view over a parsed JSON scenario document.
//
// A Spec wraps a report::JsonValue tree and answers schema-checked
// extraction queries (optional_double, require_string, range validation).
// Every failure throws SpecError naming the *full JSON path* of the
// offending node ("$.params.grid.solar_share: expected a number, got
// string"), so a bad spec is diagnosable without a debugger. Specs are
// cheap value types: children share ownership of the root document.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "report/json.h"

namespace sustainai::scenario {

// Schema violation (wrong type, missing key, out-of-range value, unknown
// key). The message always starts with the JSON path of the offense.
class SpecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Spec {
 public:
  // Parses `text` as a JSON object. JsonParseError propagates unchanged
  // (it carries line/column); a non-object root throws SpecError.
  [[nodiscard]] static Spec parse(std::string_view text);

  // Wraps an already-built object value (must be an object).
  [[nodiscard]] static Spec from_value(report::JsonValue root);

  // JSON path of this node, "$" for the root.
  [[nodiscard]] const std::string& path() const { return path_; }

  // Canonical serialization of this node's subtree (report::canonical_json).
  [[nodiscard]] std::string canonical() const;

  [[nodiscard]] bool has(const std::string& key) const;

  // Child object at `key`; `child` requires presence, `optional_child`
  // returns an empty-object Spec when absent.
  [[nodiscard]] Spec child(const std::string& key) const;
  [[nodiscard]] Spec optional_child(const std::string& key) const;

  // Every element of the array at `key` must be an object; paths read
  // "$.key[i]". Missing key => empty vector.
  [[nodiscard]] std::vector<Spec> object_list(const std::string& key) const;

  // --- Scalar extraction --------------------------------------------------
  // `require_string` throws when the key is missing; `optional_*`
  // substitutes `fallback`. All extractors type-check, and the *_in
  // variants also range-check (inclusive bounds) — including the fallback
  // path, so a default outside the documented range is caught in tests.
  [[nodiscard]] double optional_double(const std::string& key,
                                       double fallback) const;
  [[nodiscard]] double optional_double_in(const std::string& key, double fallback,
                                          double min, double max) const;

  // Integers must be exactly representable (12.5 for a count is an error).
  [[nodiscard]] long optional_int(const std::string& key, long fallback) const;
  [[nodiscard]] long optional_int_in(const std::string& key, long fallback,
                                     long min, long max) const;

  [[nodiscard]] std::string require_string(const std::string& key) const;
  [[nodiscard]] std::string optional_string(const std::string& key,
                                            const std::string& fallback) const;

  [[nodiscard]] bool optional_bool(const std::string& key, bool fallback) const;

  // Number array at `key`; missing key => `fallback`.
  [[nodiscard]] std::vector<double> optional_number_list(
      const std::string& key, std::vector<double> fallback) const;
  // String array at `key`; missing key => `fallback`.
  [[nodiscard]] std::vector<std::string> optional_string_list(
      const std::string& key, std::vector<std::string> fallback) const;

  // Rejects keys outside `allowed` — the strict-schema backstop that turns
  // a typo ("sloar_share") into an error naming the valid keys.
  void allow_only(const std::vector<std::string>& allowed) const;

 private:
  Spec(std::shared_ptr<const report::JsonValue> root,
       const report::JsonValue* node, std::string path);

  // The value at `key`, or nullptr when absent.
  [[nodiscard]] const report::JsonValue* lookup(const std::string& key) const;
  // The value at `key`; throws SpecError when absent.
  [[nodiscard]] const report::JsonValue& require(const std::string& key) const;
  [[nodiscard]] std::string key_path(const std::string& key) const;
  [[noreturn]] void fail(const std::string& at, const std::string& what) const;

  [[nodiscard]] double number_at(const std::string& key,
                                 const report::JsonValue& v) const;
  [[nodiscard]] long int_at(const std::string& key,
                            const report::JsonValue& v) const;

  std::shared_ptr<const report::JsonValue> root_;
  const report::JsonValue* node_;
  std::string path_;
};

}  // namespace sustainai::scenario
