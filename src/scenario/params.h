// Declared scenario parameters: one row per parameter, read through it.
//
// Each simulation (and the Runner, for the spec's top level) declares its
// params once, as ParamDoc rows: name, kind, default, range and doc. The
// rows are the `sustainai scenarios` listing and the CLI's --help; Params
// checks a spec's whole tree against them (unknown keys fail naming the
// valid ones) and reads each value by key alone, default and bounds from
// its row, through Spec's optional_*_in extractors so error texts are the
// Spec's own.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "report/json.h"
#include "scenario/spec.h"

namespace sustainai::scenario {

inline constexpr long kMaxSeed = 1L << 62;  // largest seed a spec may give

// One declared parameter. `name` is its dotted path in the object the table
// describes ("grid.solar_share", "regions[i].pue"); a sub-object is declared
// by its members' rows alone.
struct ParamDoc {
  // kObject: an object whose keys its reader checks (the spec's "params").
  enum class Kind {
    kNumber, kInt, kBool, kString, kNumberList, kStringList, kObjectList,
    kObject
  };

  std::string name;
  Kind kind = Kind::kNumber;
  // The default a read uses. Null when required, for an object list, and
  // when computed where the param is read (default_doc says from what).
  report::JsonValue fallback = {};
  // Inclusive bounds of a number or int, unless range_doc documents a bound
  // known only where the param is read.
  double min = 0.0;
  double max = 0.0;
  std::string description = {};
  std::string default_doc = {};
  std::string range_doc = {};

  // Rows of the common kinds.
  static ParamDoc number(std::string name, double fallback, double min,
                         double max, std::string description);
  static ParamDoc integer(std::string name, long fallback, long min, long max,
                          std::string description);
  static ParamDoc flag(std::string name, bool fallback,
                       std::string description);
  static ParamDoc text(std::string name, std::string fallback,
                       std::string description);

  [[nodiscard]] std::string type() const;  // "number", "string list", ...
  // Shortest round-trip text of the default, default_doc, or "(required)".
  [[nodiscard]] std::string default_text() const;
  // "[min, max]" as Spec's range errors print it, range_doc, or "".
  [[nodiscard]] std::string range() const;
};

// A spec object read against a param table. A read names the key; default
// and bounds come from its row. A `fallback` or `max` passed to a read is a
// default or bound computed there, which the row documents (default_doc,
// range_doc). Reading a key other than as declared is a program error
// (std::logic_error).
class Params {
 public:
  // Checks `spec` and everything under it against `table` before any read,
  // so no branch a reader takes skips a check: at each object, keys outside
  // the table fail naming the valid ones; then every present value is type-
  // and range-checked, sub-objects and list items included, all in
  // declaration order. `table` must outlive this Params and its children.
  Params(Spec spec, const std::vector<ParamDoc>& table);
  Params(Spec spec, std::vector<ParamDoc>&& table) = delete;

  [[nodiscard]] const std::string& path() const { return spec_.path(); }
  [[nodiscard]] bool has(const std::string& key) const {
    return spec_.has(key);
  }

  [[nodiscard]] double number(const std::string& key,
                              std::optional<double> fallback = {}) const;
  [[nodiscard]] long integer(const std::string& key,
                             std::optional<long> fallback = {},
                             std::optional<long> max = {}) const;
  [[nodiscard]] bool flag(const std::string& key) const;
  // Throws SpecError when absent and the row has no default.
  [[nodiscard]] std::string text(
      const std::string& key, std::optional<std::string> fallback = {}) const;
  [[nodiscard]] std::vector<double> numbers(const std::string& key) const;
  [[nodiscard]] std::vector<std::string> texts(const std::string& key) const;

  // The sub-object at `key` (empty when absent); the items of the object
  // list at `key`.
  [[nodiscard]] Params child(const std::string& key) const;
  [[nodiscard]] std::vector<Params> items(const std::string& key) const;

 private:
  Params(Spec spec, const std::vector<ParamDoc>* table, std::string prefix);

  [[nodiscard]] const ParamDoc& row(const std::string& key,
                                    ParamDoc::Kind kind,
                                    bool computed_default = false,
                                    bool computed_bound = false) const;

  Spec spec_;
  const std::vector<ParamDoc>* table_;
  std::string prefix_;  // row-name prefix of this object ("regions[i].")
};

}  // namespace sustainai::scenario
