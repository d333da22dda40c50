#include "scenario/params.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace sustainai::scenario {

using report::JsonValue;
using Kind = ParamDoc::Kind;

namespace {

const ParamDoc* find_row(const std::vector<ParamDoc>& table,
                         const std::string& name) {
  const auto it = std::find_if(
      table.begin(), table.end(),
      [&](const ParamDoc& r) { return r.name == name; });
  return it == table.end() ? nullptr : &*it;
}

// Checks the object `spec`, whose rows in `table` are named `prefix` + key.
void check_object(const Spec& spec, const std::vector<ParamDoc>& table,
                  const std::string& prefix) {
  std::vector<std::string> keys;
  for (const ParamDoc& r : table) {
    if (!r.name.starts_with(prefix)) {
      continue;
    }
    const std::size_t end = r.name.find_first_of(".[", prefix.size());
    std::string key = r.name.substr(prefix.size(), end - prefix.size());
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
      keys.push_back(std::move(key));
    }
  }
  spec.allow_only(keys);
  for (const std::string& key : keys) {
    if (!spec.has(key)) {
      continue;
    }
    const ParamDoc* r = find_row(table, prefix + key);
    if (r == nullptr) {  // a sub-object, declared by its members' rows
      check_object(spec.child(key), table, prefix + key + ".");
      continue;
    }
    // A bound known only where the param is read is checked there.
    const bool ranged = r->range_doc.empty();
    const auto lo = static_cast<long>(r->min);
    switch (r->kind) {
      case Kind::kNumber:
        (void)(ranged ? spec.optional_double_in(key, r->min, r->min, r->max)
                      : spec.optional_double(key, 0.0));
        break;
      case Kind::kInt:
        (void)(ranged ? spec.optional_int_in(key, lo, lo,
                                             static_cast<long>(r->max))
                      : spec.optional_int(key, 0));
        break;
      case Kind::kBool:
        (void)spec.optional_bool(key, false);
        break;
      case Kind::kString:
        (void)spec.optional_string(key, "");
        break;
      case Kind::kNumberList:
        (void)spec.optional_number_list(key, {});
        break;
      case Kind::kStringList:
        (void)spec.optional_string_list(key, {});
        break;
      case Kind::kObjectList:
        for (const Spec& item : spec.object_list(key)) {
          check_object(item, table, prefix + key + "[i].");
        }
        break;
      case Kind::kObject:  // its reader checks its keys
        (void)spec.child(key);
        break;
    }
  }
}

}  // namespace

ParamDoc ParamDoc::number(std::string name, double fallback, double min,
                          double max, std::string description) {
  return {std::move(name), Kind::kNumber, JsonValue::number(fallback), min,
          max, std::move(description)};
}

ParamDoc ParamDoc::integer(std::string name, long fallback, long min,
                           long max, std::string description) {
  return {std::move(name), Kind::kInt,
          JsonValue::number(static_cast<double>(fallback)),
          static_cast<double>(min), static_cast<double>(max),
          std::move(description)};
}

ParamDoc ParamDoc::flag(std::string name, bool fallback,
                        std::string description) {
  return {std::move(name), Kind::kBool, JsonValue::boolean(fallback), 0.0, 0.0,
          std::move(description)};
}

ParamDoc ParamDoc::text(std::string name, std::string fallback,
                        std::string description) {
  return {std::move(name), Kind::kString,
          JsonValue::string(std::move(fallback)), 0.0, 0.0,
          std::move(description)};
}

std::string ParamDoc::type() const {
  static const char* const kNames[] = {
      "number",      "int",         "bool",        "string",
      "number list", "string list", "object list", "object"};
  return kNames[static_cast<int>(kind)];
}

std::string ParamDoc::default_text() const {
  const auto text = [](const JsonValue& v) {
    return v.is_number() ? report::shortest_double(v.as_number())
           : v.is_bool() ? std::string(v.as_bool() ? "true" : "false")
                         : report::quote_json_string(v.as_string());
  };
  if (!default_doc.empty()) {
    return default_doc;
  }
  if (fallback.is_null()) {
    return "(required)";
  }
  if (fallback.is_string()) {
    return fallback.as_string();
  }
  if (!fallback.is_array()) {
    return text(fallback);
  }
  std::string items;
  for (const JsonValue& item : fallback.items()) {
    items += (items.empty() ? "" : ", ") + text(item);
  }
  return "[" + items + "]";
}

std::string ParamDoc::range() const {
  if (!range_doc.empty()) {
    return range_doc;
  }
  if (kind == Kind::kInt) {
    return "[" + std::to_string(static_cast<long>(min)) + ", " +
           std::to_string(static_cast<long>(max)) + "]";
  }
  if (kind == Kind::kNumber) {
    return "[" + report::shortest_double(min) + ", " +
           report::shortest_double(max) + "]";
  }
  return "";
}

Params::Params(Spec spec, const std::vector<ParamDoc>& table)
    : Params(std::move(spec), &table, "") {
  check_object(spec_, table, "");
}

Params::Params(Spec spec, const std::vector<ParamDoc>* table,
               std::string prefix)
    : spec_(std::move(spec)), table_(table), prefix_(std::move(prefix)) {}

const ParamDoc& Params::row(const std::string& key, Kind kind,
                            bool computed_default, bool computed_bound) const {
  const ParamDoc* r = find_row(*table_, prefix_ + key);
  if (r == nullptr || r->kind != kind ||
      r->default_doc.empty() == computed_default ||
      (r->range_doc.empty() == computed_bound &&
       (kind == Kind::kNumber || kind == Kind::kInt))) {
    throw std::logic_error("param '" + prefix_ + key +
                           "' is read other than it is declared");
  }
  return *r;
}

double Params::number(const std::string& key,
                      std::optional<double> fallback) const {
  const ParamDoc& r = row(key, Kind::kNumber, fallback.has_value());
  return spec_.optional_double_in(
      key, fallback ? *fallback : r.fallback.as_number(), r.min, r.max);
}

long Params::integer(const std::string& key, std::optional<long> fallback,
                     std::optional<long> max) const {
  const ParamDoc& r =
      row(key, Kind::kInt, fallback.has_value(), max.has_value());
  return spec_.optional_int_in(
      key, fallback ? *fallback : static_cast<long>(r.fallback.as_number()),
      static_cast<long>(r.min), max ? *max : static_cast<long>(r.max));
}

bool Params::flag(const std::string& key) const {
  return spec_.optional_bool(key, row(key, Kind::kBool).fallback.as_bool());
}

std::string Params::text(const std::string& key,
                         std::optional<std::string> fallback) const {
  const ParamDoc& r = row(key, Kind::kString, fallback.has_value());
  if (!fallback && r.fallback.is_null()) {
    return spec_.require_string(key);
  }
  return spec_.optional_string(key, fallback ? *fallback
                                             : r.fallback.as_string());
}

std::vector<double> Params::numbers(const std::string& key) const {
  std::vector<double> fallback;
  for (const JsonValue& v : row(key, Kind::kNumberList).fallback.items()) {
    fallback.push_back(v.as_number());
  }
  return spec_.optional_number_list(key, std::move(fallback));
}

std::vector<std::string> Params::texts(const std::string& key) const {
  std::vector<std::string> fallback;
  for (const JsonValue& v : row(key, Kind::kStringList).fallback.items()) {
    fallback.push_back(v.as_string());
  }
  return spec_.optional_string_list(key, std::move(fallback));
}

Params Params::child(const std::string& key) const {
  return Params(spec_.optional_child(key), table_, prefix_ + key + ".");
}

std::vector<Params> Params::items(const std::string& key) const {
  (void)row(key, Kind::kObjectList);
  std::vector<Params> out;
  for (Spec& item : spec_.object_list(key)) {
    out.push_back(Params(std::move(item), table_, prefix_ + key + "[i]."));
  }
  return out;
}

}  // namespace sustainai::scenario
