#include "scenario/spec.h"

#include <cmath>
#include <utility>

namespace sustainai::scenario {

using report::JsonValue;

Spec::Spec(std::shared_ptr<const JsonValue> root, const JsonValue* node,
           std::string path)
    : root_(std::move(root)), node_(node), path_(std::move(path)) {}

Spec Spec::parse(std::string_view text) {
  return from_value(report::parse_json(text));
}

Spec Spec::from_value(JsonValue root) {
  auto owned = std::make_shared<const JsonValue>(std::move(root));
  if (!owned->is_object()) {
    throw SpecError(std::string("$: expected an object, got ") +
                    owned->kind_name());
  }
  const JsonValue* node = owned.get();
  return Spec(std::move(owned), node, "$");
}

std::string Spec::canonical() const { return report::canonical_json(*node_); }

void Spec::fail(const std::string& at, const std::string& what) const {
  throw SpecError(at + ": " + what);
}

std::string Spec::key_path(const std::string& key) const {
  return path_ + "." + key;
}

const JsonValue* Spec::lookup(const std::string& key) const {
  return node_->find(key);
}

const JsonValue& Spec::require(const std::string& key) const {
  const JsonValue* v = lookup(key);
  if (v == nullptr) {
    fail(key_path(key), "missing required key");
  }
  return *v;
}

bool Spec::has(const std::string& key) const { return lookup(key) != nullptr; }

Spec Spec::child(const std::string& key) const {
  const JsonValue& v = require(key);
  if (!v.is_object()) {
    fail(key_path(key),
         std::string("expected an object, got ") + v.kind_name());
  }
  return Spec(root_, &v, key_path(key));
}

Spec Spec::optional_child(const std::string& key) const {
  if (!has(key)) {
    static const JsonValue kEmpty = JsonValue::object();
    return Spec(root_, &kEmpty, key_path(key));
  }
  return child(key);
}

std::vector<Spec> Spec::object_list(const std::string& key) const {
  std::vector<Spec> out;
  const JsonValue* v = lookup(key);
  if (v == nullptr) {
    return out;
  }
  if (!v->is_array()) {
    fail(key_path(key), std::string("expected an array, got ") + v->kind_name());
  }
  for (std::size_t i = 0; i < v->items().size(); ++i) {
    const JsonValue& item = v->items()[i];
    const std::string item_path = key_path(key) + "[" + std::to_string(i) + "]";
    if (!item.is_object()) {
      fail(item_path, std::string("expected an object, got ") + item.kind_name());
    }
    out.push_back(Spec(root_, &item, item_path));
  }
  return out;
}

double Spec::number_at(const std::string& key, const JsonValue& v) const {
  if (!v.is_number()) {
    fail(key_path(key), std::string("expected a number, got ") + v.kind_name());
  }
  return v.as_number();
}

long Spec::int_at(const std::string& key, const JsonValue& v) const {
  const double d = number_at(key, v);
  if (d != std::floor(d) || std::fabs(d) > 9.007199254740992e15) {
    fail(key_path(key),
         "expected an integer, got " + report::shortest_double(d));
  }
  return static_cast<long>(d);
}

double Spec::optional_double(const std::string& key, double fallback) const {
  const JsonValue* v = lookup(key);
  return v == nullptr ? fallback : number_at(key, *v);
}

double Spec::optional_double_in(const std::string& key, double fallback,
                                double min, double max) const {
  const double v = optional_double(key, fallback);
  if (v < min || v > max) {
    fail(key_path(key), report::shortest_double(v) + " is outside [" +
                            report::shortest_double(min) + ", " +
                            report::shortest_double(max) + "]");
  }
  return v;
}

long Spec::optional_int(const std::string& key, long fallback) const {
  const JsonValue* v = lookup(key);
  return v == nullptr ? fallback : int_at(key, *v);
}

long Spec::optional_int_in(const std::string& key, long fallback, long min,
                           long max) const {
  const long v = optional_int(key, fallback);
  if (v < min || v > max) {
    fail(key_path(key), std::to_string(v) + " is outside [" +
                            std::to_string(min) + ", " + std::to_string(max) +
                            "]");
  }
  return v;
}

std::string Spec::require_string(const std::string& key) const {
  const JsonValue& v = require(key);
  if (!v.is_string()) {
    fail(key_path(key), std::string("expected a string, got ") + v.kind_name());
  }
  return v.as_string();
}

std::string Spec::optional_string(const std::string& key,
                                  const std::string& fallback) const {
  const JsonValue* v = lookup(key);
  if (v == nullptr) {
    return fallback;
  }
  if (!v->is_string()) {
    fail(key_path(key), std::string("expected a string, got ") + v->kind_name());
  }
  return v->as_string();
}

bool Spec::optional_bool(const std::string& key, bool fallback) const {
  const JsonValue* v = lookup(key);
  if (v == nullptr) {
    return fallback;
  }
  if (!v->is_bool()) {
    fail(key_path(key), std::string("expected a bool, got ") + v->kind_name());
  }
  return v->as_bool();
}

std::vector<double> Spec::optional_number_list(
    const std::string& key, std::vector<double> fallback) const {
  const JsonValue* v = lookup(key);
  if (v == nullptr) {
    return fallback;
  }
  if (!v->is_array()) {
    fail(key_path(key), std::string("expected an array, got ") + v->kind_name());
  }
  std::vector<double> out;
  out.reserve(v->items().size());
  for (std::size_t i = 0; i < v->items().size(); ++i) {
    const JsonValue& item = v->items()[i];
    if (!item.is_number()) {
      fail(key_path(key) + "[" + std::to_string(i) + "]",
           std::string("expected a number, got ") + item.kind_name());
    }
    out.push_back(item.as_number());
  }
  return out;
}

std::vector<std::string> Spec::optional_string_list(
    const std::string& key, std::vector<std::string> fallback) const {
  const JsonValue* v = lookup(key);
  if (v == nullptr) {
    return fallback;
  }
  if (!v->is_array()) {
    fail(key_path(key), std::string("expected an array, got ") + v->kind_name());
  }
  std::vector<std::string> out;
  out.reserve(v->items().size());
  for (std::size_t i = 0; i < v->items().size(); ++i) {
    const JsonValue& item = v->items()[i];
    if (!item.is_string()) {
      fail(key_path(key) + "[" + std::to_string(i) + "]",
           std::string("expected a string, got ") + item.kind_name());
    }
    out.push_back(item.as_string());
  }
  return out;
}

void Spec::allow_only(const std::vector<std::string>& allowed) const {
  for (const JsonValue::Member& m : node_->members()) {
    bool known = false;
    for (const std::string& a : allowed) {
      if (m.first == a) {
        known = true;
        break;
      }
    }
    if (!known) {
      std::string names;
      for (const std::string& a : allowed) {
        if (!names.empty()) {
          names += ", ";
        }
        names += a;
      }
      fail(key_path(m.first), "unknown key; valid keys: " + names);
    }
  }
}

}  // namespace sustainai::scenario
