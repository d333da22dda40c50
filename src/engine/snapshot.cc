#include "engine/snapshot.h"

#include "core/check.h"

namespace sustainai::engine {

std::uint64_t fnv1a(std::string_view data, std::uint64_t h) {
  for (const unsigned char c : data) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(std::uint64_t bits) {
  char hex[17];
  for (int i = 15; i >= 0; --i) {
    hex[i] = "0123456789abcdef"[bits & 0xf];
    bits >>= 4;
  }
  hex[16] = '\0';
  return std::string(hex);
}

ConfigDigest& ConfigDigest::add_double(double v) {
  report::append_shortest_double(data_, v);
  data_ += '|';
  return *this;
}

ConfigDigest& ConfigDigest::add_long(long v) {
  data_ += std::to_string(v);
  data_ += '|';
  return *this;
}

ConfigDigest& ConfigDigest::add_string(const std::string& s) {
  data_ += s;
  data_ += '|';
  return *this;
}

namespace {

// `<context>: "<key>" <what>`.
[[noreturn]] void member_error(const char* context, std::string_view key,
                               const char* what) {
  std::string message(context);
  message += ": \"";
  message += key;
  message += "\" ";
  message += what;
  throw std::invalid_argument(message);
}

}  // namespace

// Each helper builds its message only on the throwing branch: snapshot
// parsing reads tens of thousands of fields, and an eagerly concatenated
// message costs an allocation per read.
const report::JsonValue& require_member(const report::JsonValue& object,
                                        std::string_view key,
                                        const char* context) {
  const report::JsonValue* member = object.find(key);
  if (member == nullptr) {
    std::string message(context);
    message += ": missing \"";
    message += key;
    message += "\" member";
    throw std::invalid_argument(message);
  }
  return *member;
}

double require_number(const report::JsonValue& object, std::string_view key,
                      const char* context) {
  const report::JsonValue& member = require_member(object, key, context);
  if (!member.is_number()) {
    member_error(context, key, "must be a number");
  }
  return member.as_number();
}

long require_integer(const report::JsonValue& object, std::string_view key,
                     const char* context) {
  const double v = require_number(object, key, context);
  // Range first: casting a double outside long's range is undefined.
  // [-2^63, 2^63) is exactly long's range, and both bounds are doubles.
  if (!(v >= -9.223372036854775808e18 && v < 9.223372036854775808e18)) {
    member_error(context, key, "is out of range");
  }
  const long n = static_cast<long>(v);
  if (static_cast<double>(n) != v) {
    member_error(context, key, "must be an integer");
  }
  return n;
}

void write_envelope(report::JsonValue& root, const char* schema,
                    const std::string& digest) {
  root.set("schema", report::JsonValue::string(schema));
  root.set("config_digest", report::JsonValue::string(digest));
}

void check_envelope(const report::JsonValue& value, const char* schema,
                    const std::string& digest, const char* context) {
  (void)check_envelope(value, {schema}, digest, context);
}

std::size_t check_envelope(const report::JsonValue& value,
                           std::initializer_list<const char*> schemas,
                           const std::string& digest, const char* context) {
  check_arg(value.is_object(),
            std::string(context) + ": root must be an object");
  const report::JsonValue& got_schema = require_member(value, "schema", context);
  std::size_t version = 0;
  for (const char* schema : schemas) {
    if (got_schema.is_string() && got_schema.as_string() == schema) {
      break;
    }
    ++version;
  }
  check_arg(version < schemas.size(),
            std::string(context) + ": unknown schema");
  const report::JsonValue& got_digest =
      require_member(value, "config_digest", context);
  check_arg(got_digest.is_string(),
            std::string(context) + ": \"config_digest\" must be a string");
  if (got_digest.as_string() != digest) {
    throw SnapshotDigestMismatch(
        std::string(context) +
        ": config digest mismatch (snapshot belongs to a "
        "differently-configured run)");
  }
  return version;
}

}  // namespace sustainai::engine
