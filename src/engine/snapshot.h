// Snapshot primitives shared by every checkpointable simulator.
//
// A snapshot is a canonical-JSON document carrying a versioned `schema`
// string and an FNV-1a `config_digest` over every result-affecting config
// parameter, so a checkpoint written by one run can never silently resume a
// differently-configured one. These helpers used to live privately inside
// planet_sim.cc; they are the single implementation now (DESIGN.md §11) —
// fleet, planet, and queue checkpoints all build on them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>

#include "report/json.h"

namespace sustainai::engine {

// 64-bit FNV-1a over `data` (offset basis 1469598103934665603, prime
// 1099511628211) — tiny, dependency-free, and stable across platforms.
// Feeding the result back as `h` continues the hash, so
// fnv1a(b, fnv1a(a)) == fnv1a(a + b).
inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ULL;
[[nodiscard]] std::uint64_t fnv1a(std::string_view data,
                                  std::uint64_t h = kFnvOffsetBasis);

// 16 lowercase hex characters of `bits`.
[[nodiscard]] std::string hex64(std::uint64_t bits);

// Accumulates config fields into a '|'-separated byte string and digests
// it. Doubles render via report::shortest_double, so the digest input is a
// value-faithful image of the config: any result-affecting change — however
// small — flips the hex.
class ConfigDigest {
 public:
  ConfigDigest() { data_.reserve(512); }

  ConfigDigest& add_double(double v);
  ConfigDigest& add_long(long v);
  ConfigDigest& add_string(const std::string& s);

  [[nodiscard]] std::string hex() const { return hex64(fnv1a(data_)); }

 private:
  std::string data_;
};

// Thrown when a snapshot's config_digest does not match the parsing
// simulator's. A subclass of std::invalid_argument (the historical type for
// checkpoint rejection) so callers that only care about "bad checkpoint"
// keep working, while the CLI can tell a digest mismatch apart from a
// corrupt file and say so.
class SnapshotDigestMismatch : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

// The required-member dance every parse_checkpoint repeats per field.
// `context` prefixes the error message (e.g. "planet checkpoint").
[[nodiscard]] const report::JsonValue& require_member(
    const report::JsonValue& object, std::string_view key,
    const char* context);
[[nodiscard]] double require_number(const report::JsonValue& object,
                                    std::string_view key, const char* context);
// A number that must be integral; returns it as long.
[[nodiscard]] long require_integer(const report::JsonValue& object,
                                   std::string_view key, const char* context);

// Writes the `schema` + `config_digest` members into `root`.
void write_envelope(report::JsonValue& root, const char* schema,
                    const std::string& digest);

// Validates the envelope of a parsed snapshot: root must be an object with
// the expected schema string and config digest. Throws std::invalid_argument
// on a structural/schema problem and SnapshotDigestMismatch when only the
// digest disagrees.
void check_envelope(const report::JsonValue& value, const char* schema,
                    const std::string& digest, const char* context);
// The same for a simulator that reads several schema versions; returns the
// index in `schemas` of the one the snapshot carries.
std::size_t check_envelope(const report::JsonValue& value,
                           std::initializer_list<const char*> schemas,
                           const std::string& digest, const char* context);

}  // namespace sustainai::engine
