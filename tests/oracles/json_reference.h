// Test-side oracle for canonical JSON number text (DESIGN.md §8).
//
// Production report::shortest_double formats with std::to_chars and checks
// each candidate with std::from_chars. This oracle is the snprintf/strtod
// version it replaced, kept so the two can be compared byte for byte: the
// canonical bytes of every golden, snapshot and config digest depend on
// this text.
#pragma once

#include <string>

namespace sustainai::oracles {

// "%.0f" for integral doubles with |value| < 2^53; otherwise the first of
// "%.15g", "%.16g", "%.17g" whose strtod reads back the same double.
// `value` must be finite.
[[nodiscard]] std::string reference_shortest_double(double value);

}  // namespace sustainai::oracles
