#include "oracles/json_reference.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "core/check.h"

namespace sustainai::oracles {

std::string reference_shortest_double(double value) {
  check_arg(std::isfinite(value), "shortest_double: value must be finite");
  if (value == std::floor(value) && std::fabs(value) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", value);
    return buf;
  }
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) {
      break;
    }
  }
  return buf;
}

}  // namespace sustainai::oracles
