#include "report/json.h"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <string>

#include "core/operational.h"
#include "telemetry/tracker.h"

namespace sustainai::report {
namespace {

TEST(Json, SimpleObject) {
  JsonWriter json;
  json.begin_object()
      .field("name", "sustainai")
      .field("version", 1L)
      .field("pue", 1.1)
      .field("green", true)
      .end_object();
  EXPECT_EQ(json.str(),
            "{\"name\":\"sustainai\",\"version\":1,\"pue\":1.1,\"green\":true}");
}

TEST(Json, NestedStructures) {
  JsonWriter json;
  json.begin_object();
  json.begin_array("phases");
  json.begin_object().field("phase", "training").end_object();
  json.begin_object().field("phase", "inference").end_object();
  json.end_array();
  json.end_object();
  EXPECT_EQ(json.str(),
            "{\"phases\":[{\"phase\":\"training\"},{\"phase\":\"inference\"}]}");
}

TEST(Json, ArraysOfScalars) {
  JsonWriter json;
  json.begin_object();
  json.begin_array("values");
  json.element(1.5).element(2.5).element(std::string("x"));
  json.end_array();
  json.end_object();
  EXPECT_EQ(json.str(), "{\"values\":[1.5,2.5,\"x\"]}");
}

TEST(Json, EscapesSpecialCharacters) {
  JsonWriter json;
  json.begin_object().field("msg", "a\"b\\c\nd\te").end_object();
  EXPECT_EQ(json.str(), "{\"msg\":\"a\\\"b\\\\c\\nd\\te\"}");
}

TEST(Json, NonFiniteBecomesNull) {
  JsonWriter json;
  json.begin_object().field("bad", 1.0 / 0.0).end_object();
  EXPECT_EQ(json.str(), "{\"bad\":null}");
}

// JsonWriter formats numbers with std::to_chars (general, precision 10),
// which the standard defines as printf's "%.10g": trace.json's bytes
// (pinned by bundle_digest_*) depend on the two agreeing.
TEST(Json, NumbersMatchPrintfTenDigits) {
  const auto printf_text = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return std::string(buf);
  };
  long failures = 0;
  const auto check = [&](double v) {
    JsonWriter w;
    w.begin_object().field("k", v).begin_array("a").element(v).end_array();
    w.end_object();
    const std::string want = "{\"k\":" +
                             (std::isfinite(v) ? printf_text(v) : "null") +
                             ",\"a\":[" + printf_text(v) + "]}";
    if (w.str() != want && ++failures <= 10) {
      ADD_FAILURE() << "bits " << std::hex << std::bit_cast<std::uint64_t>(v)
                    << ": " << w.str() << " != " << want;
    }
  };
  std::mt19937_64 rng(10);
  for (int i = 0; i < 300'000; ++i) {
    check(std::bit_cast<double>(rng()));
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (const double v : {0.0, -0.0, 1.0, 0.1, 1e10, 9999999999.5, 1e-5,
                         123456.78901234, 5e-324, DBL_MIN, DBL_MAX, kInf,
                         -kInf, kNan, -kNan}) {
    check(v);
    check(-v);
  }
  EXPECT_EQ(failures, 0);
}

TEST(Json, UnbalancedThrows) {
  JsonWriter json;
  json.begin_object();
  EXPECT_THROW((void)json.str(), std::invalid_argument);
  JsonWriter json2;
  EXPECT_THROW((void)json2.end_object(), std::invalid_argument);
}

TEST(Json, TrackerImpactJsonIsWellFormedAndComplete) {
  telemetry::CarbonTracker tracker(
      {OperationalCarbonModel(1.1, grids::us_average(), 1.0), 0.45});
  tracker.record_device_use(Phase::kTraining, hw::catalog::nvidia_v100(), 0.5,
                            days(4.0), 8);
  tracker.record_energy(Phase::kInference, kilowatt_hours(100.0));
  const std::string json = tracker.impact_json("json-test");
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"task\":\"json-test\""), std::string::npos);
  EXPECT_NE(json.find("\"grid\":\"us-average\""), std::string::npos);
  EXPECT_NE(json.find("\"phase\":\"training\""), std::string::npos);
  EXPECT_NE(json.find("\"phase\":\"inference\""), std::string::npos);
  EXPECT_NE(json.find("\"total_kg\":"), std::string::npos);
  EXPECT_NE(json.find("\"passenger_vehicle_miles\":"), std::string::npos);
  // Balanced braces/brackets.
  long depth = 0;
  for (char ch : json) {
    if (ch == '{' || ch == '[') {
      ++depth;
    } else if (ch == '}' || ch == ']') {
      --depth;
    }
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

}  // namespace
}  // namespace sustainai::report
