#include "core/carbon_intensity.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"

namespace sustainai {
namespace grids {
namespace {

GridProfile make(std::string name, double avg_g_per_kwh, double carbon_free) {
  GridProfile p;
  p.name = std::move(name);
  p.average = grams_per_kwh(avg_g_per_kwh);
  p.carbon_free_fraction = carbon_free;
  const double fossil_share = std::max(1.0 - carbon_free, 1e-6);
  p.fossil_marginal = grams_per_kwh(avg_g_per_kwh / fossil_share);
  return p;
}

}  // namespace

GridProfile us_average() { return make("us-average", 429.0, 0.38); }
GridProfile us_midwest_coal() { return make("us-midwest-coal", 650.0, 0.15); }
GridProfile us_west_solar() { return make("us-west-solar", 250.0, 0.55); }
GridProfile nordic_hydro() { return make("nordic-hydro", 30.0, 0.95); }
GridProfile asia_pacific() { return make("asia-pacific", 550.0, 0.25); }
GridProfile hydro_quebec() { return make("hydro-quebec", 2.0, 0.995); }

const std::vector<GridProfile>& all() {
  static const std::vector<GridProfile> catalog = {
      us_average(),   us_midwest_coal(), us_west_solar(),
      nordic_hydro(), asia_pacific(),    hydro_quebec()};
  return catalog;
}

std::optional<GridProfile> by_name(const std::string& name) {
  for (const GridProfile& g : all()) {
    if (g.name == name) {
      return g;
    }
  }
  return std::nullopt;
}

std::string known_names() {
  std::string names;
  for (const GridProfile& g : all()) {
    if (!names.empty()) {
      names += ", ";
    }
    names += g.name;
  }
  return names;
}

}  // namespace grids

CarbonMass market_based(CarbonMass location_based, double coverage) {
  check_arg(coverage >= 0.0 && coverage <= 1.0,
            "market_based: coverage must be in [0, 1]");
  return location_based * (1.0 - coverage);
}

IntermittentGrid::IntermittentGrid(Config config) : config_(std::move(config)) {
  check_arg(config_.solar_share >= 0.0 && config_.wind_share >= 0.0 &&
                config_.firm_share >= 0.0,
            "IntermittentGrid: shares must be non-negative");
  check_arg(config_.sunrise_hour < config_.sunset_hour,
            "IntermittentGrid: sunrise must precede sunset");
  daylight_hours_ = config_.sunset_hour - config_.sunrise_hour;
  wind_mean_weight_ = config_.wind_share * 2.0;
  // Derive a deterministic set of wind harmonics from the seed (splitmix64).
  std::uint64_t s = config_.seed;
  auto next = [&s]() {
    s += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  auto uniform01 = [&next]() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  };
  constexpr int kHarmonics = 6;
  for (int i = 0; i < kHarmonics; ++i) {
    wind_phase_.push_back(uniform01() * 2.0 * M_PI);
    // Periods between ~5h and ~60h so wind varies within and across days.
    const double period_hours = 5.0 + uniform01() * 55.0;
    wind_freq_.push_back(2.0 * M_PI / (period_hours * kSecondsPerHour));
  }
}

double IntermittentGrid::solar_term(double seconds_of_day) const {
  const double hour_of_day = seconds_of_day / kSecondsPerHour;
  if (hour_of_day < config_.sunrise_hour || hour_of_day > config_.sunset_hour) {
    return 0.0;
  }
  const double x = (hour_of_day - config_.sunrise_hour) / daylight_hours_;
  return std::sin(M_PI * x);
}

double IntermittentGrid::wind_term(double seconds) const {
  // Mean 0.5, smoothly varying; rescaled into [0, 1].
  double v = 0.0;
  for (size_t i = 0; i < wind_phase_.size(); ++i) {
    v += std::sin(wind_freq_[i] * seconds + wind_phase_[i]);
  }
  v /= static_cast<double>(wind_phase_.size());  // roughly in [-1, 1]
  return std::clamp(0.5 + 0.5 * v, 0.0, 1.0);
}

void IntermittentGrid::wind_terms(const double* seconds, long n,
                                  double* out) const {
  // The same sin calls as wind_term, added to 0.0 in the same harmonic
  // order, then the same scaling: only the loop nest is swapped.
  std::fill(out, out + n, 0.0);
  for (size_t i = 0; i < wind_phase_.size(); ++i) {
    const double freq = wind_freq_[i];
    const double phase = wind_phase_[i];
    for (long j = 0; j < n; ++j) {
      out[j] += std::sin(freq * seconds[j] + phase);
    }
  }
  const double harmonics = static_cast<double>(wind_phase_.size());
  for (long j = 0; j < n; ++j) {
    const double v = out[j] / harmonics;
    out[j] = std::clamp(0.5 + 0.5 * v, 0.0, 1.0);
  }
}

double IntermittentGrid::solar_availability(Duration t) const {
  return solar_term(std::fmod(to_seconds(t), kSecondsPerDay));
}

double IntermittentGrid::wind_availability(Duration t) const {
  return wind_term(to_seconds(t));
}

double IntermittentGrid::availability_from_terms(double solar,
                                                 double wind) const {
  const double a = config_.firm_share + config_.solar_share * solar +
                   wind_mean_weight_ * wind *
                       0.5;  // wind_share is the *mean* contribution
  return std::clamp(a, 0.0, 1.0);
}

double IntermittentGrid::carbon_free_availability(Duration t) const {
  return availability_from_terms(solar_availability(t), wind_availability(t));
}

CarbonIntensity IntermittentGrid::intensity_from_terms(double solar,
                                                       double wind) const {
  const double fossil_fraction = 1.0 - availability_from_terms(solar, wind);
  return config_.profile.fossil_marginal * fossil_fraction;
}

CarbonIntensity IntermittentGrid::intensity_at(Duration t) const {
  const double t_s = to_seconds(t);
  return intensity_from_terms(solar_term(std::fmod(t_s, kSecondsPerDay)),
                              wind_term(t_s));
}

CarbonIntensity IntermittentGrid::mean_intensity(Duration start, Duration window,
                                                 int steps) const {
  check_arg(steps >= 1, "mean_intensity: steps must be >= 1");
  check_arg(to_seconds(window) > 0.0, "mean_intensity: window must be positive");
  double sum_g_per_j = 0.0;
  for (int i = 0; i <= steps; ++i) {
    const Duration t = start + window * (static_cast<double>(i) / steps);
    const double w = (i == 0 || i == steps) ? 0.5 : 1.0;
    sum_g_per_j += w * intensity_at(t).base();
  }
  return CarbonIntensity::from_base(sum_g_per_j / steps);
}

}  // namespace sustainai
