// Grid carbon-intensity models.
//
// The paper's operational-carbon methodology (Section III-A) multiplies
// measured energy by a *location-based* grid carbon intensity and a
// datacenter PUE, then optionally nets out renewable-energy purchases
// (*market-based* accounting, Facebook's 100% renewable matching).
//
// For carbon-aware scheduling experiments (Section IV-C) we additionally
// model *time-varying* intensity driven by intermittent solar/wind
// generation: the grid is a blend of a fossil marginal source and
// carbon-free sources whose availability varies over the day.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/units.h"

namespace sustainai {

// A named electricity grid with location-based average statistics.
struct GridProfile {
  std::string name;
  // Location-based average emission factor used for bulk accounting.
  CarbonIntensity average;
  // Average share of generation that is carbon-free (renewables + nuclear).
  double carbon_free_fraction = 0.0;
  // Emission factor of the marginal fossil mix dispatched when carbon-free
  // generation is unavailable. average ~= marginal * (1 - carbon_free).
  CarbonIntensity fossil_marginal;
};

// Canonical grid profiles (public per-region averages, approximate).
namespace grids {
GridProfile us_average();       // ~ 429 g/kWh, 38% carbon-free
GridProfile us_midwest_coal();  // ~ 650 g/kWh, 15% carbon-free
GridProfile us_west_solar();    // ~ 250 g/kWh, 55% carbon-free, solar-heavy
GridProfile nordic_hydro();     // ~  30 g/kWh, 95% carbon-free
GridProfile asia_pacific();     // ~ 550 g/kWh, 25% carbon-free
GridProfile hydro_quebec();     // ~   2 g/kWh, ~100% carbon-free

// Every canonical profile, in catalog order.
[[nodiscard]] const std::vector<GridProfile>& all();
// Lookup by GridProfile::name; nullopt when unknown.
[[nodiscard]] std::optional<GridProfile> by_name(const std::string& name);
// Comma-separated catalog names for error messages and listings.
[[nodiscard]] std::string known_names();
}  // namespace grids

// Market-based netting: `coverage` in [0,1] is the fraction of consumption
// matched by procured carbon-free energy (Facebook matches 100%).
CarbonMass market_based(CarbonMass location_based, double coverage);

// Time-varying grid intensity with intermittent renewables.
//
// Carbon-free availability at time t (seconds since local midnight of day 0)
// is solar(t) * solar_share + wind(t) * wind_share + firm_share, clamped to
// [0,1]; intensity(t) = fossil_marginal * (1 - availability(t)).
//
// Solar follows a half-sine between sunrise and sunset; wind is a smooth,
// seed-deterministic pseudo-random process (sum of incommensurate
// sinusoids), so the series is a pure function of (seed, t) and is fully
// reproducible for scheduler tests.
class IntermittentGrid {
 public:
  struct Config {
    GridProfile profile;
    double solar_share = 0.0;  // peak solar contribution to availability
    double wind_share = 0.0;   // mean wind contribution to availability
    double firm_share = 0.0;   // always-on carbon-free (hydro/nuclear)
    double sunrise_hour = 6.0;
    double sunset_hour = 18.0;
    std::uint64_t seed = 42;
  };

  explicit IntermittentGrid(Config config);

  // Instantaneous carbon-free availability in [0, 1].
  [[nodiscard]] double carbon_free_availability(Duration t) const;

  // Instantaneous grid carbon intensity.
  [[nodiscard]] CarbonIntensity intensity_at(Duration t) const;

  // Mean intensity over [start, start+window], trapezoidal with `steps`.
  [[nodiscard]] CarbonIntensity mean_intensity(Duration start, Duration window,
                                               int steps = 64) const;

  // Decomposed evaluation, for batch fast paths (see core/intensity_table.h):
  // intensity_at(t) == intensity_from_terms(
  //     solar_term(fmod(to_seconds(t), kSecondsPerDay)),
  //     wind_term(to_seconds(t))).
  // The solar term depends on t only through the second-of-day, so it can be
  // cached per day-slot; the wind term is the expensive harmonic sum.
  [[nodiscard]] double solar_term(double seconds_of_day) const;
  [[nodiscard]] double wind_term(double seconds) const;
  // out[j] = wind_term(seconds[j]) for j in [0, n), bit for bit. Each
  // harmonic runs over the whole batch before the next, so consecutive sin
  // arguments advance by one step of one harmonic (DESIGN.md §6).
  void wind_terms(const double* seconds, long n, double* out) const;
  [[nodiscard]] CarbonIntensity intensity_from_terms(double solar,
                                                     double wind) const;

  [[nodiscard]] const GridProfile& profile() const { return config_.profile; }
  // The wind harmonics' angular frequencies (rad/s) and phases, in harmonic
  // order: everything wind_term reads. Grids whose vectors are equal bit
  // for bit have bit-identical wind terms at every time.
  [[nodiscard]] const std::vector<double>& wind_freq() const { return wind_freq_; }
  [[nodiscard]] const std::vector<double>& wind_phase() const { return wind_phase_; }

 private:
  [[nodiscard]] double solar_availability(Duration t) const;
  [[nodiscard]] double wind_availability(Duration t) const;
  [[nodiscard]] double availability_from_terms(double solar, double wind) const;

  Config config_;
  // Subexpressions of the availability model hoisted out of the per-call
  // helpers: daylight span and the wind mean weight.
  double daylight_hours_ = 12.0;
  double wind_mean_weight_ = 0.0;  // wind_share * 2.0
  // Seed-derived phases/frequencies for the wind process.
  std::vector<double> wind_phase_;
  std::vector<double> wind_freq_;
};

}  // namespace sustainai
