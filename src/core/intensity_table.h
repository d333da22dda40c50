// Precomputed carbon-intensity tables on a fixed time grid (DESIGN.md §6;
// tests/intensity_table_test.cc).
//
// IntensityTable serves IntermittentGrid::intensity_at on the fixed grid
// t_k = start + step * k. Every value is computed with the same
// floating-point expression tree as intensity_at(t_k), so lookups are
// bit-identical to direct evaluation. Off-grid timestamps fall back to the
// grid behind a bit-cast-keyed memo.
//
// The table fills in independent index ranges, each with its own day-slot
// cache (core/day_slots.h). A slot is reused only on an exact
// second-of-day match, so every split of the range yields the same doubles
// and a caller may run the ranges concurrently (prebuild's RangeRunner).
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "core/carbon_intensity.h"
#include "core/units.h"

namespace sustainai {

class IntensityTable {
 public:
  // Throws std::invalid_argument unless step > 0. The grid is copied, so the
  // table never dangles when its owner moves.
  IntensityTable(const IntermittentGrid& grid, Duration start, Duration step);

  // Calls fill(b, e) over ranges [b, e) that cover [begin, end) exactly
  // once, in any order and on any threads. `fill` writes only its range.
  using RangeRunner = std::function<void(
      long begin, long end, const std::function<void(long, long)>& fill)>;

  // Ensures the first n grid points are materialized. The new points
  // [built(), n) are filled through `ranges`; empty fills them serially.
  void prebuild(long n, const RangeRunner& ranges = {});
  [[nodiscard]] long built() const { return static_cast<long>(values_.size()); }
  // Contiguous base-unit intensities for [0, built()). Invalidated by any
  // call that extends the table.
  [[nodiscard]] const double* raw() const { return values_.data(); }

  // Intensity at grid point k >= 0, extending the table geometrically when
  // k is past the end.
  [[nodiscard]] CarbonIntensity at_index(long k) const;
  // Intensity at any time: on-grid timestamps read the table, others the
  // memo. Const so const simulators can call it; the table is not
  // thread-safe while it extends.
  [[nodiscard]] CarbonIntensity intensity_at(Duration t) const;
  // Bit-identical to IntermittentGrid::mean_intensity.
  [[nodiscard]] CarbonIntensity mean_intensity(Duration start, Duration window,
                                               int steps = 64) const;
  [[nodiscard]] std::vector<CarbonIntensity> series(long n) const;

  [[nodiscard]] const IntermittentGrid& grid() const { return grid_; }

 private:
  void extend(long n, const RangeRunner& ranges = {}) const;
  void fill(long begin, long end) const;

  IntermittentGrid grid_;
  double start_s_ = 0.0;
  double step_s_ = 0.0;
  mutable std::vector<double> values_;
  mutable std::unordered_map<std::uint64_t, double> memo_;
};

}  // namespace sustainai
