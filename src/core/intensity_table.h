// Precomputed carbon-intensity tables on a fixed time grid (DESIGN.md §6;
// tests/intensity_table_test.cc).
//
// IntensityTable serves IntermittentGrid::intensity_at on the fixed grid
// t_k = start + step * k. Every value is computed with the same
// floating-point expression tree as intensity_at(t_k), so lookups are
// bit-identical to direct evaluation. Off-grid timestamps fall back to the
// grid behind a bit-cast-keyed memo.
//
// Every value is a pure function of its index. The table computes one day
// of solar terms once, at construction, in a day-slot cache
// (core/day_slots.h) that every fill only reads; a slot is reused only on
// an exact second-of-day match. Fills evaluate the wind harmonics in
// fixed-size blocks, harmonic by harmonic, with the same calls in the same
// add order as the per-point path. So any split of an index range yields
// the same doubles, and a caller may fill ranges of its own buffer
// concurrently (fill_values). Tables whose grids share a wind process on
// the same time grid share each block's wind pass (fill_values_shared).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/carbon_intensity.h"
#include "core/day_slots.h"
#include "core/units.h"

namespace sustainai {

// Base-unit intensities of grid points [first, first + values.size()), as
// IntensityTable::fill_values writes them.
struct IntensityWindow {
  long first = 0;
  std::vector<double> values;

  [[nodiscard]] bool holds(long begin, long end) const {
    return first <= begin &&
           end <= first + static_cast<long>(values.size());
  }
};

class IntensityTable {
 public:
  // Throws std::invalid_argument unless step > 0. The grid is copied, so the
  // table never dangles when its owner moves.
  IntensityTable(const IntermittentGrid& grid, Duration start, Duration step);

  // Ensures the first n grid points are materialized.
  void prebuild(long n);
  [[nodiscard]] long built() const { return static_cast<long>(values_.size()); }
  // Contiguous base-unit intensities for [0, built()). Invalidated by any
  // call that extends the table.
  [[nodiscard]] const double* raw() const { return values_.data(); }

  // Writes the base-unit intensities of grid points [begin, end) to
  // out[0, end - begin) without extending the table: the same doubles the
  // table holds or would hold there. Safe to call concurrently. Throws
  // std::invalid_argument, before any write, unless 0 <= begin <= end.
  void fill_values(long begin, long end, double* out) const;

  // One table's part of a shared fill: its grid points [begin, end) go to
  // out[0, end - begin), where `begin` is the fill's.
  struct FillTarget {
    const IntensityTable* table = nullptr;
    long end = 0;
    double* out = nullptr;
  };
  // fill_values for several tables at once: each target gets exactly what
  // target.table->fill_values(begin, target.end, target.out) writes, but
  // each block's times and wind terms are computed once for all of them.
  // Every table must share its wind with the first (shares_wind). Throws
  // std::invalid_argument, before any write, unless begin >= 0, every
  // target's end >= begin and the tables share their wind.
  static void fill_values_shared(long begin,
                                 std::span<const FillTarget> targets);
  // Whether this table and `other` have bit-identical grid times (start
  // and step) and wind harmonics, and so bit-identical wind terms at every
  // grid point. The seed and the grid name are not compared: they decide
  // no byte once the harmonics are known.
  [[nodiscard]] bool shares_wind(const IntensityTable& other) const;
  // Bytes the table holds: its points, the solar day and the memo.
  [[nodiscard]] std::size_t bytes() const;

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
  void extend(long n) const;

  IntermittentGrid grid_;
  double start_s_ = 0.0;
  double step_s_ = 0.0;
  // One day of solar terms, filled at construction and only read after.
  DaySlotCache solar_day_;
  // The day is cached and start >= 0 and step are whole seconds:
  // fill_values may read slots without checking them (see there).
  bool whole_seconds_ = false;
  mutable std::vector<double> values_;
  mutable std::unordered_map<std::uint64_t, double> memo_;
};

}  // namespace sustainai
