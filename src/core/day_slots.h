// Day-periodic slot cache (DESIGN.md §6).
//
// On a step grid t_k = start + step * k whose step divides the day exactly,
// points k and k + period share their second-of-day. A value that depends on
// t only through the second-of-day (the grid's solar term, a diurnal load)
// can then be computed once per slot and reused. A slot is reused only on an
// exact second-of-day match, so an off-grid start or rounding in
// start + step * k never changes a value: it just recomputes.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "core/units.h"

namespace sustainai {

class DaySlotCache {
 public:
  // Steps finer than a day / kMaxSlots are not cached.
  static constexpr long kMaxSlots = 1L << 20;

  explicit DaySlotCache(double step_s) : period_(period_of(step_s)) {
    slots_.resize(static_cast<std::size_t>(period_));
  }

  // Slots per day on a grid of `step_s`; 0 when the step does not divide
  // the day or is finer than a day / kMaxSlots.
  [[nodiscard]] static long period_of(double step_s) {
    const double per_day = kSecondsPerDay / step_s;
    if (!(step_s > 0.0 && per_day < 2.0 * static_cast<double>(kMaxSlots))) {
      return 0;
    }
    const long period = std::lround(per_day);
    if (period < 1 || period > kMaxSlots ||
        static_cast<double>(period) * step_s != kSecondsPerDay) {
      return 0;
    }
    return period;
  }

  // Slots per day; 0 when the step does not divide the day (no caching).
  [[nodiscard]] long period() const { return period_; }

  // f(sec_of_day) for grid point k: served from slot k % period when that
  // slot last held exactly this second-of-day, computed (and stored) else.
  template <typename F>
  double get(long k, double sec_of_day, F&& f) {
    if (period_ == 0) {
      return f(sec_of_day);
    }
    Slot& slot = slots_[static_cast<std::size_t>(k % period_)];
    if (slot.sec != sec_of_day) {
      slot.value = f(sec_of_day);
      slot.sec = sec_of_day;
    }
    return slot.value;
  }

  // The same value as get, read-only: a slot that does not hold exactly
  // this second-of-day is computed and not stored. Safe to call
  // concurrently once the slots are filled (e.g. by get over one period).
  template <typename F>
  double lookup(long k, double sec_of_day, F&& f) const {
    if (period_ == 0) {
      return f(sec_of_day);
    }
    const Slot& slot = slots_[static_cast<std::size_t>(k % period_)];
    return slot.sec == sec_of_day ? slot.value : f(sec_of_day);
  }

  // The value slot `slot` (in [0, period)) holds, unchecked: for a caller
  // that has proved its point has the second-of-day the slot was filled at.
  [[nodiscard]] double slot_value(long slot) const {
    return slots_[static_cast<std::size_t>(slot)].value;
  }

  // Forgets every slot, so the cache can serve a different f.
  void clear() { std::fill(slots_.begin(), slots_.end(), Slot{}); }

  // Bytes the slots hold.
  [[nodiscard]] std::size_t bytes() const {
    return slots_.capacity() * sizeof(Slot);
  }

 private:
  struct Slot {
    double sec = -1.0;  // seconds-of-day are >= 0, so -1 never matches
    double value = 0.0;
  };

  long period_ = 0;
  std::vector<Slot> slots_;
};

}  // namespace sustainai
