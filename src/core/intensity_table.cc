#include "core/intensity_table.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/check.h"
#include "core/day_slots.h"

namespace sustainai {
namespace {

constexpr long kMinGrowth = 1024;
constexpr std::size_t kMaxMemoEntries = 1u << 20;
// Points fill_values evaluates per harmonic pass: two 2 KiB stack arrays.
constexpr long kFillBlock = 256;

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

}  // namespace

IntensityTable::IntensityTable(const IntermittentGrid& grid, Duration start,
                               Duration step)
    : grid_(grid),
      start_s_(to_seconds(start)),
      step_s_(to_seconds(step)),
      solar_day_(step_s_),
      whole_seconds_(solar_day_.period() > 0 && start_s_ >= 0.0 &&
                     std::floor(start_s_) == start_s_ &&
                     std::floor(step_s_) == step_s_) {
  check_arg(step_s_ > 0.0, "IntensityTable: step must be positive");
  for (long k = 0; k < solar_day_.period(); ++k) {
    const double t_s = start_s_ + step_s_ * static_cast<double>(k);
    solar_day_.get(k, std::fmod(t_s, kSecondsPerDay),
                   [this](double sec) { return grid_.solar_term(sec); });
  }
}

void IntensityTable::extend(long n) const {
  const long have = built();
  if (n <= have) {
    return;
  }
  values_.resize(static_cast<std::size_t>(n));
  fill_values(have, n, values_.data() + have);
}

void IntensityTable::fill_values(long begin, long end, double* out) const {
  const FillTarget target{this, end, out};
  fill_values_shared(begin, {&target, 1});
}

void IntensityTable::fill_values_shared(long begin,
                                        std::span<const FillTarget> targets) {
  check_arg(begin >= 0, "IntensityTable::fill_values: begin must be >= 0");
  long end = begin;
  for (const FillTarget& target : targets) {
    check_arg(target.end >= begin,
              "IntensityTable::fill_values: end must be >= begin");
    check_arg(target.table == targets.front().table ||
                  target.table->shares_wind(*targets.front().table),
              "IntensityTable::fill_values_shared: every table must share "
              "the first's grid times and wind harmonics");
    end = std::max(end, target.end);
  }
  if (end == begin) {
    return;
  }
  // A block at a time: each point's t once, then every wind harmonic over
  // the whole block (IntermittentGrid::wind_terms), then each target's own
  // solar term and blend per point, up to that target's end. The same
  // doubles as intensity_at(t_k) at any block edge, so any split of
  // [begin, end) still fills the same values.
  //
  // With a whole-second start >= 0 and step and every t_k below 2^53, t_k
  // is an exact integer and differs from t_{k % period} by whole days, so
  // slot k % period holds exactly k's second-of-day: it is read without
  // the fmod that would confirm it. Otherwise DaySlotCache::lookup checks.
  const IntensityTable& lead = *targets.front().table;
  const long period = lead.solar_day_.period();
  double t[kFillBlock];
  double wind[kFillBlock];
  for (long b = begin; b < end; b += kFillBlock) {
    const long n = std::min(kFillBlock, end - b);
    for (long j = 0; j < n; ++j) {
      t[j] = lead.start_s_ + lead.step_s_ * static_cast<double>(b + j);
    }
    lead.grid_.wind_terms(t, n, wind);
    for (const FillTarget& target : targets) {
      const long count = std::min(n, target.end - b);
      if (count <= 0) {
        continue;
      }
      const IntensityTable& table = *target.table;
      const IntermittentGrid& grid = table.grid_;
      double* block = target.out + (b - begin);
      const bool exact_slots =
          table.whole_seconds_ &&
          table.start_s_ + table.step_s_ * static_cast<double>(target.end - 1) <
              0x1p53;
      if (exact_slots) {
        long slot = b % period;
        for (long j = 0; j < count; ++j) {
          block[j] =
              grid.intensity_from_terms(table.solar_day_.slot_value(slot),
                                        wind[j])
                  .base();
          if (++slot == period) {
            slot = 0;
          }
        }
      } else {
        for (long j = 0; j < count; ++j) {
          const double solar = table.solar_day_.lookup(
              b + j, std::fmod(t[j], kSecondsPerDay),
              [&grid](double sec) { return grid.solar_term(sec); });
          block[j] = grid.intensity_from_terms(solar, wind[j]).base();
        }
      }
    }
  }
}

bool IntensityTable::shares_wind(const IntensityTable& other) const {
  const auto same_bits = [](const std::vector<double>& a,
                            const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin(), [](double x, double y) {
             return bits_of(x) == bits_of(y);
           });
  };
  return bits_of(start_s_) == bits_of(other.start_s_) &&
         bits_of(step_s_) == bits_of(other.step_s_) &&
         same_bits(grid_.wind_freq(), other.grid_.wind_freq()) &&
         same_bits(grid_.wind_phase(), other.grid_.wind_phase());
}

std::size_t IntensityTable::bytes() const {
  return values_.capacity() * sizeof(double) + solar_day_.bytes() +
         memo_.size() * (sizeof(std::uint64_t) + sizeof(double));
}

void IntensityTable::prebuild(long n) { extend(n); }

CarbonIntensity IntensityTable::at_index(long k) const {
  check_arg(k >= 0, "IntensityTable: index must be >= 0");
  if (k >= built()) {
    // Geometric growth: a caller walking the grid one step at a time pays
    // amortized O(1) per lookup, not a reallocation per step.
    extend(std::max({k + 1, 2 * built(), kMinGrowth}));
  }
  return CarbonIntensity::from_base(values_[static_cast<std::size_t>(k)]);
}

CarbonIntensity IntensityTable::intensity_at(Duration t) const {
  const double t_s = to_seconds(t);
  const double index = (t_s - start_s_) / step_s_;
  // On-grid and within one doubling of the built range: serve from the
  // table. The exact equality check makes the value the same double
  // intensity_at(t) would produce.
  const double reach = static_cast<double>(2 * built() + kMinGrowth);
  if (index >= 0.0 && index < reach) {
    const long k = std::lround(index);
    if (start_s_ + step_s_ * static_cast<double>(k) == t_s) {
      return at_index(k);
    }
  }
  const std::uint64_t key = bits_of(t_s);
  if (const auto it = memo_.find(key); it != memo_.end()) {
    return CarbonIntensity::from_base(it->second);
  }
  const double value = grid_.intensity_at(t).base();
  if (memo_.size() >= kMaxMemoEntries) {
    memo_.clear();
  }
  memo_.emplace(key, value);
  return CarbonIntensity::from_base(value);
}

CarbonIntensity IntensityTable::mean_intensity(Duration start, Duration window,
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

std::vector<CarbonIntensity> IntensityTable::series(long n) const {
  check_arg(n >= 0, "IntensityTable::series: n must be >= 0");
  extend(n);
  std::vector<CarbonIntensity> out;
  out.reserve(static_cast<std::size_t>(n));
  for (long k = 0; k < n; ++k) {
    out.push_back(CarbonIntensity::from_base(values_[static_cast<std::size_t>(k)]));
  }
  return out;
}

}  // namespace sustainai
