#include "fault/plan.h"

#include <algorithm>
#include <utility>

#include "core/check.h"
#include "datagen/rng.h"

namespace sustainai::fault {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kHostCrash:
      return "host_crash";
    case FaultKind::kJobPreemption:
      return "job_preemption";
    case FaultKind::kSilentCorruption:
      return "silent_corruption";
    case FaultKind::kGridDataGap:
      return "grid_data_gap";
  }
  return "unknown";
}

bool FaultRates::any() const {
  return host_crash_per_day > 0.0 || preemption_per_day > 0.0 ||
         sdc_per_day > 0.0 || grid_gap_per_day > 0.0;
}

double FaultRates::rate_per_day(FaultKind kind) const {
  switch (kind) {
    case FaultKind::kHostCrash:
      return host_crash_per_day;
    case FaultKind::kJobPreemption:
      return preemption_per_day;
    case FaultKind::kSilentCorruption:
      return sdc_per_day;
    case FaultKind::kGridDataGap:
      return grid_gap_per_day;
  }
  return 0.0;
}

bool FaultEvent::operator==(const FaultEvent& other) const {
  return kind == other.kind && to_seconds(time) == to_seconds(other.time) &&
         to_seconds(duration) == to_seconds(other.duration) &&
         target == other.target;
}

namespace {

// Deterministic global order: by time, ties broken by kind then target.
void sort_events(std::vector<FaultEvent>& events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     if (to_seconds(a.time) != to_seconds(b.time)) {
                       return to_seconds(a.time) < to_seconds(b.time);
                     }
                     if (a.kind != b.kind) {
                       return static_cast<int>(a.kind) <
                              static_cast<int>(b.kind);
                     }
                     return a.target < b.target;
                   });
}

}  // namespace

FaultPlan::FaultPlan(const FaultRates& rates, Duration horizon,
                     std::uint64_t seed)
    : horizon_(horizon) {
  check_arg(to_seconds(horizon) >= 0.0, "FaultPlan: horizon must be >= 0");
  check_arg(rates.host_crash_per_day >= 0.0 &&
                rates.preemption_per_day >= 0.0 && rates.sdc_per_day >= 0.0 &&
                rates.grid_gap_per_day >= 0.0,
            "FaultPlan: fault rates must be >= 0");
  const datagen::Rng root(seed);
  const double horizon_s = to_seconds(horizon);
  for (int k = 0; k < kNumFaultKinds; ++k) {
    const FaultKind kind = static_cast<FaultKind>(k);
    const double per_day = rates.rate_per_day(kind);
    if (per_day <= 0.0 || horizon_s <= 0.0) {
      continue;
    }
    // Poisson process: exponential inter-arrival times, one independent
    // stream per fault kind so changing one rate never reshuffles another
    // kind's schedule.
    datagen::Rng stream = root.fork(static_cast<std::uint64_t>(k));
    const double rate_per_s = per_day / kSecondsPerDay;
    Duration outage = seconds(0.0);
    if (kind == FaultKind::kHostCrash) {
      outage = rates.crash_rewarm;
    } else if (kind == FaultKind::kGridDataGap) {
      outage = rates.gap_duration;
    }
    double t = stream.exponential(rate_per_s);
    while (t < horizon_s) {
      FaultEvent event;
      event.kind = kind;
      event.time = seconds(t);
      event.duration = outage;
      event.target = stream.next_u64();
      events_.push_back(event);
      t += stream.exponential(rate_per_s);
    }
  }
  sort_events(events_);
}

FaultPlan::FaultPlan(std::vector<FaultEvent> events, Duration horizon)
    : horizon_(horizon), events_(std::move(events)) {
  check_arg(to_seconds(horizon) >= 0.0, "FaultPlan: horizon must be >= 0");
  sort_events(events_);
}

std::vector<FaultEvent> FaultPlan::events_of(FaultKind kind) const {
  std::vector<FaultEvent> out;
  for (const FaultEvent& e : events_) {
    if (e.kind == kind) {
      out.push_back(e);
    }
  }
  return out;
}

long FaultPlan::count(FaultKind kind) const {
  long n = 0;
  for (const FaultEvent& e : events_) {
    if (e.kind == kind) {
      ++n;
    }
  }
  return n;
}

double FaultPlan::measured_rate_per_day(FaultKind kind) const {
  const double horizon_days = to_seconds(horizon_) / kSecondsPerDay;
  return horizon_days > 0.0 ? static_cast<double>(count(kind)) / horizon_days
                            : 0.0;
}

}  // namespace sustainai::fault
