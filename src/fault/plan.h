// Deterministic fault injection (paper Appendix B: silent data corruption
// and hardware failures change the carbon calculus of ML infrastructure).
//
// A FaultPlan is a seeded schedule of fault events drawn from configurable
// mean rates. Each fault kind draws its inter-arrival times from its own
// Rng::fork stream, and the plan is generated serially up front, so a fixed
// seed yields a byte-identical fault sequence at any SUSTAINAI_THREADS.
// Simulators consume the plan read-only; all randomness lives here.
#pragma once

#include <cstdint>
#include <vector>

#include "core/units.h"

namespace sustainai::fault {

enum class FaultKind {
  kHostCrash = 0,        // a server goes down and must re-warm
  kJobPreemption = 1,    // a queued-and-running job is evicted
  kSilentCorruption = 2, // SDC detected in training: roll back to checkpoint
  kGridDataGap = 3,      // carbon-intensity feed drops out
};
inline constexpr int kNumFaultKinds = 4;

[[nodiscard]] const char* to_string(FaultKind kind);

// Mean event rates (per simulated day) plus outage shapes. All rates zero
// means fault injection is disabled and simulators take their fault-free
// code paths untouched.
struct FaultRates {
  double host_crash_per_day = 0.0;
  double preemption_per_day = 0.0;
  double sdc_per_day = 0.0;
  double grid_gap_per_day = 0.0;
  Duration crash_rewarm = hours(1.0);  // host outage + re-warm length
  Duration gap_duration = hours(2.0);  // intensity-feed gap length

  [[nodiscard]] bool any() const;
  [[nodiscard]] double rate_per_day(FaultKind kind) const;
};

struct FaultEvent {
  FaultKind kind = FaultKind::kHostCrash;
  Duration time;            // when the fault strikes
  Duration duration;        // outage length (zero for instantaneous faults)
  std::uint64_t target = 0; // deterministic victim selector

  [[nodiscard]] bool operator==(const FaultEvent& other) const;
};

class FaultPlan {
 public:
  FaultPlan() = default;  // empty plan: no faults
  FaultPlan(const FaultRates& rates, Duration horizon, std::uint64_t seed);
  // A plan of the given events over `horizon`, put in the plan order (by
  // time, ties by kind then target). For tests that need hand-placed
  // events: overlaps, events at step 0 or past the horizon, zero length.
  FaultPlan(std::vector<FaultEvent> events, Duration horizon);

  [[nodiscard]] const std::vector<FaultEvent>& events() const {
    return events_;
  }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] Duration horizon() const { return horizon_; }

  // Events of one kind, in time order.
  [[nodiscard]] std::vector<FaultEvent> events_of(FaultKind kind) const;
  [[nodiscard]] long count(FaultKind kind) const;

  // Observed (not configured) event rate over the horizon, in events/day.
  [[nodiscard]] double measured_rate_per_day(FaultKind kind) const;

 private:
  Duration horizon_ = seconds(0.0);
  std::vector<FaultEvent> events_;
};

}  // namespace sustainai::fault
