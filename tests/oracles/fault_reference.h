// Test-side oracle for the fault projection (DESIGN.md §6).
//
// Production projects a fault plan onto a fleet timeline as sorted runs
// (datacenter::project_faults), sized by the plan's events. This is the
// dense per-step projection it replaced, kept as the executable
// specification the runs are proven equal to at every step
// (tests/fault_projection_test.cc) and as the reference kernel's crash and
// gap source (oracles/fleet_reference.h).
#pragma once

#include <vector>

#include "datacenter/cluster.h"
#include "fault/plan.h"

namespace sustainai::oracles {

struct DenseFaultProjection {
  // down[g][s]: hosts of group g offline (crashed, re-warming) at step s.
  // Empty when the plan contains no host crashes.
  std::vector<std::vector<int>> down;
  // intensity_remap[s]: step index whose intensity step s reads. Identity
  // except during grid data gaps, which hold the last pre-gap reading.
  // Empty when the plan contains no gaps.
  std::vector<long> intensity_remap;

  [[nodiscard]] bool any_down() const { return !down.empty(); }
  [[nodiscard]] bool any_gap() const { return !intensity_remap.empty(); }
};

[[nodiscard]] DenseFaultProjection dense_project_faults(
    const fault::FaultPlan& plan, const datacenter::Cluster& cluster,
    long steps, double step_s);

}  // namespace sustainai::oracles
