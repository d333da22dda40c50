// Test-side oracle for the fleet step kernel (DESIGN.md §6).
//
// Production runs one step kernel: the structure-of-arrays kernel of
// datacenter/fleet_kernels.h, fed from per-segment windows of the region's
// intensity table and from fault runs. This library keeps the slow paths it
// is proven against:
//
//   * the reference kernel — the original object-based step math
//     (DiurnalProfile, AutoScaler and ServerSku calls), step-outer /
//     group-inner, accumulated under the same kStepLanes lane contract and
//     reading crashes from the dense per-step projection
//     (oracles/fault_reference.h), so it must agree with the SoA kernel
//     byte for byte;
//   * the direct intensity lane — IntermittentGrid::intensity_at evaluated
//     per step through the dense gap remap, so the table lane must agree
//     with it bit for bit.
//
// The tests and bench/perf_harness link it; nothing under src/ does.
#pragma once

#include <cstddef>
#include <vector>

#include "datacenter/autoscaler.h"
#include "datacenter/fleet_kernels.h"
#include "datacenter/fleet_sim.h"
#include "oracles/fault_reference.h"

namespace sustainai::oracles {

// Where the reference reads each step's grid intensity.
enum class LaneSource {
  // IntermittentGrid::intensity_at at (remap(s) + offset) * step, the remap
  // taken from the dense projection of the region's own fault plan: no
  // intensity table and no fault runs at all.
  kDirect,
  // What the region hands the production kernel (FleetRegion::inputs): its
  // table's values in one window over the horizon, with the values its gap
  // runs hold.
  kTable,
};

// The reference run of one region. Chunks are planned as engine::ShardedRun
// plans them — steps_per_chunk rounded up to a kStepLanes multiple — and
// merged in ascending order, so run() must equal what FleetSimulator or
// PlanetSimulator returns for the same region and chunk size.
class ReferenceFleet {
 public:
  // `region` must outlive this object. The lane is built here, once.
  ReferenceFleet(const datacenter::FleetRegion& region, long steps_per_chunk,
                 LaneSource source);

  // Every chunk, merged in ascending order, folded by region.summarize.
  [[nodiscard]] datacenter::FleetResult run() const;

  // Steps [begin, end) of one chunk under the lane contract.
  [[nodiscard]] datacenter::FleetPartial chunk(std::size_t begin,
                                               std::size_t end) const;

 private:
  const datacenter::FleetRegion& region_;
  long steps_per_chunk_;
  datacenter::AutoScaler scaler_;
  DenseFaultProjection faults_;
  std::vector<double> lane_;
};

// The region FleetSimulator(config) steps: the fleet as one region at UTC
// offset 0, with its table from a private cache.
[[nodiscard]] datacenter::FleetRegion fleet_region(
    const datacenter::FleetSimulator::Config& config);

// ReferenceFleet over fleet_region(config), run once.
[[nodiscard]] datacenter::FleetResult reference_run(
    const datacenter::FleetSimulator::Config& config, LaneSource source);

}  // namespace sustainai::oracles
