#include "oracles/fleet_reference.h"

#include <algorithm>
#include <utility>

#include "core/carbon_intensity.h"
#include "core/check.h"
#include "core/intensity_cache.h"
#include "core/units.h"

namespace sustainai::oracles {
namespace {

using datacenter::AutoScaler;
using datacenter::FleetPartial;
using datacenter::FleetRegion;
using datacenter::FleetStepInputs;
using datacenter::kStepLanes;
using datacenter::ServerGroup;

// Accumulator sections, in FleetPartial's order.
enum Section : std::size_t {
  kGroupEnergy = 0,
  kUtilWeight = 1,
  kFreedHours = 2,
  kOppEnergy = 3,
  kOppHours = 4,
  kLocationG = 5,
  kFaultWasted = 6,
  kFaultLost = 7,
};

// One (group, chunk) set of lane accumulators: kSections quantities wide.
struct GroupLanes {
  double lane[FleetPartial::kSections][kStepLanes] = {};

  void add(std::size_t q, int l, double v) { lane[q][l] += v; }
};

// Rule 2 of the contract: every section's lanes reduce in ascending lane
// order into group g's slot of `out`.
void flush_group(const GroupLanes& lanes, FleetPartial& out, std::size_t g) {
  double* const sections[FleetPartial::kSections] = {
      out.group_energy_j(), out.util_weight(), out.freed_hours(),
      out.opp_energy_j(),   out.opp_hours(),   out.location_g(),
      out.fault_wasted_j(), out.fault_lost_hours()};
  for (std::size_t q = 0; q < FleetPartial::kSections; ++q) {
    double total = 0.0;
    for (int l = 0; l < kStepLanes; ++l) {
      total += lanes.lane[q][l];
    }
    sections[q][g] += total;
  }
}

// Per-step intensities straight from the grid model: the step index each
// step reads (a grid-data gap holds the last pre-gap reading), shifted by
// the region's UTC offset.
std::vector<double> direct_lane(const FleetRegion& region,
                                const DenseFaultProjection& projection) {
  const FleetRegion::Run& run = region.run();
  const IntermittentGrid grid(region.config().grid);
  std::vector<double> lane(static_cast<std::size_t>(run.steps));
  for (long s = 0; s < run.steps; ++s) {
    const auto i = static_cast<std::size_t>(s);
    const long k = (projection.any_gap() ? projection.intensity_remap[i] : s) +
                   region.offset_steps();
    lane[i] =
        grid.intensity_at(seconds(run.step_s * static_cast<double>(k))).base();
  }
  return lane;
}

// Per-step intensities as production reads them: the region's table in one
// window over the horizon plus the offset, then the gap runs' held values.
std::vector<double> table_lane(const FleetRegion& region) {
  const long steps = region.run().steps;
  IntensityWindow window;
  window.values.resize(static_cast<std::size_t>(steps + region.offset_steps()));
  region.table()->table.fill_values(0, steps + region.offset_steps(),
                                    window.values.data());
  const FleetStepInputs in = region.inputs(window);
  std::vector<double> lane(in.intensity, in.intensity + steps);
  if (in.held != nullptr) {
    for (const datacenter::HeldRun& run : *in.held) {
      std::fill(lane.begin() + run.begin, lane.begin() + run.end, run.value);
    }
  }
  return lane;
}

}  // namespace

ReferenceFleet::ReferenceFleet(const FleetRegion& region, long steps_per_chunk,
                               LaneSource source)
    : region_(region),
      steps_per_chunk_(steps_per_chunk),
      scaler_(region.run().autoscaler),
      faults_(dense_project_faults(region.plan(), region.cluster(),
                                   region.run().steps, region.run().step_s)) {
  check_arg(steps_per_chunk >= 1, "ReferenceFleet: steps_per_chunk must be >= 1");
  lane_ = source == LaneSource::kDirect ? direct_lane(region, faults_)
                                        : table_lane(region);
}

// The original object-based step math, step-outer / group-inner, with the
// accumulators replaced by the lane contract: the executable specification
// the SoA kernel is tested against byte for byte.
FleetPartial ReferenceFleet::chunk(std::size_t begin, std::size_t end) const {
  const FleetRegion::Run& run = region_.run();
  const auto& groups = region_.cluster().groups();
  const std::size_t num_groups = groups.size();
  FleetPartial out(num_groups);
  std::vector<GroupLanes> lanes(num_groups);

  const double step_s = run.step_s;
  const Duration step = seconds(step_s);
  const bool any_down = faults_.any_down();
  const double pue = region_.config().pue;

  for (std::size_t s = begin; s < end; ++s) {
    const int l = static_cast<int>((s - begin) % kStepLanes);
    const Duration now = seconds(step_s * static_cast<double>(s));
    const double intensity = lane_[s];
    for (std::size_t i = 0; i < num_groups; ++i) {
      const ServerGroup& g = groups[i];
      if (g.count == 0) {
        continue;
      }
      const double demand = g.load.utilization_at(now);
      // Crashed hosts drop out of capacity; the surviving hosts absorb the
      // displaced load, capped at full utilization.
      const int down_now = any_down ? faults_.down[i][s] : 0;
      int active_count = g.count;
      double active_demand = demand;
      if (down_now > 0) {
        active_count = g.count - down_now;
        active_demand =
            active_count > 0
                ? std::min(1.0, demand * static_cast<double>(g.count) /
                                    static_cast<double>(active_count))
                : 0.0;
        lanes[i].add(kFaultLost, l, down_now * step_s / kSecondsPerHour);
      }
      Energy group_energy = joules(0.0);
      double recorded_util = active_demand;

      if (active_count > 0 && g.autoscalable && run.enable_autoscaler) {
        const AutoScaler::Decision d = scaler_.step(active_count, active_demand);
        group_energy =
            g.sku.energy(d.active_utilization, d.active_utilization, step) *
            static_cast<double>(d.active_servers);
        recorded_util = d.active_utilization;
        lanes[i].add(kFreedHours, l, d.freed_servers * step_s / kSecondsPerHour);
        if (run.opportunistic_training && d.freed_servers > 0) {
          const Energy opp =
              g.sku.energy(run.opportunistic_utilization,
                           run.opportunistic_utilization, step) *
              static_cast<double>(d.freed_servers);
          lanes[i].add(kOppEnergy, l, to_joules(opp));
          lanes[i].add(kOppHours, l, d.freed_servers * step_s / kSecondsPerHour);
          group_energy += opp;
        }
      } else if (active_count > 0) {
        group_energy = g.sku.energy(active_demand, active_demand, step) *
                       static_cast<double>(active_count);
      }
      if (down_now > 0) {
        // Re-warming hosts idle-draw without doing work: pure waste.
        const Energy rewarm =
            g.sku.energy(0.0, 0.0, step) * static_cast<double>(down_now);
        group_energy += rewarm;
        lanes[i].add(kFaultWasted, l, to_joules(rewarm));
      }

      lanes[i].add(kGroupEnergy, l, to_joules(group_energy));
      lanes[i].add(kUtilWeight, l, recorded_util);
      lanes[i].add(kLocationG, l, to_joules(group_energy * pue) * intensity);
    }
  }
  for (std::size_t i = 0; i < num_groups; ++i) {
    flush_group(lanes[i], out, i);
  }
  return out;
}

datacenter::FleetResult ReferenceFleet::run() const {
  const long steps = region_.run().steps;
  const long per_chunk =
      (steps_per_chunk_ + kStepLanes - 1) / kStepLanes * kStepLanes;
  FleetPartial total(region_.num_groups());
  for (long begin = 0; begin < steps; begin += per_chunk) {
    total.merge(chunk(static_cast<std::size_t>(begin),
                      static_cast<std::size_t>(std::min(steps, begin + per_chunk))));
  }
  return region_.summarize(total);
}

FleetRegion fleet_region(const datacenter::FleetSimulator::Config& config) {
  datacenter::FleetRegionConfig region;
  region.cluster = config.cluster;
  region.grid = config.grid;
  region.pue = config.pue;
  region.cfe_coverage = config.cfe_coverage;
  region.faults = config.faults;
  const FleetRegion::Run run = FleetRegion::Run::of(config, "ReferenceFleet");
  IntensityCache tables;
  auto table = datacenter::resolve_intensity_tables({region}, run, tables)[0];
  return FleetRegion(std::move(region), run, std::move(table));
}

datacenter::FleetResult reference_run(
    const datacenter::FleetSimulator::Config& config, LaneSource source) {
  const FleetRegion region = fleet_region(config);
  return ReferenceFleet(region, config.steps_per_chunk, source).run();
}

}  // namespace sustainai::oracles
