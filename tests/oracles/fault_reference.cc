#include "oracles/fault_reference.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/check.h"
#include "core/units.h"

namespace sustainai::oracles {

DenseFaultProjection dense_project_faults(const fault::FaultPlan& plan,
                                          const datacenter::Cluster& cluster,
                                          long steps, double step_s) {
  check_arg(steps >= 0, "dense_project_faults: steps must be >= 0");
  check_arg(step_s > 0.0, "dense_project_faults: step must be positive");
  const auto& groups = cluster.groups();
  DenseFaultProjection proj;
  if (plan.empty()) {
    return proj;
  }
  for (const fault::FaultEvent& e : plan.events()) {
    const auto first =
        static_cast<long>(std::floor(to_seconds(e.time) / step_s));
    const auto last = static_cast<long>(
        std::ceil((to_seconds(e.time) + to_seconds(e.duration)) / step_s));
    if (e.kind == fault::FaultKind::kHostCrash && !groups.empty()) {
      if (proj.down.empty()) {
        proj.down.assign(groups.size(),
                         std::vector<int>(static_cast<std::size_t>(steps), 0));
      }
      const std::size_t gi = static_cast<std::size_t>(
          e.target % static_cast<std::uint64_t>(groups.size()));
      for (long s = std::max(0L, first); s < std::min(steps, last); ++s) {
        auto& d = proj.down[gi][static_cast<std::size_t>(s)];
        d = std::min(groups[gi].count, d + 1);
      }
    } else if (e.kind == fault::FaultKind::kGridDataGap) {
      if (proj.intensity_remap.empty()) {
        proj.intensity_remap.resize(static_cast<std::size_t>(steps));
        for (long s = 0; s < steps; ++s) {
          proj.intensity_remap[static_cast<std::size_t>(s)] = s;
        }
      }
      const long hold = std::clamp(first, 0L, steps - 1);
      for (long s = std::max(0L, first); s < std::min(steps, last); ++s) {
        proj.intensity_remap[static_cast<std::size_t>(s)] =
            proj.intensity_remap[static_cast<std::size_t>(hold)];
      }
    }
  }
  return proj;
}

}  // namespace sustainai::oracles
