// Param schemas the adapters share (sims.cc) and the CLI's `estimate`,
// `schedule` and `model-card` reuse: each row table comes with the reader
// of a Params checked against it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/carbon_intensity.h"
#include "datacenter/scheduler.h"
#include "hw/spec.h"
#include "mlcycle/model_zoo.h"
#include "scenario/params.h"

namespace sustainai::scenario {

// The catalog entry named at `key`; an unknown name throws SpecError
// "<path>.<key>: unknown grid 'x'; available: ...".
[[nodiscard]] GridProfile profile_by_name(const Params& spec,
                                          const std::string& key);
[[nodiscard]] hw::DeviceSpec device_by_name(const Params& spec,
                                            const std::string& key);

// One intermittent-grid sub-object, its rows named `prefix` + key. Its seed
// defaults to `seed`.
[[nodiscard]] std::vector<ParamDoc> grid_params(const std::string& prefix);
[[nodiscard]] IntermittentGrid::Config parse_grid(const Params& grid,
                                                  std::uint64_t seed);

// A batch of identical deferrable jobs, at most `max_jobs` of them, arriving
// one per hour modulo `arrival_spread_h`; ids are `id_prefix` + index.
[[nodiscard]] std::vector<ParamDoc> job_params(long max_jobs = 100000);
[[nodiscard]] std::vector<datacenter::BatchJob> make_jobs(
    const Params& params, const std::string& id_prefix);

// The intensity the threshold policy runs jobs below.
[[nodiscard]] ParamDoc threshold_param();

// The accounting assumptions: device, grid, pue, cfe, utilization and
// fleet_utilization. The context keeps its default analysis window.
[[nodiscard]] std::vector<ParamDoc> accounting_params();
[[nodiscard]] mlcycle::AccountingContext parse_accounting(
    const Params& params);

}  // namespace sustainai::scenario
