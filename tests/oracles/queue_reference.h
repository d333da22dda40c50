// Test-side oracle for the queue simulator's intensity lane (DESIGN.md §6).
//
// Production QueueSim reads every step's grid intensity through its own
// IntensityTable. This oracle replays the fault-free queue timeline with
// IntermittentGrid::intensity_at evaluated directly at each step, in the
// same floating-point order as QueueSim (admission, policy decision,
// per-step energy fold, swap-and-pop retirement, job-index result fold),
// so run_queue_sim must agree with it byte for byte.
#pragma once

#include <vector>

#include "datacenter/queue_sim.h"

namespace sustainai::oracles {

// The fault-free queue run with a table-free intensity lane. Throws
// std::invalid_argument when `config.faults` is enabled (the oracle covers
// the intensity lane, not fault recovery) or on the inputs run_queue_sim
// rejects.
[[nodiscard]] datacenter::QueueSimResult reference_queue_run(
    std::vector<datacenter::BatchJob> jobs,
    const datacenter::QueueSimConfig& config, datacenter::QueuePolicy policy);

}  // namespace sustainai::oracles
