// Capacity-constrained carbon-aware queueing (Section IV-C).
//
// The slack-window scheduler (scheduler.h) assumes unlimited machines;
// real clusters queue. This discrete-time simulator runs jobs on a fixed
// machine pool: a FIFO baseline starts jobs as machines free up, while the
// green policy additionally holds *deferrable* jobs back while the grid is
// dirty — but never beyond their slack — modeling the interplay the paper
// highlights between carbon-aware shifting and capacity over-provisioning.
//
// The simulator follows the engine checkpoint contract (DESIGN.md §11):
// start() yields a Checkpoint, advance() steps it by a bounded number of
// steps, and finalize() folds a finished Checkpoint into a result. The
// Checkpoint round-trips losslessly through canonical JSON (schema
// "sustainai-queue-checkpoint-v2", engine/snapshot.h envelope), so a run
// killed mid-flight — even with preemption faults in play — resumes in a
// fresh process to the same bytes as an uninterrupted run. A finished
// job's outcome is a sealed record: it goes to the checkpoint journal
// (engine/journal.h) once, and the live snapshot holds only the running
// and queued jobs.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "core/carbon_intensity.h"
#include "core/intensity_table.h"
#include "core/units.h"
#include "datacenter/scheduler.h"
#include "engine/journal.h"
#include "fault/recovery.h"
#include "obs/metrics.h"
#include "report/json.h"

namespace sustainai::datacenter {

enum class QueuePolicy {
  kFifo,         // start any queued job when a machine frees up
  kGreedyGreen,  // defer while intensity > threshold, within slack
};

[[nodiscard]] const char* to_string(QueuePolicy policy);

struct QueueSimConfig {
  int machines = 8;
  IntermittentGrid::Config grid;
  double pue = 1.10;
  Duration step = minutes(15.0);
  // Green policy: run while instantaneous intensity is at or below this.
  CarbonIntensity green_threshold = grams_per_kwh(250.0);
  // Safety horizon: simulation aborts (throws) if jobs cannot finish
  // within `max_horizon` — indicates an overloaded configuration.
  Duration max_horizon = days(60.0);
  // Fault injection (src/fault/): preemption events evict a running job,
  // which loses progress back to its last checkpoint, waits out an
  // exponential backoff, then re-enters the queue and re-consults the
  // scheduling policy. A job preempted more than `faults.retry.max_retries`
  // times aborts the run with fault::RetriesExhaustedError. All-zero rates
  // take the fault-free code path untouched.
  fault::FaultSpec faults;
};

struct CompletedJob {
  BatchJob job;
  Duration start;
  Duration finish;
  CarbonMass carbon;
  [[nodiscard]] Duration wait() const { return start - job.arrival; }
};

struct QueueSimResult {
  std::string policy_name;
  std::vector<CompletedJob> jobs;
  CarbonMass total_carbon;
  Duration mean_wait;
  Duration makespan;  // finish time of the last job
  // Machine-time actually used / machine-time available until makespan.
  double utilization = 0.0;
  int peak_running = 0;
  // Fault-injection outcomes; all-zero when faults are disabled.
  long preemptions = 0;
  fault::Accounting faults;
};

// Checkpointable queue simulator. Jobs must have positive duration; each
// job occupies one machine for its whole duration (non-preemptible by the
// scheduler; fault-injected preemptions evict and re-queue).
class QueueSim {
 public:
  // One machine-occupying attempt in flight.
  struct RunningJob {
    std::size_t job_index = 0;
    double remaining_s = 0.0;
    double started_s = 0.0;
    double carbon_g = 0.0;
    // Work this attempt must do (job duration minus checkpointed progress;
    // equal to the job duration when faults are disabled).
    double attempt_total_s = 0.0;
  };

  // Terminal record of a finished job (raw doubles; finalize() rebuilds
  // the typed CompletedJob from these plus the job spec).
  struct JobOutcome {
    bool completed = false;
    double start_s = 0.0;   // first machine grant (survives preemptions)
    double finish_s = 0.0;  // end of the successful attempt
    double carbon_g = 0.0;  // across all attempts
  };

  // Per-job fault-recovery state plus the wasted-work ledger. Sized to the
  // job count when faults are enabled, empty otherwise. A snapshot carries
  // only the unfinished jobs whose entries differ from the start() values.
  struct FaultState {
    std::vector<double> preserved_s;         // checkpointed progress per job
    std::vector<double> prior_carbon_g;      // carbon from preempted attempts
    std::vector<double> earliest_restart_s;  // backoff gate per job
    std::vector<double> first_start_s;       // first machine grant per job
    std::vector<int> preempt_count;
    fault::Accounting acc;
  };

  // Resumable run state: the exact simulator state after `next_step` steps.
  // `now_s` is the accumulated clock double, serialized verbatim — it is
  // NOT recomputed as next_step * step on resume, so the float fold of the
  // clock is identical to an uninterrupted run.
  struct Checkpoint {
    long next_step = 0;
    double now_s = 0.0;
    double busy_machine_s = 0.0;
    int peak_running = 0;
    std::size_t next_arrival = 0;  // jobs admitted so far
    std::size_t next_preempt = 0;  // preemption events fired so far
    std::vector<RunningJob> running;
    std::vector<std::size_t> queue;  // FIFO order of waiting job indices
    std::vector<JobOutcome> outcomes;  // one per job
    // Finished job indices in the order they finished: the journal's record
    // order. The first `journal.records` of them are in the journal prefix
    // `journal`; the rest finished since the last frame.
    std::vector<std::size_t> sealed;
    engine::JournalPrefix journal;
    FaultState faults;
  };

  // Validates the config, sorts jobs by arrival, and builds all steady-run
  // state (grid, lazily-extended intensity table, fault plan).
  QueueSim(std::vector<BatchJob> jobs, QueueSimConfig config,
           QueuePolicy policy);

  // Non-copyable/movable: the intensity table holds a reference to the
  // simulator-owned grid.
  QueueSim(const QueueSim&) = delete;
  QueueSim& operator=(const QueueSim&) = delete;

  [[nodiscard]] std::size_t job_count() const { return jobs_.size(); }
  [[nodiscard]] QueuePolicy policy() const { return policy_; }
  // Upper bound on the run's step count: the max-horizon guard throws
  // before any run exceeds it. Used to size checkpoint segment strides.
  [[nodiscard]] long steps() const {
    return static_cast<long>(to_seconds(config_.max_horizon) / step_s_) + 1;
  }

  // Fresh zeroed checkpoint at step 0.
  [[nodiscard]] Checkpoint start() const;
  // Advances `cp` by up to `max_steps` steps, stopping early when every
  // job has finished. Serial (the queue has a single timeline); throws
  // fault::RetriesExhaustedError / the max-horizon guard exactly where an
  // unsegmented run would.
  void advance(Checkpoint& cp, long max_steps) const;
  [[nodiscard]] bool done(const Checkpoint& cp) const {
    return cp.sealed.size() >= jobs_.size();
  }
  // Folds a completed checkpoint into a result.
  [[nodiscard]] QueueSimResult finalize(const Checkpoint& cp) const;

  // start + advance(all) + finalize.
  [[nodiscard]] QueueSimResult run() const;

  // Self-contained JSON snapshot of a checkpoint (schema
  // "sustainai-queue-checkpoint-v2"): the live state plus every finished
  // job's outcome inline. parse_checkpoint(value) reads it and v1
  // snapshots. The embedded config digest is checked on parse
  // (engine::SnapshotDigestMismatch), so a snapshot cannot resume a
  // differently-configured queue.
  [[nodiscard]] report::JsonValue checkpoint_json(const Checkpoint& cp) const;
  [[nodiscard]] Checkpoint parse_checkpoint(
      const report::JsonValue& value) const;

  // The journal form. seal() frames the outcomes that finished since the
  // checkpoint's journal prefix; live_json() is the v2 snapshot without
  // outcomes, naming the prefix `covers` instead. parse_checkpoint(value,
  // journal, base) reads a live snapshot on top of `base`, whose outcomes
  // up to its journal prefix are already read, taking the rest from
  // `journal` (the bytes after base's prefix; bytes past the named prefix
  // are ignored). A self-contained `value` ignores `journal` and `base`.
  [[nodiscard]] engine::SealedFrame seal(const Checkpoint& cp) const;
  [[nodiscard]] report::JsonValue live_json(
      const Checkpoint& cp, const engine::JournalPrefix& covers) const;
  [[nodiscard]] Checkpoint parse_checkpoint(const report::JsonValue& value,
                                            std::string_view journal,
                                            Checkpoint base) const;

  // FNV-1a digest over every result-affecting config parameter (machine
  // pool, grid, policy, fault block including the retry policy, and the
  // full sorted job list). Computed once, at construction.
  [[nodiscard]] const std::string& config_digest() const {
    return config_digest_;
  }

 private:
  [[nodiscard]] std::string compute_config_digest() const;
  void step_once(Checkpoint& cp, obs::Gauge& depth_gauge) const;
  // The snapshot members every form shares: envelope, scalars, running
  // and queued jobs, fault state; and their reader.
  [[nodiscard]] report::JsonValue live_members(const Checkpoint& cp) const;
  [[nodiscard]] Checkpoint parse_live(const report::JsonValue& value) const;
  // Reads an array of journal records (one per finished job) into `cp`.
  void read_outcomes(const report::JsonValue& records, Checkpoint& cp) const;

  std::vector<BatchJob> jobs_;  // sorted by arrival
  QueueSimConfig config_;
  QueuePolicy policy_;
  double step_s_ = 0.0;
  bool faults_enabled_ = false;
  IntensityTable table_;
  fault::FaultPlan plan_;
  std::vector<fault::FaultEvent> preempt_events_;
  std::string config_digest_;
};

// Jobs must have positive duration; each job occupies one machine for its
// whole duration (non-preemptible). Equivalent to QueueSim's
// start + advance(all) + finalize, byte-for-byte.
[[nodiscard]] QueueSimResult run_queue_sim(std::vector<BatchJob> jobs,
                                           const QueueSimConfig& config,
                                           QueuePolicy policy);

}  // namespace sustainai::datacenter
