// Time-stepped fleet energy/carbon simulation (Section III-C, Figure 3c).
//
// Steps a Cluster through a horizon: every group follows its diurnal load;
// autoscalable tiers are consolidated by the AutoScaler and their freed
// servers optionally run opportunistic offline training; IT energy is
// inflated by PUE and converted to carbon against a time-varying grid.
//
// The horizon is simulated in fixed time chunks executed in parallel on an
// exec::ThreadPool; per-chunk partial sums follow the per-lane accumulation
// contract of datacenter/fleet_kernels.h and are merged in chunk order, so
// the result is bit-identical at any thread count (see exec/parallel.h and
// DESIGN.md). The per-region state and summary live in FleetRegion, which
// PlanetSimulator also runs on; the test-side reference kernel
// (tests/oracles/) runs on it too.
#pragma once

#include <array>
#include <cmath>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/carbon_intensity.h"
#include "core/check.h"
#include "core/intensity_cache.h"
#include "core/units.h"
#include "datacenter/autoscaler.h"
#include "datacenter/cluster.h"
#include "datacenter/fleet_kernels.h"
#include "engine/sharded_run.h"
#include "engine/snapshot.h"
#include "exec/thread_pool.h"
#include "fault/recovery.h"

namespace sustainai::datacenter {

struct FleetGroupResult {
  std::string name;
  Tier tier = Tier::kWeb;
  Energy it_energy;
  double mean_utilization = 0.0;   // time-weighted, active servers only
  double freed_server_hours = 0.0;
};

// Fault-injection outcomes; all-zero when faults are disabled.
struct FleetFaultStats {
  long host_crashes = 0;
  long sdc_events = 0;
  long grid_gaps = 0;
  long checkpoints = 0;
  double lost_server_hours = 0.0;    // capacity offline during outages
  double redone_work_hours = 0.0;    // training server-hours re-executed
  Energy wasted_energy;              // outage draw + redone training energy
  Energy checkpoint_energy;          // checkpoint overhead on training tier
  // SDC events per training-server-year observed over this horizon; feeds
  // mlcycle::optimal_age_with_detection's measured-rate overload.
  double measured_sdc_per_server_year = 0.0;
};

// One region's totals: FleetSimulator's result; PlanetSimulator's per region.
struct FleetResult {
  std::vector<FleetGroupResult> groups;
  Energy it_energy;
  Energy facility_energy;
  CarbonMass location_carbon;
  CarbonMass market_carbon;
  // Server-hours harvested for opportunistic training.
  double opportunistic_server_hours = 0.0;
  Energy opportunistic_energy;
  // IT energy per tier, summed in group order; it_energy_for reads it.
  std::array<Energy, kNumTiers> tier_it_energy{};
  FleetFaultStats faults;
  [[nodiscard]] Energy it_energy_for(Tier tier) const;
};

struct FleetRegionConfig {
  std::string name;
  Cluster cluster;
  IntermittentGrid::Config grid;
  double pue = 1.10;
  double cfe_coverage = 0.0;
  // Local solar time leads UTC by this many hours, in [0, 24). Must be a
  // whole number of steps: it shifts the diurnal peak hour of every group
  // and the region's read offset into the shared intensity table.
  double utc_offset_hours = 0.0;
  fault::FaultSpec faults;
};

// What both simulators build per region, once: the cluster shifted to the
// UTC offset, the fault plan and its runs (crash runs per group, gap runs
// with the intensity each holds), and the structure-of-arrays image. The
// per-step intensities come from a window of the region's grid table that
// the simulator fills per segment (IntensityWindows).
class FleetRegion {
 public:
  // Run-wide settings every region of one simulator shares.
  struct Run {
    Duration step;
    Duration horizon;
    double step_s = 0.0;
    long steps = 0;
    bool enable_autoscaler = true;
    AutoScaler::Config autoscaler;
    bool opportunistic_training = true;
    double opportunistic_utilization = 0.90;
    // Steps per time chunk: the config's steps_per_chunk rounded up to a
    // kStepLanes multiple, so interior chunk boundaries fall on lane blocks.
    long steps_per_chunk = 0;

    // Most bytes one demand row may take (see demand_row_len). A step that
    // is not a whole number of seconds dividing the day keeps one row entry
    // per step of the horizon, per server group: a decade at 0.6 s would
    // ask for about 4.2 GB a group. Such a run is rejected by name before
    // anything is allocated (StepRowsTooLong).
    static constexpr double kMaxDemandRowBytes = 0x1p28;  // 256 MiB

    // The run-wide half of a FleetSimulator or PlanetSimulator config,
    // validated; `who` prefixes the error messages.
    template <typename Config>
    static Run of(const Config& config, const char* who);
    void digest(engine::ConfigDigest& d) const;
  };

  // Validates `config` against `run` and returns the region's UTC offset
  // in steps. Throws std::invalid_argument naming the bad field.
  [[nodiscard]] static long check_config(const FleetRegionConfig& config,
                                         const Run& run);

  // `table` is the region's grid table on the run's step
  // (resolve_intensity_tables); the region reads it only for the values its
  // grid-data gaps hold.
  FleetRegion(FleetRegionConfig config, const Run& run,
              std::shared_ptr<const SharedIntensityTable> table);

  [[nodiscard]] const FleetRegionConfig& config() const { return config_; }
  [[nodiscard]] const Run& run() const { return run_; }
  // The cluster the region steps: the config's, diurnal peaks rebased to
  // the UTC offset.
  [[nodiscard]] const Cluster& cluster() const { return cluster_; }
  [[nodiscard]] std::size_t num_groups() const { return cluster_.groups().size(); }
  [[nodiscard]] long offset_steps() const { return offset_steps_; }
  [[nodiscard]] const SharedIntensityTable* table() const { return table_.get(); }
  [[nodiscard]] const fault::FaultPlan& plan() const { return plan_; }
  [[nodiscard]] const FleetSoA& soa() const { return soa_; }

  // The step kernel's read-only inputs for the steps `window` holds, the
  // region's offset applied: a step s of the segment reads the window at
  // s + offset_steps(). The window must outlive the returned inputs.
  [[nodiscard]] FleetStepInputs inputs(const IntensityWindow& window) const;

  // Bytes of the region's step state: demand and step rows, the chunk
  // phase table, fault runs.
  [[nodiscard]] std::size_t state_bytes() const;

  // Folds the region's partial over all steps into its result.
  [[nodiscard]] FleetResult summarize(const FleetPartial& total) const;
  // Digests the region's fault spec and cluster.
  void digest(engine::ConfigDigest& d) const;

 private:
  FleetRegionConfig config_;
  Run run_;
  Cluster cluster_;  // peak hours rebased to the region's UTC offset
  long offset_steps_ = 0;
  std::shared_ptr<const SharedIntensityTable> table_;
  FleetSoA soa_;
  ChunkPhaseSums phases_;  // filled by the chunks that read it
  fault::FaultPlan plan_;
  // The plan's crash runs per group (empty without crashes) and its gap
  // runs with the intensity each holds.
  std::vector<std::vector<DownRun>> down_;
  std::vector<HeldRun> held_;
  double train_servers_ = 0.0;
};

// Per-segment intensity windows (DESIGN.md §6). For each distinct grid
// table its regions read, the table's values over one segment's steps plus
// the largest UTC offset of those regions. Every value is a pure function
// of its index, so a window of any extent holds the doubles a horizon-long
// table would. Not thread-safe: the owning simulator fills and reads it
// under one lock.
class IntensityWindows {
 public:
  IntensityWindows() = default;
  // tables[r] and offsets[r]: region r's table and UTC offset in steps.
  // Regions on one table share its window. `pool` runs the fills (nullptr:
  // the global pool).
  IntensityWindows(const std::vector<const SharedIntensityTable*>& tables,
                   const std::vector<long>& offsets, exec::ThreadPool* pool);

  // Most bytes the windows of one segment may take together. An
  // unsegmented run holds a window per distinct grid over the whole
  // horizon: a decade of 1 s steps would ask for about 2.5 GB a grid.
  static constexpr double kMaxWindowBytes = 0x1p28;  // 256 MiB

  // Makes region r's window span steps [begin, end + offset_r) for every
  // region r. A filled window that already holds its range is kept and
  // read in place; the others are resized to start at `begin` and are
  // stale until filled. Returns whether any window is stale. Throws
  // WindowsTooLong, before any window is touched, when the windows of
  // [begin, end) (each grid's end - begin + reach points) would exceed
  // kMaxWindowBytes together.
  [[nodiscard]] bool place(long begin, long end);
  // Fills every stale window, together, in one pass over the pool. Windows
  // whose tables share a wind process (IntensityTable::shares_wind) and a
  // first point share each block's wind terms, so N grids on one seed cost
  // one harmonic sum per point, not N.
  void fill();
  // For a caller that fills stale windows from the tasks that read them:
  // fill_points writes grid points [first, last) of region r's window
  // (concurrent calls write disjoint ranges), and filled() marks every
  // window filled once all its points are.
  void fill_points(std::size_t region, long first, long last);
  void filled();
  [[nodiscard]] const IntensityWindow& of(std::size_t region) const;
  // Bytes the windows and their tables hold.
  [[nodiscard]] std::size_t bytes() const;

 private:
  struct Grid {
    const SharedIntensityTable* table = nullptr;
    long reach = 0;  // the largest offset of the regions on the table
    IntensityWindow window;
    bool stale = true;
  };
  std::vector<Grid> grids_;
  std::vector<std::size_t> grid_of_;  // region -> index into grids_
  exec::ThreadPool* pool_ = nullptr;
};

class FleetSimulator {
 public:
  struct Config {
    Cluster cluster;
    double pue = 1.10;
    IntermittentGrid::Config grid;
    double cfe_coverage = 0.0;  // market-based renewable matching
    Duration step = minutes(15.0);
    Duration horizon = days(7.0);
    bool enable_autoscaler = true;
    AutoScaler::Config autoscaler;
    // Freed web-tier servers run offline training at this utilization.
    bool opportunistic_training = true;
    double opportunistic_utilization = 0.90;
    // Parallel execution: nullptr uses exec::ThreadPool::global(). Chunk
    // boundaries depend only on `steps_per_chunk` and the horizon, never on
    // the pool size, which is what keeps the parallel run deterministic.
    exec::ThreadPool* pool = nullptr;
    long steps_per_chunk = 256;
    // Fault injection (src/fault/): host crashes drop capacity while the
    // host re-warms, grid data gaps hold the last intensity reading, and
    // SDC events charge training-tier rollback waste. All-zero rates take
    // the fault-free code path untouched, so disabled runs are bit-exact
    // with builds that predate fault injection.
    fault::FaultSpec faults;
  };

  using GroupResult = FleetGroupResult;
  using FaultStats = FleetFaultStats;
  using Result = FleetResult;

  // Resumable run state: the single time-sharded accumulator after steps
  // [0, next_step), next_step always on a chunk boundary (or the horizon
  // end). Round-trips losslessly via checkpoint_json/parse_checkpoint.
  using Checkpoint = engine::ShardState<FleetPartial>;

  // Validates the config and builds the region's state: the fault plan and
  // its runs, and the structure-of-arrays image of the cluster. Nothing
  // horizon-long is built: each advance() fills the intensity window of its
  // segment first, unless the window already holds it, so repeated run()
  // calls fill once and then run at steady cost.
  explicit FleetSimulator(Config config);

  FleetSimulator(const FleetSimulator&) = delete;
  FleetSimulator& operator=(const FleetSimulator&) = delete;

  [[nodiscard]] long steps() const { return region_.run().steps; }
  // Chunk granule checkpoint boundaries round to (the configured
  // steps_per_chunk rounded up to a kStepLanes multiple).
  [[nodiscard]] long steps_per_chunk() const { return runner_.steps_per_chunk(); }

  // Fresh zeroed checkpoint at step 0.
  [[nodiscard]] Checkpoint start() const;
  // Advances `cp` by up to `max_steps` steps (rounded up to a chunk
  // boundary, clipped to the horizon), running time chunks in parallel and
  // merging them in ascending chunk order — segmented and whole runs are
  // byte-identical (tests/resume_test.cc).
  void advance(Checkpoint& cp, long max_steps) const;
  [[nodiscard]] bool done(const Checkpoint& cp) const {
    return cp.next_step >= steps();
  }
  // Folds a completed checkpoint (next_step == steps()) into a Result.
  [[nodiscard]] Result finalize(const Checkpoint& cp) const;

  // start + advance(all) + finalize.
  [[nodiscard]] Result run() const;

  // Lossless JSON snapshot of a checkpoint (schema
  // "sustainai-fleet-checkpoint-v1"; see DESIGN.md §11). The embedded
  // config digest is checked on parse (engine::SnapshotDigestMismatch), so
  // a snapshot cannot resume a differently-configured fleet.
  [[nodiscard]] report::JsonValue checkpoint_json(const Checkpoint& cp) const;
  [[nodiscard]] Checkpoint parse_checkpoint(
      const report::JsonValue& value) const;

  // FNV-1a digest over every result-affecting config parameter. Computed
  // once, at construction.
  [[nodiscard]] const std::string& config_digest() const {
    return config_digest_;
  }

  // Bytes of the step state: demand and step rows, fault runs and the
  // intensity window with its table.
  [[nodiscard]] std::size_t state_bytes() const;

 private:
  [[nodiscard]] std::string compute_config_digest() const;

  FleetRegion region_;  // one region at UTC offset 0
  engine::ShardedRun<FleetPartial> runner_;
  std::string config_digest_;
  // Scratch that advance() fills and reads under the lock, so concurrent
  // const calls stay safe.
  mutable std::mutex windows_mu_;
  mutable IntensityWindows windows_;
};

// Thrown by FleetRegion::Run::of when the step would make a demand row
// exceed FleetRegion::Run::kMaxDemandRowBytes: an error in the step, which
// the scenario adapters report at their step param.
class StepRowsTooLong : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

// Thrown by IntensityWindows::place when a segment's windows would exceed
// IntensityWindows::kMaxWindowBytes: the run needs shorter segments or a
// longer step, which the scenario adapters report at their step param.
class WindowsTooLong : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

// Digest every result-affecting field of a fault spec (seed, rates,
// checkpoint policy) into `d`; shared by every simulator's config_digest.
void digest_fault_spec(engine::ConfigDigest& d, const fault::FaultSpec& spec);

// The grid table of each region, in region order: validates every region
// first, then looks each region's table up in `tables` once. Builds no
// values; regions on one grid share its table.
[[nodiscard]] std::vector<std::shared_ptr<const SharedIntensityTable>>
resolve_intensity_tables(const std::vector<FleetRegionConfig>& regions,
                         const FleetRegion::Run& run, IntensityCache& tables);

template <typename Config>
FleetRegion::Run FleetRegion::Run::of(const Config& config, const char* who) {
  const std::string prefix = std::string(who) + ": ";
  check_arg(to_seconds(config.step) > 0.0, prefix + "step must be positive");
  check_arg(to_seconds(config.horizon) >= to_seconds(config.step),
            prefix + "horizon must cover at least one step");
  check_arg(config.opportunistic_utilization >= 0.0 &&
                config.opportunistic_utilization <= 1.0,
            prefix + "opportunistic utilization must be in [0, 1]");
  check_arg(config.steps_per_chunk >= 1,
            prefix + "steps_per_chunk must be >= 1");
  Run run;
  run.step = config.step;
  run.horizon = config.horizon;
  run.step_s = to_seconds(config.step);
  // Checked before the cast: a non-finite or out-of-range quotient would
  // make it undefined. The 2^53 bound keeps step_s * s exact for a
  // whole-second step, which day-long demand rows rely on (build_fleet_soa).
  const double steps = std::floor(to_seconds(config.horizon) / run.step_s);
  check_arg(steps < 0x1p53 && run.step_s * steps < 0x1p53,
            prefix + "horizon / step must be finite with step * steps < 2^53");
  run.steps = static_cast<long>(steps);
  const double row_bytes =
      static_cast<double>(demand_row_len(run.steps, run.step_s)) *
      static_cast<double>(sizeof(double));
  if (row_bytes > kMaxDemandRowBytes) {
    throw StepRowsTooLong(
        prefix + "a step of " + report::shortest_double(run.step_s) +
        " s is not a whole number of seconds dividing the day, so each "
        "server group keeps a demand row over the whole horizon: " +
        std::to_string(run.steps) + " steps, " +
        report::shortest_double(row_bytes) + " bytes, over the " +
        report::shortest_double(kMaxDemandRowBytes) +
        "-byte bound; use a step that divides the day in whole seconds, or "
        "a shorter horizon");
  }
  run.enable_autoscaler = config.enable_autoscaler;
  run.autoscaler = config.autoscaler;
  run.opportunistic_training = config.opportunistic_training;
  run.opportunistic_utilization = config.opportunistic_utilization;
  run.steps_per_chunk =
      (config.steps_per_chunk + kStepLanes - 1) / kStepLanes * kStepLanes;
  return run;
}

}  // namespace sustainai::datacenter
