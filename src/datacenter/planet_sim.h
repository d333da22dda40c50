// Planetary-scale sharded fleet simulation.
//
// A planet is a set of regions stepped over one shared horizon, plus a
// carbon-weighted series, the cross-region merge and the snapshot. Each
// region is a FleetRegion (datacenter/fleet_sim.h) with its own cluster,
// grid, PUE, CFE coverage, fault spec and UTC offset; regions on one grid
// share a memoized intensity table (core/intensity_cache.h), each reading
// it at its own offset. Regions are independent, so the planet runs each
// segment as one (region, chunk) task per exec chunk (engine::ShardedRun's
// task grid), each task one deterministic obs track; every region's chunks
// fold in ascending order and the cross-region merge is a serial fold in
// region order — byte-identical at any SUSTAINAI_THREADS.
//
// Runs advance in checkpointable segments whose ends round up to chunk
// boundaries, so the per-region chunk fold never depends on where a run
// was cut. A Checkpoint (per-region FleetPartial buffers, the series so
// far, the next step) round-trips through canonical JSON losslessly, so a
// killed run resumes in a fresh process to the same bytes (DESIGN.md §10).
// A closed series window is a sealed record: it goes to the checkpoint
// journal (engine/journal.h) once, and the live snapshot holds only the
// region partials.
//
// The series has one sample per chunk window (facility energy, location
// carbon, and their ratio), summed across regions in region order.
#pragma once

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "datacenter/fleet_sim.h"
#include "engine/journal.h"
#include "report/json.h"

namespace sustainai::datacenter {

class PlanetSimulator {
 public:
  using RegionConfig = FleetRegionConfig;

  // Most regions a spec or CLI run may ask for; checked before any region
  // is built, so a hostile count fails fast instead of exhausting memory.
  static constexpr std::size_t kMaxRegions = 10000;

  struct Config {
    std::vector<RegionConfig> regions;
    Duration step = minutes(15.0);
    Duration horizon = days(365.0);
    bool enable_autoscaler = true;
    AutoScaler::Config autoscaler;
    bool opportunistic_training = true;
    double opportunistic_utilization = 0.90;
    exec::ThreadPool* pool = nullptr;
    // Steps per fleet chunk; also the stride of one series window and the
    // granule checkpoint boundaries round to. Rounded up to a kStepLanes
    // multiple at construction so chunk interiors match FleetSimulator's.
    long steps_per_chunk = 1024;
  };

  // A region's result is a fleet result with the region's name.
  struct RegionResult : FleetResult {
    std::string name;
  };

  // One chunk-window sample of the planetary carbon-weighted series.
  struct SeriesSample {
    double t_begin_s = 0.0;
    double t_end_s = 0.0;
    double facility_energy_j = 0.0;
    double location_carbon_g = 0.0;
    [[nodiscard]] double intensity_g_per_j() const {
      return facility_energy_j > 0.0 ? location_carbon_g / facility_energy_j
                                     : 0.0;
    }
  };

  struct Result {
    std::vector<RegionResult> regions;
    Energy it_energy;
    Energy facility_energy;
    CarbonMass location_carbon;
    CarbonMass market_carbon;
    double opportunistic_server_hours = 0.0;
    Energy opportunistic_energy;
    std::array<Energy, kNumTiers> tier_it_energy{};
    std::vector<SeriesSample> series;
  };

  // Resumable run state: the exact accumulators after simulating steps
  // [0, next_step), with next_step always on a chunk boundary (or the
  // horizon end). Serializes losslessly via checkpoint_json/parse_checkpoint.
  struct Checkpoint {
    long next_step = 0;
    std::vector<FleetPartial> region_partials;  // one per region
    std::vector<SeriesSample> series;
    // The journal prefix holding series[0, journal.records); later windows
    // closed since the last frame.
    engine::JournalPrefix journal;
  };

  // Validates the config and builds the per-region state: shifted
  // clusters, fault plans and runs, SoA images, and the shared intensity
  // tables, which hold no values: each advance() fills one window per
  // distinct grid for its segment, widened by the largest UTC offset on
  // that grid, unless the windows already hold it.
  explicit PlanetSimulator(Config config);

  PlanetSimulator(const PlanetSimulator&) = delete;
  PlanetSimulator& operator=(const PlanetSimulator&) = delete;

  [[nodiscard]] long steps() const { return run_.steps; }
  [[nodiscard]] std::size_t region_count() const { return regions_.size(); }
  [[nodiscard]] long steps_per_chunk() const { return runner_.steps_per_chunk(); }
  // Distinct IntensityTable objects actually backing the regions — the memo
  // hit metric (regions sharing a grid share one table, pointer-identical).
  [[nodiscard]] std::size_t distinct_intensity_tables() const;

  // Fresh zeroed checkpoint at step 0.
  [[nodiscard]] Checkpoint start() const;

  // Advances `cp` by up to `max_steps` steps (rounded up to a chunk
  // boundary, clipped to the horizon), running (region, chunk) tasks on
  // the pool.
  void advance(Checkpoint& cp, long max_steps) const;

  [[nodiscard]] bool done(const Checkpoint& cp) const {
    return cp.next_step >= steps();
  }

  // Folds a completed checkpoint (next_step == steps()) into a Result.
  [[nodiscard]] Result finalize(const Checkpoint& cp) const;

  // start + advance(all) + finalize.
  [[nodiscard]] Result run() const;

  // Self-contained JSON snapshot of a checkpoint (schema "sustainai-planet-
  // checkpoint-v2"; see DESIGN.md): region partials plus the whole series
  // inline. parse_checkpoint(value) reads it and v1 snapshots. The
  // embedded config digest is checked on parse, so a snapshot cannot
  // resume a differently-configured planet.
  [[nodiscard]] report::JsonValue checkpoint_json(const Checkpoint& cp) const;
  [[nodiscard]] Checkpoint parse_checkpoint(
      const report::JsonValue& value) const;

  // The journal form, as QueueSim's: seal() frames the windows closed
  // since the checkpoint's journal prefix, live_json() names the prefix
  // `covers` instead of carrying the series, and parse_checkpoint(value,
  // journal, base) reads a live snapshot on top of `base`'s journaled
  // windows, taking the rest from `journal`.
  [[nodiscard]] engine::SealedFrame seal(const Checkpoint& cp) const;
  [[nodiscard]] report::JsonValue live_json(
      const Checkpoint& cp, const engine::JournalPrefix& covers) const;
  [[nodiscard]] Checkpoint parse_checkpoint(const report::JsonValue& value,
                                            std::string_view journal,
                                            Checkpoint base) const;

  // FNV-1a digest over every result-affecting config parameter. Computed
  // once, at construction.
  [[nodiscard]] const std::string& config_digest() const {
    return config_digest_;
  }

  // Bytes of the step state: every region's demand and step rows and
  // fault runs, and the intensity windows with their tables.
  [[nodiscard]] std::size_t state_bytes() const;

 private:
  [[nodiscard]] std::string compute_config_digest() const;
  // Appends an array of journal records (series samples) to `cp.series`.
  void read_series(const report::JsonValue& records, Checkpoint& cp) const;

  FleetRegion::Run run_;
  std::vector<FleetRegion> regions_;
  // Generic segment/merge/snapshot driver (engine/sharded_run.h): one shard
  // per region.
  engine::ShardedRun<FleetPartial> runner_;
  std::string config_digest_;
  // Scratch that advance() fills and reads under the lock, so concurrent
  // const calls stay safe.
  mutable std::mutex windows_mu_;
  mutable IntensityWindows windows_;
};

}  // namespace sustainai::datacenter
