#include "datacenter/planet_sim.h"

#include <algorithm>
#include <optional>
#include <unordered_set>
#include <utility>

#include "core/check.h"
#include "engine/snapshot.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sustainai::datacenter {

namespace {

// v1 snapshots carry the whole series inline; they still resume.
constexpr const char* kSchemaV1 = "sustainai-planet-checkpoint-v1";
constexpr const char* kSchemaV2 = "sustainai-planet-checkpoint-v2";
constexpr const char* kCheckpointContext = "planet checkpoint";

// One journal record: a closed series window.
report::JsonValue sample_json(const PlanetSimulator::SeriesSample& s) {
  report::JsonValue sample = report::JsonValue::object();
  sample.set("t_begin_s", report::JsonValue::number(s.t_begin_s));
  sample.set("t_end_s", report::JsonValue::number(s.t_end_s));
  sample.set("facility_energy_j", report::JsonValue::number(s.facility_energy_j));
  sample.set("location_carbon_g", report::JsonValue::number(s.location_carbon_g));
  return sample;
}

}  // namespace

PlanetSimulator::PlanetSimulator(Config config) {
  check_arg(!config.regions.empty(),
            "PlanetSimulator: at least one region is required");
  run_ = FleetRegion::Run::of(config, "PlanetSimulator");

  // Regions on the same grid share one table and one window, each reading
  // it at its own offset.
  IntensityCache tables;
  auto resolved = resolve_intensity_tables(config.regions, run_, tables);
  regions_.reserve(config.regions.size());
  std::vector<const SharedIntensityTable*> region_tables;
  std::vector<long> offsets;
  for (std::size_t r = 0; r < config.regions.size(); ++r) {
    regions_.emplace_back(std::move(config.regions[r]), run_,
                          std::move(resolved[r]));
    region_tables.push_back(regions_.back().table());
    offsets.push_back(regions_.back().offset_steps());
  }
  windows_ = IntensityWindows(region_tables, offsets, config.pool);

  engine::ShardedRun<FleetPartial>::Config rcfg;
  rcfg.steps = run_.steps;
  rcfg.steps_per_chunk = run_.steps_per_chunk;
  rcfg.shards = regions_.size();
  rcfg.pool = config.pool;
  rcfg.step_seconds = run_.step_s;
  rcfg.context = kCheckpointContext;
  rcfg.segment_span = "planet.segment";
  runner_ = engine::ShardedRun<FleetPartial>(rcfg);
  config_digest_ = compute_config_digest();
}

std::size_t PlanetSimulator::distinct_intensity_tables() const {
  std::unordered_set<const SharedIntensityTable*> distinct;
  for (const FleetRegion& region : regions_) {
    distinct.insert(region.table());
  }
  return distinct.size();
}

PlanetSimulator::Checkpoint PlanetSimulator::start() const {
  Checkpoint cp;
  cp.next_step = 0;
  cp.region_partials.reserve(regions_.size());
  for (const FleetRegion& region : regions_) {
    cp.region_partials.emplace_back(region.num_groups());
  }
  return cp;
}

void PlanetSimulator::advance(Checkpoint& cp, long max_steps) const {
  const long begin = cp.next_step;
  const long end = runner_.segment_end(begin, max_steps);
  if (end <= begin) {
    return;
  }
  const long cpc = steps_per_chunk();
  const long c0 = begin / cpc;
  const long windows = (end + cpc - 1) / cpc - c0;

  const std::lock_guard<std::mutex> lock(windows_mu_);
  if (windows_.place(begin, end)) {
    windows_.fill();
  }
  std::vector<FleetStepInputs> inputs;
  inputs.reserve(regions_.size());
  for (std::size_t r = 0; r < regions_.size(); ++r) {
    inputs.push_back(regions_[r].inputs(windows_.of(r)));
  }

  // One zeroed sample per chunk window; the fold adds each region's
  // window in region order, a serial left-to-right sum whatever the
  // thread count.
  for (long w = 0; w < windows; ++w) {
    const long b = (c0 + w) * cpc;
    SeriesSample sample;
    sample.t_begin_s = run_.step_s * static_cast<double>(b);
    sample.t_end_s = run_.step_s * static_cast<double>(std::min(steps(), b + cpc));
    cp.series.push_back(sample);
  }
  SeriesSample* const series =
      cp.series.data() + cp.series.size() - static_cast<std::size_t>(windows);

  // The engine runs one task per (region, chunk) and folds each region's
  // chunks in ascending order; the task of a region's first chunk records
  // its planet.shard span.
  runner_.advance(
      cp.next_step, cp.region_partials, max_steps,
      [&](std::size_t r, long b, long e) -> FleetPartial {
        std::optional<obs::Span> span;
        if (b == begin) {
          span.emplace("planet.shard", run_.step_s * static_cast<double>(begin),
                       run_.step_s * static_cast<double>(end));
        }
        return run_fleet_chunk(inputs[r], static_cast<std::size_t>(b),
                               static_cast<std::size_t>(e));
      },
      [&](std::size_t r, long c, const FleetPartial& partial) {
        SeriesSample& sample = series[c - c0];
        sample.facility_energy_j +=
            partial.total(partial.group_energy_j()) * regions_[r].config().pue;
        sample.location_carbon_g += partial.total(partial.location_g());
      });
}

PlanetSimulator::Result PlanetSimulator::finalize(const Checkpoint& cp) const {
  check_arg(cp.next_step == steps(),
            "PlanetSimulator::finalize: checkpoint has not reached the horizon");
  check_arg(cp.region_partials.size() == regions_.size(),
            "PlanetSimulator::finalize: checkpoint region count mismatch");

  Result result;
  result.regions.reserve(regions_.size());
  for (std::size_t r = 0; r < regions_.size(); ++r) {
    RegionResult region{regions_[r].summarize(cp.region_partials[r]),
                        regions_[r].config().name};
    // Planetary totals: a deterministic left-to-right fold in region order.
    result.it_energy += region.it_energy;
    result.facility_energy += region.facility_energy;
    result.location_carbon += region.location_carbon;
    result.market_carbon += region.market_carbon;
    result.opportunistic_energy += region.opportunistic_energy;
    result.opportunistic_server_hours += region.opportunistic_server_hours;
    for (std::size_t t = 0; t < kNumTiers; ++t) {
      result.tier_it_energy[t] += region.tier_it_energy[t];
    }
    result.regions.push_back(std::move(region));
  }
  result.series = cp.series;

  // Recorded post-merge on the calling thread, deterministic at any thread
  // count (the fleet's convention for metrics).
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  metrics.counter("planet_it_energy_joules").add(to_joules(result.it_energy));
  metrics.counter("planet_facility_energy_joules")
      .add(to_joules(result.facility_energy));
  metrics.counter("planet_location_carbon_grams")
      .add(to_grams_co2e(result.location_carbon));
  metrics.counter("planet_opportunistic_server_hours")
      .add(result.opportunistic_server_hours);
  for (const RegionResult& region : result.regions) {
    metrics
        .counter("planet_region_it_energy_joules", {{"region", region.name}})
        .add(to_joules(region.it_energy));
  }
  return result;
}

PlanetSimulator::Result PlanetSimulator::run() const {
  obs::Span run_span("planet.run", 0.0,
                     run_.step_s * static_cast<double>(steps()));
  Checkpoint cp = start();
  advance(cp, steps());
  return finalize(cp);
}

report::JsonValue PlanetSimulator::checkpoint_json(const Checkpoint& cp) const {
  report::JsonValue root = runner_.state_json(
      cp.next_step, cp.region_partials, kSchemaV2, config_digest(), "regions");
  report::JsonValue series = report::JsonValue::array();
  for (const SeriesSample& s : cp.series) {
    series.append(sample_json(s));
  }
  root.set("series", std::move(series));
  return root;
}

engine::SealedFrame PlanetSimulator::seal(const Checkpoint& cp) const {
  // sample_json's records, streamed in key order without a DOM.
  report::CanonicalWriter w;
  w.begin_array();
  for (std::size_t i = cp.journal.records; i < cp.series.size(); ++i) {
    const SeriesSample& s = cp.series[i];
    w.begin_object()
        .key("facility_energy_j").number(s.facility_energy_j)
        .key("location_carbon_g").number(s.location_carbon_g)
        .key("t_begin_s").number(s.t_begin_s)
        .key("t_end_s").number(s.t_end_s)
        .end_object();
  }
  w.end_array();
  return engine::seal_frame(std::move(w).finish(),
                            cp.series.size() - cp.journal.records, cp.journal);
}

report::JsonValue PlanetSimulator::live_json(
    const Checkpoint& cp, const engine::JournalPrefix& covers) const {
  report::JsonValue root = runner_.state_json(
      cp.next_step, cp.region_partials, kSchemaV2, config_digest(), "regions");
  engine::finish_live(root, covers);
  return root;
}

PlanetSimulator::Checkpoint PlanetSimulator::parse_checkpoint(
    const report::JsonValue& value) const {
  return parse_checkpoint(value, {}, Checkpoint{});
}

PlanetSimulator::Checkpoint PlanetSimulator::parse_checkpoint(
    const report::JsonValue& value, std::string_view journal,
    Checkpoint base) const {
  engine::ShardState<FleetPartial> state = runner_.parse_state(
      value, {kSchemaV1, kSchemaV2}, config_digest(), "regions",
      [this](std::size_t r) {
        return FleetPartial(regions_[r].num_groups());
      });

  Checkpoint cp;
  cp.next_step = state.next_step;
  cp.region_partials = std::move(state.shards);
  // One window per chunk started: the series a checkpoint at next_step has.
  const auto windows = static_cast<std::size_t>(
      (cp.next_step + steps_per_chunk() - 1) / steps_per_chunk());

  const std::optional<engine::JournalPrefix> covered =
      engine::live_prefix(value, kCheckpointContext);
  if (!covered) {
    // Self-contained: the whole series inline (v1, or v2's checkpoint_json).
    read_series(engine::require_member(value, "series", kCheckpointContext),
                cp);
  } else {
    const engine::JournalPrefix& to = *covered;
    check_arg(to.records == windows,
              "planet checkpoint: journal names a window count that does not "
              "match next_step");
    check_arg(base.series.size() >= base.journal.records &&
                  base.journal.records <= windows,
              "planet checkpoint: base checkpoint does not match this planet");
    // Keep the windows base read from its journal prefix; the ones closed
    // after it come back from `journal`.
    cp.series = std::move(base.series);
    cp.series.resize(base.journal.records);
    cp.series.reserve(windows);
    engine::read_frames(
        journal, base.journal, to,
        [&](const report::JsonValue& records) { read_series(records, cp); },
        kCheckpointContext);
    cp.journal = to;
  }
  check_arg(cp.series.size() == windows,
            "planet checkpoint: series length does not match next_step");
  return cp;
}

void PlanetSimulator::read_series(const report::JsonValue& records,
                                  Checkpoint& cp) const {
  check_arg(records.is_array(), "planet checkpoint: series must be an array");
  for (const report::JsonValue& s : records.items()) {
    check_arg(s.is_object(), "planet checkpoint: series samples must be objects");
    SeriesSample sample;
    sample.t_begin_s = engine::require_number(s, "t_begin_s", kCheckpointContext);
    sample.t_end_s = engine::require_number(s, "t_end_s", kCheckpointContext);
    sample.facility_energy_j =
        engine::require_number(s, "facility_energy_j", kCheckpointContext);
    sample.location_carbon_g =
        engine::require_number(s, "location_carbon_g", kCheckpointContext);
    cp.series.push_back(sample);
  }
}

std::size_t PlanetSimulator::state_bytes() const {
  const std::lock_guard<std::mutex> lock(windows_mu_);
  std::size_t bytes = windows_.bytes();
  for (const FleetRegion& region : regions_) {
    bytes += region.state_bytes();
  }
  return bytes;
}

std::string PlanetSimulator::compute_config_digest() const {
  engine::ConfigDigest d;
  run_.digest(d);
  for (const FleetRegion& region : regions_) {
    const RegionConfig& rc = region.config();
    d.add_string(rc.name);
    d.add_string(IntensityCache::key_of(rc.grid, run_.step));
    d.add_long(region.offset_steps());
    d.add_double(rc.pue);
    d.add_double(rc.cfe_coverage);
    region.digest(d);
  }
  return d.hex();
}

}  // namespace sustainai::datacenter
