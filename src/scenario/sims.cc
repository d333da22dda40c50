// The seven built-in simulations: adapters from declarative Specs onto the
// module Configs of datacenter/, fl/, mlcycle/, and scaling/.
//
// Conventions shared by every adapter:
//   * params are snake_case and strict — allow_only turns typos into
//     SpecErrors naming the valid keys;
//   * grid sub-objects follow one schema (parse_grid), with catalog lookups
//     erroring as "unknown grid 'x'; available: …";
//   * reports carry physical quantities in base units with unit-suffixed
//     keys (…_j, …_g, …_s, …_w) so consumers can reconstruct the exact
//     doubles the simulators produced.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/carbon_intensity.h"
#include "core/lifecycle.h"
#include "core/operational.h"
#include "datacenter/fleet_sim.h"
#include "datacenter/planet_sim.h"
#include "datacenter/queue_sim.h"
#include "datacenter/scheduler.h"
#include "fault/recovery.h"
#include "fl/round_sim.h"
#include "hw/server.h"
#include "hw/spec.h"
#include "mlcycle/model_zoo.h"
#include "mlcycle/reliability.h"
#include "report/csv.h"
#include "report/table.h"
#include "scaling/scaling_grid.h"
#include "scenario/registry.h"

namespace sustainai::scenario {
namespace {

using report::JsonValue;

JsonValue num(double v) { return JsonValue::number(v); }
JsonValue str(std::string s) { return JsonValue::string(std::move(s)); }

void append_docs(std::vector<ParamDoc>& docs, std::vector<ParamDoc> more) {
  for (ParamDoc& d : more) {
    docs.push_back(std::move(d));
  }
}

// --- Shared grid / job schemas -------------------------------------------

GridProfile profile_by_name(const Spec& spec, const std::string& key,
                            const std::string& fallback) {
  const std::string name = spec.optional_string(key, fallback);
  const std::optional<GridProfile> profile = grids::by_name(name);
  if (!profile.has_value()) {
    throw SpecError(spec.path() + "." + key + ": unknown grid '" + name +
                    "'; available: " + grids::known_names());
  }
  return *profile;
}

hw::DeviceSpec device_by_name(const Spec& spec, const std::string& key,
                              const std::string& fallback) {
  const std::string name = spec.optional_string(key, fallback);
  const std::optional<hw::DeviceSpec> device = hw::catalog::by_name(name);
  if (!device.has_value()) {
    throw SpecError(spec.path() + "." + key + ": unknown device '" + name +
                    "'; available: " + hw::catalog::known_names());
  }
  return *device;
}

// One intermittent-grid sub-object. Defaults model the paper's solar-heavy
// scheduling region (CLI `fleet`/`schedule` defaults).
IntermittentGrid::Config parse_grid(const Spec& grid, std::uint64_t seed) {
  grid.allow_only({"name", "solar_share", "wind_share", "firm_share",
                   "sunrise_hour", "sunset_hour", "seed"});
  IntermittentGrid::Config cfg;
  cfg.profile = profile_by_name(grid, "name", "us-west-solar");
  cfg.solar_share = grid.optional_double_in("solar_share", 0.5, 0.0, 1.0);
  cfg.wind_share = grid.optional_double_in("wind_share", 0.15, 0.0, 1.0);
  cfg.firm_share = grid.optional_double_in("firm_share", 0.10, 0.0, 1.0);
  cfg.sunrise_hour = grid.optional_double_in("sunrise_hour", 6.0, 0.0, 24.0);
  cfg.sunset_hour = grid.optional_double_in("sunset_hour", 18.0, 0.0, 24.0);
  cfg.seed = static_cast<std::uint64_t>(
      grid.optional_int_in("seed", static_cast<long>(seed), 0, 1L << 62));
  return cfg;
}

std::vector<ParamDoc> grid_param_docs(const std::string& prefix) {
  return {
      {prefix + ".name", "string", "us-west-solar",
       "grid profile (" + grids::known_names() + ")"},
      {prefix + ".solar_share", "number", "0.5",
       "peak solar contribution to carbon-free availability"},
      {prefix + ".wind_share", "number", "0.15", "mean wind contribution"},
      {prefix + ".firm_share", "number", "0.1",
       "always-on carbon-free share (hydro/nuclear)"},
      {prefix + ".sunrise_hour", "number", "6", "local sunrise hour"},
      {prefix + ".sunset_hour", "number", "18", "local sunset hour"},
      {prefix + ".seed", "int", "top-level seed",
       "wind-process seed (deterministic)"},
  };
}

// The shared deferrable-job batch: `jobs` identical training jobs arriving
// one per hour modulo `arrival_spread_h` (the CLI `schedule` shape).
std::vector<datacenter::BatchJob> make_jobs(const Spec& params,
                                            const std::string& id_prefix) {
  const long count = params.optional_int_in("jobs", 24, 1, 100000);
  const double power_kw =
      params.optional_double_in("power_kw", 22.4, 0.001, 1e6);
  const double duration_h =
      params.optional_double_in("duration_h", 4.0, 1e-3, 24.0 * 365.0);
  const double slack_h = params.optional_double_in("slack_h", 20.0, 0.0, 1e5);
  const long spread_h = params.optional_int_in("arrival_spread_h", 24, 1, 8760);
  std::vector<datacenter::BatchJob> jobs;
  jobs.reserve(static_cast<std::size_t>(count));
  for (long i = 0; i < count; ++i) {
    datacenter::BatchJob j;
    j.id = id_prefix + std::to_string(i);
    j.power = kilowatts(power_kw);
    j.duration = hours(duration_h);
    j.arrival = hours(static_cast<double>(i % spread_h));
    j.slack = hours(slack_h);
    jobs.push_back(std::move(j));
  }
  return jobs;
}

std::vector<ParamDoc> job_param_docs() {
  return {
      {"jobs", "int", "24", "number of deferrable batch jobs"},
      {"power_kw", "number", "22.4", "per-job power draw while running (kW)"},
      {"duration_h", "number", "4", "per-job run length (hours)"},
      {"slack_h", "number", "20", "max start delay within the slack window"},
      {"arrival_spread_h", "int", "24",
       "job i arrives at hour i mod this spread"},
  };
}

// --- Shared fault schema --------------------------------------------------

// The optional `faults` block accepted by every simulation. Absent block =>
// fault injection disabled and the fault-free code paths run untouched.
struct ParsedFaults {
  bool present = false;
  fault::FaultSpec spec;
  double sdc_detection_coverage = 0.0;
};

ParsedFaults parse_faults(const Spec& params, std::uint64_t seed) {
  ParsedFaults out;
  if (!params.has("faults")) {
    return out;
  }
  const Spec f = params.child("faults");
  f.allow_only({"host_crash_per_day", "preemption_per_day", "sdc_per_day",
                "grid_gap_per_day", "crash_rewarm_min", "gap_duration_min",
                "max_retries", "backoff_min", "backoff_multiplier",
                "checkpoint_interval_min", "checkpoint_cost_s",
                "sdc_detection_coverage", "seed"});
  fault::FaultRates& r = out.spec.rates;
  r.host_crash_per_day =
      f.optional_double_in("host_crash_per_day", 0.0, 0.0, 1e4);
  r.preemption_per_day =
      f.optional_double_in("preemption_per_day", 0.0, 0.0, 1e4);
  r.sdc_per_day = f.optional_double_in("sdc_per_day", 0.0, 0.0, 1e4);
  r.grid_gap_per_day = f.optional_double_in("grid_gap_per_day", 0.0, 0.0, 1e4);
  r.crash_rewarm =
      minutes(f.optional_double_in("crash_rewarm_min", 60.0, 0.0, 1e6));
  r.gap_duration =
      minutes(f.optional_double_in("gap_duration_min", 120.0, 0.0, 1e6));
  out.spec.retry.max_retries =
      static_cast<int>(f.optional_int_in("max_retries", 3, 0, 1000000));
  out.spec.retry.base_backoff =
      minutes(f.optional_double_in("backoff_min", 5.0, 0.0, 1e6));
  out.spec.retry.backoff_multiplier =
      f.optional_double_in("backoff_multiplier", 2.0, 1.0, 100.0);
  out.spec.checkpoint.interval =
      minutes(f.optional_double_in("checkpoint_interval_min", 60.0, 0.0, 1e9));
  out.spec.checkpoint.cost =
      seconds(f.optional_double_in("checkpoint_cost_s", 30.0, 0.0, 1e9));
  // Forked off the run seed by default so a spec's fault schedule is stable
  // but never correlated with the simulators' own streams.
  out.spec.seed = static_cast<std::uint64_t>(f.optional_int_in(
      "seed", static_cast<long>(seed ^ 0xfa017ULL), 0, 1L << 62));
  out.sdc_detection_coverage =
      f.optional_double_in("sdc_detection_coverage", 0.0, 0.0, 0.999);
  // An all-zero-rate block is schema-checked but otherwise equivalent to no
  // block at all: the fault-free paths run and the report stays byte-
  // identical to a spec without `faults`.
  out.present = out.spec.enabled();
  return out;
}

std::vector<ParamDoc> fault_param_docs(const std::string& prefix = "") {
  std::vector<ParamDoc> docs = {
      {"faults.host_crash_per_day", "number", "0",
       "mean host-crash events per simulated day"},
      {"faults.preemption_per_day", "number", "0",
       "mean job-preemption events per day (queue_schedule)"},
      {"faults.sdc_per_day", "number", "0",
       "mean silent-data-corruption events per day"},
      {"faults.grid_gap_per_day", "number", "0",
       "mean carbon-intensity feed gaps per day"},
      {"faults.crash_rewarm_min", "number", "60",
       "host outage + re-warm length (minutes)"},
      {"faults.gap_duration_min", "number", "120",
       "intensity-feed gap length (minutes)"},
      {"faults.max_retries", "int", "3",
       "restarts allowed before the run fails with error.json"},
      {"faults.backoff_min", "number", "5", "base retry backoff (minutes)"},
      {"faults.backoff_multiplier", "number", "2",
       "exponential backoff growth per retry"},
      {"faults.checkpoint_interval_min", "number", "60",
       "checkpoint cadence (0 = no checkpoints, faults lose all progress)"},
      {"faults.checkpoint_cost_s", "number", "30",
       "overhead per checkpoint (seconds of work)"},
      {"faults.sdc_detection_coverage", "number", "0",
       "fraction of SDCs caught before they poison a run"},
      {"faults.seed", "int", "derived from run seed", "fault-schedule seed"},
  };
  for (ParamDoc& d : docs) {
    d.name = prefix + d.name;
  }
  return docs;
}

// Run-level gate for the closed-form simulations (no internal timeline):
// host crashes restart the whole estimate from its last checkpoint. Returns
// nullopt when the spec has no enabled `faults` block; throws
// fault::RetriesExhaustedError when the crash count exceeds the retry
// budget.
std::optional<fault::RunGateResult> gate_run(const Spec& params,
                                             std::uint64_t seed,
                                             Duration horizon) {
  const ParsedFaults parsed = parse_faults(params, seed);
  if (!parsed.present) {
    return std::nullopt;
  }
  return fault::evaluate_run_gate(parsed.spec.plan(horizon), horizon,
                                  parsed.spec.checkpoint, parsed.spec.retry);
}

JsonValue gate_report(const fault::RunGateResult& gate, double total_energy_j,
                      const char* energy_key) {
  JsonValue jf = JsonValue::object();
  jf.set("host_crashes", num(static_cast<double>(gate.crashes)));
  jf.set("checkpoints", num(static_cast<double>(gate.checkpoints)));
  jf.set("redone_fraction", num(gate.lost_fraction));
  jf.set("checkpoint_overhead_fraction", num(gate.overhead_fraction));
  jf.set(energy_key, num(gate.lost_fraction * total_energy_j));
  return jf;
}

std::unique_ptr<datacenter::SchedulerPolicy> make_policy(
    const Spec& params, const std::string& name) {
  const double probe_min =
      params.optional_double_in("probe_step_min", 15.0, 0.1, 24.0 * 60.0);
  if (name == "fifo") {
    return std::make_unique<datacenter::FifoPolicy>();
  }
  if (name == "threshold") {
    return std::make_unique<datacenter::ThresholdPolicy>(
        grams_per_kwh(
            params.optional_double_in("threshold_g_per_kwh", 200.0, 0.0, 5000.0)),
        minutes(probe_min));
  }
  if (name == "forecast") {
    return std::make_unique<datacenter::ForecastPolicy>(minutes(probe_min));
  }
  throw SpecError(params.path() +
                  ".policy: unknown policy '" + name +
                  "'; available: fifo, threshold, forecast");
}

// --- shared checkpoint driver --------------------------------------------

// Runs any simulator that follows the engine checkpoint contract
// (start/advance/done/checkpoint_json/parse_checkpoint/finalize, plus
// steps() as a stride bound). Without an active request or segments it is
// sim.run(); otherwise it resumes or starts, then advances in segments,
// round-tripping the snapshot through canonical JSON at every boundary (and
// handing it to write_snapshot, when set). Returns nullopt when stop_after
// halted the run before completion — the caller then returns
// stopped_result(). Byte-identical to a single sim.run() by the checkpoint
// contract (tests/resume_test.cc).
template <typename Sim>
auto run_checkpointable(const Sim& sim, const RunContext& ctx, long segments)
    -> std::optional<decltype(sim.run())> {
  const CheckpointRequest& req = ctx.checkpoint;
  if (!req.active() && segments <= 1) {
    return sim.run();
  }
  typename Sim::Checkpoint cp =
      req.resume_text.empty()
          ? sim.start()
          : sim.parse_checkpoint(report::parse_json(req.resume_text));
  segments = std::max(segments, req.segments);
  long stride = req.segment_steps > 0
                    ? req.segment_steps
                    : (sim.steps() + segments - 1) / std::max(1L, segments);
  if (stride <= 0) {
    stride = sim.steps();
  }
  long done_segments = 0;
  while (!sim.done(cp)) {
    sim.advance(cp, stride);
    const std::string snapshot =
        report::canonical_json(sim.checkpoint_json(cp));
    if (req.write_snapshot) {
      req.write_snapshot(snapshot);
    }
    cp = sim.parse_checkpoint(report::parse_json(snapshot));
    ++done_segments;
    if (req.stop_after > 0 && done_segments >= req.stop_after &&
        !sim.done(cp)) {
      return std::nullopt;
    }
  }
  return sim.finalize(cp);
}

RunResult stopped_result(std::string scenario) {
  RunResult stopped;
  stopped.scenario = std::move(scenario);
  stopped.stopped = true;
  return stopped;
}

// Shared doc row for the sims that honor checkpoint_segments.
ParamDoc checkpoint_segments_doc() {
  return {"checkpoint_segments", "int", "1",
          "split the run into this many checkpointed segments, round-tripping "
          "the snapshot through canonical JSON between them (byte-identical "
          "to an uninterrupted run by contract)"};
}

// --- fleet regions: the fleet's params and each planet region ------------

// One region's web + train cluster, grid, PUE, CFE and faults block: the
// schema the fleet's params and every planet `regions[i]` share.
struct ParsedRegion {
  datacenter::FleetRegionConfig config;
  ParsedFaults faults;
};

ParsedRegion parse_region(const Spec& region, std::uint64_t seed,
                          std::uint64_t fault_seed, double default_pue,
                          double default_cfe) {
  using namespace datacenter;
  ParsedRegion out;
  FleetRegionConfig& rc = out.config;
  rc.grid = parse_grid(region.optional_child("grid"), seed);
  rc.pue = region.optional_double_in("pue", default_pue, 1.0, 3.0);
  rc.cfe_coverage = region.optional_double_in("cfe", default_cfe, 0.0, 1.0);

  const Spec web_load = region.optional_child("web_load");
  web_load.allow_only({"trough", "peak", "peak_hour"});
  ServerGroup web;
  web.name = "web";
  web.sku = hw::skus::web_tier();
  web.count = static_cast<int>(
      region.optional_int_in("web_servers", 300, 0, 10000000));
  web.tier = Tier::kWeb;
  web.load = DiurnalProfile{
      web_load.optional_double_in("trough", 0.3, 0.0, 1.0),
      web_load.optional_double_in("peak", 0.9, 0.0, 1.0),
      web_load.optional_double_in("peak_hour", 20.0, 0.0, 24.0)};
  web.autoscalable = true;
  rc.cluster.add_group(web);

  ServerGroup train;
  train.name = "train";
  train.sku = hw::skus::gpu_training_8x();
  train.count = static_cast<int>(
      region.optional_int_in("train_servers", 12, 0, 1000000));
  train.tier = Tier::kAiTraining;
  train.load = flat_profile(
      region.optional_double_in("train_utilization", 0.5, 0.0, 1.0));
  rc.cluster.add_group(train);

  out.faults = parse_faults(region, fault_seed);
  rc.faults = out.faults.spec;
  return out;
}

std::vector<ParamDoc> region_param_docs(const std::string& prefix,
                                        const std::string& pue_default,
                                        const std::string& cfe_default) {
  std::vector<ParamDoc> docs = {
      {prefix + "pue", "number", pue_default,
       "facility power usage effectiveness"},
      {prefix + "cfe", "number", cfe_default,
       "market-based carbon-free matching share"},
      {prefix + "web_servers", "int", "300", "web-tier server count"},
      {prefix + "train_servers", "int", "12", "8-GPU training host count"},
      {prefix + "train_utilization", "number", "0.5",
       "flat training-tier load"},
      {prefix + "web_load.trough", "number", "0.3",
       "overnight web utilization"},
      {prefix + "web_load.peak", "number", "0.9", "peak web utilization"},
      {prefix + "web_load.peak_hour", "number", "20",
       "local hour of the web peak"},
  };
  append_docs(docs, grid_param_docs(prefix + "grid"));
  append_docs(docs, fault_param_docs(prefix));
  return docs;
}

// Run-wide knobs of a FleetSimulator or PlanetSimulator config.
template <typename Config>
void parse_fleet_run(const Spec& params, const RunContext& ctx,
                     Config& config) {
  config.enable_autoscaler = params.optional_bool("autoscaler", true);
  config.opportunistic_training = params.optional_bool("opportunistic", true);
  config.opportunistic_utilization =
      params.optional_double_in("opportunistic_utilization", 0.90, 0.0, 1.0);
  config.pool = ctx.pool;
}

std::vector<ParamDoc> fleet_run_docs() {
  return {
      {"autoscaler", "bool", "true", "consolidate web tiers off-peak"},
      {"opportunistic", "bool", "true",
       "run offline training on freed web servers"},
      {"opportunistic_utilization", "number", "0.9",
       "utilization of harvested servers"},
      checkpoint_segments_doc(),
  };
}

// checkpoint_segments, bounded by the simulator's chunk count.
template <typename Sim>
long chunk_segments(const Spec& params, const Sim& sim) {
  return params.optional_int_in(
      "checkpoint_segments", 1, 1,
      std::max(1L, sim.steps() / sim.steps_per_chunk()));
}

// The energy and carbon totals of a fleet, a planet region, or a planet.
template <typename Totals>
void set_totals(JsonValue& j, const Totals& r) {
  j.set("it_energy_j", num(to_joules(r.it_energy)));
  j.set("facility_energy_j", num(to_joules(r.facility_energy)));
  j.set("location_carbon_g", num(to_grams_co2e(r.location_carbon)));
  j.set("market_carbon_g", num(to_grams_co2e(r.market_carbon)));
  j.set("opportunistic_server_hours", num(r.opportunistic_server_hours));
  j.set("opportunistic_energy_j", num(to_joules(r.opportunistic_energy)));
}

template <typename Totals>
std::vector<std::string> total_notes(const Totals& r,
                                     const std::string& facility_suffix) {
  return {
      "IT energy:        " + to_string(r.it_energy),
      "facility energy:  " + to_string(r.facility_energy) + facility_suffix,
      "location carbon:  " + to_string(r.location_carbon),
      "market carbon:    " + to_string(r.market_carbon),
      "opportunistic:    " + report::fmt(r.opportunistic_server_hours) +
          " server-h, " + to_string(r.opportunistic_energy),
  };
}

JsonValue fault_stats_json(const datacenter::FleetFaultStats& fs) {
  JsonValue jf = JsonValue::object();
  jf.set("host_crashes", num(static_cast<double>(fs.host_crashes)));
  jf.set("sdc_events", num(static_cast<double>(fs.sdc_events)));
  jf.set("grid_gaps", num(static_cast<double>(fs.grid_gaps)));
  jf.set("checkpoints", num(static_cast<double>(fs.checkpoints)));
  jf.set("lost_server_hours", num(fs.lost_server_hours));
  jf.set("redone_work_hours", num(fs.redone_work_hours));
  jf.set("wasted_energy_j", num(to_joules(fs.wasted_energy)));
  jf.set("checkpoint_energy_j", num(to_joules(fs.checkpoint_energy)));
  jf.set("measured_sdc_per_server_year", num(fs.measured_sdc_per_server_year));
  return jf;
}

// --- fleet ----------------------------------------------------------------

class FleetSimulation final : public Simulation {
 public:
  std::string name() const override { return "fleet"; }

  std::string description() const override {
    return "datacenter fleet over a horizon: diurnal web tier + AI training "
           "tier, autoscaling harvesting off-peak capacity for opportunistic "
           "training, PUE and time-varying grid carbon (Sections III-C, IV-C)";
  }

  std::vector<ParamDoc> params() const override {
    std::vector<ParamDoc> docs = {
        {"days", "number", "7", "simulated horizon in days"},
        {"step_min", "number", "15", "simulation step (minutes)"},
        {"chunk_steps", "int", "256",
         "steps per parallel chunk (determinism-neutral)"},
    };
    append_docs(docs, fleet_run_docs());
    append_docs(docs, region_param_docs("", "1.1", "0"));
    return docs;
  }

  bool supports_checkpoint() const override { return true; }

  RunResult run(const Spec& params, const RunContext& ctx) const override {
    params.allow_only({"days", "step_min", "chunk_steps", "pue", "cfe",
                       "web_servers", "train_servers", "train_utilization",
                       "web_load", "autoscaler", "opportunistic",
                       "opportunistic_utilization", "checkpoint_segments",
                       "grid", "faults"});
    using namespace datacenter;

    ParsedRegion region =
        parse_region(params, ctx.seed, ctx.seed, kHyperscalePue, 0.0);
    FleetSimulator::Config config;
    config.cluster = std::move(region.config.cluster);
    config.grid = region.config.grid;
    config.pue = region.config.pue;
    config.cfe_coverage = region.config.cfe_coverage;
    config.faults = region.config.faults;
    config.horizon = days(params.optional_double_in("days", 7.0, 0.01, 3650.0));
    config.step =
        minutes(params.optional_double_in("step_min", 15.0, 0.01, 1440.0));
    config.steps_per_chunk =
        params.optional_int_in("chunk_steps", 256, 1, 1000000);
    parse_fleet_run(params, ctx, config);

    const FleetSimulator sim(config);
    const std::optional<FleetResult> ran =
        run_checkpointable(sim, ctx, chunk_segments(params, sim));
    if (!ran) {
      return stopped_result(name());
    }
    const FleetResult& result = *ran;

    RunResult out;
    out.scenario = name();
    out.summary_header = {"group", "tier", "IT energy", "mean util",
                          "freed server-h"};
    JsonValue groups = JsonValue::array();
    for (const FleetGroupResult& g : result.groups) {
      out.summary_rows.push_back(
          {g.name, to_string(g.tier), to_string(g.it_energy),
           report::fmt(g.mean_utilization), report::fmt(g.freed_server_hours)});
      JsonValue jg = JsonValue::object();
      jg.set("name", str(g.name));
      jg.set("tier", str(to_string(g.tier)));
      jg.set("it_energy_j", num(to_joules(g.it_energy)));
      jg.set("mean_utilization", num(g.mean_utilization));
      jg.set("freed_server_hours", num(g.freed_server_hours));
      groups.append(std::move(jg));
    }
    out.notes =
        total_notes(result, " (PUE " + report::fmt(config.pue) + ")");

    JsonValue& rep = out.report;
    set_totals(rep, result);
    rep.set("groups", std::move(groups));

    if (region.faults.present) {
      const FleetFaultStats& fs = result.faults;
      JsonValue jf = fault_stats_json(fs);
      // Replacement-age policy re-derived from the SDC rate the fleet
      // actually experienced, instead of the closed-form model input. The
      // training group is the cluster's last.
      mlcycle::MeasuredSdcRate measured;
      measured.events = fs.sdc_events;
      measured.observed =
          config.horizon *
          static_cast<double>(config.cluster.groups().back().count);
      jf.set("optimal_replacement_age_years",
             num(to_years(mlcycle::optimal_age_with_detection(
                 mlcycle::ReplacementPolicyConfig{},
                 region.faults.sdc_detection_coverage, measured))));
      rep.set("faults", std::move(jf));
      out.notes.push_back(
          "faults:           " + std::to_string(fs.host_crashes) +
          " crashes, " + std::to_string(fs.sdc_events) + " SDCs, " +
          std::to_string(fs.grid_gaps) + " grid gaps; wasted " +
          to_string(fs.wasted_energy));
    }
    return out;
  }
};

// --- planet ---------------------------------------------------------------

class PlanetSimulation final : public Simulation {
 public:
  std::string name() const override { return "planet"; }

  std::string description() const override {
    return "planetary fleet: N region-fleets (own cluster, grid, PUE, UTC "
           "phase offset, faults) sharded one-region-per-exec-chunk over a "
           "multi-year horizon, with memoized intensity tables and "
           "checkpointed segments (Sections III-C, IV-C at planetary scale)";
  }

  std::vector<ParamDoc> params() const override {
    std::vector<ParamDoc> docs = {
        {"years", "number", "1", "simulated horizon in years (365.25-day)"},
        {"step_min", "number", "60", "simulation step (minutes)"},
        {"chunk_steps", "int", "1024",
         "steps per fleet chunk; also the series window and checkpoint "
         "granule (determinism-neutral)"},
        {"pue", "number", "1.1", "default PUE for regions that omit one"},
        {"cfe", "number", "0", "default market CFE share for regions"},
    };
    append_docs(docs, fleet_run_docs());
    append_docs(
        docs,
        {{"regions", "object list", "(required)",
          "region fleets (see below), at most " +
              std::to_string(datacenter::PlanetSimulator::kMaxRegions)},
         {"regions[i].name", "string", "region-<i>", "region label"},
         {"regions[i].utc_offset_h", "number", "0",
          "local solar time leads UTC by this many hours; must be a whole "
          "number of steps"}});
    append_docs(docs, region_param_docs("regions[i].", "top-level pue",
                                        "top-level cfe"));
    return docs;
  }

  bool supports_checkpoint() const override { return true; }

  RunResult run(const Spec& params, const RunContext& ctx) const override {
    params.allow_only({"years", "step_min", "chunk_steps", "pue", "cfe",
                       "autoscaler", "opportunistic",
                       "opportunistic_utilization", "checkpoint_segments",
                       "regions"});
    using namespace datacenter;

    const double default_pue =
        params.optional_double_in("pue", kHyperscalePue, 1.0, 3.0);
    const double default_cfe = params.optional_double_in("cfe", 0.0, 0.0, 1.0);

    PlanetSimulator::Config config;
    config.horizon =
        years(params.optional_double_in("years", 1.0, 0.001, 100.0));
    config.step =
        minutes(params.optional_double_in("step_min", 60.0, 0.01, 1440.0));
    config.steps_per_chunk =
        params.optional_int_in("chunk_steps", 1024, 1, 1000000);
    parse_fleet_run(params, ctx, config);

    const std::vector<Spec> region_specs = params.object_list("regions");
    if (region_specs.empty() ||
        region_specs.size() > PlanetSimulator::kMaxRegions) {
      throw SpecError(params.path() + ".regions: need 1 to " +
                      std::to_string(PlanetSimulator::kMaxRegions) +
                      " regions, got " + std::to_string(region_specs.size()));
    }
    std::vector<bool> region_faults_present;
    for (std::size_t i = 0; i < region_specs.size(); ++i) {
      const Spec& region = region_specs[i];
      region.allow_only({"name", "grid", "utc_offset_h", "pue", "cfe",
                         "web_servers", "train_servers", "train_utilization",
                         "web_load", "faults"});
      // Same grid seed for every region: regions naming the same grid share
      // one physical grid — and therefore one memoized IntensityTable. Fault
      // schedules fork off the run seed by region ordinal so sibling
      // regions never share an event stream.
      ParsedRegion parsed = parse_region(
          region, ctx.seed,
          ctx.seed ^ (0x51ed2701ULL * static_cast<std::uint64_t>(i + 1)),
          default_pue, default_cfe);
      parsed.config.name =
          region.optional_string("name", "region-" + std::to_string(i));
      parsed.config.utc_offset_hours =
          region.optional_double_in("utc_offset_h", 0.0, 0.0, 24.0);
      region_faults_present.push_back(parsed.faults.present);
      config.regions.push_back(std::move(parsed.config));
    }

    const PlanetSimulator sim(config);
    const long segments = chunk_segments(params, sim);
    const std::optional<PlanetSimulator::Result> ran =
        run_checkpointable(sim, ctx, segments);
    if (!ran) {
      return stopped_result(name());
    }
    const PlanetSimulator::Result& result = *ran;

    RunResult out;
    out.scenario = name();
    out.summary_header = {"region", "IT energy", "facility", "location carbon",
                          "market carbon"};
    JsonValue regions = JsonValue::array();
    for (std::size_t r = 0; r < result.regions.size(); ++r) {
      const PlanetSimulator::RegionResult& region = result.regions[r];
      out.summary_rows.push_back(
          {region.name, to_string(region.it_energy),
           to_string(region.facility_energy),
           to_string(region.location_carbon),
           to_string(region.market_carbon)});
      JsonValue jr = JsonValue::object();
      jr.set("name", str(region.name));
      set_totals(jr, region);
      if (region_faults_present[r]) {
        jr.set("faults", fault_stats_json(region.faults));
      }
      regions.append(std::move(jr));
    }

    JsonValue tiers = JsonValue::object();
    for (std::size_t t = 0; t < kNumTiers; ++t) {
      if (to_joules(result.tier_it_energy[t]) == 0.0) {
        continue;
      }
      tiers.set(to_string(static_cast<Tier>(t)),
                num(to_joules(result.tier_it_energy[t])));
    }

    JsonValue& rep = out.report;
    set_totals(rep, result);
    rep.set("tier_it_energy_j", std::move(tiers));
    rep.set("region_count", num(static_cast<double>(sim.region_count())));
    rep.set("distinct_intensity_tables",
            num(static_cast<double>(sim.distinct_intensity_tables())));
    rep.set("checkpoint_segments", num(static_cast<double>(segments)));
    rep.set("regions", std::move(regions));

    report::CsvWriter csv({"t_begin_s", "t_end_s", "facility_energy_j",
                           "location_carbon_g", "intensity_g_per_j"});
    for (const PlanetSimulator::SeriesSample& s : result.series) {
      csv.add_row({report::shortest_double(s.t_begin_s),
                   report::shortest_double(s.t_end_s),
                   report::shortest_double(s.facility_energy_j),
                   report::shortest_double(s.location_carbon_g),
                   report::shortest_double(s.intensity_g_per_j())});
    }
    out.csv_series.emplace_back("planet_series", csv.to_string());

    out.notes = total_notes(result, "");
    out.notes.insert(out.notes.begin(),
                     "regions:          " +
                         std::to_string(sim.region_count()) + " (" +
                         std::to_string(sim.distinct_intensity_tables()) +
                         " distinct intensity tables)");
    return out;
  }
};

// --- queue_schedule -------------------------------------------------------

class QueueScheduleSimulation final : public Simulation {
 public:
  std::string name() const override { return "queue_schedule"; }

  std::string description() const override {
    return "capacity-constrained carbon-aware queueing: FIFO vs greedy-green "
           "deferral of batch jobs on a fixed machine pool against a "
           "time-varying grid (Section IV-C)";
  }

  std::vector<ParamDoc> params() const override {
    std::vector<ParamDoc> docs = job_param_docs();
    docs.push_back({"machines", "int", "8", "machine pool size"});
    docs.push_back({"step_min", "number", "15", "queue simulation step"});
    docs.push_back({"pue", "number", "1.1", "facility PUE"});
    docs.push_back({"green_threshold_g_per_kwh", "number", "250",
                    "greedy-green runs while intensity <= threshold"});
    docs.push_back({"max_horizon_days", "number", "60",
                    "abort horizon for overloaded configurations"});
    docs.push_back({"policies", "string list", "[\"fifo\", \"greedy_green\"]",
                    "queue policies to compare (fifo, greedy_green)"});
    docs.push_back(checkpoint_segments_doc());
    append_docs(docs, grid_param_docs("grid"));
    append_docs(docs, fault_param_docs());
    return docs;
  }

  bool supports_checkpoint() const override { return true; }

  RunResult run(const Spec& params, const RunContext& ctx) const override {
    params.allow_only({"jobs", "power_kw", "duration_h", "slack_h",
                       "arrival_spread_h", "machines", "step_min", "pue",
                       "green_threshold_g_per_kwh", "max_horizon_days",
                       "policies", "checkpoint_segments", "grid", "faults"});
    using namespace datacenter;

    QueueSimConfig config;
    config.machines =
        static_cast<int>(params.optional_int_in("machines", 8, 1, 1000000));
    config.grid = parse_grid(params.optional_child("grid"), ctx.seed);
    config.pue = params.optional_double_in("pue", kHyperscalePue, 1.0, 3.0);
    config.step =
        minutes(params.optional_double_in("step_min", 15.0, 0.01, 1440.0));
    config.green_threshold = grams_per_kwh(params.optional_double_in(
        "green_threshold_g_per_kwh", 250.0, 0.0, 5000.0));
    config.max_horizon = days(
        params.optional_double_in("max_horizon_days", 60.0, 0.1, 36500.0));

    const ParsedFaults parsed_faults = parse_faults(params, ctx.seed);
    config.faults = parsed_faults.spec;

    const std::vector<datacenter::BatchJob> jobs = make_jobs(params, "job-");
    const std::vector<std::string> policy_names = params.optional_string_list(
        "policies", {"fifo", "greedy_green"});
    if (policy_names.empty()) {
      throw SpecError(params.path() + ".policies: need at least one policy");
    }
    const long segments =
        params.optional_int_in("checkpoint_segments", 1, 1, 1000000);
    // A snapshot belongs to exactly one (config, policy) pair, so resume /
    // snapshot-writing requests only make sense against a single policy.
    if (ctx.checkpoint.active() && policy_names.size() > 1) {
      throw SpecError(params.path() +
                      ".policies: checkpoint/resume requires a single "
                      "policy (snapshots are per-policy); narrow \"policies\" "
                      "to one entry");
    }

    RunResult out;
    out.scenario = name();
    out.summary_header = {"policy",      "carbon",       "mean wait (h)",
                          "makespan (h)", "utilization", "peak running"};
    JsonValue policies = JsonValue::array();
    for (const std::string& policy_name : policy_names) {
      QueuePolicy policy;
      if (policy_name == "fifo") {
        policy = QueuePolicy::kFifo;
      } else if (policy_name == "greedy_green") {
        policy = QueuePolicy::kGreedyGreen;
      } else {
        throw SpecError(params.path() + ".policies: unknown policy '" +
                        policy_name + "'; available: fifo, greedy_green");
      }
      const QueueSim sim(jobs, config, policy);
      const std::optional<QueueSimResult> ran =
          run_checkpointable(sim, ctx, segments);
      if (!ran) {
        return stopped_result(name());
      }
      const QueueSimResult& r = *ran;
      out.summary_rows.push_back(
          {r.policy_name, to_string(r.total_carbon),
           report::fmt(to_hours(r.mean_wait)), report::fmt(to_hours(r.makespan)),
           report::fmt_percent(r.utilization), std::to_string(r.peak_running)});

      JsonValue jp = JsonValue::object();
      jp.set("policy", str(r.policy_name));
      jp.set("total_carbon_g", num(to_grams_co2e(r.total_carbon)));
      jp.set("mean_wait_s", num(to_seconds(r.mean_wait)));
      jp.set("makespan_s", num(to_seconds(r.makespan)));
      jp.set("utilization", num(r.utilization));
      jp.set("peak_running", num(static_cast<double>(r.peak_running)));
      jp.set("jobs", num(static_cast<double>(r.jobs.size())));
      if (parsed_faults.present) {
        JsonValue jf = JsonValue::object();
        jf.set("preemptions", num(static_cast<double>(r.preemptions)));
        jf.set("recoveries",
               num(static_cast<double>(r.faults.recoveries)));
        jf.set("checkpoints",
               num(static_cast<double>(r.faults.checkpoints)));
        jf.set("redone_work_hours", num(r.faults.redone_work_hours));
        jf.set("wasted_energy_j", num(to_joules(r.faults.wasted_energy)));
        jf.set("checkpoint_energy_j",
               num(to_joules(r.faults.checkpoint_energy)));
        jp.set("faults", std::move(jf));
      }
      policies.append(std::move(jp));

      report::CsvWriter csv({"id", "arrival_s", "start_s", "finish_s",
                             "wait_s", "carbon_g"});
      for (const CompletedJob& j : r.jobs) {
        csv.add_row({j.job.id, report::shortest_double(to_seconds(j.job.arrival)),
                     report::shortest_double(to_seconds(j.start)),
                     report::shortest_double(to_seconds(j.finish)),
                     report::shortest_double(to_seconds(j.wait())),
                     report::shortest_double(to_grams_co2e(j.carbon))});
      }
      out.csv_series.emplace_back("queue_" + policy_name, csv.to_string());
    }
    out.report.set("machines", num(static_cast<double>(config.machines)));
    out.report.set("policies", std::move(policies));
    return out;
  }
};

// --- cross_region_schedule ------------------------------------------------

class CrossRegionScheduleSimulation final : public Simulation {
 public:
  std::string name() const override { return "cross_region_schedule"; }

  std::string description() const override {
    return "carbon-aware scheduling across candidate regions: each "
           "deferrable job runs in the region and slack-window slot "
           "minimizing its carbon (Section IV-C)";
  }

  std::vector<ParamDoc> params() const override {
    std::vector<ParamDoc> docs = job_param_docs();
    docs.push_back({"policy", "string", "forecast",
                    "slot policy per region (fifo, threshold, forecast)"});
    docs.push_back({"threshold_g_per_kwh", "number", "200",
                    "threshold policy: run below this intensity"});
    docs.push_back({"probe_step_min", "number", "15",
                    "policy probe grid step (minutes)"});
    docs.push_back({"pue", "number", "1.1", "facility PUE"});
    docs.push_back({"regions", "object list", "(required)",
                    "candidate region grids; same schema as `grid`"});
    append_docs(docs, grid_param_docs("regions[i]"));
    append_docs(docs, fault_param_docs());
    return docs;
  }

  RunResult run(const Spec& params, const RunContext& ctx) const override {
    params.allow_only({"jobs", "power_kw", "duration_h", "slack_h",
                       "arrival_spread_h", "policy", "threshold_g_per_kwh",
                       "probe_step_min", "pue", "regions", "faults"});
    using namespace datacenter;

    const std::vector<Spec> region_specs = params.object_list("regions");
    if (region_specs.empty()) {
      throw SpecError(params.path() +
                      ".regions: need at least one region grid");
    }
    std::vector<IntermittentGrid> grids_list;
    std::vector<std::string> region_names;
    grids_list.reserve(region_specs.size());
    for (const Spec& region : region_specs) {
      IntermittentGrid::Config cfg = parse_grid(region, ctx.seed);
      region_names.push_back(cfg.profile.name);
      grids_list.emplace_back(std::move(cfg));
    }

    const std::string policy_name =
        params.optional_string("policy", "forecast");
    const std::unique_ptr<SchedulerPolicy> policy =
        make_policy(params, policy_name);
    const double pue =
        params.optional_double_in("pue", kHyperscalePue, 1.0, 3.0);
    const std::vector<BatchJob> jobs = make_jobs(params, "job-");

    // Run-level fault gate: crashes restart the whole schedule; the gate
    // throws RetriesExhaustedError before the expensive simulation runs.
    Duration horizon;
    for (const BatchJob& j : jobs) {
      const Duration end = j.arrival + j.slack + j.duration;
      if (to_seconds(end) > to_seconds(horizon)) {
        horizon = end;
      }
    }
    const std::optional<fault::RunGateResult> gate =
        gate_run(params, ctx.seed, horizon);

    const ScheduleResult result =
        run_cross_region_schedule(jobs, grids_list, *policy, pue);

    // Per-region placement counts and carbon (jobs are annotated
    // "<id>@<region>" by the scheduler).
    std::vector<int> region_jobs(grids_list.size(), 0);
    std::vector<CarbonMass> region_carbon(grids_list.size());
    for (const ScheduledJob& j : result.jobs) {
      const std::size_t at = j.job.id.rfind('@');
      const std::string region =
          at == std::string::npos ? "" : j.job.id.substr(at + 1);
      for (std::size_t gi = 0; gi < region_names.size(); ++gi) {
        if (region_names[gi] == region) {
          ++region_jobs[gi];
          region_carbon[gi] += j.carbon;
          break;
        }
      }
    }

    RunResult out;
    out.scenario = name();
    out.summary_header = {"region", "jobs placed", "carbon"};
    JsonValue regions = JsonValue::array();
    for (std::size_t gi = 0; gi < region_names.size(); ++gi) {
      out.summary_rows.push_back({region_names[gi],
                                  std::to_string(region_jobs[gi]),
                                  to_string(region_carbon[gi])});
      JsonValue jr = JsonValue::object();
      jr.set("region", str(region_names[gi]));
      jr.set("jobs", num(static_cast<double>(region_jobs[gi])));
      jr.set("carbon_g", num(to_grams_co2e(region_carbon[gi])));
      regions.append(std::move(jr));
    }
    out.notes = {
        "policy:       " + result.policy_name,
        "total carbon: " + to_string(result.total_carbon),
        "mean delay:   " + report::fmt(to_hours(result.mean_delay)) + " h",
        "peak power:   " + to_string(result.peak_concurrent_power),
    };

    report::CsvWriter csv({"id", "region", "arrival_s", "start_s", "carbon_g"});
    for (const ScheduledJob& j : result.jobs) {
      const std::size_t at = j.job.id.rfind('@');
      csv.add_row({j.job.id.substr(0, at), j.job.id.substr(at + 1),
                   report::shortest_double(to_seconds(j.job.arrival)),
                   report::shortest_double(to_seconds(j.start)),
                   report::shortest_double(to_grams_co2e(j.carbon))});
    }
    out.csv_series.emplace_back("cross_region_jobs", csv.to_string());

    JsonValue& rep = out.report;
    rep.set("policy", str(result.policy_name));
    rep.set("total_carbon_g", num(to_grams_co2e(result.total_carbon)));
    rep.set("mean_delay_s", num(to_seconds(result.mean_delay)));
    rep.set("peak_power_w", num(to_watts(result.peak_concurrent_power)));
    rep.set("regions", std::move(regions));
    if (gate) {
      // Redone schedule slices re-emit carbon in proportion to lost time.
      rep.set("faults", gate_report(*gate, to_grams_co2e(result.total_carbon),
                                    "wasted_carbon_g"));
    }
    return out;
  }
};

// --- fl_rounds ------------------------------------------------------------

class FlRoundsSimulation final : public Simulation {
 public:
  std::string name() const override { return "fl_rounds"; }

  std::string description() const override {
    return "federated-learning campaign over a heterogeneous client "
           "population, estimated with the paper's 90-day-log methodology "
           "and compared to centralized baselines (Figure 11, Appendix B)";
  }

  std::vector<ParamDoc> params() const override {
    std::vector<ParamDoc> docs = {
        {"name", "string", "fl-app", "application label"},
        {"clients_per_round", "int", "100", "participants sampled per round"},
        {"rounds_per_day", "number", "24", "round cadence"},
        {"days", "number", "90", "campaign length (days)"},
        {"model_mb", "number", "20", "model size exchanged per round (MB)"},
        {"compute_min", "number", "4",
         "local training minutes on the reference device"},
        {"seed", "int", "23", "round-sampling seed (module default)"},
        {"grid", "string", "us-average",
         "residential grid for the edge estimate (" + grids::known_names() +
             ")"},
        {"device_power_w", "number", "3", "client device power (Appendix B)"},
        {"router_power_w", "number", "7.5", "home router power (Appendix B)"},
        {"include_baselines", "bool", "true",
         "report the Figure 11 centralized baselines"},
        {"population.num_clients", "int", "10000", "population size"},
        {"population.speed_sigma", "number", "0.5",
         "lognormal sigma of client compute speed"},
        {"population.median_download_mbps", "number", "8", "median downlink"},
        {"population.median_upload_mbps", "number", "3", "median uplink"},
        {"population.bandwidth_sigma", "number", "0.7",
         "lognormal sigma of client bandwidth"},
        {"population.dropout_probability", "number", "0.05",
         "per-round client dropout probability"},
        {"population.seed", "int", "17", "population seed (module default)"},
    };
    append_docs(docs, fault_param_docs());
    return docs;
  }

  RunResult run(const Spec& params, const RunContext& ctx) const override {
    params.allow_only({"name", "clients_per_round", "rounds_per_day", "days",
                       "model_mb", "compute_min", "seed", "grid",
                       "device_power_w", "router_power_w", "include_baselines",
                       "population", "faults"});
    using namespace fl;

    FlApplicationConfig app;
    app.name = params.optional_string("name", "fl-app");
    app.clients_per_round = static_cast<int>(
        params.optional_int_in("clients_per_round", 100, 1, 10000000));
    app.rounds_per_day =
        params.optional_double_in("rounds_per_day", 24.0, 1e-3, 1e5);
    app.campaign = days(params.optional_double_in("days", 90.0, 0.01, 36500.0));
    app.model_size =
        megabytes(params.optional_double_in("model_mb", 20.0, 1e-6, 1e6));
    app.reference_compute_time =
        minutes(params.optional_double_in("compute_min", 4.0, 1e-3, 1e5));
    app.seed = static_cast<std::uint64_t>(
        params.optional_int_in("seed", 23, 0, 1L << 62));

    const Spec pop = params.optional_child("population");
    pop.allow_only({"num_clients", "speed_sigma", "median_download_mbps",
                    "median_upload_mbps", "bandwidth_sigma",
                    "dropout_probability", "seed"});
    Population::Config population;
    population.num_clients = static_cast<int>(
        pop.optional_int_in("num_clients", 10000, 1, 100000000));
    population.speed_sigma =
        pop.optional_double_in("speed_sigma", 0.5, 0.0, 10.0);
    population.median_download_mbps =
        pop.optional_double_in("median_download_mbps", 8.0, 1e-3, 1e5);
    population.median_upload_mbps =
        pop.optional_double_in("median_upload_mbps", 3.0, 1e-3, 1e5);
    population.bandwidth_sigma =
        pop.optional_double_in("bandwidth_sigma", 0.7, 0.0, 10.0);
    population.dropout_probability =
        pop.optional_double_in("dropout_probability", 0.05, 0.0, 1.0);
    population.seed = static_cast<std::uint64_t>(
        pop.optional_int_in("seed", 17, 0, 1L << 62));

    FlEstimatorAssumptions assumptions = default_fl_assumptions();
    assumptions.grid = profile_by_name(params, "grid", "us-average");
    assumptions.device_power =
        watts(params.optional_double_in("device_power_w", 3.0, 0.0, 1000.0));
    assumptions.router_power =
        watts(params.optional_double_in("router_power_w", 7.5, 0.0, 1000.0));

    // Run-level fault gate over the campaign window (server-side crashes
    // force round re-runs from the last aggregation checkpoint).
    const std::optional<fault::RunGateResult> gate =
        gate_run(params, ctx.seed, app.campaign);

    const RoundSimulator sim(app, population);
    const std::vector<ClientLogEntry> log = sim.run();
    const FlFootprint fp = estimate_footprint(app.name, log, assumptions);

    RunResult out;
    out.scenario = name();
    out.summary_header = {"metric", "value"};
    out.summary_rows = {
        {"rounds", std::to_string(sim.total_rounds())},
        {"client participations", std::to_string(log.size())},
        {"device compute energy", to_string(fp.compute_energy)},
        {"wireless communication energy", to_string(fp.communication_energy)},
        {"communication share", report::fmt_percent(fp.communication_share())},
        {"energy wasted by dropouts", report::fmt_percent(fp.wasted_fraction)},
        {"carbon", to_string(fp.carbon)},
    };

    JsonValue& rep = out.report;
    rep.set("rounds", num(static_cast<double>(sim.total_rounds())));
    rep.set("log_entries", num(static_cast<double>(log.size())));
    rep.set("compute_energy_j", num(to_joules(fp.compute_energy)));
    rep.set("communication_energy_j", num(to_joules(fp.communication_energy)));
    rep.set("communication_share", num(fp.communication_share()));
    rep.set("wasted_fraction", num(fp.wasted_fraction));
    rep.set("carbon_g", num(to_grams_co2e(fp.carbon)));
    if (gate) {
      rep.set("faults",
              gate_report(*gate,
                          to_joules(fp.compute_energy) +
                              to_joules(fp.communication_energy),
                          "wasted_energy_j"));
    }

    if (params.optional_bool("include_baselines", true)) {
      JsonValue baselines = JsonValue::array();
      for (const CentralizedBaseline& base : figure11_baselines()) {
        out.summary_rows.push_back({"baseline " + base.name + " carbon",
                                    to_string(base.carbon)});
        JsonValue jb = JsonValue::object();
        jb.set("name", str(base.name));
        jb.set("training_energy_j", num(to_joules(base.training_energy)));
        jb.set("carbon_g", num(to_grams_co2e(base.carbon)));
        baselines.append(std::move(jb));
      }
      rep.set("baselines", std::move(baselines));
    }
    return out;
  }
};

// --- lifecycle_estimate ---------------------------------------------------

class LifecycleEstimateSimulation final : public Simulation {
 public:
  std::string name() const override { return "lifecycle_estimate"; }

  std::string description() const override {
    return "per-phase lifecycle footprint (Data/Experimentation/Training/"
           "Inference, operational + embodied) of a catalog model or a "
           "custom GPU-day workload (Section II, Figures 3-5)";
  }

  std::vector<ParamDoc> params() const override {
    std::vector<ParamDoc> docs = {
        {"model", "string", "LM",
         "production-model name, or \"custom\" with a custom block"},
        {"device", "string", "v100",
         "reference accelerator (" + hw::catalog::known_names() + ")"},
        {"grid", "string", "us-average", "accounting grid profile"},
        {"pue", "number", "1.1", "facility PUE"},
        {"cfe", "number", "0", "market-based carbon-free matching share"},
        {"utilization", "number", "0.5", "device utilization while training"},
        {"fleet_utilization", "number", "0.45",
         "fleet-average utilization for embodied amortization"},
        {"window_days", "number", "90", "analysis window (days)"},
        {"custom.data_gpu_days", "number", "0", "data-phase GPU-days"},
        {"custom.experimentation_gpu_days", "number", "0",
         "experimentation GPU-days"},
        {"custom.offline_training_gpu_days", "number", "0",
         "offline-training GPU-days"},
        {"custom.online_training_gpu_days", "number", "0",
         "online-training GPU-days"},
        {"custom.inference_gpu_days", "number", "0", "inference GPU-days"},
    };
    append_docs(docs, fault_param_docs());
    return docs;
  }

  RunResult run(const Spec& params, const RunContext& ctx) const override {
    params.allow_only({"model", "device", "grid", "pue", "cfe", "utilization",
                       "fleet_utilization", "window_days", "custom",
                       "faults"});
    using namespace mlcycle;

    const Duration window =
        days(params.optional_double_in("window_days", 90.0, 1.0, 36500.0));
    AccountingContext ctx_acct{
        OperationalCarbonModel(
            params.optional_double_in("pue", kHyperscalePue, 1.0, 3.0),
            profile_by_name(params, "grid", "us-average"),
            params.optional_double_in("cfe", 0.0, 0.0, 1.0)),
        device_by_name(params, "device", "v100"),
        params.optional_double_in("utilization", 0.5, 0.0, 1.0),
        params.optional_double_in("fleet_utilization", 0.45, 0.01, 1.0),
        window};

    const std::optional<fault::RunGateResult> gate =
        gate_run(params, ctx.seed, window);

    const std::string model_name = params.optional_string("model", "LM");
    ProductionModel model;
    if (model_name == "custom") {
      const Spec custom = params.optional_child("custom");
      custom.allow_only({"name", "data_gpu_days", "experimentation_gpu_days",
                         "offline_training_gpu_days", "online_training_gpu_days",
                         "inference_gpu_days"});
      model.name = custom.optional_string("name", "custom-model");
      model.data_gpu_days =
          custom.optional_double_in("data_gpu_days", 0.0, 0.0, 1e9);
      model.experimentation_gpu_days =
          custom.optional_double_in("experimentation_gpu_days", 0.0, 0.0, 1e9);
      model.offline_training_gpu_days = custom.optional_double_in(
          "offline_training_gpu_days", 0.0, 0.0, 1e9);
      model.online_training_gpu_days =
          custom.optional_double_in("online_training_gpu_days", 0.0, 0.0, 1e9);
      model.inference_gpu_days =
          custom.optional_double_in("inference_gpu_days", 0.0, 0.0, 1e9);
    } else {
      bool found = false;
      for (ProductionModel& m : production_models(ctx_acct)) {
        if (m.name == model_name) {
          model = std::move(m);
          found = true;
          break;
        }
      }
      if (!found) {
        std::string names;
        for (const ProductionModel& m : production_models(ctx_acct)) {
          if (!names.empty()) {
            names += ", ";
          }
          names += m.name;
        }
        throw SpecError(params.path() + ".model: unknown model '" +
                        model_name + "'; available: " + names + ", custom");
      }
    }

    const LifecycleFootprint footprint = model.footprint(ctx_acct);

    RunResult out;
    out.scenario = name();
    out.summary_header = {"phase", "energy", "operational", "embodied",
                          "total"};
    JsonValue phases = JsonValue::array();
    for (Phase phase : kAllPhases) {
      const PhaseFootprint& pf = footprint.phase(phase);
      out.summary_rows.push_back(
          {to_string(phase), to_string(pf.energy), to_string(pf.operational),
           to_string(pf.embodied), to_string(pf.total())});
      JsonValue jp = JsonValue::object();
      jp.set("phase", str(to_string(phase)));
      jp.set("energy_j", num(to_joules(pf.energy)));
      jp.set("operational_g", num(to_grams_co2e(pf.operational)));
      jp.set("embodied_g", num(to_grams_co2e(pf.embodied)));
      phases.append(std::move(jp));
    }
    const PhaseFootprint total = footprint.total();
    out.notes = {
        "model:             " + model.name,
        "total energy:      " + to_string(total.energy),
        "total carbon:      " + to_string(total.total()),
        "embodied fraction: " +
            report::fmt_percent(footprint.embodied_fraction()),
    };

    JsonValue& rep = out.report;
    rep.set("model", str(model.name));
    rep.set("total_energy_j", num(to_joules(total.energy)));
    rep.set("total_operational_g", num(to_grams_co2e(total.operational)));
    rep.set("total_embodied_g", num(to_grams_co2e(total.embodied)));
    rep.set("embodied_fraction", num(footprint.embodied_fraction()));
    rep.set("phases", std::move(phases));
    if (gate) {
      rep.set("faults",
              gate_report(*gate, to_joules(total.energy), "wasted_energy_j"));
    }
    return out;
  }
};

// --- scaling_sweep --------------------------------------------------------

class ScalingSweepSimulation final : public Simulation {
 public:
  std::string name() const override { return "scaling_sweep"; }

  std::string description() const override {
    return "data/model tandem-scaling grid for recommendation models: "
           "normalized entropy vs training energy, Pareto frontier, and the "
           "paper's tiny frontier power-law exponent (Figure 12, Appendix A)";
  }

  std::vector<ParamDoc> params() const override {
    std::vector<ParamDoc> docs = {
        {"data_factors", "number list", "[1, 2, 4, 8, 16]",
         "data scale multipliers"},
        {"model_factors", "number list", "[1, 2, 4, 8, 16]",
         "model scale multipliers"},
        {"law.ne_floor", "number", "0.75", "NE saturation floor"},
        {"law.data_coeff", "number", "0.04", "data-term coefficient"},
        {"law.data_exp", "number", "0.04", "data-term exponent"},
        {"law.model_coeff", "number", "0.035", "model-term coefficient"},
        {"law.model_exp", "number", "0.04", "model-term exponent"},
        {"law.model_energy_exponent", "number", "0.6667",
         "per-step energy ~ model^e"},
    };
    append_docs(docs, fault_param_docs());
    return docs;
  }

  RunResult run(const Spec& params, const RunContext& ctx) const override {
    params.allow_only({"data_factors", "model_factors", "law", "faults"});
    using namespace scaling;

    const Spec law_spec = params.optional_child("law");
    law_spec.allow_only({"ne_floor", "data_coeff", "data_exp", "model_coeff",
                         "model_exp", "model_energy_exponent"});
    RecsysScalingLaw law;
    law.ne_floor = law_spec.optional_double_in("ne_floor", law.ne_floor, 0.0, 10.0);
    law.data_coeff =
        law_spec.optional_double_in("data_coeff", law.data_coeff, 0.0, 10.0);
    law.data_exp =
        law_spec.optional_double_in("data_exp", law.data_exp, 0.0, 10.0);
    law.model_coeff =
        law_spec.optional_double_in("model_coeff", law.model_coeff, 0.0, 10.0);
    law.model_exp =
        law_spec.optional_double_in("model_exp", law.model_exp, 0.0, 10.0);
    law.model_energy_exponent = law_spec.optional_double_in(
        "model_energy_exponent", law.model_energy_exponent, 0.0, 3.0);

    const std::vector<double> data_factors = params.optional_number_list(
        "data_factors", {1.0, 2.0, 4.0, 8.0, 16.0});
    const std::vector<double> model_factors = params.optional_number_list(
        "model_factors", {1.0, 2.0, 4.0, 8.0, 16.0});
    for (double f : data_factors) {
      if (f <= 0.0) {
        throw SpecError(params.path() +
                        ".data_factors: factors must be positive");
      }
    }
    for (double f : model_factors) {
      if (f <= 0.0) {
        throw SpecError(params.path() +
                        ".model_factors: factors must be positive");
      }
    }

    const ScalingGrid grid(law, data_factors, model_factors);

    // Run-level fault gate: one training-day per grid point.
    const std::optional<fault::RunGateResult> gate = gate_run(
        params, ctx.seed, days(static_cast<double>(grid.points().size())));

    const std::vector<GridPoint> frontier = grid.pareto_frontier();
    const double exponent = grid.frontier_power_exponent();

    RunResult out;
    out.scenario = name();
    out.summary_header = {"data x", "model x", "total energy (rel)",
                          "normalized entropy"};
    JsonValue frontier_json = JsonValue::array();
    for (const GridPoint& p : frontier) {
      out.summary_rows.push_back(
          {report::fmt(p.data_factor), report::fmt(p.model_factor),
           report::fmt(p.total_energy), report::fmt(p.normalized_entropy)});
      JsonValue jp = JsonValue::object();
      jp.set("data_factor", num(p.data_factor));
      jp.set("model_factor", num(p.model_factor));
      jp.set("total_energy", num(p.total_energy));
      jp.set("normalized_entropy", num(p.normalized_entropy));
      frontier_json.append(std::move(jp));
    }
    out.notes = {
        "grid points:             " + std::to_string(grid.points().size()),
        "pareto frontier points:  " + std::to_string(frontier.size()),
        "frontier power exponent: " + report::shortest_double(exponent),
    };

    report::CsvWriter csv({"data_factor", "model_factor", "energy_per_step",
                           "total_energy", "normalized_entropy"});
    JsonValue points = JsonValue::array();
    for (const GridPoint& p : grid.points()) {
      csv.add_row_values({p.data_factor, p.model_factor, p.energy_per_step,
                          p.total_energy, p.normalized_entropy});
      JsonValue jp = JsonValue::object();
      jp.set("data_factor", num(p.data_factor));
      jp.set("model_factor", num(p.model_factor));
      jp.set("energy_per_step", num(p.energy_per_step));
      jp.set("total_energy", num(p.total_energy));
      jp.set("normalized_entropy", num(p.normalized_entropy));
      points.append(std::move(jp));
    }
    out.csv_series.emplace_back("scaling_grid", csv.to_string());

    JsonValue& rep = out.report;
    rep.set("frontier_power_exponent", num(exponent));
    if (gate) {
      double total_energy_rel = 0.0;
      for (const GridPoint& p : grid.points()) {
        total_energy_rel += p.total_energy;
      }
      rep.set("faults",
              gate_report(*gate, total_energy_rel, "wasted_energy_rel"));
    }
    rep.set("points", std::move(points));
    rep.set("frontier", std::move(frontier_json));
    return out;
  }
};

}  // namespace

void register_builtin_simulations(Registry& registry) {
  registry.add(std::make_unique<FleetSimulation>());
  registry.add(std::make_unique<PlanetSimulation>());
  registry.add(std::make_unique<QueueScheduleSimulation>());
  registry.add(std::make_unique<CrossRegionScheduleSimulation>());
  registry.add(std::make_unique<FlRoundsSimulation>());
  registry.add(std::make_unique<LifecycleEstimateSimulation>());
  registry.add(std::make_unique<ScalingSweepSimulation>());
}

}  // namespace sustainai::scenario
