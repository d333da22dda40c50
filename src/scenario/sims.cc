// The seven built-in simulations: adapters from declarative Specs onto the
// module Configs of datacenter/, fl/, mlcycle/, and scaling/.
//
// Conventions shared by every adapter:
//   * each adapter declares its params once, in a param table (params.h):
//     name, kind, default, range and doc. The table is the `sustainai
//     scenarios` listing and the CLI's --help, the Runner checks the whole
//     params tree against it (unknown keys name the valid ones), and each
//     read names only the key: default and bounds come from the row. A
//     default or bound that depends on the run (seeds, a planet region's
//     inherited pue/cfe and name, checkpoint_segments against the chunk
//     count, the region count) is passed where it is read, and its row
//     documents it;
//   * shared sub-tables (grid, jobs, faults, region, fleet run knobs) sit
//     next to the parser that reads them; the grid, job and accounting ones
//     are declared in schemas.h, where the CLI's `estimate`, `schedule` and
//     `model-card` reuse them. Grid sub-objects follow one schema
//     (parse_grid), with catalog lookups erroring as "unknown grid 'x';
//     available: …";
//   * reports carry physical quantities in base units with unit-suffixed
//     keys (…_j, …_g, …_s, …_w) so consumers can reconstruct the exact
//     doubles the simulators produced.
#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/carbon_intensity.h"
#include "core/lifecycle.h"
#include "core/operational.h"
#include "datacenter/fleet_sim.h"
#include "datacenter/planet_sim.h"
#include "datacenter/queue_sim.h"
#include "datacenter/scheduler.h"
#include "engine/journal.h"
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
#include "scenario/schemas.h"

namespace sustainai::scenario {

using report::JsonValue;
using Kind = ParamDoc::Kind;
using P = ParamDoc;

// --- Shared schemas (schemas.h) --------------------------------------------

GridProfile profile_by_name(const Params& spec, const std::string& key) {
  const std::string name = spec.text(key);
  const std::optional<GridProfile> profile = grids::by_name(name);
  if (!profile.has_value()) {
    throw SpecError(spec.path() + "." + key + ": unknown grid '" + name +
                    "'; available: " + grids::known_names());
  }
  return *profile;
}

hw::DeviceSpec device_by_name(const Params& spec, const std::string& key) {
  const std::string name = spec.text(key);
  const std::optional<hw::DeviceSpec> device = hw::catalog::by_name(name);
  if (!device.has_value()) {
    throw SpecError(spec.path() + "." + key + ": unknown device '" + name +
                    "'; available: " + hw::catalog::known_names());
  }
  return *device;
}

// Defaults model the paper's solar-heavy scheduling region.
std::vector<ParamDoc> grid_params(const std::string& prefix) {
  return {
      P::text(prefix + "name", "us-west-solar",
              "grid profile (" + grids::known_names() + ")"),
      P::number(prefix + "solar_share", 0.5, 0, 1,
                "peak solar contribution to carbon-free availability"),
      P::number(prefix + "wind_share", 0.15, 0, 1, "mean wind contribution"),
      P::number(prefix + "firm_share", 0.10, 0, 1,
                "always-on carbon-free share (hydro/nuclear)"),
      P::number(prefix + "sunrise_hour", 6, 0, 24, "local sunrise hour"),
      P::number(prefix + "sunset_hour", 18, 0, 24, "local sunset hour"),
      {.name = prefix + "seed", .kind = Kind::kInt, .max = kMaxSeed,
       .description = "wind-process seed (deterministic)",
       .default_doc = "top-level seed"},
  };
}

IntermittentGrid::Config parse_grid(const Params& grid, std::uint64_t seed) {
  IntermittentGrid::Config cfg;
  cfg.profile = profile_by_name(grid, "name");
  cfg.solar_share = grid.number("solar_share");
  cfg.wind_share = grid.number("wind_share");
  cfg.firm_share = grid.number("firm_share");
  cfg.sunrise_hour = grid.number("sunrise_hour");
  cfg.sunset_hour = grid.number("sunset_hour");
  cfg.seed = static_cast<std::uint64_t>(
      grid.integer("seed", static_cast<long>(seed)));
  return cfg;
}

std::vector<ParamDoc> job_params(long max_jobs) {
  return {
      P::integer("jobs", 24, 1, max_jobs, "number of deferrable batch jobs"),
      P::number("power_kw", 22.4, 0.001, 1e6,
                "per-job power draw while running (kW)"),
      P::number("duration_h", 4, 1e-3, 24.0 * 365.0,
                "per-job run length (hours)"),
      P::number("slack_h", 20, 0, 1e5,
                "max start delay within the slack window"),
      P::integer("arrival_spread_h", 24, 1, 8760,
                 "job i arrives at hour i mod this spread"),
  };
}

std::vector<datacenter::BatchJob> make_jobs(const Params& params,
                                            const std::string& id_prefix) {
  const long count = params.integer("jobs");
  const double power_kw = params.number("power_kw");
  const double duration_h = params.number("duration_h");
  const double slack_h = params.number("slack_h");
  const long spread_h = params.integer("arrival_spread_h");
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

ParamDoc threshold_param() {
  return P::number("threshold_g_per_kwh", 200, 0, 5000,
                   "threshold policy: run below this intensity");
}

std::vector<ParamDoc> accounting_params() {
  return {
      P::text("device", "v100",
              "reference accelerator (" + hw::catalog::known_names() + ")"),
      P::text("grid", "us-average", "accounting grid profile"),
      P::number("pue", kHyperscalePue, 1, 3, "facility PUE"),
      P::number("cfe", 0, 0, 1, "market-based carbon-free matching share"),
      P::number("utilization", 0.5, 0, 1, "device utilization while training"),
      P::number("fleet_utilization", 0.45, 0.01, 1,
                "fleet-average utilization for embodied amortization"),
  };
}

mlcycle::AccountingContext parse_accounting(const Params& params) {
  mlcycle::AccountingContext ctx{
      OperationalCarbonModel(params.number("pue"),
                             profile_by_name(params, "grid"),
                             params.number("cfe")),
      device_by_name(params, "device")};
  ctx.device_utilization = params.number("utilization");
  ctx.embodied_utilization = params.number("fleet_utilization");
  return ctx;
}

namespace {

JsonValue num(double v) { return JsonValue::number(v); }
JsonValue str(std::string s) { return JsonValue::string(std::move(s)); }

// The rows of `parts`, in order.
std::vector<ParamDoc> concat(
    std::initializer_list<std::vector<ParamDoc>> parts) {
  std::vector<ParamDoc> out;
  for (const std::vector<ParamDoc>& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

// --- Shared fault schema --------------------------------------------------

// The optional `faults` block accepted by every simulation, its rows named
// `prefix` + "faults." + key. Absent block => fault injection disabled and
// the fault-free code paths run untouched.
std::vector<ParamDoc> fault_params(const std::string& prefix) {
  const std::string f = prefix + "faults.";
  return {
      P::number(f + "host_crash_per_day", 0, 0, 1e4,
                "mean host-crash events per simulated day"),
      P::number(f + "preemption_per_day", 0, 0, 1e4,
                "mean job-preemption events per day (queue_schedule)"),
      P::number(f + "sdc_per_day", 0, 0, 1e4,
                "mean silent-data-corruption events per day"),
      P::number(f + "grid_gap_per_day", 0, 0, 1e4,
                "mean carbon-intensity feed gaps per day"),
      P::number(f + "crash_rewarm_min", 60, 0, 1e6,
                "host outage + re-warm length (minutes)"),
      P::number(f + "gap_duration_min", 120, 0, 1e6,
                "intensity-feed gap length (minutes)"),
      P::integer(f + "max_retries", 3, 0, 1000000,
                 "restarts allowed before the run fails with error.json"),
      P::number(f + "backoff_min", 5, 0, 1e6, "base retry backoff (minutes)"),
      P::number(f + "backoff_multiplier", 2, 1, 100,
                "exponential backoff growth per retry"),
      P::number(f + "checkpoint_interval_min", 60, 0, 1e9,
                "checkpoint cadence (0 = no checkpoints, faults lose all "
                "progress)"),
      P::number(f + "checkpoint_cost_s", 30, 0, 1e9,
                "overhead per checkpoint (seconds of work)"),
      P::number(f + "sdc_detection_coverage", 0, 0, 0.999,
                "fraction of SDCs caught before they poison a run"),
      {.name = f + "seed", .kind = Kind::kInt, .max = kMaxSeed,
       .description = "fault-schedule seed",
       .default_doc = "derived from run seed"},
  };
}

struct ParsedFaults {
  bool present = false;
  fault::FaultSpec spec;
  double sdc_detection_coverage = 0.0;
};

ParsedFaults parse_faults(const Params& params, std::uint64_t seed) {
  ParsedFaults out;
  if (!params.has("faults")) {
    return out;
  }
  const Params f = params.child("faults");
  fault::FaultRates& r = out.spec.rates;
  r.host_crash_per_day = f.number("host_crash_per_day");
  r.preemption_per_day = f.number("preemption_per_day");
  r.sdc_per_day = f.number("sdc_per_day");
  r.grid_gap_per_day = f.number("grid_gap_per_day");
  r.crash_rewarm = minutes(f.number("crash_rewarm_min"));
  r.gap_duration = minutes(f.number("gap_duration_min"));
  out.spec.retry.max_retries = static_cast<int>(f.integer("max_retries"));
  out.spec.retry.base_backoff = minutes(f.number("backoff_min"));
  out.spec.retry.backoff_multiplier = f.number("backoff_multiplier");
  out.spec.checkpoint.interval = minutes(f.number("checkpoint_interval_min"));
  out.spec.checkpoint.cost = seconds(f.number("checkpoint_cost_s"));
  // Forked off the run seed by default so a spec's fault schedule is stable
  // but never correlated with the simulators' own streams.
  out.spec.seed = static_cast<std::uint64_t>(
      f.integer("seed", static_cast<long>(seed ^ 0xfa017ULL)));
  out.sdc_detection_coverage = f.number("sdc_detection_coverage");
  // An all-zero-rate block is schema-checked but otherwise equivalent to no
  // block at all: the fault-free paths run and the report stays byte-
  // identical to a spec without `faults`.
  out.present = out.spec.enabled();
  return out;
}

// Run-level gate for the closed-form simulations (no internal timeline):
// host crashes restart the whole estimate from its last checkpoint. Returns
// nullopt when the spec has no enabled `faults` block; throws
// fault::RetriesExhaustedError when the crash count exceeds the retry
// budget.
std::optional<fault::RunGateResult> gate_run(const Params& params,
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
    const Params& params, const std::string& name) {
  const double probe_min = params.number("probe_step_min");
  if (name == "fifo") {
    return std::make_unique<datacenter::FifoPolicy>();
  }
  if (name == "threshold") {
    return std::make_unique<datacenter::ThresholdPolicy>(
        grams_per_kwh(params.number("threshold_g_per_kwh")),
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
// handing it to write_snapshot, when set). A simulator with a journal
// (seal/live_json) round-trips its live snapshot plus the segment's frame
// instead: records sealed earlier stay in memory, so a boundary costs the
// live state and the new records, not the history. Returns nullopt when
// stop_after halted the run before completion — the caller then returns
// stopped_result(). Byte-identical to a single sim.run() by the checkpoint
// contract (tests/resume_test.cc).
template <typename Sim>
auto run_checkpointable(const Sim& sim, const RunContext& ctx, long segments)
    -> std::optional<decltype(sim.run())> {
  constexpr bool kJournaled =
      requires(const Sim& s, const typename Sim::Checkpoint& c) { s.seal(c); };
  const CheckpointRequest& req = ctx.checkpoint;
  if (!req.active() && segments <= 1) {
    return sim.run();
  }
  typename Sim::Checkpoint cp = sim.start();
  if (!req.resume_text.empty()) {
    const report::JsonValue resumed = report::parse_json(req.resume_text);
    if constexpr (kJournaled) {
      cp = sim.parse_checkpoint(resumed, req.resume_journal, std::move(cp));
    } else {
      cp = sim.parse_checkpoint(resumed);
    }
  }
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
    if constexpr (kJournaled) {
      const engine::SealedFrame sealed = sim.seal(cp);
      const std::string snapshot =
          report::canonical_json(sim.live_json(cp, sealed.covers));
      if (req.append_journal && !sealed.frame.empty()) {
        req.append_journal(sealed.frame);
      }
      if (req.write_snapshot) {
        req.write_snapshot(snapshot);
      }
      cp = sim.parse_checkpoint(report::parse_json(snapshot), sealed.frame,
                                std::move(cp));
    } else {
      const std::string snapshot =
          report::canonical_json(sim.checkpoint_json(cp));
      if (req.write_snapshot) {
        req.write_snapshot(snapshot);
      }
      cp = sim.parse_checkpoint(report::parse_json(snapshot));
    }
    ++done_segments;
    if (req.stop_after > 0 && done_segments >= req.stop_after &&
        !sim.done(cp)) {
      return std::nullopt;
    }
  }
  return sim.finalize(cp);
}

// Calls f() for a fleet or planet simulator and reports a step too fine
// for its bounded buffers at step_min (which the CLI restates as
// --step-min): demand rows over FleetRegion::Run::kMaxDemandRowBytes, or a
// segment's intensity windows over IntensityWindows::kMaxWindowBytes. Both
// are thrown before the buffer is allocated.
template <typename F>
auto at_step_min(const Params& params, F&& f) -> decltype(f()) {
  try {
    return f();
  } catch (const datacenter::StepRowsTooLong& e) {
    throw SpecError(params.path() + ".step_min: " + e.what());
  } catch (const datacenter::WindowsTooLong& e) {
    throw SpecError(params.path() + ".step_min: " + e.what());
  }
}

template <typename Sim, typename Config>
std::unique_ptr<const Sim> build_stepped(const Params& params,
                                         const Config& config) {
  return at_step_min(params,
                     [&] { return std::make_unique<const Sim>(config); });
}

RunResult stopped_result(std::string scenario) {
  RunResult stopped;
  stopped.scenario = std::move(scenario);
  stopped.stopped = true;
  return stopped;
}

// Shared row for the sims that honor checkpoint_segments. Fleet and planet
// bound it by their chunk count, known once the simulator is built.
ParamDoc checkpoint_segments_param(bool chunked) {
  ParamDoc r = P::integer(
      "checkpoint_segments", 1, 1, 1000000,
      "split the run into this many checkpointed segments, round-tripping "
      "the snapshot through canonical JSON between them (byte-identical "
      "to an uninterrupted run by contract)");
  r.range_doc = chunked ? "[1, chunk count]" : "";
  return r;
}

// --- fleet regions: the fleet's params and each planet region ------------

// One region's web + train cluster, grid, PUE, CFE and faults block: the
// schema the fleet's params and every planet `regions[i]` share, its rows
// named `prefix` + key. A planet region (`inherit`) defaults its pue and
// cfe to the planet's.
std::vector<ParamDoc> region_params(const std::string& prefix, bool inherit) {
  std::vector<ParamDoc> rows = {
      P::number(prefix + "pue", kHyperscalePue, 1, 3,
                "facility power usage effectiveness"),
      P::number(prefix + "cfe", 0, 0, 1,
                "market-based carbon-free matching share"),
      P::integer(prefix + "web_servers", 300, 0, 10000000,
                 "web-tier server count"),
      P::integer(prefix + "train_servers", 12, 0, 1000000,
                 "8-GPU training host count"),
      P::number(prefix + "train_utilization", 0.5, 0, 1,
                "flat training-tier load"),
      P::number(prefix + "web_load.trough", 0.3, 0, 1,
                "overnight web utilization"),
      P::number(prefix + "web_load.peak", 0.9, 0, 1, "peak web utilization"),
      P::number(prefix + "web_load.peak_hour", 20, 0, 24,
                "local hour of the web peak"),
  };
  if (inherit) {
    rows[0].fallback = rows[1].fallback = {};
    rows[0].default_doc = "top-level pue";
    rows[1].default_doc = "top-level cfe";
  }
  return concat({rows, grid_params(prefix + "grid."), fault_params(prefix)});
}

struct ParsedRegion {
  datacenter::FleetRegionConfig config;
  ParsedFaults faults;
};

// `planet` is the planet whose pue and cfe the region inherits; null for the
// fleet.
ParsedRegion parse_region(const Params& region, std::uint64_t seed,
                          std::uint64_t fault_seed, const Params* planet) {
  using namespace datacenter;
  ParsedRegion out;
  FleetRegionConfig& rc = out.config;
  rc.grid = parse_grid(region.child("grid"), seed);
  rc.pue = planet == nullptr ? region.number("pue")
                             : region.number("pue", planet->number("pue"));
  rc.cfe_coverage = planet == nullptr
                        ? region.number("cfe")
                        : region.number("cfe", planet->number("cfe"));

  const Params web_load = region.child("web_load");
  ServerGroup web;
  web.name = "web";
  web.sku = hw::skus::web_tier();
  web.count = static_cast<int>(region.integer("web_servers"));
  web.tier = Tier::kWeb;
  web.load = DiurnalProfile{web_load.number("trough"), web_load.number("peak"),
                            web_load.number("peak_hour")};
  web.autoscalable = true;
  rc.cluster.add_group(web);

  ServerGroup train;
  train.name = "train";
  train.sku = hw::skus::gpu_training_8x();
  train.count = static_cast<int>(region.integer("train_servers"));
  train.tier = Tier::kAiTraining;
  train.load = flat_profile(region.number("train_utilization"));
  rc.cluster.add_group(train);

  out.faults = parse_faults(region, fault_seed);
  rc.faults = out.faults.spec;
  return out;
}

// Run-wide knobs of a FleetSimulator or PlanetSimulator config.
std::vector<ParamDoc> fleet_run_params() {
  return {
      P::flag("autoscaler", true, "consolidate web tiers off-peak"),
      P::flag("opportunistic", true,
              "run offline training on freed web servers"),
      P::number("opportunistic_utilization", 0.90, 0, 1,
                "utilization of harvested servers"),
      checkpoint_segments_param(true),
  };
}

template <typename Config>
void parse_fleet_run(const Params& params, const RunContext& ctx,
                     Config& config) {
  config.enable_autoscaler = params.flag("autoscaler");
  config.opportunistic_training = params.flag("opportunistic");
  config.opportunistic_utilization = params.number("opportunistic_utilization");
  config.pool = ctx.pool;
}

// checkpoint_segments, bounded by the simulator's chunk count.
template <typename Sim>
long chunk_segments(const Params& params, const Sim& sim) {
  return params.integer("checkpoint_segments", {},
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

std::vector<ParamDoc> fleet_params() {
  std::vector<ParamDoc> rows = {
      P::number("days", 7, 0.01, 3650, "simulated horizon in days"),
      P::number("step_min", 15, 0.01, 1440, "simulation step (minutes)"),
      P::integer("chunk_steps", 256, 1, 1000000,
                 "steps per parallel chunk (determinism-neutral)"),
  };
  return concat({rows, fleet_run_params(), region_params("", false)});
}

class FleetSimulation final : public Simulation {
 public:
  FleetSimulation()
      : Simulation("fleet",
                   "datacenter fleet over a horizon: diurnal web tier + AI "
                   "training tier, autoscaling harvesting off-peak capacity "
                   "for opportunistic training, PUE and time-varying grid "
                   "carbon (Sections III-C, IV-C)",
                   fleet_params(), /*checkpointable=*/true) {}

  RunResult run(const Params& params, const RunContext& ctx) const override {
    using namespace datacenter;

    ParsedRegion region = parse_region(params, ctx.seed, ctx.seed, nullptr);
    FleetSimulator::Config config;
    config.cluster = std::move(region.config.cluster);
    config.grid = region.config.grid;
    config.pue = region.config.pue;
    config.cfe_coverage = region.config.cfe_coverage;
    config.faults = region.config.faults;
    config.horizon = days(params.number("days"));
    config.step = minutes(params.number("step_min"));
    config.steps_per_chunk = params.integer("chunk_steps");
    parse_fleet_run(params, ctx, config);

    const auto built = build_stepped<FleetSimulator>(params, config);
    const FleetSimulator& sim = *built;
    const std::optional<FleetResult> ran = at_step_min(params, [&] {
      return run_checkpointable(sim, ctx, chunk_segments(params, sim));
    });
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

std::vector<ParamDoc> planet_params() {
  std::vector<ParamDoc> rows = {
      P::number("years", 1, 0.001, 100,
                "simulated horizon in years (365.25-day)"),
      P::number("step_min", 60, 0.01, 1440, "simulation step (minutes)"),
      P::integer("chunk_steps", 1024, 1, 1000000,
                 "steps per fleet chunk; also the series window and "
                 "checkpoint granule (determinism-neutral)"),
      P::number("pue", kHyperscalePue, 1, 3,
                "default PUE for regions that omit one"),
      P::number("cfe", 0, 0, 1, "default market CFE share for regions"),
  };
  std::vector<ParamDoc> regions = {
      {.name = "regions", .kind = Kind::kObjectList,
       .description = "region fleets (see below)",
       .range_doc = "1 to " + std::to_string(
                                  datacenter::PlanetSimulator::kMaxRegions)},
      {.name = "regions[i].name", .kind = Kind::kString,
       .description = "region label", .default_doc = "region-<i>"},
      P::number("regions[i].utc_offset_h", 0, 0, 24,
                "local solar time leads UTC by this many hours; must be a "
                "whole number of steps"),
  };
  return concat({rows, fleet_run_params(), regions,
                 region_params("regions[i].", true)});
}

class PlanetSimulation final : public Simulation {
 public:
  PlanetSimulation()
      : Simulation("planet",
                   "planetary fleet: N region-fleets (own cluster, grid, PUE, "
                   "UTC phase offset, faults) run as (region, chunk) tasks "
                   "over a multi-year horizon, with "
                   "memoized intensity tables and checkpointed segments "
                   "(Sections III-C, IV-C at planetary scale)",
                   planet_params(), /*checkpointable=*/true) {}

  RunResult run(const Params& params, const RunContext& ctx) const override {
    using namespace datacenter;

    PlanetSimulator::Config config;
    config.horizon = years(params.number("years"));
    config.step = minutes(params.number("step_min"));
    config.steps_per_chunk = params.integer("chunk_steps");
    parse_fleet_run(params, ctx, config);

    const std::vector<Params> region_specs = params.items("regions");
    if (region_specs.empty() ||
        region_specs.size() > PlanetSimulator::kMaxRegions) {
      throw SpecError(params.path() + ".regions: need 1 to " +
                      std::to_string(PlanetSimulator::kMaxRegions) +
                      " regions, got " + std::to_string(region_specs.size()));
    }
    std::vector<bool> region_faults_present;
    for (std::size_t i = 0; i < region_specs.size(); ++i) {
      const Params& region = region_specs[i];
      // Same grid seed for every region: regions naming the same grid share
      // one physical grid — and therefore one memoized IntensityTable. Fault
      // schedules fork off the run seed by region ordinal so sibling
      // regions never share an event stream.
      ParsedRegion parsed = parse_region(
          region, ctx.seed,
          ctx.seed ^ (0x51ed2701ULL * static_cast<std::uint64_t>(i + 1)),
          &params);
      parsed.config.name = region.text("name", "region-" + std::to_string(i));
      parsed.config.utc_offset_hours = region.number("utc_offset_h");
      region_faults_present.push_back(parsed.faults.present);
      config.regions.push_back(std::move(parsed.config));
    }

    const auto built = build_stepped<PlanetSimulator>(params, config);
    const PlanetSimulator& sim = *built;
    const long segments = chunk_segments(params, sim);
    const std::optional<PlanetSimulator::Result> ran = at_step_min(
        params, [&] { return run_checkpointable(sim, ctx, segments); });
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
      csv.cell(s.t_begin_s)
          .cell(s.t_end_s)
          .cell(s.facility_energy_j)
          .cell(s.location_carbon_g)
          .cell(s.intensity_g_per_j())
          .end_row();
    }
    out.csv_series.emplace_back("planet_series", std::move(csv).to_string());

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

std::vector<ParamDoc> queue_schedule_params() {
  std::vector<ParamDoc> rows = {
      P::integer("machines", 8, 1, 1000000, "machine pool size"),
      P::number("step_min", 15, 0.01, 1440, "queue simulation step"),
      P::number("pue", kHyperscalePue, 1, 3, "facility PUE"),
      P::number("green_threshold_g_per_kwh", 250, 0, 5000,
                "greedy-green runs while intensity <= threshold"),
      P::number("max_horizon_days", 60, 0.1, 36500,
                "abort horizon for overloaded configurations"),
      {.name = "policies", .kind = Kind::kStringList,
       .fallback = report::parse_json(R"(["fifo", "greedy_green"])"),
       .description = "queue policies to compare (fifo, greedy_green)"},
      checkpoint_segments_param(false),
  };
  return concat(
      {job_params(), rows, grid_params("grid."), fault_params("")});
}

class QueueScheduleSimulation final : public Simulation {
 public:
  QueueScheduleSimulation()
      : Simulation("queue_schedule",
                   "capacity-constrained carbon-aware queueing: FIFO vs "
                   "greedy-green deferral of batch jobs on a fixed machine "
                   "pool against a time-varying grid (Section IV-C)",
                   queue_schedule_params(), /*checkpointable=*/true) {}

  RunResult run(const Params& params, const RunContext& ctx) const override {
    using namespace datacenter;

    QueueSimConfig config;
    config.machines = static_cast<int>(params.integer("machines"));
    config.grid = parse_grid(params.child("grid"), ctx.seed);
    config.pue = params.number("pue");
    config.step = minutes(params.number("step_min"));
    config.green_threshold =
        grams_per_kwh(params.number("green_threshold_g_per_kwh"));
    config.max_horizon = days(params.number("max_horizon_days"));

    const ParsedFaults parsed_faults = parse_faults(params, ctx.seed);
    config.faults = parsed_faults.spec;

    const std::vector<datacenter::BatchJob> jobs = make_jobs(params, "job-");
    const std::vector<std::string> policy_names = params.texts("policies");
    if (policy_names.empty()) {
      throw SpecError(params.path() +
                      ".policies: need at least one policy");
    }
    const long segments = params.integer("checkpoint_segments");
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
        csv.cell(j.job.id)
            .cell(to_seconds(j.job.arrival))
            .cell(to_seconds(j.start))
            .cell(to_seconds(j.finish))
            .cell(to_seconds(j.wait()))
            .cell(to_grams_co2e(j.carbon))
            .end_row();
      }
      out.csv_series.emplace_back("queue_" + policy_name,
                                  std::move(csv).to_string());
    }
    out.report.set("machines", num(static_cast<double>(config.machines)));
    out.report.set("policies", std::move(policies));
    return out;
  }
};

// --- cross_region_schedule ------------------------------------------------

std::vector<ParamDoc> cross_region_schedule_params() {
  std::vector<ParamDoc> rows = {
      P::text("policy", "forecast",
              "slot policy per region (fifo, threshold, forecast)"),
      threshold_param(),
      P::number("probe_step_min", 15, 0.1, 24.0 * 60.0,
                "policy probe grid step (minutes)"),
      P::number("pue", kHyperscalePue, 1, 3, "facility PUE"),
      {.name = "regions", .kind = Kind::kObjectList,
       .description = "candidate region grids; same schema as `grid`",
       .range_doc = "1 or more"},
  };
  return concat(
      {job_params(), rows, grid_params("regions[i]."), fault_params("")});
}

class CrossRegionScheduleSimulation final : public Simulation {
 public:
  CrossRegionScheduleSimulation()
      : Simulation("cross_region_schedule",
                   "carbon-aware scheduling across candidate regions: each "
                   "deferrable job runs in the region and slack-window slot "
                   "minimizing its carbon (Section IV-C)",
                   cross_region_schedule_params()) {}

  RunResult run(const Params& params, const RunContext& ctx) const override {
    using namespace datacenter;

    const std::vector<Params> region_specs = params.items("regions");
    if (region_specs.empty()) {
      throw SpecError(params.path() +
                      ".regions: need at least one region grid");
    }
    std::vector<IntermittentGrid> grids_list;
    std::vector<std::string> region_names;
    grids_list.reserve(region_specs.size());
    for (const Params& region : region_specs) {
      IntermittentGrid::Config cfg = parse_grid(region, ctx.seed);
      region_names.push_back(cfg.profile.name);
      grids_list.emplace_back(std::move(cfg));
    }

    const std::unique_ptr<SchedulerPolicy> policy =
        make_policy(params, params.text("policy"));
    const double pue = params.number("pue");
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
      const std::string_view id = j.job.id;
      const std::size_t at = id.rfind('@');
      csv.cell(id.substr(0, at))
          .cell(id.substr(at + 1))
          .cell(to_seconds(j.job.arrival))
          .cell(to_seconds(j.start))
          .cell(to_grams_co2e(j.carbon))
          .end_row();
    }
    out.csv_series.emplace_back("cross_region_jobs",
                                std::move(csv).to_string());

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

std::vector<ParamDoc> fl_rounds_params() {
  std::vector<ParamDoc> rows = {
      P::text("name", "fl-app", "application label"),
      P::integer("clients_per_round", 100, 1, 10000000,
                 "participants sampled per round"),
      P::number("rounds_per_day", 24, 1e-3, 1e5, "round cadence"),
      P::number("days", 90, 0.01, 36500, "campaign length (days)"),
      P::number("model_mb", 20, 1e-6, 1e6,
                "model size exchanged per round (MB)"),
      P::number("compute_min", 4, 1e-3, 1e5,
                "local training minutes on the reference device"),
      P::integer("seed", 23, 0, kMaxSeed,
                 "round-sampling seed (module default)"),
      P::text("grid", "us-average",
              "residential grid for the edge estimate (" +
                  grids::known_names() + ")"),
      P::number("device_power_w", 3, 0, 1000,
                "client device power (Appendix B)"),
      P::number("router_power_w", 7.5, 0, 1000,
                "home router power (Appendix B)"),
      P::flag("include_baselines", true,
              "report the Figure 11 centralized baselines"),
      P::integer("population.num_clients", 10000, 1, 100000000,
                 "population size"),
      P::number("population.speed_sigma", 0.5, 0, 10,
                "lognormal sigma of client compute speed"),
      P::number("population.median_download_mbps", 8, 1e-3, 1e5,
                "median downlink"),
      P::number("population.median_upload_mbps", 3, 1e-3, 1e5,
                "median uplink"),
      P::number("population.bandwidth_sigma", 0.7, 0, 10,
                "lognormal sigma of client bandwidth"),
      P::number("population.dropout_probability", 0.05, 0, 1,
                "per-round client dropout probability"),
      P::integer("population.seed", 17, 0, kMaxSeed,
                 "population seed (module default)"),
  };
  return concat({rows, fault_params("")});
}

class FlRoundsSimulation final : public Simulation {
 public:
  FlRoundsSimulation()
      : Simulation("fl_rounds",
                   "federated-learning campaign over a heterogeneous client "
                   "population, estimated with the paper's 90-day-log "
                   "methodology and compared to centralized baselines (Figure "
                   "11, Appendix B)",
                   fl_rounds_params()) {}

  RunResult run(const Params& params, const RunContext& ctx) const override {
    using namespace fl;

    FlApplicationConfig app;
    app.name = params.text("name");
    app.clients_per_round =
        static_cast<int>(params.integer("clients_per_round"));
    app.rounds_per_day = params.number("rounds_per_day");
    app.campaign = days(params.number("days"));
    app.model_size = megabytes(params.number("model_mb"));
    app.reference_compute_time = minutes(params.number("compute_min"));
    app.seed = static_cast<std::uint64_t>(params.integer("seed"));

    const Params pop = params.child("population");
    Population::Config population;
    population.num_clients = static_cast<int>(pop.integer("num_clients"));
    population.speed_sigma = pop.number("speed_sigma");
    population.median_download_mbps = pop.number("median_download_mbps");
    population.median_upload_mbps = pop.number("median_upload_mbps");
    population.bandwidth_sigma = pop.number("bandwidth_sigma");
    population.dropout_probability = pop.number("dropout_probability");
    population.seed = static_cast<std::uint64_t>(pop.integer("seed"));

    FlEstimatorAssumptions assumptions = default_fl_assumptions();
    assumptions.grid = profile_by_name(params, "grid");
    assumptions.device_power = watts(params.number("device_power_w"));
    assumptions.router_power = watts(params.number("router_power_w"));

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

    if (params.flag("include_baselines")) {
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

std::vector<ParamDoc> lifecycle_estimate_params() {
  const std::vector<ParamDoc> model = {
      P::text("model", "LM",
              "production-model name, or \"custom\" with a custom block"),
  };
  const std::vector<ParamDoc> rows = {
      P::number("window_days", 90, 1, 36500, "analysis window (days)"),
      P::text("custom.name", "custom-model", "custom model label"),
      P::number("custom.data_gpu_days", 0, 0, 1e9, "data-phase GPU-days"),
      P::number("custom.experimentation_gpu_days", 0, 0, 1e9,
                "experimentation GPU-days"),
      P::number("custom.offline_training_gpu_days", 0, 0, 1e9,
                "offline-training GPU-days"),
      P::number("custom.online_training_gpu_days", 0, 0, 1e9,
                "online-training GPU-days"),
      P::number("custom.inference_gpu_days", 0, 0, 1e9, "inference GPU-days"),
  };
  return concat({model, accounting_params(), rows, fault_params("")});
}

class LifecycleEstimateSimulation final : public Simulation {
 public:
  LifecycleEstimateSimulation()
      : Simulation("lifecycle_estimate",
                   "per-phase lifecycle footprint "
                   "(Data/Experimentation/Training/Inference, operational + "
                   "embodied) of a catalog model or a custom GPU-day workload "
                   "(Section II, Figures 3-5)",
                   lifecycle_estimate_params()) {}

  RunResult run(const Params& params, const RunContext& ctx) const override {
    using namespace mlcycle;

    const Duration window = days(params.number("window_days"));
    AccountingContext ctx_acct = parse_accounting(params);
    ctx_acct.analysis_window = window;

    const std::optional<fault::RunGateResult> gate =
        gate_run(params, ctx.seed, window);

    const std::string model_name = params.text("model");
    ProductionModel model;
    if (model_name == "custom") {
      const Params custom = params.child("custom");
      model.name = custom.text("name");
      model.data_gpu_days = custom.number("data_gpu_days");
      model.experimentation_gpu_days =
          custom.number("experimentation_gpu_days");
      model.offline_training_gpu_days =
          custom.number("offline_training_gpu_days");
      model.online_training_gpu_days =
          custom.number("online_training_gpu_days");
      model.inference_gpu_days = custom.number("inference_gpu_days");
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

// The law's defaults are the module's own.
std::vector<ParamDoc> scaling_sweep_params() {
  const scaling::RecsysScalingLaw law;
  std::vector<ParamDoc> rows = {
      {.name = "data_factors", .kind = Kind::kNumberList,
       .fallback = report::parse_json("[1, 2, 4, 8, 16]"),
       .description = "data scale multipliers"},
      {.name = "model_factors", .kind = Kind::kNumberList,
       .fallback = report::parse_json("[1, 2, 4, 8, 16]"),
       .description = "model scale multipliers"},
      P::number("law.ne_floor", law.ne_floor, 0, 10, "NE saturation floor"),
      P::number("law.data_coeff", law.data_coeff, 0, 10,
                "data-term coefficient"),
      P::number("law.data_exp", law.data_exp, 0, 10, "data-term exponent"),
      P::number("law.model_coeff", law.model_coeff, 0, 10,
                "model-term coefficient"),
      P::number("law.model_exp", law.model_exp, 0, 10, "model-term exponent"),
      P::number("law.model_energy_exponent", law.model_energy_exponent, 0, 3,
                "per-step energy ~ model^e"),
  };
  return concat({rows, fault_params("")});
}

class ScalingSweepSimulation final : public Simulation {
 public:
  ScalingSweepSimulation()
      : Simulation("scaling_sweep",
                   "data/model tandem-scaling grid for recommendation models: "
                   "normalized entropy vs training energy, Pareto frontier, "
                   "and the paper's tiny frontier power-law exponent (Figure "
                   "12, Appendix A)",
                   scaling_sweep_params()) {}

  RunResult run(const Params& params, const RunContext& ctx) const override {
    using namespace scaling;

    const Params law_spec = params.child("law");
    RecsysScalingLaw law;
    law.ne_floor = law_spec.number("ne_floor");
    law.data_coeff = law_spec.number("data_coeff");
    law.data_exp = law_spec.number("data_exp");
    law.model_coeff = law_spec.number("model_coeff");
    law.model_exp = law_spec.number("model_exp");
    law.model_energy_exponent = law_spec.number("model_energy_exponent");

    const std::vector<double> data_factors = params.numbers("data_factors");
    const std::vector<double> model_factors = params.numbers("model_factors");
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
    out.csv_series.emplace_back("scaling_grid", std::move(csv).to_string());

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
