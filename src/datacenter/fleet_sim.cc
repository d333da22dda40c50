#include "datacenter/fleet_sim.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <unordered_map>

#include "core/check.h"
#include "exec/parallel.h"
#include "fault/plan.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sustainai::datacenter {

namespace {

constexpr const char* kCheckpointSchema = "sustainai-fleet-checkpoint-v1";

// Index range one task of a table prebuild fills.
constexpr std::size_t kTableFillRange = 8192;

// The fleet as one region at UTC offset 0.
FleetRegion fleet_region(const FleetSimulator::Config& config) {
  FleetRegionConfig region;
  region.cluster = config.cluster;
  region.grid = config.grid;
  region.pue = config.pue;
  region.cfe_coverage = config.cfe_coverage;
  region.faults = config.faults;
  const FleetRegion::Run run = FleetRegion::Run::of(config, "FleetSimulator");
  IntensityCache tables;
  auto table = resolve_intensity_tables({region}, run, tables, config.pool)[0];
  return FleetRegion(std::move(region), run, std::move(table));
}

}  // namespace

Energy FleetResult::it_energy_for(Tier tier) const {
  const auto index = static_cast<std::size_t>(tier);
  check_arg(index < tier_it_energy.size(), "it_energy_for: unknown tier");
  return tier_it_energy[index];
}

// --- FleetRegion ---------------------------------------------------------

void FleetRegion::Run::digest(engine::ConfigDigest& d,
                              long steps_per_chunk) const {
  d.add_double(step_s);
  d.add_long(steps);
  d.add_long(steps_per_chunk);
  // The retired step-kernel selector, whose one remaining value hashed as
  // 1. Kept so that v1 snapshots written before its removal still resume.
  d.add_long(1);
  d.add_long(enable_autoscaler ? 1 : 0);
  d.add_long(opportunistic_training ? 1 : 0);
  d.add_double(opportunistic_utilization);
  d.add_double(autoscaler.target_utilization);
  d.add_double(autoscaler.min_active_fraction);
  d.add_double(autoscaler.max_freed_fraction);
}

long FleetRegion::check_config(const FleetRegionConfig& config,
                               const Run& run) {
  check_arg(!config.cluster.groups().empty(),
            "FleetRegion: a region needs at least one server group");
  check_arg(config.pue >= 1.0, "FleetRegion: PUE must be >= 1.0");
  check_arg(config.cfe_coverage >= 0.0 && config.cfe_coverage <= 1.0,
            "FleetRegion: CFE coverage must be in [0, 1]");
  check_arg(config.utc_offset_hours >= 0.0 && config.utc_offset_hours < 24.0,
            "FleetRegion: utc_offset_hours must be in [0, 24)");
  const double offset_s = config.utc_offset_hours * kSecondsPerHour;
  const long offset_steps = std::lround(offset_s / run.step_s);
  check_arg(static_cast<double>(offset_steps) * run.step_s == offset_s,
            "FleetRegion: utc_offset_hours must be a whole number of steps");
  return offset_steps;
}

FleetRegion::FleetRegion(FleetRegionConfig config, const Run& run,
                         std::shared_ptr<const SharedIntensityTable> table)
    : config_(std::move(config)),
      run_(run),
      offset_steps_(check_config(config_, run_)),
      table_(std::move(table)) {
  check_arg(table_ != nullptr &&
                table_->table.built() >= run_.steps + offset_steps_,
            "FleetRegion: the intensity table must be built through the "
            "horizon plus the offset");

  // Rebase each group's diurnal peak to local solar time. Offset zero copies
  // the cluster untouched, so the peak-hour doubles stay bit-identical.
  if (offset_steps_ == 0) {
    cluster_ = config_.cluster;
  } else {
    for (ServerGroup group : config_.cluster.groups()) {
      group.load.peak_hour = std::fmod(
          group.load.peak_hour - config_.utc_offset_hours + 48.0, 24.0);
      cluster_.add_group(std::move(group));
    }
  }

  // Fault plan and its per-step projections, built serially up front so
  // the parallel chunks only ever read them.
  plan_ = config_.faults.enabled() ? config_.faults.plan(run_.horizon)
                                   : fault::FaultPlan();
  projection_ = project_faults(plan_, cluster_, run_.steps, run_.step_s);

  // The lane is the table read in place at the region's offset, unless a
  // grid-data gap remaps steps.
  if (projection_.any_gap()) {
    lane_.resize(static_cast<std::size_t>(run_.steps));
    for (std::size_t s = 0; s < lane_.size(); ++s) {
      lane_[s] =
          table_->table.raw()[projection_.intensity_remap[s] + offset_steps_];
    }
  }

  soa_ = build_fleet_soa(cluster_, run_.autoscaler, run_.enable_autoscaler,
                         run_.opportunistic_training,
                         run_.opportunistic_utilization, run_.steps,
                         run_.step_s);
  for (const ServerGroup& g : cluster_.groups()) {
    if (g.tier == Tier::kAiTraining) {
      train_servers_ += static_cast<double>(g.count);
    }
  }
}

FleetStepInputs FleetRegion::inputs() const {
  FleetStepInputs in;
  in.soa = &soa_;
  in.pue = config_.pue;
  in.intensity =
      lane_.empty() ? table_->table.raw() + offset_steps_ : lane_.data();
  in.down = projection_.any_down() ? &projection_.down : nullptr;
  return in;
}

FleetResult FleetRegion::summarize(const FleetPartial& total) const {
  const auto& groups = cluster_.groups();
  FleetResult result;
  result.groups.resize(groups.size());
  const double step_count = static_cast<double>(run_.steps);
  const double* group_energy = total.group_energy_j();
  for (std::size_t i = 0; i < groups.size(); ++i) {
    result.groups[i].name = groups[i].name;
    result.groups[i].tier = groups[i].tier;
    result.groups[i].it_energy = joules(group_energy[i]);
    result.groups[i].freed_server_hours = total.freed_hours()[i];
    result.groups[i].mean_utilization =
        step_count > 0.0 ? total.util_weight()[i] / step_count : 0.0;
    result.tier_it_energy[static_cast<std::size_t>(groups[i].tier)] +=
        joules(group_energy[i]);
  }
  // Totals reduce from the per-group totals in ascending group order (rule
  // 3 of the lane contract in datacenter/fleet_kernels.h).
  result.it_energy = joules(total.total(group_energy));
  result.opportunistic_energy = joules(total.total(total.opp_energy_j()));
  result.opportunistic_server_hours = total.total(total.opp_hours());
  result.facility_energy = result.it_energy * config_.pue;
  result.location_carbon = grams_co2e(total.total(total.location_g()));
  result.market_carbon =
      market_based(result.location_carbon, config_.cfe_coverage);

  if (config_.faults.enabled()) {
    FleetFaultStats& fs = result.faults;
    fs.host_crashes = plan_.count(fault::FaultKind::kHostCrash);
    fs.grid_gaps = plan_.count(fault::FaultKind::kGridDataGap);
    fs.lost_server_hours = total.total(total.fault_lost_hours());
    fs.wasted_energy = joules(total.total(total.fault_wasted_j()));
    // SDC rollbacks hit the training tier: deterministic replay from the
    // last checkpoint reproduces the same weights, so the cost is pure
    // accounting — the redone server-hours and the energy they burned —
    // rather than a dynamics change.
    const fault::CheckpointPolicy& checkpoint = config_.faults.checkpoint;
    const double horizon_s = to_seconds(run_.horizon);
    const double avg_train_w =
        horizon_s > 0.0
            ? to_joules(result.it_energy_for(Tier::kAiTraining)) / horizon_s
            : 0.0;
    for (const fault::FaultEvent& e :
         plan_.events_of(fault::FaultKind::kSilentCorruption)) {
      ++fs.sdc_events;
      const double lost_s = to_seconds(checkpoint.lost_work(e.time));
      fs.redone_work_hours += lost_s / kSecondsPerHour * train_servers_;
      fs.wasted_energy += joules(avg_train_w * lost_s);
    }
    fs.checkpoints = checkpoint.checkpoints_over(run_.horizon);
    fs.checkpoint_energy =
        joules(avg_train_w * to_seconds(checkpoint.cost) *
               static_cast<double>(fs.checkpoints));
    const double horizon_years = horizon_s / kSecondsPerYear;
    fs.measured_sdc_per_server_year =
        train_servers_ > 0.0 && horizon_years > 0.0
            ? static_cast<double>(fs.sdc_events) /
                  (train_servers_ * horizon_years)
            : 0.0;
  }
  return result;
}

void FleetRegion::digest(engine::ConfigDigest& d) const {
  digest_fault_spec(d, config_.faults);
  // Group order, counts, tiers, load shapes, SKU power envelopes.
  for (const ServerGroup& g : config_.cluster.groups()) {
    d.add_string(g.name);
    d.add_long(g.count);
    d.add_long(static_cast<long>(g.tier));
    d.add_long(g.autoscalable ? 1 : 0);
    d.add_double(g.load.trough);
    d.add_double(g.load.peak);
    d.add_double(g.load.peak_hour);
    d.add_string(g.sku.name());
    d.add_double(to_watts(g.sku.host().tdp));
    d.add_double(g.sku.host().idle_fraction);
    d.add_double(to_watts(g.sku.accelerator().tdp));
    d.add_double(g.sku.accelerator().idle_fraction);
    d.add_long(g.sku.accelerator_count());
  }
}

// --- FleetSimulator ------------------------------------------------------

FleetSimulator::FleetSimulator(Config config) : region_(fleet_region(config)) {
  engine::ShardedRun<FleetPartial>::Config rcfg;
  rcfg.steps = steps();
  rcfg.steps_per_chunk = config.steps_per_chunk;
  // Interior chunk boundaries stay on lane-block multiples, so every chunk
  // fills its lanes in the same pattern regardless of where it starts.
  rcfg.chunk_align = kStepLanes;
  rcfg.shards = 1;
  rcfg.pool = config.pool;
  rcfg.topology = engine::ShardedRun<FleetPartial>::Topology::kChunkMajor;
  rcfg.step_seconds = region_.run().step_s;
  rcfg.context = "fleet checkpoint";
  rcfg.segment_span = "fleet.segment";
  runner_ = engine::ShardedRun<FleetPartial>(rcfg);
  config_digest_ = compute_config_digest();
}

FleetSimulator::Checkpoint FleetSimulator::start() const {
  Checkpoint cp;
  cp.shards.emplace_back(region_.num_groups());
  return cp;
}

void FleetSimulator::advance(Checkpoint& cp, long max_steps) const {
  const FleetStepInputs inputs = region_.inputs();
  const double step_s = region_.run().step_s;
  runner_.advance(cp.next_step, cp.shards, max_steps,
                  [&](std::size_t, long begin, long end) -> FleetPartial {
                    obs::Span chunk_span(
                        "fleet.chunk", step_s * static_cast<double>(begin),
                        step_s * static_cast<double>(end));
                    return run_fleet_chunk(inputs, static_cast<std::size_t>(begin),
                                           static_cast<std::size_t>(end));
                  });
}

FleetSimulator::Result FleetSimulator::finalize(const Checkpoint& cp) const {
  check_arg(cp.next_step == steps(),
            "FleetSimulator::finalize: checkpoint has not reached the horizon");
  check_arg(cp.shards.size() == 1,
            "FleetSimulator::finalize: checkpoint shard count mismatch");
  Result result = region_.summarize(cp.shards[0]);
  const bool faults_enabled = region_.config().faults.enabled();

  if (faults_enabled) {
    // One span per fault event, on a deterministic per-event lane; emitted
    // serially post-merge so the trace stays byte-identical at any thread
    // count.
    const double step_s = region_.run().step_s;
    std::uint64_t lane = 0;
    for (const fault::FaultEvent& e : region_.plan().events()) {
      const std::string name = std::string("fault.") + to_string(e.kind);
      obs::Span span(name.c_str(), to_seconds(e.time),
                     to_seconds(e.time) +
                         std::max(to_seconds(e.duration), step_s));
      span.set_track(obs::kUserTrackBase + lane++);
    }
  }

  // Recorded post-merge on the calling thread, so the snapshot (and the
  // Prometheus text rendered from it) is deterministic at any thread count.
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  for (std::size_t t = 0; t < result.tier_it_energy.size(); ++t) {
    const Energy tier_energy = result.tier_it_energy[t];
    if (to_joules(tier_energy) == 0.0) {
      continue;
    }
    metrics
        .counter("fleet_it_energy_joules",
                 {{"tier", to_string(static_cast<Tier>(t))}})
        .add(to_joules(tier_energy));
  }
  metrics.counter("fleet_facility_energy_joules")
      .add(to_joules(result.facility_energy));
  metrics.counter("fleet_location_carbon_grams")
      .add(to_grams_co2e(result.location_carbon));
  metrics.counter("fleet_opportunistic_server_hours")
      .add(result.opportunistic_server_hours);
  if (faults_enabled) {
    const FaultStats& fs = result.faults;
    metrics.counter("fleet_fault_events_total", {{"kind", "host_crash"}})
        .add(static_cast<double>(fs.host_crashes));
    metrics.counter("fleet_fault_events_total", {{"kind", "silent_corruption"}})
        .add(static_cast<double>(fs.sdc_events));
    metrics.counter("fleet_fault_events_total", {{"kind", "grid_data_gap"}})
        .add(static_cast<double>(fs.grid_gaps));
    metrics.counter("fleet_fault_wasted_energy_joules")
        .add(to_joules(fs.wasted_energy));
    metrics.counter("fleet_fault_lost_server_hours").add(fs.lost_server_hours);
    metrics.counter("fleet_fault_redone_work_hours").add(fs.redone_work_hours);
    metrics.counter("fleet_fault_checkpoint_energy_joules")
        .add(to_joules(fs.checkpoint_energy));
  }
  return result;
}

FleetSimulator::Result FleetSimulator::run() const {
  obs::Span run_span("fleet.run", 0.0,
                     region_.run().step_s * static_cast<double>(steps()));
  Checkpoint cp = start();
  advance(cp, steps());
  return finalize(cp);
}

report::JsonValue FleetSimulator::checkpoint_json(const Checkpoint& cp) const {
  return runner_.state_json(cp.next_step, cp.shards, kCheckpointSchema,
                            config_digest(), "shards");
}

FleetSimulator::Checkpoint FleetSimulator::parse_checkpoint(
    const report::JsonValue& value) const {
  return runner_.parse_state(
      value, kCheckpointSchema, config_digest(), "shards",
      [this](std::size_t) { return FleetPartial(region_.num_groups()); });
}

std::string FleetSimulator::compute_config_digest() const {
  const FleetRegionConfig& rc = region_.config();
  engine::ConfigDigest d;
  region_.run().digest(d, runner_.steps_per_chunk());
  d.add_double(rc.pue);
  d.add_double(rc.cfe_coverage);
  d.add_string(IntensityCache::key_of(rc.grid, region_.run().step));
  region_.digest(d);
  return d.hex();
}

std::vector<std::shared_ptr<const SharedIntensityTable>>
resolve_intensity_tables(const std::vector<FleetRegionConfig>& regions,
                         const FleetRegion::Run& run, IntensityCache& tables,
                         exec::ThreadPool* pool) {
  std::vector<long> needs;
  needs.reserve(regions.size());
  for (const FleetRegionConfig& region : regions) {
    needs.push_back(run.steps + FleetRegion::check_config(region, run));
  }
  // One lookup per region (nothing is built yet), then each distinct table
  // once, to the longest need, before any region reads it.
  std::vector<std::shared_ptr<const SharedIntensityTable>> resolved;
  resolved.reserve(regions.size());
  std::unordered_map<SharedIntensityTable*, long> longest;
  std::vector<std::shared_ptr<SharedIntensityTable>> distinct;
  for (std::size_t r = 0; r < regions.size(); ++r) {
    std::shared_ptr<SharedIntensityTable> shared =
        tables.get(regions[r].grid, run.step, 0);
    const auto [it, fresh] = longest.emplace(shared.get(), needs[r]);
    if (fresh) {
      distinct.push_back(shared);
    } else {
      it->second = std::max(it->second, needs[r]);
    }
    resolved.push_back(std::move(shared));
  }
  const IntensityTable::RangeRunner ranges =
      [pool](long begin, long end, const std::function<void(long, long)>& fill) {
        exec::run_chunks(
            pool,
            exec::plan_chunks(static_cast<std::size_t>(end - begin),
                              kTableFillRange),
            [&](std::size_t, std::size_t b, std::size_t e) {
              fill(begin + static_cast<long>(b), begin + static_cast<long>(e));
            });
      };
  for (const std::shared_ptr<SharedIntensityTable>& shared : distinct) {
    shared->table.prebuild(longest.at(shared.get()), ranges);
  }
  return resolved;
}

void digest_fault_spec(engine::ConfigDigest& d, const fault::FaultSpec& spec) {
  d.add_string(std::to_string(spec.seed));
  d.add_double(spec.rates.host_crash_per_day);
  d.add_double(spec.rates.preemption_per_day);
  d.add_double(spec.rates.sdc_per_day);
  d.add_double(spec.rates.grid_gap_per_day);
  d.add_double(to_seconds(spec.rates.crash_rewarm));
  d.add_double(to_seconds(spec.rates.gap_duration));
  d.add_double(to_seconds(spec.checkpoint.interval));
  d.add_double(to_seconds(spec.checkpoint.cost));
}

}  // namespace sustainai::datacenter
