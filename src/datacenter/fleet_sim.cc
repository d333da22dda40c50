#include "datacenter/fleet_sim.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <unordered_map>

#include "core/check.h"
#include "exec/parallel.h"
#include "fault/plan.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sustainai::datacenter {

namespace {

constexpr const char* kCheckpointSchema = "sustainai-fleet-checkpoint-v1";

// A window fill runs in kWindowFillTasks equal ranges of at least
// kMinWindowFillRange grid points: enough tasks that a segment of tens of
// thousands of steps spreads over every thread, few enough that a long
// segmented run does not record thousands of exec.chunk spans.
constexpr std::size_t kWindowFillTasks = 16;
constexpr std::size_t kMinWindowFillRange = 1024;

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
  auto table = resolve_intensity_tables({region}, run, tables)[0];
  return FleetRegion(std::move(region), run, std::move(table));
}

}  // namespace

Energy FleetResult::it_energy_for(Tier tier) const {
  const auto index = static_cast<std::size_t>(tier);
  check_arg(index < tier_it_energy.size(), "it_energy_for: unknown tier");
  return tier_it_energy[index];
}

// --- FleetRegion ---------------------------------------------------------

void FleetRegion::Run::digest(engine::ConfigDigest& d) const {
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
  check_arg(table_ != nullptr, "FleetRegion: an intensity table is required");

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

  // Fault plan and its runs, built serially up front so the parallel
  // chunks only ever read them. A gap run holds the table's value at its
  // hold step, a pure function of the index like every window value.
  plan_ = config_.faults.enabled() ? config_.faults.plan(run_.horizon)
                                   : fault::FaultPlan();
  FaultProjection projection =
      project_faults(plan_, cluster_, run_.steps, run_.step_s);
  down_ = std::move(projection.down);
  held_.reserve(projection.gaps.size());
  for (const GapRun& gap : projection.gaps) {
    const long k = gap.hold + offset_steps_;
    HeldRun run{gap.begin, gap.end, 0.0};
    table_->table.fill_values(k, k + 1, &run.value);
    held_.push_back(run);
  }

  soa_ = build_fleet_soa(cluster_, run_.autoscaler, run_.enable_autoscaler,
                         run_.opportunistic_training,
                         run_.opportunistic_utilization, run_.steps,
                         run_.step_s);
  phases_ = ChunkPhaseSums(soa_, run_.steps_per_chunk);
  for (const ServerGroup& g : cluster_.groups()) {
    if (g.tier == Tier::kAiTraining) {
      train_servers_ += static_cast<double>(g.count);
    }
  }
}

FleetStepInputs FleetRegion::inputs(const IntensityWindow& window) const {
  check_arg(static_cast<long>(window.values.size()) >= offset_steps_,
            "FleetRegion: the intensity window is shorter than the offset");
  FleetStepInputs in;
  in.soa = &soa_;
  in.pue = config_.pue;
  in.intensity = window.values.data() + offset_steps_;
  in.intensity_first = window.first;
  in.down = down_.empty() ? nullptr : &down_;
  in.held = held_.empty() ? nullptr : &held_;
  in.phases = phases_.empty() ? nullptr : &phases_;
  return in;
}

std::size_t FleetRegion::state_bytes() const {
  std::size_t bytes = down_.capacity() * sizeof(std::vector<DownRun>) +
                      held_.capacity() * sizeof(HeldRun) + phases_.bytes();
  for (const std::vector<double>* row :
       {&soa_.demand, &soa_.row_energy_j, &soa_.row_util, &soa_.row_freed_h,
        &soa_.row_opp_j, &soa_.row_opp_h}) {
    bytes += row->capacity() * sizeof(double);
  }
  for (const std::vector<DownRun>& runs : down_) {
    bytes += runs.capacity() * sizeof(DownRun);
  }
  return bytes;
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

// --- IntensityWindows ----------------------------------------------------

IntensityWindows::IntensityWindows(
    const std::vector<const SharedIntensityTable*>& tables,
    const std::vector<long>& offsets, exec::ThreadPool* pool)
    : pool_(pool) {
  check_arg(tables.size() == offsets.size(),
            "IntensityWindows: one offset per table is required");
  grid_of_.reserve(tables.size());
  std::unordered_map<const SharedIntensityTable*, std::size_t> index;
  for (std::size_t r = 0; r < tables.size(); ++r) {
    const auto [it, fresh] = index.emplace(tables[r], grids_.size());
    if (fresh) {
      grids_.push_back(Grid{tables[r], 0, {}, true});
    }
    Grid& grid = grids_[it->second];
    grid.reach = std::max(grid.reach, offsets[r]);
    grid_of_.push_back(it->second);
  }
}

bool IntensityWindows::place(long begin, long end) {
  double bytes = 0.0;
  for (const Grid& grid : grids_) {
    bytes += static_cast<double>(end + grid.reach - begin) *
             static_cast<double>(sizeof(double));
  }
  if (bytes > kMaxWindowBytes) {
    const std::size_t n = grids_.size();
    throw WindowsTooLong(
        "a segment of " + std::to_string(end - begin) + " steps places " +
        std::to_string(n) + (n == 1 ? " intensity window" : " intensity windows") +
        " of " + report::shortest_double(bytes) + " bytes in all, over the " +
        report::shortest_double(kMaxWindowBytes) +
        "-byte bound; split the run into shorter segments, or use a longer "
        "step");
  }
  bool any_stale = false;
  for (Grid& grid : grids_) {
    if (!grid.stale && grid.window.holds(begin, end + grid.reach)) {
      continue;
    }
    const auto n = static_cast<std::size_t>(end + grid.reach - begin);
    auto& values = grid.window.values;
    if (values.capacity() > 2 * n) {
      // A much longer window is freed.
      decltype(grid.window.values)().swap(values);
    }
    values.resize(n);  // unset: the fill writes every point, and touches it first
    grid.window.first = begin;
    grid.stale = true;
    any_stale = true;
  }
  return any_stale;
}

void IntensityWindows::fill(const std::function<void()>& caller_job) {
  // The stale windows in groups on one wind process (shares_wind) and one
  // first point, each group filled by one wind pass per block. A group is
  // as long as its longest window; the groups, laid end to end, take flat
  // indices [starts[g], starts[g + 1]).
  std::vector<std::vector<Grid*>> groups;
  for (Grid& grid : grids_) {
    if (!grid.stale) {
      continue;
    }
    const auto group = std::find_if(
        groups.begin(), groups.end(), [&grid](const std::vector<Grid*>& g) {
          return g.front()->window.first == grid.window.first &&
                 g.front()->table->table.shares_wind(grid.table->table);
        });
    if (group == groups.end()) {
      groups.push_back({&grid});
    } else {
      group->push_back(&grid);
    }
  }
  std::vector<std::size_t> starts{0};
  for (const std::vector<Grid*>& group : groups) {
    std::size_t longest = 0;
    for (const Grid* grid : group) {
      longest = std::max(longest, grid->window.values.size());
    }
    starts.push_back(starts.back() + longest);
  }
  const std::size_t total = starts.back();
  const std::size_t range = std::max(
      kMinWindowFillRange, (total + kWindowFillTasks - 1) / kWindowFillTasks);
  exec::run_chunks(
      pool_, exec::plan_chunks(total, range),
      [&](std::size_t, std::size_t b, std::size_t e) {
        std::vector<IntensityTable::FillTarget> targets;
        std::size_t g = static_cast<std::size_t>(
            std::upper_bound(starts.begin(), starts.end(), b) - starts.begin() - 1);
        for (; b < e; ++g) {
          const std::size_t stop = std::min(e, starts[g + 1]);
          const auto lo = static_cast<long>(b - starts[g]);
          const auto hi = static_cast<long>(stop - starts[g]);
          // Each window gets the points of [lo, hi) it holds.
          targets.clear();
          for (Grid* grid : groups[g]) {
            IntensityWindow& window = grid->window;
            const auto size = static_cast<long>(window.values.size());
            if (size > lo) {
              targets.push_back({&grid->table->table,
                                 window.first + std::min(hi, size),
                                 window.values.data() + lo});
            }
          }
          IntensityTable::fill_values_shared(groups[g].front()->window.first + lo,
                                             targets);
          b = stop;
        }
      },
      /*record_chunk_span=*/true, caller_job);
  filled();
}

void IntensityWindows::fill_points(std::size_t region, long first, long last) {
  Grid& grid = grids_[grid_of_[region]];
  check_arg(grid.window.holds(first, last),
            "IntensityWindows: fill outside the placed window");
  grid.table->table.fill_values(
      first, last, grid.window.values.data() + (first - grid.window.first));
}

void IntensityWindows::filled() {
  for (Grid& grid : grids_) {
    grid.stale = false;
  }
}

const IntensityWindow& IntensityWindows::of(std::size_t region) const {
  check_arg(region < grid_of_.size(), "IntensityWindows: unknown region");
  return grids_[grid_of_[region]].window;
}

std::size_t IntensityWindows::bytes() const {
  std::size_t bytes = 0;
  for (const Grid& grid : grids_) {
    bytes += grid.window.values.capacity() * sizeof(double) +
             grid.table->table.bytes();
  }
  return bytes;
}

// --- FleetSimulator ------------------------------------------------------

FleetSimulator::FleetSimulator(Config config)
    : region_(fleet_region(config)),
      windows_({region_.table()}, {region_.offset_steps()}, config.pool) {
  engine::ShardedRun<FleetPartial>::Config rcfg;
  rcfg.steps = steps();
  rcfg.steps_per_chunk = region_.run().steps_per_chunk;
  rcfg.shards = 1;
  rcfg.pool = config.pool;
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

void FleetSimulator::advance(Checkpoint& cp, long max_steps,
                             const std::function<void()>& boundary) const {
  const WindowsMutex::Hold lock(windows_mu_, "FleetSimulator::advance");
  const long end = runner_.segment_end(cp.next_step, max_steps);
  // One region at offset 0: each time chunk reads exactly the window points
  // of its own steps, so a stale window is filled by the chunks themselves,
  // each just before it steps, instead of by a pass of its own.
  const bool stale = end > cp.next_step && windows_.place(cp.next_step, end);
  const FleetStepInputs inputs = region_.inputs(windows_.of(0));
  const double step_s = region_.run().step_s;
  runner_.advance(cp.next_step, cp.shards, max_steps,
                  [&](std::size_t, long begin, long end) -> FleetPartial {
                    obs::Span chunk_span(
                        "fleet.chunk", step_s * static_cast<double>(begin),
                        step_s * static_cast<double>(end));
                    if (stale) {
                      windows_.fill_points(0, begin, end);
                    }
                    return run_fleet_chunk(inputs, static_cast<std::size_t>(begin),
                                           static_cast<std::size_t>(end));
                  },
                  {}, boundary);
  windows_.filled();
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

std::size_t FleetSimulator::state_bytes() const {
  const WindowsMutex::Hold lock(windows_mu_, "FleetSimulator::state_bytes");
  return region_.state_bytes() + windows_.bytes();
}

std::string FleetSimulator::compute_config_digest() const {
  const FleetRegionConfig& rc = region_.config();
  engine::ConfigDigest d;
  region_.run().digest(d);
  d.add_double(rc.pue);
  d.add_double(rc.cfe_coverage);
  d.add_string(IntensityCache::key_of(rc.grid, region_.run().step));
  region_.digest(d);
  return d.hex();
}

std::vector<std::shared_ptr<const SharedIntensityTable>>
resolve_intensity_tables(const std::vector<FleetRegionConfig>& regions,
                         const FleetRegion::Run& run, IntensityCache& tables) {
  for (const FleetRegionConfig& region : regions) {
    static_cast<void>(FleetRegion::check_config(region, run));
  }
  std::vector<std::shared_ptr<const SharedIntensityTable>> resolved;
  resolved.reserve(regions.size());
  for (const FleetRegionConfig& region : regions) {
    resolved.push_back(tables.get(region.grid, run.step, 0));
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
