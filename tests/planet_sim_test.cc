#include "datacenter/planet_sim.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "datacenter/fleet_sim.h"
#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "oracles/fleet_reference.h"
#include "report/json.h"

namespace sustainai::datacenter {
namespace {

Cluster region_cluster(int web_count, int train_count) {
  Cluster cluster;
  ServerGroup web;
  web.name = "web";
  web.sku = hw::skus::web_tier();
  web.count = web_count;
  web.tier = Tier::kWeb;
  web.load = DiurnalProfile{0.3, 0.9, 20.0};
  web.autoscalable = true;
  cluster.add_group(web);

  ServerGroup train;
  train.name = "train";
  train.sku = hw::skus::gpu_training_8x();
  train.count = train_count;
  train.tier = Tier::kAiTraining;
  train.load = flat_profile(0.5);
  cluster.add_group(train);
  return cluster;
}

IntermittentGrid::Config grid_config(int which) {
  IntermittentGrid::Config g;
  switch (which % 3) {
    case 0:
      g.profile = grids::us_west_solar();
      g.solar_share = 0.5;
      break;
    case 1:
      g.profile = grids::us_average();
      g.solar_share = 0.3;
      g.firm_share = 0.2;
      break;
    default:
      g.profile = grids::nordic_hydro();
      g.firm_share = 0.9;
      break;
  }
  g.seed = 42;
  return g;
}

PlanetSimulator::Config planet_config(int n_regions, bool with_faults) {
  PlanetSimulator::Config c;
  c.step = minutes(15.0);
  c.horizon = days(3.0);
  c.steps_per_chunk = 16;
  for (int r = 0; r < n_regions; ++r) {
    PlanetSimulator::RegionConfig rc;
    rc.name = "region-" + std::to_string(r);
    rc.cluster = region_cluster(80 + 10 * (r % 3), 4);
    rc.grid = grid_config(r);
    rc.pue = 1.08 + 0.01 * (r % 4);
    rc.cfe_coverage = (r % 2 != 0) ? 0.5 : 0.0;
    rc.utc_offset_hours = static_cast<double>((r * 3) % 24);
    if (with_faults && r % 2 == 0) {
      rc.faults.rates.host_crash_per_day = 0.6;
      rc.faults.rates.sdc_per_day = 0.2;
      rc.faults.rates.grid_gap_per_day = 0.3;
      rc.faults.seed = 1234 + static_cast<std::uint64_t>(r);
    }
    c.regions.push_back(rc);
  }
  return c;
}

// Exact textual image of every Result field: shortest_double round-trips
// doubles losslessly, so two equal fingerprints mean byte-identical results.
std::string fingerprint(const PlanetSimulator::Result& r) {
  std::ostringstream os;
  const auto d = [&os](double v) { os << report::shortest_double(v) << '|'; };
  const auto faults = [&](const FleetSimulator::FaultStats& f) {
    os << f.host_crashes << '|' << f.sdc_events << '|' << f.grid_gaps << '|'
       << f.checkpoints << '|';
    d(f.lost_server_hours);
    d(f.redone_work_hours);
    d(to_joules(f.wasted_energy));
    d(to_joules(f.checkpoint_energy));
    d(f.measured_sdc_per_server_year);
  };
  d(to_joules(r.it_energy));
  d(to_joules(r.facility_energy));
  d(to_grams_co2e(r.location_carbon));
  d(to_grams_co2e(r.market_carbon));
  d(r.opportunistic_server_hours);
  d(to_joules(r.opportunistic_energy));
  for (const Energy& e : r.tier_it_energy) {
    d(to_joules(e));
  }
  for (const auto& rr : r.regions) {
    os << rr.name << '|';
    d(to_joules(rr.it_energy));
    d(to_joules(rr.facility_energy));
    d(to_grams_co2e(rr.location_carbon));
    d(to_grams_co2e(rr.market_carbon));
    d(rr.opportunistic_server_hours);
    d(to_joules(rr.opportunistic_energy));
    for (const Energy& e : rr.tier_it_energy) {
      d(to_joules(e));
    }
    faults(rr.faults);
  }
  for (const auto& s : r.series) {
    d(s.t_begin_s);
    d(s.t_end_s);
    d(s.facility_energy_j);
    d(s.location_carbon_g);
  }
  return os.str();
}

std::string run_fingerprint(PlanetSimulator::Config config,
                            exec::ThreadPool* pool) {
  config.pool = pool;
  const PlanetSimulator sim(std::move(config));
  return fingerprint(sim.run());
}

TEST(PlanetSim, ByteIdenticalAcrossThreadCounts) {
  const PlanetSimulator::Config config = planet_config(7, /*with_faults=*/true);
  exec::ThreadPool pool1(1);
  exec::ThreadPool pool2(2);
  exec::ThreadPool pool8(8);
  const std::string fp1 = run_fingerprint(config, &pool1);
  const std::string fp2 = run_fingerprint(config, &pool2);
  const std::string fp8 = run_fingerprint(config, &pool8);
  EXPECT_EQ(fp1, fp2);
  EXPECT_EQ(fp1, fp8);
}

TEST(PlanetSim, RegionCountEdgeCases) {
  // 1 region, a prime count, and more regions than pool threads: each must
  // run, produce positive totals, and stay thread-count invariant.
  for (const int n : {1, 7, 11}) {
    const PlanetSimulator::Config config =
        planet_config(n, /*with_faults=*/false);
    exec::ThreadPool serial(1);
    exec::ThreadPool wide(4);
    const std::string a = run_fingerprint(config, &serial);
    const std::string b = run_fingerprint(config, &wide);
    EXPECT_EQ(a, b) << "regions=" << n;

    PlanetSimulator::Config owned = config;
    owned.pool = &serial;
    const PlanetSimulator sim(std::move(owned));
    EXPECT_EQ(sim.region_count(), static_cast<std::size_t>(n));
    const auto result = sim.run();
    ASSERT_EQ(result.regions.size(), static_cast<std::size_t>(n));
    EXPECT_GT(to_joules(result.it_energy), 0.0);
    EXPECT_GT(to_grams_co2e(result.location_carbon), 0.0);
  }
}

TEST(PlanetSim, OneRegionRunsOneTaskPerTimeChunk) {
  // A planet with fewer regions than threads still spreads over the pool:
  // each (region, chunk) is a task of its own. The second run() reads the
  // intensity window the first one filled, so every exec chunk it counts
  // is a stepping task.
  PlanetSimulator::Config config = planet_config(1, /*with_faults=*/false);
  config.horizon = days(60.0);  // 5,760 steps: past the inline rule
  config.steps_per_chunk = 256;
  exec::ThreadPool serial(1);
  const std::string expected = run_fingerprint(config, &serial);

  exec::ThreadPool pool(4);
  config.pool = &pool;
  const PlanetSimulator sim(std::move(config));
  (void)sim.run();
  const exec::CounterSnapshot before = exec::counters();
  const std::string again = fingerprint(sim.run());
  const exec::CounterSnapshot after = exec::counters();
  const long chunks =
      (sim.steps() + sim.steps_per_chunk() - 1) / sim.steps_per_chunk();
  EXPECT_EQ(after.chunks_executed - before.chunks_executed,
            static_cast<std::uint64_t>(chunks));
  EXPECT_EQ(again, expected);
}

TEST(PlanetSim, BoundaryThatCallsTheSimulatorThrowsInsteadOfDeadlocking) {
  // A checkpoint boundary runs inside advance(), which holds the windows
  // lock: state_bytes() or advance() from inside it throws instead of
  // locking again, and advance() releases the lock as it rethrows.
  PlanetSimulator::Config config = planet_config(3, /*with_faults=*/false);
  exec::ThreadPool pool(4);
  config.pool = &pool;
  const PlanetSimulator sim(std::move(config));
  PlanetSimulator::Checkpoint cp = sim.start();
  sim.advance(cp, sim.steps() / 2);
  EXPECT_THROW(sim.advance(cp, sim.steps(), [&] { (void)sim.state_bytes(); }),
               std::logic_error);
  PlanetSimulator::Checkpoint other = sim.start();
  EXPECT_THROW(sim.advance(cp, sim.steps(), [&] { sim.advance(other, 16); }),
               std::logic_error);
  EXPECT_GT(sim.state_bytes(), 0u);
}

// Every field of a region result, groups and fault stats included.
void expect_same_region(const FleetResult& a, const FleetResult& b) {
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (std::size_t i = 0; i < a.groups.size(); ++i) {
    EXPECT_EQ(a.groups[i].name, b.groups[i].name);
    EXPECT_EQ(a.groups[i].tier, b.groups[i].tier);
    EXPECT_EQ(to_joules(a.groups[i].it_energy), to_joules(b.groups[i].it_energy));
    EXPECT_EQ(a.groups[i].mean_utilization, b.groups[i].mean_utilization);
    EXPECT_EQ(a.groups[i].freed_server_hours, b.groups[i].freed_server_hours);
  }
  EXPECT_EQ(to_joules(a.it_energy), to_joules(b.it_energy));
  EXPECT_EQ(to_joules(a.facility_energy), to_joules(b.facility_energy));
  EXPECT_EQ(to_grams_co2e(a.location_carbon), to_grams_co2e(b.location_carbon));
  EXPECT_EQ(to_grams_co2e(a.market_carbon), to_grams_co2e(b.market_carbon));
  EXPECT_EQ(a.opportunistic_server_hours, b.opportunistic_server_hours);
  EXPECT_EQ(to_joules(a.opportunistic_energy), to_joules(b.opportunistic_energy));
  for (std::size_t t = 0; t < kNumTiers; ++t) {
    EXPECT_EQ(to_joules(a.tier_it_energy[t]),
              to_joules(b.it_energy_for(static_cast<Tier>(t))))
        << "tier " << t;
  }
  const FleetSimulator::FaultStats& fa = a.faults;
  const FleetSimulator::FaultStats& fb = b.faults;
  EXPECT_EQ(fa.host_crashes, fb.host_crashes);
  EXPECT_EQ(fa.sdc_events, fb.sdc_events);
  EXPECT_EQ(fa.grid_gaps, fb.grid_gaps);
  EXPECT_EQ(fa.checkpoints, fb.checkpoints);
  EXPECT_EQ(fa.lost_server_hours, fb.lost_server_hours);
  EXPECT_EQ(fa.redone_work_hours, fb.redone_work_hours);
  EXPECT_EQ(to_joules(fa.wasted_energy), to_joules(fb.wasted_energy));
  EXPECT_EQ(to_joules(fa.checkpoint_energy), to_joules(fb.checkpoint_energy));
  EXPECT_EQ(fa.measured_sdc_per_server_year, fb.measured_sdc_per_server_year);
}

TEST(PlanetSim, SingleRegionMatchesFleetSimulator) {
  // A 1-region planet at UTC offset 0 is exactly one FleetSimulator run:
  // same chunking, same kernel, same intensity lane — bit-for-bit, on the
  // fault-free path and with host crashes, SDCs and grid gaps.
  for (const bool with_faults : {false, true}) {
    SCOPED_TRACE(with_faults ? "faulted" : "fault-free");
    PlanetSimulator::Config pc = planet_config(1, with_faults);
    pc.regions[0].utc_offset_hours = 0.0;
    pc.regions[0].cfe_coverage = 0.5;
    if (with_faults) {
      pc.regions[0].faults.rates.host_crash_per_day = 2.0;
      pc.regions[0].faults.rates.sdc_per_day = 1.0;
      pc.regions[0].faults.rates.grid_gap_per_day = 1.0;
    }

    FleetSimulator::Config fc;
    fc.cluster = pc.regions[0].cluster;
    fc.pue = pc.regions[0].pue;
    fc.grid = pc.regions[0].grid;
    fc.cfe_coverage = pc.regions[0].cfe_coverage;
    fc.faults = pc.regions[0].faults;
    fc.step = pc.step;
    fc.horizon = pc.horizon;
    fc.steps_per_chunk = pc.steps_per_chunk;

    const auto planet = PlanetSimulator(std::move(pc)).run();
    const auto fleet = FleetSimulator(std::move(fc)).run();

    ASSERT_EQ(planet.regions.size(), 1u);
    expect_same_region(planet.regions[0], fleet);
    EXPECT_EQ(to_joules(planet.it_energy), to_joules(fleet.it_energy));
    EXPECT_EQ(to_joules(planet.facility_energy),
              to_joules(fleet.facility_energy));
    EXPECT_EQ(to_grams_co2e(planet.location_carbon),
              to_grams_co2e(fleet.location_carbon));
    EXPECT_EQ(to_grams_co2e(planet.market_carbon),
              to_grams_co2e(fleet.market_carbon));
    EXPECT_EQ(planet.opportunistic_server_hours,
              fleet.opportunistic_server_hours);
    EXPECT_EQ(to_joules(planet.opportunistic_energy),
              to_joules(fleet.opportunistic_energy));
    for (std::size_t t = 0; t < kNumTiers; ++t) {
      EXPECT_EQ(to_joules(planet.tier_it_energy[t]),
                to_joules(fleet.it_energy_for(static_cast<Tier>(t))))
          << "tier " << t;
    }
    if (with_faults) {
      // The fault path really ran: every injected kind left a trace.
      EXPECT_GT(fleet.faults.host_crashes, 0);
      EXPECT_GT(fleet.faults.sdc_events, 0);
      EXPECT_GT(fleet.faults.grid_gaps, 0);
      EXPECT_GT(fleet.faults.lost_server_hours, 0.0);
    }
  }
}

TEST(PlanetSim, SimdMatchesReferenceKernel) {
  // Every region of a faulted, UTC-shifted planet equals the test-side
  // reference kernel run on the same region, with the table-free lane.
  const PlanetSimulator::Config config = planet_config(5, /*with_faults=*/true);
  PlanetSimulator::Config c = config;
  const PlanetSimulator::Result planet = PlanetSimulator(std::move(c)).run();
  const FleetRegion::Run run = FleetRegion::Run::of(config, "PlanetSim");
  IntensityCache cache;
  const auto tables =
      resolve_intensity_tables(config.regions, run, cache);
  ASSERT_EQ(planet.regions.size(), config.regions.size());
  for (std::size_t r = 0; r < config.regions.size(); ++r) {
    SCOPED_TRACE(config.regions[r].name);
    const FleetRegion region(config.regions[r], run, tables[r]);
    expect_same_region(planet.regions[r],
                       oracles::ReferenceFleet(region, config.steps_per_chunk,
                                               oracles::LaneSource::kDirect)
                           .run());
  }
}

TEST(PlanetSim, SegmentationInvariance) {
  // Advancing in any segment sizes — aligned or not — lands on the same
  // bytes as one uninterrupted run: segment ends round up to chunk
  // boundaries, so the per-region fold order never changes.
  const PlanetSimulator::Config config = planet_config(4, /*with_faults=*/true);
  PlanetSimulator::Config whole = config;
  const PlanetSimulator sim(std::move(whole));
  const std::string fp_whole = fingerprint(sim.run());

  for (const long stride : {16L, 160L, 777L}) {
    auto cp = sim.start();
    while (cp.next_step < sim.steps()) {
      sim.advance(cp, stride);
    }
    EXPECT_EQ(fingerprint(sim.finalize(cp)), fp_whole) << "stride=" << stride;
  }
}

TEST(PlanetSim, CheckpointKillResumeByteIdentity) {
  // Kill a faulted run mid-flight, round-trip the checkpoint through
  // canonical JSON text, resume in a FRESH simulator: same bytes.
  const PlanetSimulator::Config config = planet_config(5, /*with_faults=*/true);
  PlanetSimulator::Config a = config;
  const std::string fp_whole =
      fingerprint(PlanetSimulator(std::move(a)).run());

  PlanetSimulator::Config b = config;
  const PlanetSimulator first(std::move(b));
  auto cp = first.start();
  first.advance(cp, 150);  // not a chunk multiple; rounds up internally
  ASSERT_LT(cp.next_step, first.steps());
  EXPECT_EQ(cp.next_step % first.steps_per_chunk(), 0);
  const std::string snapshot =
      report::canonical_json(first.checkpoint_json(cp));

  // "New process": a separately constructed simulator from the same config.
  PlanetSimulator::Config c = config;
  const PlanetSimulator resumed(std::move(c));
  auto cp2 = resumed.parse_checkpoint(report::parse_json(snapshot));
  EXPECT_EQ(cp2.next_step, cp.next_step);
  while (cp2.next_step < resumed.steps()) {
    resumed.advance(cp2, 160);
  }
  EXPECT_EQ(fingerprint(resumed.finalize(cp2)), fp_whole);
}

TEST(PlanetSim, CheckpointRejectsForeignConfig) {
  PlanetSimulator::Config a = planet_config(3, /*with_faults=*/false);
  PlanetSimulator::Config b = planet_config(3, /*with_faults=*/false);
  b.regions[1].pue = 1.25;  // any result-affecting change flips the digest
  const PlanetSimulator sim_a(std::move(a));
  const PlanetSimulator sim_b(std::move(b));
  auto cp = sim_a.start();
  sim_a.advance(cp, 32);
  const auto snapshot = sim_a.checkpoint_json(cp);
  EXPECT_NE(sim_a.config_digest(), sim_b.config_digest());
  EXPECT_THROW((void)sim_b.parse_checkpoint(snapshot), std::invalid_argument);
  EXPECT_NO_THROW((void)sim_a.parse_checkpoint(snapshot));
}

TEST(PlanetSim, MemoizesIntensityTablesAcrossRegions) {
  // 7 regions cycling 3 grid configs: exactly 3 tables get built.
  PlanetSimulator::Config config = planet_config(7, /*with_faults=*/false);
  EXPECT_EQ(PlanetSimulator(std::move(config)).distinct_intensity_tables(),
            3u);
}

TEST(PlanetSim, SeriesCoversHorizonAndSumsToTotals) {
  PlanetSimulator::Config config = planet_config(4, /*with_faults=*/true);
  const PlanetSimulator sim(std::move(config));
  const auto result = sim.run();
  const long chunks =
      (sim.steps() + sim.steps_per_chunk() - 1) / sim.steps_per_chunk();
  ASSERT_EQ(result.series.size(), static_cast<std::size_t>(chunks));
  double energy = 0.0;
  double carbon = 0.0;
  double prev_end = 0.0;
  for (const auto& s : result.series) {
    EXPECT_EQ(s.t_begin_s, prev_end);
    EXPECT_GT(s.t_end_s, s.t_begin_s);
    prev_end = s.t_end_s;
    energy += s.facility_energy_j;
    carbon += s.location_carbon_g;
    EXPECT_GE(s.intensity_g_per_j(), 0.0);
  }
  EXPECT_EQ(prev_end, to_seconds(days(3.0)));
  EXPECT_NEAR(energy, to_joules(result.facility_energy),
              1e-9 * to_joules(result.facility_energy));
  EXPECT_NEAR(carbon, to_grams_co2e(result.location_carbon),
              1e-9 * to_grams_co2e(result.location_carbon));
}

TEST(PlanetSim, RejectsInvalidConfig) {
  PlanetSimulator::Config empty;
  EXPECT_THROW((void)PlanetSimulator{std::move(empty)},
               std::invalid_argument);

  PlanetSimulator::Config bad_offset = planet_config(2, false);
  bad_offset.regions[1].utc_offset_hours = 0.1;  // 360 s: not a 900 s step
  EXPECT_THROW((void)PlanetSimulator{std::move(bad_offset)},
               std::invalid_argument);

  PlanetSimulator::Config oob_offset = planet_config(2, false);
  oob_offset.regions[0].utc_offset_hours = 24.0;
  EXPECT_THROW((void)PlanetSimulator{std::move(oob_offset)},
               std::invalid_argument);

  PlanetSimulator::Config bad_step = planet_config(2, false);
  bad_step.step = seconds(0.0);
  EXPECT_THROW((void)PlanetSimulator{std::move(bad_step)},
               std::invalid_argument);
}

}  // namespace
}  // namespace sustainai::datacenter
