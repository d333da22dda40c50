// Byte-identity of the fleet step kernel (datacenter/fleet_kernels.h) with
// its test-side oracle (tests/oracles/fleet_reference.h).
//
// FleetSimulator's SoA + fixed-width SIMD kernel and the object-based
// reference kernel follow the same per-lane accumulation contract, so every
// field of FleetSimulator::Result must match byte for byte — across thread
// counts, odd group counts that hit partial edge lanes, odd step counts
// whose tails exercise the remainder loop, fault-injected runs that take the
// crash-aware strip bodies, and either intensity lane of the oracle.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/units.h"
#include "datacenter/autoscaler.h"
#include "datacenter/fleet_kernels.h"
#include "datacenter/fleet_sim.h"
#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "fault/recovery.h"
#include "hw/server.h"
#include "oracles/fleet_reference.h"

namespace sustainai {
namespace {

using datacenter::FleetSimulator;
using oracles::LaneSource;

datacenter::ServerGroup make_group(const char* name, hw::ServerSku sku,
                                   int count, datacenter::Tier tier,
                                   datacenter::DiurnalProfile load,
                                   bool autoscalable) {
  datacenter::ServerGroup g;
  g.name = name;
  g.sku = std::move(sku);
  g.count = count;
  g.tier = tier;
  g.load = load;
  g.autoscalable = autoscalable;
  return g;
}

datacenter::DiurnalProfile diurnal(double trough, double peak,
                                   double peak_hour) {
  datacenter::DiurnalProfile p;
  p.trough = trough;
  p.peak = peak;
  p.peak_hour = peak_hour;
  return p;
}

// `num_groups` in [1, 7]: a mix of autoscaled/static, accelerated/CPU-only,
// flat/diurnal, plus a zero-count group the kernels must skip.
datacenter::Cluster mixed_cluster(int num_groups) {
  using datacenter::Tier;
  datacenter::Cluster cluster;
  const datacenter::ServerGroup all[] = {
      make_group("web", hw::skus::web_tier(), 117, Tier::kWeb,
                 diurnal(0.30, 0.95, 14.0), true),
      make_group("train", hw::skus::gpu_training_8x(), 9, Tier::kAiTraining,
                 datacenter::flat_profile(0.52), false),
      make_group("infer", hw::skus::gpu_inference_2x(), 33, Tier::kAiInference,
                 diurnal(0.25, 0.80, 20.0), false),
      make_group("empty", hw::skus::web_tier(), 0, Tier::kStorage,
                 diurnal(0.10, 0.90, 3.0), true),
      make_group("exp", hw::skus::gpu_training_8x(), 7,
                 Tier::kAiExperimentation, diurnal(0.15, 0.70, 11.0), true),
      make_group("storage", hw::skus::web_tier(), 41, Tier::kStorage,
                 datacenter::flat_profile(0.33), false),
      make_group("web2", hw::skus::web_tier(), 58, Tier::kWeb,
                 diurnal(0.20, 0.85, 9.5), true),
  };
  for (int i = 0; i < num_groups; ++i) {
    cluster.add_group(all[i]);
  }
  return cluster;
}

FleetSimulator::Config base_config(int num_groups) {
  FleetSimulator::Config c;
  c.cluster = mixed_cluster(num_groups);
  c.pue = 1.12;
  c.grid.profile = grids::us_west_solar();
  c.grid.solar_share = 0.45;
  c.grid.firm_share = 0.15;
  // 101 steps: a non-multiple of kStepLanes, so the last strip takes the
  // remainder loop, and with steps_per_chunk = 7 (rounded up to 8) the last
  // chunk is short as well.
  c.step = minutes(15.0);
  c.horizon = hours(25.25);
  c.steps_per_chunk = 7;
  return c;
}

void expect_identical(const FleetSimulator::Result& a,
                      const FleetSimulator::Result& b) {
  EXPECT_EQ(to_joules(a.it_energy), to_joules(b.it_energy));
  EXPECT_EQ(to_joules(a.facility_energy), to_joules(b.facility_energy));
  EXPECT_EQ(to_grams_co2e(a.location_carbon), to_grams_co2e(b.location_carbon));
  EXPECT_EQ(to_grams_co2e(a.market_carbon), to_grams_co2e(b.market_carbon));
  EXPECT_EQ(a.opportunistic_server_hours, b.opportunistic_server_hours);
  EXPECT_EQ(to_joules(a.opportunistic_energy), to_joules(b.opportunistic_energy));
  for (std::size_t t = 0; t < datacenter::kNumTiers; ++t) {
    const auto tier = static_cast<datacenter::Tier>(t);
    EXPECT_EQ(to_joules(a.it_energy_for(tier)), to_joules(b.it_energy_for(tier)));
  }
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (std::size_t i = 0; i < a.groups.size(); ++i) {
    SCOPED_TRACE(a.groups[i].name);
    EXPECT_EQ(to_joules(a.groups[i].it_energy), to_joules(b.groups[i].it_energy));
    EXPECT_EQ(a.groups[i].mean_utilization, b.groups[i].mean_utilization);
    EXPECT_EQ(a.groups[i].freed_server_hours, b.groups[i].freed_server_hours);
  }
  EXPECT_EQ(a.faults.lost_server_hours, b.faults.lost_server_hours);
  EXPECT_EQ(a.faults.redone_work_hours, b.faults.redone_work_hours);
  EXPECT_EQ(to_joules(a.faults.wasted_energy), to_joules(b.faults.wasted_energy));
  EXPECT_EQ(to_joules(a.faults.checkpoint_energy),
            to_joules(b.faults.checkpoint_energy));
}

FleetSimulator::Result simulate(FleetSimulator::Config c,
                                exec::ThreadPool* pool = nullptr) {
  c.pool = pool;
  return FleetSimulator(std::move(c)).run();
}

FleetSimulator::Result reference(const FleetSimulator::Config& c,
                                 LaneSource source = LaneSource::kTable) {
  return oracles::reference_run(c, source);
}

TEST(FleetSoa, SimdMatchesReferenceByteForByte) {
  for (const bool autoscaler : {true, false}) {
    for (const bool opportunistic : {true, false}) {
      SCOPED_TRACE(testing::Message() << "autoscaler=" << autoscaler
                                      << " opportunistic=" << opportunistic);
      FleetSimulator::Config c = base_config(7);
      c.enable_autoscaler = autoscaler;
      c.opportunistic_training = opportunistic;
      expect_identical(reference(c), simulate(c));
    }
  }
}

TEST(FleetSoa, OddGroupCountsHitEdgeLanes) {
  for (const int num_groups : {1, 3, 5, 7}) {
    SCOPED_TRACE(num_groups);
    const FleetSimulator::Config c = base_config(num_groups);
    expect_identical(reference(c), simulate(c));
  }
}

TEST(FleetSoa, OddStepCountsAndChunkSizesAgree) {
  // Chunk sizes below kStepLanes round up to one lane block; each step size
  // runs four step counts, one per tail-length residue mod kStepLanes.
  struct Case {
    double step_s;
    long steps;  // the first of four consecutive step counts
    std::vector<long> chunks;
  };
  const Case cases[] = {
      // 15 min: period 96, so from 97 steps on the rows hold one day.
      {900.0, 96, {1, 3, 5, 13, 101, 1000}},
      // 1 h over nine days: chunks of 16 and 104 steps start mid-day and
      // cross row wraps.
      {3600.0, 217, {13, 101}},
      // 3200 s: an odd period (27), so row wraps fall mid lane block.
      {3200.0, 137, {13, 101}},
      // 7 min does not divide the day: horizon-long rows.
      {420.0, 300, {13, 101}},
      // 22.5 s divides the day but is not a whole number of seconds:
      // horizon-long rows.
      {22.5, 3841, {101, 1000}},
  };
  for (const Case& tc : cases) {
    for (long steps = tc.steps; steps < tc.steps + 4; ++steps) {
      for (const long chunk : tc.chunks) {
        SCOPED_TRACE(testing::Message() << "step_s=" << tc.step_s
                                        << " steps=" << steps
                                        << " chunk=" << chunk);
        FleetSimulator::Config c = base_config(5);
        c.step = seconds(tc.step_s);
        c.horizon = seconds(tc.step_s * static_cast<double>(steps));
        c.steps_per_chunk = chunk;
        expect_identical(reference(c), simulate(c));
      }
    }
  }
}

TEST(FleetSoa, DemandRowsHoldOneDay) {
  // An hourly decade keeps 24 demand values per group; 7 minutes does not
  // divide the day and 22.5 s is not a whole number of seconds, so those
  // rows span the horizon.
  struct Case {
    Duration step;
    Duration horizon;
    bool day_rows;
  };
  const Case cases[] = {{hours(1.0), years(10.0), true},
                        {minutes(7.0), days(3.0), false},
                        {seconds(22.5), days(2.0), false}};
  for (const Case& tc : cases) {
    FleetSimulator::Config c = base_config(5);
    c.step = tc.step;
    c.horizon = tc.horizon;
    const datacenter::FleetRegion region = oracles::fleet_region(c);
    const long steps = region.run().steps;
    SCOPED_TRACE(testing::Message() << "steps=" << steps);
    const std::size_t row = tc.day_rows ? 24u : static_cast<std::size_t>(steps);
    EXPECT_EQ(region.soa().demand.size(), region.num_groups() * row);
  }
}

TEST(FleetSoa, StepRowsMatchTheStepBodyBitForBit) {
  // Every step-row value is what the reference's step body (DiurnalProfile,
  // AutoScaler and ServerSku calls) computes for the first step at that
  // slot, bit for bit: autoscaled and static groups, harvesting on and off,
  // hourly, 15-min and 1-min day rows.
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const Duration step : {hours(1.0), minutes(15.0), minutes(1.0)}) {
    for (const bool opportunistic : {true, false}) {
      FleetSimulator::Config c = base_config(7);
      c.step = step;
      c.horizon = days(2.5);
      c.opportunistic_training = opportunistic;
      const datacenter::FleetRegion region = oracles::fleet_region(c);
      const datacenter::FleetRegion::Run& run = region.run();
      const datacenter::FleetSoA& soa = region.soa();
      const auto row_len = static_cast<std::size_t>(soa.row_len);
      SCOPED_TRACE(testing::Message() << "step_s=" << run.step_s
                                      << " opportunistic=" << opportunistic);
      ASSERT_EQ(soa.row_len, static_cast<long>(86400.0 / run.step_s));
      ASSERT_TRUE(soa.has_step_rows());
      const datacenter::AutoScaler scaler(run.autoscaler);
      const auto& groups = region.cluster().groups();
      for (std::size_t g = 0; g < groups.size(); ++g) {
        const datacenter::ServerGroup& grp = groups[g];
        for (std::size_t r = 0; r < row_len; ++r) {
          const std::size_t i = g * row_len + r;
          const double demand = grp.load.utilization_at(
              seconds(run.step_s * static_cast<double>(r)));
          ASSERT_EQ(bits(soa.demand[i]), bits(demand))
              << grp.name << " slot " << r;
          double energy = 0.0;
          double util = demand;
          double freed_h = 0.0;
          double opp_j = 0.0;
          double opp_h = 0.0;
          if (grp.autoscalable && run.enable_autoscaler) {
            const datacenter::AutoScaler::Decision d =
                scaler.step(grp.count, demand);
            util = d.active_utilization;
            Energy e = grp.sku.energy(util, util, step) *
                       static_cast<double>(d.active_servers);
            freed_h = d.freed_servers * run.step_s / kSecondsPerHour;
            if (opportunistic && d.freed_servers > 0) {
              const Energy opp =
                  grp.sku.energy(run.opportunistic_utilization,
                                 run.opportunistic_utilization, step) *
                  static_cast<double>(d.freed_servers);
              opp_j = to_joules(opp);
              opp_h = freed_h;
              e += opp;
            }
            energy = to_joules(e);
          } else {
            energy = to_joules(grp.sku.energy(demand, demand, step) *
                               static_cast<double>(grp.count));
          }
          const double stored[] = {soa.row_energy_j[i], soa.row_util[i],
                                   soa.row_freed_h[i], soa.row_opp_j[i],
                                   soa.row_opp_h[i]};
          const double expected[] = {energy, util, freed_h, opp_j, opp_h};
          for (std::size_t q = 0; q < 5; ++q) {
            ASSERT_EQ(bits(stored[q]), bits(expected[q]))
                << grp.name << " slot " << r << " row " << q;
          }
        }
      }
    }
  }
}

TEST(FleetSoa, HorizonLongRowsEvaluateTheStepInline) {
  // Where a row spans the horizon each slot is read once, so no step rows
  // are built: 7 minutes does not divide the day, 22.5 s is not a whole
  // number of seconds, and a one-day run's row is the whole horizon.
  for (const auto& [step, horizon] :
       {std::pair{minutes(7.0), days(3.0)}, std::pair{seconds(22.5), days(2.0)},
        std::pair{hours(1.0), days(1.0)}}) {
    FleetSimulator::Config c = base_config(5);
    c.step = step;
    c.horizon = horizon;
    const datacenter::FleetRegion region = oracles::fleet_region(c);
    SCOPED_TRACE(testing::Message() << "steps=" << region.run().steps);
    EXPECT_EQ(region.soa().row_len, region.run().steps);
    EXPECT_FALSE(region.soa().has_step_rows());
    EXPECT_TRUE(region.soa().row_util.empty());
    expect_identical(reference(c), simulate(c));
  }
}

TEST(FleetSoa, ByteIdenticalAcrossThreadCountsAndKernels) {
  const FleetSimulator::Config c = base_config(7);
  const FleetSimulator::Result expected = reference(c);
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE(threads);
    exec::ThreadPool pool(threads);
    expect_identical(expected, simulate(c, &pool));
  }
}

TEST(FleetSoa, FaultInjectedRunsAgree) {
  FleetSimulator::Config c = base_config(5);
  c.horizon = days(5.0);
  c.steps_per_chunk = 32;
  c.faults.rates.host_crash_per_day = 2.0;
  c.faults.rates.sdc_per_day = 1.0;
  c.faults.rates.grid_gap_per_day = 0.5;
  c.faults.seed = 21;
  const FleetSimulator::Result ref = reference(c);
  const FleetSimulator::Result simd = simulate(c);
  // The crash-aware strip bodies must actually have been exercised.
  ASSERT_GT(ref.faults.lost_server_hours, 0.0);
  expect_identical(ref, simd);
}

TEST(FleetSoa, TableOffMatchesTableOnForBothKernels) {
  // The oracle's table-free lane (intensity_at per step, grid-gap remap
  // included) equals the table lane the simulator reads, and both equal the
  // simulator.
  for (const bool gaps : {false, true}) {
    SCOPED_TRACE(gaps ? "grid gaps" : "no faults");
    FleetSimulator::Config c = base_config(3);
    if (gaps) {
      c.horizon = days(3.0);
      c.faults.rates.grid_gap_per_day = 2.0;
      c.faults.seed = 5;
    }
    const FleetSimulator::Result direct = reference(c, LaneSource::kDirect);
    EXPECT_EQ(direct.faults.grid_gaps > 0, gaps);
    expect_identical(direct, reference(c, LaneSource::kTable));
    expect_identical(direct, simulate(c));
  }
}

TEST(FleetSoa, LongSegmentRunsInBoundedWaves) {
  // 40 days of one-minute steps in 4-step chunks: 14,400 chunks in one
  // segment. They run in waves of at most ShardedRun::kMaxWaveTasks tasks,
  // each an exec region of its own, so the segment never holds more than
  // a wave of partials, and fold to the 1-thread result.
  FleetSimulator::Config c = base_config(3);
  c.step = minutes(1.0);
  c.horizon = days(40.0);
  c.steps_per_chunk = 4;
  exec::ThreadPool pool1(1);
  exec::ThreadPool pool4(4);
  const FleetSimulator::Result expected = simulate(c, &pool1);

  c.pool = &pool4;
  const FleetSimulator sim(c);
  const exec::CounterSnapshot before = exec::counters();
  const FleetSimulator::Result result = sim.run();
  const exec::CounterSnapshot after = exec::counters();
  const std::uint64_t chunks = after.chunks_executed - before.chunks_executed;
  const std::uint64_t regions = after.parallel_regions - before.parallel_regions;
  EXPECT_EQ(chunks, 14400u);
  ASSERT_GT(regions, 0u);
  EXPECT_LE(chunks / regions,
            engine::ShardedRun<datacenter::FleetPartial>::kMaxWaveTasks);
  expect_identical(expected, result);
}

TEST(FleetSoa, ChunkPlanRespectsLaneAlignment) {
  // The simulators plan chunks of steps_per_chunk rounded up to a
  // kStepLanes multiple, so every interior chunk boundary lands on a lane
  // block, whatever chunk size the config asks for.
  for (const long chunk : {1L, 3L, 7L, 9L, 256L}) {
    FleetSimulator::Config c = base_config(3);
    c.steps_per_chunk = chunk;
    const long planned = FleetSimulator(c).steps_per_chunk();
    EXPECT_EQ(planned % datacenter::kStepLanes, 0) << chunk;
    EXPECT_GE(planned, chunk);
    EXPECT_LT(planned - chunk, datacenter::kStepLanes) << chunk;
    const exec::ChunkPlan plan =
        exec::plan_chunks(1003, static_cast<std::size_t>(planned));
    for (std::size_t k = 0; k + 1 < plan.num_chunks(); ++k) {
      EXPECT_EQ(plan.chunk(k).end % datacenter::kStepLanes, 0u);
    }
  }
}

}  // namespace
}  // namespace sustainai
