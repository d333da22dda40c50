// Bit-exactness contract of the carbon-intensity fast paths: the prebuilt
// IntensityTable and its block fill must reproduce
// IntermittentGrid::intensity_at exactly (byte-identical doubles, no
// tolerances), and the simulators that consume the table must emit the
// bytes the test-side table-free oracle (tests/oracles/) computes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/carbon_intensity.h"
#include "core/intensity_table.h"
#include "core/units.h"
#include "datacenter/fleet_sim.h"
#include "datacenter/queue_sim.h"
#include "datagen/rng.h"
#include "datagen/trace.h"
#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "hw/server.h"
#include "oracles/fleet_reference.h"
#include "oracles/queue_reference.h"
#include "report/csv.h"

namespace sustainai {
namespace {

IntermittentGrid::Config mixed_grid_config() {
  IntermittentGrid::Config cfg;
  cfg.profile = grids::us_average();
  cfg.solar_share = 0.3;
  cfg.wind_share = 0.2;
  cfg.firm_share = 0.1;
  return cfg;
}

// --- Table vs direct evaluation -------------------------------------------

TEST(IntensityTable, DayPeriodicStepMatchesDirectBitForBit) {
  const IntermittentGrid grid(mixed_grid_config());
  // 15-minute step: 86400 / 900 is exact, so the day-periodic solar cache
  // is active. Cover several days so every slot is reused many times.
  IntensityTable table(grid, seconds(0.0), minutes(15.0));
  const long n = 96 * 7;  // 7 days
  table.prebuild(n);
  for (long k = 0; k < n; ++k) {
    const Duration t = seconds(900.0 * static_cast<double>(k));
    EXPECT_EQ(table.at_index(k).base(), grid.intensity_at(t).base())
        << "k=" << k;
  }
  EXPECT_GE(table.built(), n);
}

TEST(IntensityTable, NonPeriodicAndOffsetStepsMatchDirect) {
  const IntermittentGrid grid(mixed_grid_config());
  struct Case {
    double start_s;
    double step_s;
  };
  // 701 s does not divide the day (solar cache disabled); the offset cases
  // exercise non-zero grid origins.
  const Case cases[] = {{0.0, 701.0}, {12345.0, 900.0}, {86400.0, 3600.0},
                        {7.5, 1234.5}};
  for (const Case& c : cases) {
    IntensityTable table(grid, seconds(c.start_s), seconds(c.step_s));
    table.prebuild(500);
    for (long k = 0; k < 500; ++k) {
      const Duration t =
          seconds(c.start_s + c.step_s * static_cast<double>(k));
      EXPECT_EQ(table.at_index(k).base(), grid.intensity_at(t).base())
          << "start=" << c.start_s << " step=" << c.step_s << " k=" << k;
    }
  }
}

TEST(IntensityTable, RangeFillMatchesSerialBitForBit) {
  // Ranges of 37 points, which no day length divides, filled on 1, 2 and 8
  // threads after a short serial start, equal per-point intensity_at bit
  // for bit; lazy at_index growth past the end continues the same series.
  const IntermittentGrid grid(mixed_grid_config());
  struct Case {
    double start_s;
    double step_s;
  };
  const Case cases[] = {{0.0, 900.0}, {12345.0, 900.0}, {0.0, 701.0}};
  constexpr long kFilled = 96 * 9 + 5;
  constexpr long kGrown = kFilled + 1500;
  for (const Case& c : cases) {
    std::vector<CarbonIntensity> direct;
    for (long k = 0; k < kGrown; ++k) {
      direct.push_back(grid.intensity_at(
          seconds(c.start_s + c.step_s * static_cast<double>(k))));
    }
    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE(testing::Message() << "start=" << c.start_s << " step="
                                      << c.step_s << " threads=" << threads);
      exec::ThreadPool pool(threads);
      IntensityTable table(grid, seconds(c.start_s), seconds(c.step_s));
      table.prebuild(11);
      // Points [11, kFilled) in 37-point ranges of a caller's buffer, as a
      // simulator fills its intensity window.
      std::vector<double> filled(static_cast<std::size_t>(kFilled));
      std::copy(table.raw(), table.raw() + 11, filled.begin());
      exec::run_chunks(
          &pool, exec::plan_chunks(static_cast<std::size_t>(kFilled - 11), 37),
          [&](std::size_t, std::size_t b, std::size_t e) {
            table.fill_values(11 + static_cast<long>(b), 11 + static_cast<long>(e),
                              filled.data() + 11 + b);
          });
      ASSERT_EQ(table.built(), 11);
      for (long k = 0; k < kFilled; ++k) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(filled[static_cast<std::size_t>(k)]),
                  std::bit_cast<std::uint64_t>(
                      direct[static_cast<std::size_t>(k)].base()))
            << "k=" << k;
      }
      table.prebuild(kFilled);
      for (long k = kFilled; k < kGrown; ++k) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(table.at_index(k).base()),
                  std::bit_cast<std::uint64_t>(
                      direct[static_cast<std::size_t>(k)].base()))
            << "k=" << k;
      }
    }
  }
}

TEST(IntensityTable, BlockFillMatchesPointEvaluation) {
  // fill_values works in fixed-size blocks, harmonic by harmonic, and reads
  // the solar day slot by index when start and step are whole seconds. Each
  // case fills ranges that start and end mid-block and span several blocks,
  // concurrently, and compares every value with intensity_at bit for bit.
  const IntermittentGrid grid(mixed_grid_config());
  struct Case {
    double start_s;
    double step_s;
    long first;  // first grid index of the checked span
  };
  const Case cases[] = {
      {0.0, 3600.0, 87'660 - 700},  // hourly, about ten years in
      {12345.0, 3600.0, 87'660 - 700},
      {0.0, 60.0, 0},
      {12345.0, 60.0, 1'000'003},
      {0.5, 60.0, 17},              // fractional start: slots are checked
      {0.1, 3600.0, 87'660 - 700},  // t rounds: seconds-of-day drift
      {0.0, 0.6, 250'001},          // fractional step: slots are checked
  };
  constexpr long kSpan = 1500;         // several blocks
  constexpr std::size_t kRange = 333;  // no block size divides it
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message()
                 << "start=" << c.start_s << " step=" << c.step_s);
    const IntensityTable table(grid, seconds(c.start_s), seconds(c.step_s));
    std::vector<std::uint64_t> direct;
    for (long k = c.first; k < c.first + kSpan; ++k) {
      const Duration t = seconds(c.start_s + c.step_s * static_cast<double>(k));
      direct.push_back(
          std::bit_cast<std::uint64_t>(grid.intensity_at(t).base()));
    }
    const auto expect_direct = [&](const std::vector<double>& filled) {
      for (std::size_t i = 0; i < filled.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(filled[i]), direct[i])
            << "k=" << c.first + static_cast<long>(i);
      }
    };
    std::vector<double> filled(static_cast<std::size_t>(kSpan));
    table.fill_values(c.first, c.first + kSpan, filled.data());
    expect_direct(filled);
    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads);
      exec::ThreadPool pool(threads);
      std::fill(filled.begin(), filled.end(), -1.0);
      exec::run_chunks(
          &pool, exec::plan_chunks(static_cast<std::size_t>(kSpan), kRange),
          [&](std::size_t, std::size_t b, std::size_t e) {
            table.fill_values(c.first + static_cast<long>(b),
                              c.first + static_cast<long>(e),
                              filled.data() + b);
          });
      expect_direct(filled);
    }
  }
}

TEST(IntensityTable, SeriesSpanMatchesDirect) {
  const IntermittentGrid grid(mixed_grid_config());
  IntensityTable table(grid, hours(6.0), minutes(5.0));
  const auto series = table.series(1000);
  ASSERT_EQ(static_cast<long>(series.size()), 1000);
  for (long k = 0; k < 1000; ++k) {
    const Duration t = hours(6.0) + minutes(5.0 * static_cast<double>(k));
    EXPECT_EQ(series[static_cast<std::size_t>(k)].base(),
              grid.intensity_at(t).base());
  }
}

TEST(IntensityTable, GridIntensitySeriesMatchesPointEvaluation) {
  const IntermittentGrid grid(mixed_grid_config());
  for (const double step_s : {900.0, 701.0}) {
    const IntensityTable table(grid, seconds(0.0), seconds(step_s));
    const std::vector<CarbonIntensity> series = table.series(600);
    ASSERT_EQ(series.size(), 600u);
    for (long k = 0; k < 600; ++k) {
      const Duration t = seconds(step_s * static_cast<double>(k));
      EXPECT_EQ(series[static_cast<std::size_t>(k)].base(),
                grid.intensity_at(t).base())
          << "step=" << step_s << " k=" << k;
    }
  }
}

TEST(IntensityTable, OffGridLookupsFallBackExactly) {
  const IntermittentGrid grid(mixed_grid_config());
  IntensityTable table(grid, seconds(0.0), minutes(15.0));
  datagen::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    // Arbitrary timestamps, mostly off the 900 s grid.
    const Duration t = seconds(rng.uniform(0.0, 10.0 * 86400.0));
    EXPECT_EQ(table.intensity_at(t).base(), grid.intensity_at(t).base());
    // Second query hits the memo — still exact.
    EXPECT_EQ(table.intensity_at(t).base(), grid.intensity_at(t).base());
  }
  // On-grid queries route to the prebuilt array.
  for (long k : {0L, 1L, 95L, 96L, 500L}) {
    const Duration t = seconds(900.0 * static_cast<double>(k));
    EXPECT_EQ(table.intensity_at(t).base(), grid.intensity_at(t).base());
  }
}

TEST(IntensityTable, MeanIntensityMatchesGridBitForBit) {
  const IntermittentGrid grid(mixed_grid_config());
  IntensityTable table(grid, seconds(0.0), minutes(15.0));
  for (const double start_h : {0.0, 3.5, 20.0, 47.0}) {
    for (const double window_h : {0.5, 2.0, 6.0, 24.0}) {
      EXPECT_EQ(
          table.mean_intensity(hours(start_h), hours(window_h)).base(),
          grid.mean_intensity(hours(start_h), hours(window_h)).base())
          << "start=" << start_h << "h window=" << window_h << "h";
    }
  }
}

// --- Golden byte-equality of simulator results with the table-free oracle --

datacenter::FleetSimulator::Config fleet_config() {
  using namespace datacenter;
  Cluster cluster;
  ServerGroup web;
  web.name = "web";
  web.sku = hw::skus::web_tier();
  web.count = 300;
  web.tier = Tier::kWeb;
  web.load = DiurnalProfile{0.3, 0.9, 20.0};
  web.autoscalable = true;
  cluster.add_group(web);
  ServerGroup train;
  train.name = "train";
  train.sku = hw::skus::gpu_training_8x();
  train.count = 12;
  train.tier = Tier::kAiTraining;
  train.load = flat_profile(0.5);
  cluster.add_group(train);

  FleetSimulator::Config c;
  c.cluster = cluster;
  c.grid = mixed_grid_config();
  c.horizon = days(10.0);
  c.step = minutes(15.0);
  c.steps_per_chunk = 64;
  return c;
}

TEST(IntensityTableGolden, FleetSimulatorResultByteIdenticalTableOnOff) {
  using datacenter::FleetSimulator;
  const FleetSimulator::Result direct =
      oracles::reference_run(fleet_config(), oracles::LaneSource::kDirect);
  const FleetSimulator::Result fast = FleetSimulator(fleet_config()).run();
  ASSERT_EQ(fast.groups.size(), direct.groups.size());
  for (std::size_t i = 0; i < fast.groups.size(); ++i) {
    EXPECT_EQ(fast.groups[i].name, direct.groups[i].name);
    EXPECT_EQ(fast.groups[i].tier, direct.groups[i].tier);
    EXPECT_EQ(to_joules(fast.groups[i].it_energy),
              to_joules(direct.groups[i].it_energy));
    EXPECT_EQ(fast.groups[i].mean_utilization, direct.groups[i].mean_utilization);
    EXPECT_EQ(fast.groups[i].freed_server_hours,
              direct.groups[i].freed_server_hours);
  }
  EXPECT_EQ(to_joules(fast.it_energy), to_joules(direct.it_energy));
  EXPECT_EQ(to_joules(fast.facility_energy), to_joules(direct.facility_energy));
  EXPECT_EQ(to_grams_co2e(fast.location_carbon),
            to_grams_co2e(direct.location_carbon));
  EXPECT_EQ(to_grams_co2e(fast.market_carbon),
            to_grams_co2e(direct.market_carbon));
  EXPECT_EQ(fast.opportunistic_server_hours, direct.opportunistic_server_hours);
  EXPECT_EQ(to_joules(fast.opportunistic_energy),
            to_joules(direct.opportunistic_energy));
  for (datacenter::Tier tier :
       {datacenter::Tier::kWeb, datacenter::Tier::kAiTraining}) {
    EXPECT_EQ(to_joules(fast.it_energy_for(tier)),
              to_joules(direct.it_energy_for(tier)));
  }
}

TEST(IntensityTableGolden, PerTierEnergySumsMatchGroupScan) {
  using datacenter::FleetSimulator;
  using datacenter::Tier;
  const FleetSimulator::Result result =
      FleetSimulator(fleet_config()).run();
  for (Tier tier : {Tier::kWeb, Tier::kAiTraining, Tier::kAiInference}) {
    double expected = 0.0;
    for (const auto& g : result.groups) {
      if (g.tier == tier) {
        expected += to_joules(g.it_energy);
      }
    }
    EXPECT_EQ(to_joules(result.it_energy_for(tier)), expected);
  }
}

std::vector<datacenter::BatchJob> queue_jobs() {
  using namespace datacenter;
  datagen::Rng rng(7);
  std::vector<BatchJob> jobs;
  int id = 0;
  for (const Duration& arrival :
       datagen::poisson_arrivals(2.0, days(2.0), rng)) {
    BatchJob j;
    j.id = "job-" + std::to_string(id++);
    j.power = kilowatts(20.0);
    j.duration = hours(2.0);
    j.arrival = arrival;
    j.slack = hours(12.0);
    jobs.push_back(j);
  }
  return jobs;
}

datacenter::QueueSimConfig queue_config() {
  datacenter::QueueSimConfig cfg;
  cfg.grid.profile = grids::us_west_solar();
  cfg.grid.solar_share = 0.5;
  cfg.grid.firm_share = 0.2;
  cfg.max_horizon = days(30.0);
  return cfg;
}

// The queue simulator serves every step's intensity from its table; the
// table-free queue oracle evaluates the grid directly. Same bytes.
TEST(IntensityTableGolden, QueueSimResultByteIdenticalTableOnOff) {
  using namespace datacenter;
  const std::vector<BatchJob> jobs = queue_jobs();
  for (QueuePolicy policy : {QueuePolicy::kFifo, QueuePolicy::kGreedyGreen}) {
    const QueueSimResult direct =
        oracles::reference_queue_run(jobs, queue_config(), policy);
    const QueueSimResult fast = run_queue_sim(jobs, queue_config(), policy);
    EXPECT_EQ(fast.policy_name, direct.policy_name);
    EXPECT_EQ(to_grams_co2e(fast.total_carbon),
              to_grams_co2e(direct.total_carbon));
    EXPECT_EQ(to_seconds(fast.mean_wait), to_seconds(direct.mean_wait));
    EXPECT_EQ(to_seconds(fast.makespan), to_seconds(direct.makespan));
    EXPECT_EQ(fast.utilization, direct.utilization);
    EXPECT_EQ(fast.peak_running, direct.peak_running);
    ASSERT_EQ(fast.jobs.size(), direct.jobs.size());
    for (std::size_t i = 0; i < fast.jobs.size(); ++i) {
      EXPECT_EQ(fast.jobs[i].job.id, direct.jobs[i].job.id);
      EXPECT_EQ(to_seconds(fast.jobs[i].start), to_seconds(direct.jobs[i].start));
      EXPECT_EQ(to_seconds(fast.jobs[i].finish),
                to_seconds(direct.jobs[i].finish));
      EXPECT_EQ(to_grams_co2e(fast.jobs[i].carbon),
                to_grams_co2e(direct.jobs[i].carbon));
    }
  }
}

// The same sweep CSV artifact the exec determinism test renders, swept over
// the intensity source (table-served simulator vs table-free oracle) instead
// of thread count: the emitted bytes must not depend on which path served
// the simulation.
using QueueRunner = datacenter::QueueSimResult (*)(
    std::vector<datacenter::BatchJob>, const datacenter::QueueSimConfig&,
    datacenter::QueuePolicy);

std::string sweep_csv(QueueRunner run) {
  using namespace datacenter;
  const std::vector<BatchJob> jobs = queue_jobs();
  const QueueSimConfig base = queue_config();

  report::CsvWriter csv(
      {"machines", "policy", "carbon_g", "mean_wait_s", "utilization"});
  for (int machines : {4, 8, 16}) {
    for (QueuePolicy policy : {QueuePolicy::kFifo, QueuePolicy::kGreedyGreen}) {
      QueueSimConfig cfg = base;
      cfg.machines = machines;
      const QueueSimResult result = run(jobs, cfg, policy);
      char carbon[32], wait[32], util[32];
      std::snprintf(carbon, sizeof(carbon), "%.17g",
                    to_grams_co2e(result.total_carbon));
      std::snprintf(wait, sizeof(wait), "%.17g", to_seconds(result.mean_wait));
      std::snprintf(util, sizeof(util), "%.17g", result.utilization);
      csv.add_row({std::to_string(machines), result.policy_name, carbon, wait,
                   util});
    }
  }
  return csv.to_string();
}

TEST(IntensityTableGolden, QueueSweepCsvByteIdenticalTableOnOff) {
  const std::string direct = sweep_csv(&oracles::reference_queue_run);
  EXPECT_NE(direct.find("queue-green"), std::string::npos);
  EXPECT_EQ(sweep_csv(&datacenter::run_queue_sim), direct);
}

// The queue simulator reads every step's intensity through its own
// IntensityTable, on and off the step grid; the queue_capacity golden pins
// its bytes. Every such lookup across a 30-day queue horizon must equal
// direct evaluation bit for bit.
TEST(IntensityTable, QueueGridLookupsMatchDirectBitForBit) {
  const datacenter::QueueSimConfig cfg = queue_config();
  const IntermittentGrid grid(cfg.grid);
  const IntensityTable table(grid, seconds(0.0), cfg.step);
  const double step_s = to_seconds(cfg.step);
  const auto steps = static_cast<long>(to_seconds(cfg.max_horizon) / step_s);
  const auto bits = [](CarbonIntensity c) {
    return std::bit_cast<std::uint64_t>(c.base());
  };
  for (long k = 0; k <= steps; ++k) {
    for (const double frac : {0.0, 0.25, 0.5, 0.999}) {
      const Duration t = seconds(step_s * (static_cast<double>(k) + frac));
      ASSERT_EQ(bits(table.intensity_at(t)), bits(grid.intensity_at(t)))
          << "k=" << k << " frac=" << frac;
    }
  }
}

TEST(IntensityTable, SharedFillWritesEachTargetUpToItsOwnEnd) {
  // fill_values_shared straight: three tables on one wind process, each
  // writing a different length from a first point 6 short of a block edge
  // into its own buffer, which ends in sentinels the fill must not touch.
  // Each must hold exactly what its own one-table fill writes.
  IntermittentGrid::Config a;
  a.profile = grids::us_average();
  IntermittentGrid::Config b = a;
  b.sunrise_hour = 7.0;
  IntermittentGrid::Config c = a;
  c.profile = grids::nordic_hydro();
  c.solar_share = 0.3;
  const IntermittentGrid ga(a);
  const IntermittentGrid gb(b);
  const IntermittentGrid gc(c);
  const IntensityTable ta(ga, seconds(0.0), minutes(15.0));
  const IntensityTable tb(gb, seconds(0.0), minutes(15.0));
  const IntensityTable tc(gc, seconds(0.0), minutes(15.0));
  ASSERT_TRUE(ta.shares_wind(tb));
  ASSERT_TRUE(ta.shares_wind(tc));

  constexpr long kBegin = 250;
  constexpr long kSentinels = 300;
  const std::vector<const IntensityTable*> members = {&ta, &tb, &tc};
  const std::vector<long> ends = {kBegin + 10, kBegin + 700, kBegin + 300};
  std::vector<std::vector<double>> outs;
  std::vector<IntensityTable::FillTarget> targets;
  for (std::size_t m = 0; m < members.size(); ++m) {
    outs.emplace_back(static_cast<std::size_t>(ends[m] - kBegin + kSentinels),
                      std::numeric_limits<double>::quiet_NaN());
  }
  for (std::size_t m = 0; m < members.size(); ++m) {
    targets.push_back({members[m], ends[m], outs[m].data()});
  }
  IntensityTable::fill_values_shared(kBegin, targets);
  for (std::size_t m = 0; m < members.size(); ++m) {
    SCOPED_TRACE(testing::Message() << "member=" << m);
    std::vector<double> own(static_cast<std::size_t>(ends[m] - kBegin));
    members[m]->fill_values(kBegin, ends[m], own.data());
    for (std::size_t i = 0; i < own.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(outs[m][i]),
                std::bit_cast<std::uint64_t>(own[i]))
          << "k=" << kBegin + static_cast<long>(i);
    }
    for (std::size_t i = own.size(); i < outs[m].size(); ++i) {
      ASSERT_TRUE(std::isnan(outs[m][i])) << "written past the end at " << i;
    }
  }

  // A grid on another seed, or the same grid on another step, has other
  // wind terms: rejected before any write.
  IntermittentGrid::Config own_seed = a;
  own_seed.seed = 7;
  const IntermittentGrid gd(own_seed);
  const IntensityTable td(gd, seconds(0.0), minutes(15.0));
  const IntensityTable te(ga, seconds(0.0), minutes(30.0));
  EXPECT_FALSE(ta.shares_wind(td));
  EXPECT_FALSE(ta.shares_wind(te));
  for (const IntensityTable* other : {&td, &te}) {
    std::vector<double> first(4, -1.0);
    std::vector<double> second(4, -1.0);
    const std::vector<IntensityTable::FillTarget> mixed = {
        {&ta, 4, first.data()}, {other, 4, second.data()}};
    EXPECT_THROW(IntensityTable::fill_values_shared(0, mixed),
                 std::invalid_argument);
    EXPECT_EQ(first, std::vector<double>(4, -1.0));
    EXPECT_EQ(second, std::vector<double>(4, -1.0));
  }
}

// --- Guard rails -----------------------------------------------------------

TEST(IntensityTable, RejectsNonPositiveStep) {
  const IntermittentGrid grid(mixed_grid_config());
  EXPECT_THROW(IntensityTable(grid, seconds(0.0), seconds(0.0)),
               std::invalid_argument);
  EXPECT_THROW(IntensityTable(grid, seconds(0.0), seconds(-1.0)),
               std::invalid_argument);
}

TEST(IntensityTable, FillValuesRejectsNegativeRange) {
  // A negative first point would index the solar day cache before its
  // start; a reversed range has no points. Both are rejected by name
  // before any write, as at_index rejects a negative index.
  const IntermittentGrid grid(mixed_grid_config());
  const IntensityTable table(grid, seconds(0.0), seconds(60.0));
  std::vector<double> out(16, -1.0);
  try {
    table.fill_values(-5, 5, out.data());
    ADD_FAILURE() << "a negative begin was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "IntensityTable::fill_values: begin must be >= 0");
  }
  try {
    table.fill_values(5, 4, out.data());
    ADD_FAILURE() << "end < begin was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "IntensityTable::fill_values: end must be >= begin");
  }
  EXPECT_EQ(out, std::vector<double>(16, -1.0));
  table.fill_values(5, 5, out.data());  // empty: writes nothing
  EXPECT_EQ(out, std::vector<double>(16, -1.0));
  table.fill_values(0, 16, out.data());
  EXPECT_EQ(out[3], grid.intensity_at(seconds(180.0)).base());
}

}  // namespace
}  // namespace sustainai
