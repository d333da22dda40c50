// Step state sized by the segment, not the horizon: the state_bytes()
// gauges of the fleet and planet simulators, and the per-segment intensity
// windows behind them (datacenter/fleet_sim.h).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "core/intensity_cache.h"
#include "core/units.h"
#include "datacenter/fleet_sim.h"
#include "datacenter/planet_sim.h"
#include "exec/thread_pool.h"
#include "hw/server.h"
#include "oracles/fleet_reference.h"

namespace sustainai {
namespace {

using datacenter::FleetSimulator;
using datacenter::IntensityWindows;
using datacenter::PlanetSimulator;

datacenter::Cluster web_train_cluster(int web_servers, int train_servers) {
  datacenter::Cluster cluster;
  datacenter::ServerGroup web;
  web.name = "web";
  web.sku = hw::skus::web_tier();
  web.count = web_servers;
  web.tier = datacenter::Tier::kWeb;
  web.load = datacenter::DiurnalProfile{0.3, 0.9, 20.0};
  web.autoscalable = true;
  cluster.add_group(web);
  datacenter::ServerGroup train;
  train.name = "train";
  train.sku = hw::skus::gpu_training_8x();
  train.count = train_servers;
  train.tier = datacenter::Tier::kAiTraining;
  train.load = datacenter::flat_profile(0.5);
  cluster.add_group(train);
  return cluster;
}

TEST(StateBytes, FiveYearMinuteFleetStaysUnderOneMegabyte) {
  // A five-year fleet of one-minute steps (2.63 M steps) with host crashes,
  // SDCs and grid-data gaps, advanced a 64th of the horizon at a time.
  // Horizon-long state would be about 84 MB: the table, a remapped lane,
  // two per-group down arrays and a remap. Per segment it is one window of
  // about 42 k steps.
  FleetSimulator::Config config;
  config.cluster = web_train_cluster(400, 24);
  config.grid.profile = grids::us_average();
  config.grid.wind_share = 0.2;
  config.horizon = days(1826.25);
  config.step = minutes(1.0);
  config.steps_per_chunk = 1024;
  config.faults.rates.host_crash_per_day = 0.5;
  config.faults.rates.sdc_per_day = 0.1;
  config.faults.rates.grid_gap_per_day = 0.2;
  config.faults.seed = 1;
  constexpr std::size_t kLimit = std::size_t{1} << 20;

  const FleetSimulator sim(config);
  // The demand row and five step rows of 1440 slots per group count too.
  EXPECT_GE(sim.state_bytes(), 6 * 2 * 1440 * sizeof(double));
  EXPECT_LT(sim.state_bytes(), kLimit);
  const long stride = (sim.steps() + 63) / 64;
  FleetSimulator::Checkpoint cp = sim.start();
  int segments = 0;
  while (!sim.done(cp)) {
    sim.advance(cp, stride);
    ++segments;
    ASSERT_LT(sim.state_bytes(), kLimit) << "after segment " << segments;
  }
  // Segment ends round up to 1024-step chunks: 63 segments of 41 chunks.
  EXPECT_EQ(segments, 63);
  const FleetSimulator::Result result = sim.finalize(cp);
  EXPECT_GT(result.faults.host_crashes, 0);
  EXPECT_GT(result.faults.grid_gaps, 0);
}

TEST(StateBytes, StepRowsOnlyForDayLongRows) {
  // A region's built state is its demand row plus, where the row is one day
  // long, five step rows: 6 x 2 groups x row_len doubles with no faults. A
  // row over the whole horizon keeps the demand row alone: step rows there
  // would multiply horizon-sized state by six. Day-long rows add a chunk
  // phase table: per slot, five sums per group and a once-flag. With the
  // default 256-step chunks an hourly row has 24 / gcd(24, 256) = 3 phases
  // and a minute row 1440 / 32 = 45, each plus a short tail chunk (87660 and
  // 2629800 steps are not multiples of 256).
  struct Case {
    Duration step;
    Duration horizon;
    std::size_t rows;
    std::size_t row_len;
    std::size_t phase_slots;
  };
  const Case cases[] = {
      {hours(1.0), years(10.0), 6, 24, 4},
      {minutes(1.0), days(1826.25), 6, 1440, 46},
      {minutes(7.0), days(3.0), 1, 617, 0},
      {seconds(22.5), days(2.0), 1, 7680, 0},
  };
  constexpr std::size_t kSlotBytes =
      2 * datacenter::ChunkPhaseSums::kRowSections * sizeof(double) +
      sizeof(std::once_flag);
  for (const Case& tc : cases) {
    FleetSimulator::Config config;
    config.cluster = web_train_cluster(400, 24);
    config.step = tc.step;
    config.horizon = tc.horizon;
    const datacenter::FleetRegion region = oracles::fleet_region(config);
    SCOPED_TRACE(testing::Message() << "steps=" << region.run().steps);
    EXPECT_EQ(static_cast<std::size_t>(region.soa().row_len), tc.row_len);
    EXPECT_EQ(region.state_bytes(), tc.rows * 2 * tc.row_len * sizeof(double) +
                                        tc.phase_slots * kSlotBytes);
  }
}

TEST(StateBytes, PlanetWindowsFollowTheSegment) {
  // Two regions share one grid at offsets 0 and 5 h; a third has its own.
  // Construction holds no intensity values; a segment holds one window per
  // grid, sized by the segment plus that grid's largest offset.
  PlanetSimulator::Config config;
  config.horizon = days(40.0);
  config.step = hours(1.0);
  config.steps_per_chunk = 24;
  for (int r = 0; r < 3; ++r) {
    PlanetSimulator::RegionConfig rc;
    rc.name = "r" + std::to_string(r);
    rc.cluster = web_train_cluster(50, 4);
    rc.grid.profile = r < 2 ? grids::us_west_solar() : grids::nordic_hydro();
    rc.utc_offset_hours = r == 1 ? 5.0 : 0.0;
    config.regions.push_back(rc);
  }
  const PlanetSimulator sim(config);
  const std::size_t built = sim.state_bytes();
  PlanetSimulator::Checkpoint cp = sim.start();
  sim.advance(cp, 48);
  // Windows of 48 + 5 and 48 steps.
  EXPECT_EQ(sim.state_bytes() - built, (53 + 48) * sizeof(double));
  sim.advance(cp, 48);
  EXPECT_EQ(sim.state_bytes() - built, (53 + 48) * sizeof(double));
}

TEST(IntensityWindows, FillOncePerSegmentAndReadInPlace) {
  // Regions 0 and 2 share one table (offsets 3 and 7); region 1 has its
  // own. A window is placed anew only when it does not hold the range
  // asked for, and once filled holds exactly the table's doubles at every
  // index.
  IntensityCache cache;
  IntermittentGrid::Config a;
  a.profile = grids::us_west_solar();
  a.solar_share = 0.4;
  IntermittentGrid::Config b;
  b.profile = grids::asia_pacific();
  b.wind_share = 0.3;
  const Duration step = minutes(30.0);
  const auto ta = cache.get(a, step, 0);
  const auto tb = cache.get(b, step, 0);
  IntensityWindows windows({ta.get(), tb.get(), ta.get()}, {3, 0, 7}, nullptr);

  const auto expect_table = [&](std::size_t region,
                                const std::shared_ptr<SharedIntensityTable>& t) {
    const IntensityWindow& w = windows.of(region);
    for (std::size_t i = 0; i < w.values.size(); ++i) {
      const long k = w.first + static_cast<long>(i);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(w.values[i]),
                std::bit_cast<std::uint64_t>(t->table.at_index(k).base()))
          << "k=" << k;
    }
  };

  ASSERT_TRUE(windows.place(100, 5000));
  windows.fill();
  EXPECT_EQ(windows.of(0).first, 100);
  EXPECT_EQ(windows.of(0).values.size(), 4900u + 7u);
  EXPECT_EQ(windows.of(1).values.size(), 4900u);
  EXPECT_EQ(&windows.of(0), &windows.of(2));
  expect_table(0, ta);
  expect_table(1, tb);

  // Held already: read in place.
  EXPECT_FALSE(windows.place(2000, 3000));
  EXPECT_EQ(windows.of(0).first, 100);
  EXPECT_EQ(windows.of(1).first, 100);

  // Past the window: refilled from the new segment's first step.
  ASSERT_TRUE(windows.place(5000, 5200));
  windows.fill();
  EXPECT_EQ(windows.of(0).first, 5000);
  EXPECT_EQ(windows.of(0).values.size(), 207u);
  expect_table(0, ta);
  expect_table(1, tb);

  // A segment shorter than the offset: [5200, 5202) lies inside the
  // shared window, but region 2 reads up to step 5208, past its end, so
  // that window refills; region 1's window, with no offset, also ends at
  // 5200 and refills.
  ASSERT_TRUE(windows.place(5200, 5202));
  EXPECT_EQ(windows.of(0).first, 5200);
  EXPECT_EQ(windows.of(0).values.size(), 9u);
  EXPECT_EQ(windows.of(1).first, 5200);

  // Filled from the tasks that read it instead: a placed window stays
  // stale, and is placed again, until filled() marks it.
  windows.fill_points(0, 5200, 5205);
  windows.fill_points(2, 5205, 5209);
  windows.fill_points(1, 5200, 5202);
  EXPECT_TRUE(windows.place(5200, 5202));
  windows.fill_points(0, 5200, 5209);
  windows.fill_points(1, 5200, 5202);
  windows.filled();
  EXPECT_FALSE(windows.place(5200, 5202));
  expect_table(0, ta);
  expect_table(1, tb);
  EXPECT_THROW(windows.fill_points(1, 5199, 5201), std::invalid_argument);
}

TEST(IntensityWindows, SharedWindFillMatchesPerTableFill) {
  // Six tables on one step. Five are on one seed, so one wind process, and
  // differ in profile, solar_share, firm_share or sunrise_hour: their
  // windows share each block's wind pass. The sixth is a us-average grid on
  // its own seed and must keep its own wind. The regions' offsets give the
  // windows reaches from 0 to 1380 steps, so the grouped fill writes each
  // window only up to its own end. Every value must equal per-point
  // intensity_at bit for bit at 1, 2 and 8 threads, for a whole-second step
  // (slots read by index) and a fractional one (slots checked by lookup),
  // over ranges that cross many 256-point blocks.
  std::vector<IntermittentGrid::Config> configs(6);
  for (IntermittentGrid::Config& c : configs) {
    c.profile = grids::us_average();
    c.solar_share = 0.5;
    c.wind_share = 0.15;
    c.firm_share = 0.1;
  }
  configs[1].profile = grids::asia_pacific();
  configs[2].solar_share = 0.3;
  configs[3].firm_share = 0.25;
  configs[4].sunrise_hour = 7.0;
  configs[5].seed = 7;
  // Region r reads table table_of[r] at offset offsets[r]; regions 0 and 6
  // share table 0's window.
  const std::vector<std::size_t> table_of = {0, 1, 2, 3, 4, 5, 0};
  const std::vector<long> offsets = {3, 0, 5, 300, 60, 1380, 1380};

  for (const Duration step : {seconds(60.0), seconds(37.5)}) {
    IntensityCache cache;
    std::vector<std::shared_ptr<SharedIntensityTable>> tables;
    for (const IntermittentGrid::Config& c : configs) {
      tables.push_back(cache.get(c, step, 0));
    }
    ASSERT_EQ(cache.size(), 6u);
    std::vector<const SharedIntensityTable*> region_tables;
    for (const std::size_t t : table_of) {
      region_tables.push_back(tables[t].get());
    }
    const double step_s = to_seconds(step);
    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE(testing::Message()
                   << "step=" << step_s << " threads=" << threads);
      exec::ThreadPool pool(threads);
      IntensityWindows windows(region_tables, offsets, &pool);
      const auto expect_direct = [&](long begin, long end) {
        for (std::size_t r = 0; r < table_of.size(); ++r) {
          const IntensityWindow& w = windows.of(r);
          ASSERT_EQ(w.first, begin);
          ASSERT_GE(static_cast<long>(w.values.size()), end - begin + offsets[r]);
          const IntermittentGrid& grid = tables[table_of[r]]->grid;
          for (std::size_t i = 0; i < w.values.size(); ++i) {
            const long k = w.first + static_cast<long>(i);
            ASSERT_EQ(std::bit_cast<std::uint64_t>(w.values[i]),
                      std::bit_cast<std::uint64_t>(
                          grid.intensity_at(seconds(step_s * static_cast<double>(k)))
                              .base()))
                << "region=" << r << " k=" << k;
          }
        }
      };
      ASSERT_TRUE(windows.place(100, 5000));
      windows.fill();
      expect_direct(100, 5000);
      // Held already: kept and read in place, not refilled.
      EXPECT_FALSE(windows.place(2000, 3000));
      expect_direct(100, 5000);
      // Re-placed from a first point that is not a block multiple.
      ASSERT_TRUE(windows.place(5000, 5301));
      windows.fill();
      expect_direct(5000, 5301);
    }
  }
}

}  // namespace
}  // namespace sustainai
