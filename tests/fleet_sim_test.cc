#include "datacenter/fleet_sim.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

namespace sustainai::datacenter {
namespace {

Cluster small_cluster(bool autoscalable_web) {
  Cluster cluster;
  ServerGroup web;
  web.name = "web";
  web.sku = hw::skus::web_tier();
  web.count = 100;
  web.tier = Tier::kWeb;
  web.load = DiurnalProfile{0.3, 0.9, 20.0};
  web.autoscalable = autoscalable_web;
  cluster.add_group(web);

  ServerGroup train;
  train.name = "train";
  train.sku = hw::skus::gpu_training_8x();
  train.count = 5;
  train.tier = Tier::kAiTraining;
  train.load = flat_profile(0.5);
  cluster.add_group(train);
  return cluster;
}

FleetSimulator::Config base_config(bool autoscaler, bool opportunistic) {
  FleetSimulator::Config c;
  c.cluster = small_cluster(true);
  c.pue = 1.10;
  c.grid.profile = grids::us_average();
  c.grid.solar_share = 0.3;
  c.grid.firm_share = 0.2;
  c.horizon = days(2.0);
  c.step = minutes(30.0);
  c.enable_autoscaler = autoscaler;
  c.opportunistic_training = opportunistic;
  return c;
}

TEST(FleetSim, FlatGroupEnergyMatchesAnalytic) {
  FleetSimulator::Config c = base_config(false, false);
  const auto result = FleetSimulator(c).run();
  // Training group: 5 servers at 0.5/0.5 for 2 days.
  const Energy expected =
      hw::skus::gpu_training_8x().energy(0.5, 0.5, days(2.0)) * 5.0;
  EXPECT_NEAR(to_kilowatt_hours(result.it_energy_for(Tier::kAiTraining)),
              to_kilowatt_hours(expected),
              to_kilowatt_hours(expected) * 1e-9);
}

TEST(FleetSim, FacilityEnergyIsPueTimesIt) {
  const auto result = FleetSimulator(base_config(true, true)).run();
  EXPECT_NEAR(result.facility_energy / result.it_energy, 1.10, 1e-12);
}

TEST(FleetSim, AutoscalerReducesWebEnergy) {
  FleetSimulator::Config with = base_config(true, false);
  FleetSimulator::Config without = base_config(false, false);
  const auto r_with = FleetSimulator(with).run();
  const auto r_without = FleetSimulator(without).run();
  EXPECT_LT(to_joules(r_with.it_energy_for(Tier::kWeb)),
            to_joules(r_without.it_energy_for(Tier::kWeb)));
}

TEST(FleetSim, OpportunisticTrainingHarvestsFreedServers) {
  const auto result = FleetSimulator(base_config(true, true)).run();
  EXPECT_GT(result.opportunistic_server_hours, 0.0);
  EXPECT_GT(to_joules(result.opportunistic_energy), 0.0);
  // Opportunistic hours cannot exceed 25% of web server-hours.
  EXPECT_LE(result.opportunistic_server_hours, 0.25 * 100.0 * 48.0 + 1e-6);
}

TEST(FleetSim, DisablingOpportunisticRemovesThatEnergy) {
  const auto with = FleetSimulator(base_config(true, true)).run();
  const auto without = FleetSimulator(base_config(true, false)).run();
  EXPECT_NEAR(to_joules(with.it_energy) - to_joules(without.it_energy),
              to_joules(with.opportunistic_energy), 1.0);
  EXPECT_DOUBLE_EQ(to_joules(without.opportunistic_energy), 0.0);
}

TEST(FleetSim, MarketCarbonNetsCoverage) {
  FleetSimulator::Config c = base_config(true, true);
  c.cfe_coverage = 1.0;
  const auto result = FleetSimulator(c).run();
  EXPECT_GT(to_grams_co2e(result.location_carbon), 0.0);
  EXPECT_DOUBLE_EQ(to_grams_co2e(result.market_carbon), 0.0);
}

TEST(FleetSim, CarbonConsistentWithMeanIntensityBounds) {
  FleetSimulator::Config c = base_config(false, false);
  const auto result = FleetSimulator(c).run();
  const IntermittentGrid grid(c.grid);
  // Carbon must lie between facility energy x min and x max intensity.
  double lo = 1e18;
  double hi = 0.0;
  for (double h = 0.0; h < 48.0; h += 0.5) {
    const double v = grid.intensity_at(hours(h)).base();
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double g = to_grams_co2e(result.location_carbon);
  EXPECT_GE(g, to_joules(result.facility_energy) * lo - 1.0);
  EXPECT_LE(g, to_joules(result.facility_energy) * hi + 1.0);
}

TEST(FleetSim, GroupResultsCoverAllGroups) {
  const auto result = FleetSimulator(base_config(true, true)).run();
  ASSERT_EQ(result.groups.size(), 2u);
  EXPECT_EQ(result.groups[0].name, "web");
  EXPECT_EQ(result.groups[1].name, "train");
  EXPECT_GT(result.groups[0].freed_server_hours, 0.0);
  EXPECT_DOUBLE_EQ(result.groups[1].freed_server_hours, 0.0);
  EXPECT_NEAR(result.groups[1].mean_utilization, 0.5, 1e-9);
}

TEST(FleetSim, RejectsInvalidConfig) {
  FleetSimulator::Config c = base_config(true, true);
  c.pue = 0.5;
  EXPECT_THROW((void)FleetSimulator{c}, std::invalid_argument);
  c = base_config(true, true);
  c.step = seconds(0.0);
  EXPECT_THROW((void)FleetSimulator{c}, std::invalid_argument);
  c = base_config(true, true);
  c.horizon = seconds(1.0);
  c.step = hours(1.0);
  EXPECT_THROW((void)FleetSimulator{c}, std::invalid_argument);
}

TEST(FleetSim, RejectsUnboundedStepCount) {
  // horizon / step must be finite and step * steps below 2^53, before the
  // step count is cast or anything is allocated.
  struct Case {
    Duration step;
    Duration horizon;
  };
  const Case cases[] = {
      {hours(1.0), seconds(std::numeric_limits<double>::infinity())},
      {seconds(1e10), seconds(1e30)},       // 1e20 steps: past 2^63
      {seconds(1.0), seconds(0x1p53)},      // 2^53 steps
      {seconds(1e6), seconds(1e6 * 0x1p43)},  // 2^43 steps of 1e6 s
  };
  for (const Case& tc : cases) {
    FleetSimulator::Config c = base_config(true, true);
    c.step = tc.step;
    c.horizon = tc.horizon;
    SCOPED_TRACE(to_seconds(c.horizon));
    try {
      (void)FleetSimulator{c};
      ADD_FAILURE() << "accepted an unbounded step count";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("step * steps < 2^53"),
                std::string::npos)
          << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "unexpected error: " << e.what();
    }
  }
}

}  // namespace
}  // namespace sustainai::datacenter
