// The interval fault projection (datacenter::project_faults) equals the
// dense per-step projection it replaced (tests/oracles/fault_reference.h)
// at every step: hand-placed plans for the edge cases, then randomized
// plans that mix all of them.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/units.h"
#include "datacenter/cluster.h"
#include "datacenter/fleet_kernels.h"
#include "datagen/rng.h"
#include "fault/plan.h"
#include "hw/server.h"
#include "oracles/fault_reference.h"

namespace sustainai {
namespace {

using datacenter::Cluster;
using datacenter::DownRun;
using datacenter::FaultProjection;
using datacenter::GapRun;
using fault::FaultEvent;
using fault::FaultKind;
using fault::FaultPlan;

Cluster cluster_of(const std::vector<int>& counts) {
  Cluster cluster;
  for (std::size_t g = 0; g < counts.size(); ++g) {
    datacenter::ServerGroup group;
    group.name = "g" + std::to_string(g);
    group.sku = hw::skus::web_tier();
    group.count = counts[g];
    group.load = datacenter::flat_profile(0.5);
    cluster.add_group(group);
  }
  return cluster;
}

FaultEvent event(FaultKind kind, double time_s, double duration_s,
                 std::uint64_t target = 0) {
  FaultEvent e;
  e.kind = kind;
  e.time = seconds(time_s);
  e.duration = seconds(duration_s);
  e.target = target;
  return e;
}

// Runs must be sorted, disjoint and non-empty.
template <typename Run>
void expect_well_formed(const std::vector<Run>& runs, long steps) {
  long last_end = 0;
  for (const Run& r : runs) {
    EXPECT_LE(last_end, r.begin);
    EXPECT_LT(r.begin, r.end);
    EXPECT_LE(r.end, steps);
    last_end = r.end;
  }
}

// The runs expanded to one value per step, compared with the oracle.
void expect_matches_oracle(const FaultPlan& plan, const Cluster& cluster,
                           long steps, double step_s) {
  const FaultProjection runs =
      datacenter::project_faults(plan, cluster, steps, step_s);
  const oracles::DenseFaultProjection dense =
      oracles::dense_project_faults(plan, cluster, steps, step_s);
  const auto n = static_cast<std::size_t>(steps);

  ASSERT_EQ(runs.any_down(), dense.any_down());
  for (std::size_t g = 0; g < runs.down.size(); ++g) {
    SCOPED_TRACE(testing::Message() << "group " << g);
    expect_well_formed(runs.down[g], steps);
    std::vector<int> down(n, 0);
    for (const DownRun& r : runs.down[g]) {
      EXPECT_GT(r.down, 0);
      for (long s = r.begin; s < r.end; ++s) {
        down[static_cast<std::size_t>(s)] = r.down;
      }
    }
    ASSERT_EQ(down, dense.down[g]);
  }

  expect_well_formed(runs.gaps, steps);
  std::vector<long> remap(n);
  for (std::size_t s = 0; s < n; ++s) {
    remap[s] = static_cast<long>(s);
  }
  for (const GapRun& r : runs.gaps) {
    for (long s = r.begin; s < r.end; ++s) {
      remap[static_cast<std::size_t>(s)] = r.hold;
    }
  }
  if (dense.any_gap()) {
    ASSERT_EQ(remap, dense.intensity_remap);
  } else {
    EXPECT_TRUE(runs.gaps.empty());
  }
}

TEST(FaultProjection, OverlappingCrashesCapAtGroupCount) {
  // Four crashes of group 0 (count 2) overlap on [20, 30): the down count
  // climbs 1, 2 and stays at the cap; group 1 (count 5) sees its own two.
  const Cluster cluster = cluster_of({2, 5});
  const double step = 60.0;
  const FaultPlan plan(
      {event(FaultKind::kHostCrash, 10 * step, 30 * step, 0),
       event(FaultKind::kHostCrash, 15 * step, 20 * step, 2),
       event(FaultKind::kHostCrash, 20 * step, 10 * step, 4),
       event(FaultKind::kHostCrash, 20 * step, 15 * step, 6),
       event(FaultKind::kHostCrash, 25 * step, 10 * step, 1),
       event(FaultKind::kHostCrash, 28 * step, 10 * step, 3)},
      seconds(100 * step));
  expect_matches_oracle(plan, cluster, 100, step);
  const FaultProjection runs =
      datacenter::project_faults(plan, cluster, 100, step);
  ASSERT_EQ(runs.down.size(), 2u);
  EXPECT_EQ(runs.down[0].size(), 3u);  // 1 on [10, 15), 2 to 35, 1 to 40
  EXPECT_EQ(runs.down[0][1].down, 2);
}

TEST(FaultProjection, ChainedGapsHoldTheFirstReading) {
  // Gap B starts inside gap A, so it holds A's reading (step 10); gap C
  // starts inside B's extension past A and holds it too; gap D starts
  // after every gap has ended and holds its own first step.
  const Cluster cluster = cluster_of({3});
  const double step = 900.0;
  const FaultPlan plan({event(FaultKind::kGridDataGap, 10 * step, 20 * step),
                        event(FaultKind::kGridDataGap, 25 * step, 20 * step),
                        event(FaultKind::kGridDataGap, 40 * step, 5 * step),
                        event(FaultKind::kGridDataGap, 70 * step, 4 * step)},
                       seconds(96 * step));
  expect_matches_oracle(plan, cluster, 96, step);
  const FaultProjection runs =
      datacenter::project_faults(plan, cluster, 96, step);
  for (const GapRun& r : runs.gaps) {
    EXPECT_EQ(r.hold, r.begin < 70 ? 10 : 70) << r.begin;
  }
}

TEST(FaultProjection, EventsAtStepZeroAndPastTheHorizon) {
  // A crash and a gap at t = 0, a gap straddling the horizon end, and
  // events that start at or after it.
  const Cluster cluster = cluster_of({4, 1});
  const double step = 3600.0;
  const long steps = 48;
  const FaultPlan plan(
      {event(FaultKind::kHostCrash, 0.0, 3 * step, 0),
       event(FaultKind::kGridDataGap, 0.0, 2 * step),
       event(FaultKind::kGridDataGap, 46.5 * step, 5 * step),
       event(FaultKind::kHostCrash, 47 * step, 4 * step, 1),
       event(FaultKind::kHostCrash, 48 * step, 2 * step, 0),
       event(FaultKind::kGridDataGap, 60 * step, 2 * step)},
      seconds(static_cast<double>(steps) * step));
  expect_matches_oracle(plan, cluster, steps, step);
}

TEST(FaultProjection, ZeroDurationEventsCoverAtMostOneStep) {
  // Off a step boundary a zero-length event covers the step it falls in
  // (floor to ceil); on a boundary it covers none.
  const Cluster cluster = cluster_of({2});
  const double step = 60.0;
  const FaultPlan plan({event(FaultKind::kHostCrash, 5 * step, 0.0),
                        event(FaultKind::kHostCrash, 7.5 * step, 0.0),
                        event(FaultKind::kGridDataGap, 9 * step, 0.0),
                        event(FaultKind::kGridDataGap, 11.25 * step, 0.0)},
                       seconds(20 * step));
  expect_matches_oracle(plan, cluster, 20, step);
  const FaultProjection runs =
      datacenter::project_faults(plan, cluster, 20, step);
  ASSERT_EQ(runs.down.size(), 1u);
  ASSERT_EQ(runs.down[0].size(), 1u);
  EXPECT_EQ(runs.down[0][0].begin, 7);
  EXPECT_EQ(runs.down[0][0].end, 8);
  ASSERT_EQ(runs.gaps.size(), 1u);
  EXPECT_EQ(runs.gaps[0].begin, 11);
}

TEST(FaultProjection, SdcAndPreemptionOnlyPlansProjectNothing) {
  const Cluster cluster = cluster_of({3, 2});
  const FaultPlan plan({event(FaultKind::kSilentCorruption, 120.0, 0.0),
                        event(FaultKind::kJobPreemption, 300.0, 600.0)},
                       days(1.0));
  expect_matches_oracle(plan, cluster, 96, 900.0);
  const FaultProjection runs =
      datacenter::project_faults(plan, cluster, 96, 900.0);
  EXPECT_FALSE(runs.any_down());
  EXPECT_FALSE(runs.any_gap());
}

TEST(FaultProjection, RandomPlansMatchDenseOracleAtEveryStep) {
  // Small groups and many long events, so overlaps exceed the counts and
  // gaps chain; times reach past the horizon, land on step 0 and on step
  // boundaries, and a share of events has zero length.
  datagen::Rng rng(23);
  const double step_sizes[] = {60.0, 900.0, 37.5, 3600.0};
  for (int trial = 0; trial < 400; ++trial) {
    const long steps = rng.uniform_int(1, 300);
    const double step_s = step_sizes[rng.uniform_int(0, 3)];
    std::vector<int> counts(static_cast<std::size_t>(rng.uniform_int(1, 4)));
    for (int& c : counts) {
      c = static_cast<int>(rng.uniform_int(0, 4));
    }
    const double horizon_s = step_s * static_cast<double>(steps);
    std::vector<FaultEvent> events(static_cast<std::size_t>(rng.uniform_int(0, 30)));
    for (FaultEvent& e : events) {
      e.kind = static_cast<FaultKind>(rng.uniform_int(0, fault::kNumFaultKinds - 1));
      const int where = static_cast<int>(rng.uniform_int(0, 9));
      const double t = where == 0   ? 0.0
                       : where == 1 ? step_s * static_cast<double>(
                                                   rng.uniform_int(0, steps))
                                    : rng.uniform(0.0, horizon_s * 1.1);
      e.time = seconds(t);
      e.duration = seconds(rng.uniform01() < 0.15
                               ? 0.0
                               : rng.uniform(0.0, step_s * 40.0));
      e.target = rng.next_u64();
    }
    SCOPED_TRACE(testing::Message() << "trial " << trial << " steps " << steps
                                    << " step_s " << step_s);
    expect_matches_oracle(FaultPlan(std::move(events), seconds(horizon_s)),
                          cluster_of(counts), steps, step_s);
  }
}

}  // namespace
}  // namespace sustainai
