// Byte identity of the chunk phase path (datacenter/fleet_kernels.h,
// ChunkPhaseSums) with the reference kernel of tests/oracles/, chunk by
// chunk.
//
// A crash-free chunk takes its step-row sums from the phase table, filled
// once by the first chunk of its phase, and adds only location carbon per
// step; a chunk whose group has a host down steps that group in full. Every
// chunk of a run's grid must match the reference bit for bit either way:
// every phase of day-long rows that the chunk length does not divide, the
// short tail chunk, held gap pieces, crash runs that touch only a chunk's
// first or last step, a zero-count group, static and autoscaled groups.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "core/units.h"
#include "datacenter/fleet_kernels.h"
#include "datacenter/fleet_sim.h"
#include "exec/thread_pool.h"
#include "hw/server.h"
#include "oracles/fleet_reference.h"

namespace sustainai {
namespace {

using datacenter::ChunkPhaseSums;
using datacenter::DownRun;
using datacenter::FleetPartial;
using datacenter::FleetRegion;
using datacenter::FleetSimulator;
using datacenter::FleetStepInputs;

datacenter::ServerGroup group(const char* name, hw::ServerSku sku, int count,
                              datacenter::DiurnalProfile load,
                              bool autoscalable) {
  datacenter::ServerGroup g;
  g.name = name;
  g.sku = std::move(sku);
  g.count = count;
  g.tier = datacenter::Tier::kWeb;
  g.load = load;
  g.autoscalable = autoscalable;
  return g;
}

// An autoscaled and a static diurnal group, a zero-count group the kernel
// skips, and a static flat training group.
FleetSimulator::Config config(Duration step, Duration horizon,
                              long chunk_steps) {
  FleetSimulator::Config c;
  c.cluster.add_group(group("web", hw::skus::web_tier(), 130,
                            datacenter::DiurnalProfile{0.25, 0.9, 15.0}, true));
  c.cluster.add_group(group("batch", hw::skus::gpu_inference_2x(), 21,
                            datacenter::DiurnalProfile{0.2, 0.75, 3.5}, false));
  c.cluster.add_group(group("idle", hw::skus::web_tier(), 0,
                            datacenter::DiurnalProfile{0.1, 0.8, 9.0}, true));
  c.cluster.add_group(group("train", hw::skus::gpu_training_8x(), 9,
                            datacenter::flat_profile(0.6), false));
  c.pue = 1.13;
  c.grid.profile = grids::us_west_solar();
  c.grid.solar_share = 0.4;
  c.grid.wind_share = 0.2;
  c.step = step;
  c.horizon = horizon;
  c.steps_per_chunk = chunk_steps;
  return c;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Production and reference chunks of one region, side by side.
class ChunkPair {
 public:
  explicit ChunkPair(const FleetRegion& region)
      : region_(region),
        reference_(region, region.run().steps_per_chunk,
                   oracles::LaneSource::kTable) {
    // The region's table over the whole horizon as one window, as the
    // reference's table lane reads it.
    const long points = region.run().steps + region.offset_steps();
    window_.values.resize(static_cast<std::size_t>(points));
    region.table()->table.fill_values(0, points, window_.values.data());
    in_ = region.inputs(window_);
  }

  [[nodiscard]] const FleetStepInputs& inputs() const { return in_; }

  // Chunk [b, e) through the production kernel, checked bit for bit
  // against the reference.
  FleetPartial check(long b, long e) const {
    const FleetPartial got = datacenter::run_fleet_chunk(
        in_, static_cast<std::size_t>(b), static_cast<std::size_t>(e));
    const FleetPartial want = reference_.chunk(static_cast<std::size_t>(b),
                                               static_cast<std::size_t>(e));
    const std::vector<double>& g = got.buffer();
    const std::vector<double>& w = want.buffer();
    EXPECT_EQ(g.size(), w.size());
    for (std::size_t i = 0; i < g.size() && i < w.size(); ++i) {
      EXPECT_EQ(bits(g[i]), bits(w[i]))
          << "chunk [" << b << ", " << e << ") section "
          << i / region_.num_groups() << " group " << i % region_.num_groups();
    }
    return got;
  }

  // Every chunk of the run's grid, twice: the first pass fills each phase
  // from its first chunk, the second reads every phase filled. Returns the
  // phase-table slots the chunks took.
  std::set<long> check_grid() const {
    const long steps = region_.run().steps;
    const long cpc = region_.run().steps_per_chunk;
    std::set<long> slots;
    for (int pass = 0; pass < 2; ++pass) {
      for (long b = 0; b < steps; b += cpc) {
        const long e = std::min(steps, b + cpc);
        check(b, e);
        if (in_.phases != nullptr) {
          slots.insert(in_.phases->slot_of(b, e));
        }
      }
    }
    return slots;
  }

 private:
  const FleetRegion& region_;
  oracles::ReferenceFleet reference_;
  IntensityWindow window_;
  FleetStepInputs in_;
};

TEST(ChunkPhaseSums, EveryPhaseOfDayRowsAndTheTailMatchTheReference) {
  // Hourly (24 slots) in 20-step chunks: gcd 4, so 6 phases, and 732 steps
  // leave a 12-step tail. One-minute (1440 slots) in 1000-step chunks: gcd
  // 40, so 36 phases, and 37872 steps leave an 872-step tail.
  struct Case {
    Duration step;
    Duration horizon;
    long chunk_steps;
    long phases;
  };
  const Case cases[] = {{hours(1.0), days(30.5), 20, 6},
                        {minutes(1.0), days(26.3), 1000, 36}};
  for (const Case& tc : cases) {
    for (const bool autoscaler : {true, false}) {
      FleetSimulator::Config c = config(tc.step, tc.horizon, tc.chunk_steps);
      c.enable_autoscaler = autoscaler;
      const FleetRegion region = oracles::fleet_region(c);
      const long steps = region.run().steps;
      SCOPED_TRACE(testing::Message() << "steps=" << steps
                                      << " autoscaler=" << autoscaler);
      ASSERT_NE(region.soa().row_len % tc.chunk_steps, 0);
      ASSERT_NE(steps % tc.chunk_steps, 0);
      const ChunkPair pair(region);
      ASSERT_NE(pair.inputs().phases, nullptr);
      EXPECT_EQ(pair.inputs().down, nullptr);
      // Every phase and the tail slot after them, and no chunk off the
      // table.
      std::set<long> want;
      for (long p = 0; p <= tc.phases; ++p) {
        want.insert(p);
      }
      EXPECT_EQ(pair.check_grid(), want);
    }
  }
}

TEST(ChunkPhaseSums, HeldGapPiecesWithNoHostDown) {
  // Grid-data gaps alone: no host is ever down, so every chunk takes the
  // phase path, and its location pass reads held values inside the chunk.
  FleetSimulator::Config c = config(hours(1.0), days(40.0), 20);
  c.faults.rates.grid_gap_per_day = 3.0;
  c.faults.seed = 7;
  const FleetRegion region = oracles::fleet_region(c);
  const ChunkPair pair(region);
  ASSERT_NE(pair.inputs().phases, nullptr);
  ASSERT_EQ(pair.inputs().down, nullptr);
  ASSERT_NE(pair.inputs().held, nullptr);
  // Some gap starts or ends strictly inside a chunk, so a piece boundary
  // falls mid-chunk.
  const long cpc = region.run().steps_per_chunk;
  bool inside = false;
  for (const datacenter::HeldRun& run : *pair.inputs().held) {
    inside = inside || run.begin % cpc != 0 || run.end % cpc != 0;
  }
  EXPECT_TRUE(inside);
  EXPECT_FALSE(pair.check_grid().contains(-1));
}

// Steps of [b, e) on which one of `runs` has a host down.
long down_steps(const std::vector<DownRun>& runs, long b, long e) {
  long n = 0;
  for (const DownRun& r : runs) {
    n += std::max(0L, std::min(e, r.end) - std::max(b, r.begin));
  }
  return n;
}

TEST(ChunkPhaseSums, CrashOnAChunkEdgeStepsTheGroupInFull) {
  // 15-minute steps over 20 days (96-slot rows) with frequent crashes. For
  // a crash run whose last step begins a full chunk, or whose first step
  // ends one, pick a chunk length that puts a chunk edge there; that chunk
  // has a host down on one step only, at its edge. The reference sees the
  // crash, so a phase path that missed it would differ.
  FleetSimulator::Config c = config(minutes(15.0), days(20.0), 64);
  c.faults.rates.host_crash_per_day = 3.0;
  c.faults.seed = 11;
  const FleetRegion probe = oracles::fleet_region(c);
  const long steps = probe.run().steps;
  const ChunkPair probe_pair(probe);
  ASSERT_NE(probe_pair.inputs().down, nullptr);
  const std::vector<std::vector<DownRun>>& down = *probe_pair.inputs().down;

  struct Edge {
    long chunk_steps;
    long begin;
    std::size_t group;
  };
  // edges[0]: a crash on the chunk's first step only; edges[1]: on its last.
  std::vector<Edge> edges[2];
  for (long cpc = 8; cpc <= 256; cpc += datacenter::kStepLanes) {
    if (ChunkPhaseSums(probe.soa(), cpc).empty()) {
      continue;  // no phase repeats: every chunk steps in full
    }
    for (std::size_t g = 0; g < down.size(); ++g) {
      for (const DownRun& r : down[g]) {
        const long first = r.end - 1;         // starts on the run's last step
        const long last = r.begin + 1 - cpc;  // ends on the run's first step
        if (first % cpc == 0 && first + cpc <= steps &&
            down_steps(down[g], first, first + cpc) == 1) {
          edges[0].push_back({cpc, first, g});
        }
        if (last >= 0 && last % cpc == 0 &&
            down_steps(down[g], last, last + cpc) == 1) {
          edges[1].push_back({cpc, last, g});
        }
      }
    }
  }
  for (const std::vector<Edge>& found : edges) {
    ASSERT_FALSE(found.empty());
    const Edge& edge = found.front();
    SCOPED_TRACE(testing::Message() << "chunk_steps=" << edge.chunk_steps
                                    << " begin=" << edge.begin
                                    << " group=" << edge.group);
    c.steps_per_chunk = edge.chunk_steps;
    const FleetRegion region = oracles::fleet_region(c);
    const ChunkPair pair(region);
    ASSERT_NE(pair.inputs().phases, nullptr);
    const long e = edge.begin + edge.chunk_steps;
    EXPECT_GE(pair.inputs().phases->slot_of(edge.begin, e), 0);
    pair.check_grid();
    const FleetPartial chunk = pair.check(edge.begin, e);
    EXPECT_GT(chunk.fault_lost_hours()[edge.group], 0.0);
  }
}

TEST(ChunkPhaseSums, ThreadedAndSegmentedRunsMatchTheUnsegmentedBytes) {
  // 1000-step chunks of one-minute steps with crashes and gaps, so chunks
  // of one phase take either path, and at 4 threads several chunks reach a
  // phase's first fill together. Each run builds a fresh table.
  FleetSimulator::Config c = config(minutes(1.0), days(26.3), 1000);
  c.faults.rates.host_crash_per_day = 1.0;
  c.faults.rates.grid_gap_per_day = 1.0;
  c.faults.seed = 3;
  const auto run = [&c](int threads, long segment) {
    exec::ThreadPool pool(threads);
    FleetSimulator::Config cfg = c;
    cfg.pool = &pool;
    const FleetSimulator sim(cfg);
    FleetSimulator::Checkpoint cp = sim.start();
    while (!sim.done(cp)) {
      sim.advance(cp, segment);
    }
    return cp.shards[0].buffer();
  };
  const std::vector<double> whole = run(1, 1L << 40);
  const FleetRegion region = oracles::fleet_region(c);
  const ChunkPair pair(region);
  ASSERT_NE(pair.inputs().phases, nullptr);
  FleetPartial reference(region.num_groups());
  for (long b = 0; b < region.run().steps; b += 1000) {
    reference.merge(pair.check(b, std::min(region.run().steps, b + 1000)));
  }
  ASSERT_GT(reference.total(reference.fault_lost_hours()), 0.0);
  const auto expect_bits = [](const std::vector<double>& got,
                              const std::vector<double>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(bits(got[i]), bits(want[i])) << "slot " << i;
    }
  };
  expect_bits(whole, reference.buffer());
  for (const int threads : {1, 4}) {
    for (const long segment : {1L << 40, 5000L}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads
                                      << " segment=" << segment);
      expect_bits(run(threads, segment), whole);
    }
  }
}

}  // namespace
}  // namespace sustainai
