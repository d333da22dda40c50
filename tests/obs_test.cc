// The src/obs contract: spans merge into one deterministic (track, seq)
// order, the sim-time Chrome-trace export is byte-identical at any
// SUSTAINAI_THREADS, metrics snapshots render deterministically, and a
// disabled tracer records nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "datacenter/fleet_sim.h"
#include "datacenter/queue_sim.h"
#include "datagen/rng.h"
#include "datagen/trace.h"
#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "hw/server.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sustainai::obs {
namespace {

// Leaves the process-wide tracer/registry pristine for whatever test runs
// next in the same process.
struct ObsGuard {
  ObsGuard() {
    Tracer::global().set_enabled(false);
    Tracer::global().clear();
    MetricsRegistry::global().clear();
  }
  ~ObsGuard() {
    Tracer::global().set_enabled(false);
    Tracer::global().clear();
    MetricsRegistry::global().clear();
  }
};

TEST(ObsTrace, DisabledTracerRecordsNothing) {
  ObsGuard guard;
  const std::size_t before = Tracer::global().span_count();
  {
    Span outer("outer");
    EXPECT_FALSE(outer.active());
    Span inner("inner", 0.0, 1.0);
    inner.label("key", "value");
  }
  EXPECT_EQ(Tracer::global().span_count(), before);
}

TEST(ObsTrace, NestedSpansSortBackIntoOpenOrder) {
  ObsGuard guard;
  Tracer::global().set_enabled(true);
  {
    Span outer("outer", 0.0, 4.0);
    {
      Span first("first", 0.0, 2.0);
    }
    {
      Span second("second", 2.0, 4.0);
    }
  }
  const std::vector<SpanRecord> spans = Tracer::global().collect();
  // Close order is first/second/outer; (track, seq) restores open order.
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[1].name, "first");
  EXPECT_EQ(spans[2].name, "second");
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_EQ(spans[2].depth, 1u);
  EXPECT_TRUE(spans[0].has_sim);
}

TEST(ObsTrace, ChunkTracksAreDisjointFromSerialAndUserLanes) {
  // Region ids count from 1, so no chunk lane collides with the serial
  // track; user lanes live far above any realistic (region, chunk) pair.
  EXPECT_NE(chunk_track(1, 0), kSerialTrack);
  EXPECT_LT(chunk_track(1, 0), chunk_track(1, 1));
  EXPECT_LT(chunk_track(1, 123), chunk_track(2, 0));
  EXPECT_LT(chunk_track(1000, 100000), kUserTrackBase);
}

std::string traced_parallel_for(int threads) {
  Tracer::global().clear();
  Tracer::global().set_enabled(true);
  exec::ThreadPool pool(threads);
  exec::ParallelOptions options;
  options.pool = &pool;
  options.chunk_size = 8;
  exec::parallel_for(
      64,
      [](std::size_t i) {
        Span span("body", static_cast<double>(i),
                  static_cast<double>(i + 1));
      },
      options);
  const std::string json = chrome_trace_json(Tracer::global().collect());
  Tracer::global().set_enabled(false);
  return json;
}

TEST(ObsTrace, ParallelForTraceIsByteIdenticalAcrossThreadCounts) {
  ObsGuard guard;
  const std::string reference = traced_parallel_for(1);
  EXPECT_NE(reference.find("\"body\""), std::string::npos);
  for (int threads : {2, 8}) {
    EXPECT_EQ(traced_parallel_for(threads), reference)
        << "trace diverged at " << threads << " threads";
  }
}

TEST(ObsTrace, WallTimebaseExportsUntimedSpansToo) {
  ObsGuard guard;
  Tracer::global().set_enabled(true);
  {
    Span untimed("untimed");  // no sim interval
  }
  const std::vector<SpanRecord> spans = Tracer::global().collect();
  TraceExportOptions wall;
  wall.timebase = TraceTimebase::kWallTime;
  EXPECT_EQ(chrome_trace_json(spans).find("untimed"), std::string::npos);
  EXPECT_NE(chrome_trace_json(spans, wall).find("untimed"),
            std::string::npos);
}

TEST(ObsMetrics, HistogramKeepsDatagenEdgeSemantics) {
  ObsGuard guard;
  MetricsRegistry registry;
  HistogramMetric& h = registry.histogram("latency", 0.0, 10.0, 5);
  h.observe(-3.0);  // clamps into the first bucket
  h.observe(1.0);
  h.observe(9.5);
  h.observe(42.0);  // clamps into the last bucket
  h.observe(std::numeric_limits<double>::quiet_NaN());

  const MetricsSnapshot snap = registry.snapshot();
  const MetricSample* s = snap.find("latency");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->bucket_counts.size(), 5u);
  EXPECT_EQ(s->bucket_counts[0], 2u);  // -3 clamped + 1.0
  EXPECT_EQ(s->bucket_counts[4], 2u);  // 9.5 + 42 clamped
  EXPECT_EQ(s->total_count, 4u);
  EXPECT_EQ(s->non_finite, 1u);
  EXPECT_DOUBLE_EQ(s->value, -3.0 + 1.0 + 9.5 + 42.0);

  const std::string text = prometheus_text(snap);
  EXPECT_NE(text.find("# TYPE latency histogram"), std::string::npos);
  EXPECT_NE(text.find("latency_bucket{le=\"2\"} 2"), std::string::npos);
  EXPECT_NE(text.find("latency_bucket{le=\"10\"} 4"), std::string::npos);
  EXPECT_NE(text.find("latency_bucket{le=\"+Inf\"} 4"), std::string::npos);
  EXPECT_NE(text.find("latency_count 4"), std::string::npos);
}

TEST(ObsMetrics, SnapshotSortsByNameAndLabelsNotRegistrationOrder) {
  MetricsRegistry registry;
  registry.counter("zeta").add(1.0);
  registry.counter("alpha", {{"tier", "web"}}).add(2.0);
  registry.counter("alpha", {{"tier", "ai"}}).add(3.0);
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.samples.size(), 3u);
  EXPECT_EQ(snap.samples[0].name, "alpha");
  EXPECT_EQ(snap.samples[0].labels[0].second, "ai");
  EXPECT_EQ(snap.samples[1].labels[0].second, "web");
  EXPECT_EQ(snap.samples[2].name, "zeta");
}

TEST(ObsMetrics, DiffSubtractsCountersAndTakesGaugesVerbatim) {
  MetricsRegistry registry;
  Counter& c = registry.counter("work_total");
  Gauge& g = registry.gauge("depth");
  c.add(5.0);
  g.set(2.0);
  const MetricsSnapshot before = registry.snapshot();
  c.add(7.0);
  g.set(9.0);
  g.set(4.0);
  const MetricsSnapshot after = registry.snapshot();

  const MetricsSnapshot delta = diff(before, after);
  const MetricSample* dc = delta.find("work_total");
  const MetricSample* dg = delta.find("depth");
  ASSERT_NE(dc, nullptr);
  ASSERT_NE(dg, nullptr);
  EXPECT_DOUBLE_EQ(dc->value, 7.0);
  EXPECT_DOUBLE_EQ(dg->value, 4.0);
  EXPECT_DOUBLE_EQ(dg->gauge_max, 9.0);
}

TEST(ObsMetrics, GaugeTracksPeakValue) {
  Gauge g;
  g.set(3.0);
  g.set(11.0);
  g.set(6.0);
  EXPECT_DOUBLE_EQ(g.value(), 6.0);
  EXPECT_DOUBLE_EQ(g.max_value(), 11.0);
}

datacenter::FleetSimulator::Config fleet_config(exec::ThreadPool* pool) {
  using namespace datacenter;
  Cluster cluster;
  ServerGroup web;
  web.name = "web";
  web.sku = hw::skus::web_tier();
  web.count = 200;
  web.tier = Tier::kWeb;
  web.load = DiurnalProfile{0.3, 0.9, 20.0};
  web.autoscalable = true;
  cluster.add_group(web);
  ServerGroup train;
  train.name = "train";
  train.sku = hw::skus::gpu_training_8x();
  train.count = 8;
  train.tier = Tier::kAiTraining;
  train.load = flat_profile(0.5);
  cluster.add_group(train);

  FleetSimulator::Config c;
  c.cluster = cluster;
  c.grid.profile = grids::us_average();
  c.grid.solar_share = 0.3;
  c.grid.wind_share = 0.2;
  c.grid.firm_share = 0.1;
  c.horizon = days(4.0);
  c.step = minutes(15.0);
  c.steps_per_chunk = 32;
  c.pool = pool;
  return c;
}

struct FleetArtifacts {
  std::string trace_json;
  std::string metrics_text;
};

FleetArtifacts traced_fleet_run(int threads) {
  Tracer::global().clear();
  Tracer::global().set_enabled(true);
  MetricsRegistry::global().clear();
  exec::ThreadPool pool(threads);
  (void)datacenter::FleetSimulator(fleet_config(&pool)).run();
  FleetArtifacts out;
  out.trace_json = chrome_trace_json(Tracer::global().collect());
  out.metrics_text = prometheus_text(MetricsRegistry::global().snapshot());
  Tracer::global().set_enabled(false);
  return out;
}

// The headline acceptance test: a fixed-seed FleetSimulator run exports a
// byte-identical trace and metrics text at 1, 2, and 8 threads.
TEST(ObsFleet, TraceAndMetricsAreByteIdenticalAcrossThreadCounts) {
  ObsGuard guard;
  const FleetArtifacts reference = traced_fleet_run(1);
  EXPECT_NE(reference.trace_json.find("fleet.chunk"), std::string::npos);
  EXPECT_NE(reference.trace_json.find("fleet.run"), std::string::npos);
  EXPECT_NE(reference.metrics_text.find("fleet_it_energy_joules"),
            std::string::npos);
  for (int threads : {2, 8}) {
    const FleetArtifacts got = traced_fleet_run(threads);
    EXPECT_EQ(got.trace_json, reference.trace_json)
        << "trace diverged at " << threads << " threads";
    EXPECT_EQ(got.metrics_text, reference.metrics_text)
        << "metrics diverged at " << threads << " threads";
  }
}

// A time chunk records one span, fleet.chunk with its sim interval, in
// place of an exec.chunk span over the same interval.
TEST(ObsFleet, EachChunkRecordsOneSpan) {
  ObsGuard guard;
  Tracer::global().clear();
  Tracer::global().set_enabled(true);
  exec::ThreadPool pool(2);
  (void)datacenter::FleetSimulator(fleet_config(&pool)).run();
  std::map<std::uint64_t, int> chunk_spans;
  std::size_t exec_spans = 0;
  for (const SpanRecord& s : Tracer::global().collect()) {
    if (s.name == "exec.chunk") {
      ++exec_spans;
    } else if (s.name == "fleet.chunk") {
      ++chunk_spans[s.track];
      EXPECT_EQ(s.depth, 0u);
      EXPECT_TRUE(s.has_sim);
    }
  }
  EXPECT_EQ(exec_spans, 0u);
  // 4 days of 15-minute steps in chunks of 32.
  EXPECT_EQ(chunk_spans.size(), 12u);
  for (const auto& [track, count] : chunk_spans) {
    EXPECT_NE(track, kSerialTrack);
    EXPECT_EQ(count, 1) << track;
  }
}

TEST(ObsQueue, QueueSimEmitsPerJobLanesAndDepthGauge) {
  using namespace datacenter;
  ObsGuard guard;
  Tracer::global().set_enabled(true);

  datagen::Rng rng(11);
  std::vector<BatchJob> jobs;
  int id = 0;
  for (const Duration& arrival :
       datagen::poisson_arrivals(1.5, days(1.0), rng)) {
    BatchJob j;
    j.id = "job-" + std::to_string(id++);
    j.power = kilowatts(15.0);
    j.duration = hours(2.0);
    j.arrival = arrival;
    j.slack = hours(6.0);
    jobs.push_back(j);
  }
  QueueSimConfig config;
  config.machines = 3;
  config.grid.profile = grids::us_average();
  config.grid.solar_share = 0.4;
  const QueueSimResult result =
      run_queue_sim(jobs, config, QueuePolicy::kGreedyGreen);
  ASSERT_FALSE(result.jobs.empty());

  const std::vector<SpanRecord> spans = Tracer::global().collect();
  std::size_t job_spans = 0;
  for (const SpanRecord& s : spans) {
    if (s.name == "queue.job") {
      ++job_spans;
      EXPECT_GE(s.track, kUserTrackBase);
      EXPECT_TRUE(s.has_sim);
    }
  }
  EXPECT_EQ(job_spans, result.jobs.size());

  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  const Labels policy_labels{{"policy", "queue-green"}};
  const MetricSample* depth = snap.find("queue_depth", policy_labels);
  ASSERT_NE(depth, nullptr);
  EXPECT_GT(depth->gauge_max, 0.0);
  const MetricSample* carbon = snap.find("queue_sim_carbon_grams", policy_labels);
  ASSERT_NE(carbon, nullptr);
  EXPECT_NEAR(carbon->value, to_grams_co2e(result.total_carbon), 1e-9);
}

TEST(ObsExec, ChunkSpansLandOnRegionTracksAndBusyTimeAccumulates) {
  ObsGuard guard;
  Tracer::global().set_enabled(true);
  exec::ThreadPool pool(2);
  exec::ParallelOptions options;
  options.pool = &pool;
  options.chunk_size = 4;
  std::atomic<int> touched{0};
  exec::parallel_for(
      32, [&touched](std::size_t) { touched.fetch_add(1); }, options);
  EXPECT_EQ(touched.load(), 32);

  std::size_t chunk_spans = 0;
  for (const SpanRecord& s : Tracer::global().collect()) {
    if (s.name == "exec.chunk") {
      ++chunk_spans;
      EXPECT_NE(s.track, kSerialTrack);
      EXPECT_LT(s.track, kUserTrackBase);
    }
  }
  EXPECT_EQ(chunk_spans, 8u);
}

}  // namespace
}  // namespace sustainai::obs
