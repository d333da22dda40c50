// Kill/resume byte-identity for the fleet and queue simulators, mirroring
// tests/planet_sim_test.cc: a run snapshotted mid-flight and resumed by a
// FRESH simulator (the "new process") from canonical-JSON text produces the
// same bytes as an uninterrupted run, at any thread count, with fault
// injection live — and a snapshot from a differently-configured run is
// rejected by its config digest.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "datacenter/fleet_sim.h"
#include "datacenter/planet_sim.h"
#include "datacenter/queue_sim.h"
#include "engine/snapshot.h"
#include "exec/thread_pool.h"
#include "report/json.h"
#include "scenario/runner.h"

namespace sustainai {
namespace {

using datacenter::FleetSimulator;
using datacenter::QueuePolicy;
using datacenter::QueueSim;
using datacenter::QueueSimConfig;
using datacenter::QueueSimResult;

// --- fleet ----------------------------------------------------------------

datacenter::Cluster resume_cluster() {
  datacenter::Cluster cluster;
  datacenter::ServerGroup web;
  web.name = "web";
  web.sku = hw::skus::web_tier();
  web.count = 90;
  web.tier = datacenter::Tier::kWeb;
  web.load = datacenter::DiurnalProfile{0.3, 0.9, 20.0};
  web.autoscalable = true;
  cluster.add_group(web);

  datacenter::ServerGroup train;
  train.name = "train";
  train.sku = hw::skus::gpu_training_8x();
  train.count = 5;
  train.tier = datacenter::Tier::kAiTraining;
  train.load = datacenter::flat_profile(0.5);
  cluster.add_group(train);
  return cluster;
}

FleetSimulator::Config fleet_config(bool with_faults) {
  FleetSimulator::Config c;
  c.cluster = resume_cluster();
  c.pue = 1.09;
  c.grid.profile = grids::us_west_solar();
  c.grid.solar_share = 0.45;
  c.grid.firm_share = 0.15;
  c.grid.seed = 42;
  c.horizon = days(5.0);
  c.step = minutes(15.0);
  c.steps_per_chunk = 32;
  if (with_faults) {
    c.faults.rates.host_crash_per_day = 2.0;
    c.faults.rates.sdc_per_day = 1.0;
    c.faults.rates.grid_gap_per_day = 0.5;
    c.faults.seed = 21;
  }
  return c;
}

// Exact textual image of every Result field (shortest_double round-trips
// doubles losslessly): equal fingerprints mean byte-identical results.
std::string fingerprint(const FleetSimulator::Result& r) {
  std::ostringstream os;
  const auto d = [&os](double v) { os << report::shortest_double(v) << '|'; };
  d(to_joules(r.it_energy));
  d(to_joules(r.facility_energy));
  d(to_grams_co2e(r.location_carbon));
  d(to_grams_co2e(r.market_carbon));
  d(r.opportunistic_server_hours);
  d(to_joules(r.opportunistic_energy));
  for (std::size_t t = 0; t < datacenter::kNumTiers; ++t) {
    d(to_joules(r.it_energy_for(static_cast<datacenter::Tier>(t))));
  }
  for (const auto& g : r.groups) {
    os << g.name << '|';
    d(to_joules(g.it_energy));
    d(g.mean_utilization);
    d(g.freed_server_hours);
  }
  os << r.faults.host_crashes << '|' << r.faults.sdc_events << '|'
     << r.faults.grid_gaps << '|' << r.faults.checkpoints << '|';
  d(r.faults.lost_server_hours);
  d(r.faults.redone_work_hours);
  d(to_joules(r.faults.wasted_energy));
  d(to_joules(r.faults.checkpoint_energy));
  d(r.faults.measured_sdc_per_server_year);
  return os.str();
}

TEST(FleetResume, KillResumeByteIdenticalAcrossThreadCounts) {
  // Kill a faulted run mid-flight, round-trip the checkpoint through
  // canonical JSON text, resume in a FRESH simulator at a different thread
  // count and an unaligned stride: same bytes as an uninterrupted run.
  const FleetSimulator::Config config = fleet_config(/*with_faults=*/true);
  exec::ThreadPool pool1(1);
  exec::ThreadPool pool2(2);
  exec::ThreadPool pool8(8);
  exec::ThreadPool* pools[] = {&pool1, &pool2, &pool8};

  FleetSimulator::Config whole_cfg = config;
  whole_cfg.pool = pools[0];
  const std::string fp_whole =
      fingerprint(FleetSimulator(whole_cfg).run());

  for (std::size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE(i);
    FleetSimulator::Config first_cfg = config;
    first_cfg.pool = pools[i];
    const FleetSimulator first(first_cfg);
    auto cp = first.start();
    first.advance(cp, 150);  // not a chunk multiple; rounds up internally
    ASSERT_LT(cp.next_step, first.steps());
    EXPECT_EQ(cp.next_step % first.steps_per_chunk(), 0);
    const std::string snapshot =
        report::canonical_json(first.checkpoint_json(cp));

    // "New process": a separately constructed simulator, different pool.
    FleetSimulator::Config resumed_cfg = config;
    resumed_cfg.pool = pools[(i + 1) % 3];
    const FleetSimulator resumed(resumed_cfg);
    auto cp2 = resumed.parse_checkpoint(report::parse_json(snapshot));
    EXPECT_EQ(cp2.next_step, cp.next_step);
    while (!resumed.done(cp2)) {
      resumed.advance(cp2, 160);
    }
    EXPECT_EQ(fingerprint(resumed.finalize(cp2)), fp_whole);
  }
}

TEST(FleetResume, WastedEnergySurvivesResume) {
  // The fault ledger (wasted energy, redone work, crash counts) lives in
  // the checkpoint buffer: a killed-and-resumed run loses none of it.
  const FleetSimulator::Config config = fleet_config(/*with_faults=*/true);
  const FleetSimulator sim(config);
  const FleetSimulator::Result whole = sim.run();
  ASSERT_GT(to_joules(whole.faults.wasted_energy), 0.0);
  ASSERT_GT(whole.faults.host_crashes, 0);

  auto cp = sim.start();
  sim.advance(cp, sim.steps() / 2);
  const std::string snapshot = report::canonical_json(sim.checkpoint_json(cp));
  const FleetSimulator resumed(config);
  auto cp2 = resumed.parse_checkpoint(report::parse_json(snapshot));
  while (!resumed.done(cp2)) {
    resumed.advance(cp2, 64);
  }
  const FleetSimulator::Result result = resumed.finalize(cp2);
  EXPECT_EQ(to_joules(result.faults.wasted_energy),
            to_joules(whole.faults.wasted_energy));
  EXPECT_EQ(result.faults.redone_work_hours, whole.faults.redone_work_hours);
  EXPECT_EQ(result.faults.host_crashes, whole.faults.host_crashes);
  EXPECT_EQ(to_joules(result.faults.checkpoint_energy),
            to_joules(whole.faults.checkpoint_energy));
}

TEST(FleetResume, CheckpointRejectsForeignConfig) {
  const FleetSimulator sim_a(fleet_config(/*with_faults=*/true));
  FleetSimulator::Config other = fleet_config(/*with_faults=*/true);
  other.pue = 1.25;  // any result-affecting change flips the digest
  const FleetSimulator sim_b(other);
  auto cp = sim_a.start();
  sim_a.advance(cp, 32);
  const auto snapshot = sim_a.checkpoint_json(cp);
  EXPECT_NE(sim_a.config_digest(), sim_b.config_digest());
  EXPECT_THROW((void)sim_b.parse_checkpoint(snapshot),
               engine::SnapshotDigestMismatch);
  EXPECT_NO_THROW((void)sim_a.parse_checkpoint(snapshot));
}

// --- queue ----------------------------------------------------------------

std::vector<datacenter::BatchJob> queue_jobs(int n) {
  std::vector<datacenter::BatchJob> jobs;
  for (int i = 0; i < n; ++i) {
    datacenter::BatchJob j;
    j.id = "j" + std::to_string(i);
    j.power = kilowatts(3.0);
    j.duration = hours(2.0);
    j.arrival = hours(1.0 + (i % 8) * 0.5);
    j.slack = hours(18.0);
    jobs.push_back(j);
  }
  return jobs;
}

QueueSimConfig queue_config(bool with_faults) {
  QueueSimConfig cfg;
  cfg.machines = 3;
  cfg.grid.profile = grids::us_west_solar();
  cfg.grid.solar_share = 0.6;
  cfg.grid.firm_share = 0.1;
  cfg.grid.seed = 7;
  cfg.green_threshold = grams_per_kwh(250.0);
  if (with_faults) {
    cfg.faults.rates.preemption_per_day = 12.0;
    cfg.faults.seed = 9;
    cfg.faults.retry.max_retries = 50;
    cfg.faults.retry.base_backoff = minutes(5.0);
  }
  return cfg;
}

std::string fingerprint(const QueueSimResult& r) {
  std::ostringstream os;
  const auto d = [&os](double v) { os << report::shortest_double(v) << '|'; };
  os << r.policy_name << '|' << r.peak_running << '|' << r.preemptions << '|';
  d(to_grams_co2e(r.total_carbon));
  d(to_seconds(r.mean_wait));
  d(to_seconds(r.makespan));
  d(r.utilization);
  for (const datacenter::CompletedJob& j : r.jobs) {
    os << j.job.id << '|';
    d(to_seconds(j.start));
    d(to_seconds(j.finish));
    d(to_grams_co2e(j.carbon));
  }
  os << r.faults.faults_injected << '|' << r.faults.recoveries << '|'
     << r.faults.checkpoints << '|';
  d(r.faults.redone_work_hours);
  d(r.faults.lost_capacity_hours);
  d(to_joules(r.faults.wasted_energy));
  d(to_joules(r.faults.checkpoint_energy));
  return os.str();
}

TEST(QueueResume, KillResumeByteIdenticalBothPolicies) {
  for (const QueuePolicy policy :
       {QueuePolicy::kFifo, QueuePolicy::kGreedyGreen}) {
    SCOPED_TRACE(datacenter::to_string(policy));
    const QueueSim whole(queue_jobs(10), queue_config(/*with_faults=*/true),
                         policy);
    const std::string fp_whole = fingerprint(whole.run());

    const QueueSim first(queue_jobs(10), queue_config(/*with_faults=*/true),
                         policy);
    auto cp = first.start();
    first.advance(cp, 29);  // mid-run, nowhere near a "nice" boundary
    ASSERT_FALSE(first.done(cp));
    const std::string snapshot =
        report::canonical_json(first.checkpoint_json(cp));

    // "New process": a separately constructed simulator from the same jobs.
    const QueueSim resumed(queue_jobs(10), queue_config(/*with_faults=*/true),
                           policy);
    auto cp2 = resumed.parse_checkpoint(report::parse_json(snapshot));
    EXPECT_EQ(cp2.next_step, cp.next_step);
    EXPECT_EQ(cp2.now_s, cp.now_s);
    while (!resumed.done(cp2)) {
      resumed.advance(cp2, 41);
    }
    EXPECT_EQ(fingerprint(resumed.finalize(cp2)), fp_whole);
  }
}

// QueueSim::seal streams its journal records through CanonicalWriter. The
// frame must hold the bytes canonical_json gives the outcome_json records
// of checkpoint_json (the self-contained form), for no, one and many
// records, -0.0, large job indices and a real run's outcomes.
TEST(QueueResume, SealedFrameIsCanonicalJsonOfTheOutcomeRecords) {
  const QueueSim sim(queue_jobs(10), queue_config(/*with_faults=*/false),
                     QueuePolicy::kGreedyGreen);
  const auto expect_frame = [&sim](const QueueSim::Checkpoint& cp) {
    const engine::SealedFrame sealed = sim.seal(cp);
    const report::JsonValue all = *sim.checkpoint_json(cp).find("outcomes");
    report::JsonValue fresh = report::JsonValue::array();
    for (std::size_t i = cp.journal.records; i < all.items().size(); ++i) {
      fresh.append(all.items()[i]);
    }
    const std::uint64_t records = fresh.items().size();
    if (records == 0) {
      EXPECT_EQ(sealed.frame, "");
      EXPECT_EQ(sealed.covers, cp.journal);
      return;
    }
    const std::string payload = report::canonical_json(fresh);
    EXPECT_EQ(sealed.frame,
              std::to_string(payload.size()) + "\n" + payload + "\n");
    EXPECT_EQ(sealed.covers, cp.journal.then(sealed.frame, records));
  };

  QueueSim::Checkpoint cp = sim.start();
  expect_frame(cp);
  // seal() and checkpoint_json() read only `outcomes` and `sealed`, so a
  // hand-made checkpoint can name a job index no 10-job queue has.
  cp.outcomes.resize(1'000'001);
  const auto finish = [&cp](std::size_t job, double start, double end,
                            double carbon) {
    cp.outcomes[job] = {true, start, end, carbon};
    cp.sealed.push_back(job);
  };
  finish(3, 3600.0, 7200.0, 1.0 / 3.0);
  expect_frame(cp);
  finish(1'000'000, -0.0, 0.1, -0.0);
  finish(0, 1e300, 5e-324, 22272.72540175003);
  finish(999'999, 4503599627370495.5, 9007199254740993.0, -1e-7);
  expect_frame(cp);
  // After a frame, only the records sealed since are framed.
  cp.journal = sim.seal(cp).covers;
  expect_frame(cp);
  finish(7, 0.0, 86400.0, 12.5);
  expect_frame(cp);

  QueueSim::Checkpoint run = sim.start();
  while (!sim.done(run)) {
    sim.advance(run, 7);
  }
  ASSERT_EQ(run.sealed.size(), 10u);
  expect_frame(run);
}

TEST(QueueResume, WastedEnergySurvivesResume) {
  const QueueSim sim(queue_jobs(10), queue_config(/*with_faults=*/true),
                     QueuePolicy::kFifo);
  const QueueSimResult whole = sim.run();
  ASSERT_GT(whole.preemptions, 0);
  ASSERT_GT(to_joules(whole.faults.wasted_energy), 0.0);

  auto cp = sim.start();
  sim.advance(cp, 50);
  const std::string snapshot = report::canonical_json(sim.checkpoint_json(cp));
  auto cp2 = sim.parse_checkpoint(report::parse_json(snapshot));
  while (!sim.done(cp2)) {
    sim.advance(cp2, 50);
  }
  const QueueSimResult result = sim.finalize(cp2);
  EXPECT_EQ(result.preemptions, whole.preemptions);
  EXPECT_EQ(to_joules(result.faults.wasted_energy),
            to_joules(whole.faults.wasted_energy));
  EXPECT_EQ(result.faults.redone_work_hours, whole.faults.redone_work_hours);
}

TEST(QueueResume, CheckpointRejectsForeignConfig) {
  const QueueSim sim_a(queue_jobs(8), queue_config(/*with_faults=*/false),
                       QueuePolicy::kFifo);
  QueueSimConfig other = queue_config(/*with_faults=*/false);
  other.machines = 4;  // any result-affecting change flips the digest
  const QueueSim sim_b(queue_jobs(8), other, QueuePolicy::kFifo);
  auto cp = sim_a.start();
  sim_a.advance(cp, 20);
  const auto snapshot = sim_a.checkpoint_json(cp);
  EXPECT_NE(sim_a.config_digest(), sim_b.config_digest());
  EXPECT_THROW((void)sim_b.parse_checkpoint(snapshot),
               engine::SnapshotDigestMismatch);
  EXPECT_NO_THROW((void)sim_a.parse_checkpoint(snapshot));

  // Policy is result-affecting too: a FIFO snapshot cannot resume green.
  const QueueSim green(queue_jobs(8), queue_config(/*with_faults=*/false),
                       QueuePolicy::kGreedyGreen);
  EXPECT_THROW((void)green.parse_checkpoint(snapshot),
               engine::SnapshotDigestMismatch);
}

TEST(QueueResume, MatchesRunQueueSimWrapper) {
  // The legacy entry point is exactly start + advance(all) + finalize.
  const auto direct = datacenter::run_queue_sim(
      queue_jobs(10), queue_config(/*with_faults=*/true), QueuePolicy::kFifo);
  const QueueSim sim(queue_jobs(10), queue_config(/*with_faults=*/true),
                     QueuePolicy::kFifo);
  EXPECT_EQ(fingerprint(direct), fingerprint(sim.run()));
}

// --- snapshot rejections --------------------------------------------------

// The message a snapshot parse throws, or "accepted".
template <typename Parse>
std::string rejection(Parse&& parse) {
  try {
    parse();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "accepted";
}

// `object` without its `key` member.
report::JsonValue without(const report::JsonValue& object, const char* key) {
  report::JsonValue out = report::JsonValue::object();
  for (const report::JsonValue::Member& m : object.members()) {
    if (m.first != key) {
      out.set(m.first, m.second);
    }
  }
  return out;
}

// A mid-run snapshot of the faulted FIFO queue in the v1 layout, as a DOM
// to mutate: outcomes inline and five job-sized fault lanes. v1 snapshots
// still resume, so their rejection texts stay pinned; QueueJournal.* pins
// the v2 ones.
report::JsonValue queue_snapshot(const QueueSim& sim) {
  auto cp = sim.start();
  sim.advance(cp, 29);
  report::JsonValue root = sim.checkpoint_json(cp);
  root.set("schema", report::JsonValue::string("sustainai-queue-checkpoint-v1"));
  report::JsonValue faults = without(*root.find("faults"), "jobs");
  const auto lane = [&faults](const char* key, const auto& values) {
    report::JsonValue a = report::JsonValue::array();
    for (const auto v : values) {
      a.append(report::JsonValue::number(static_cast<double>(v)));
    }
    faults.set(key, std::move(a));
  };
  lane("preserved_s", cp.faults.preserved_s);
  lane("prior_carbon_g", cp.faults.prior_carbon_g);
  lane("earliest_restart_s", cp.faults.earliest_restart_s);
  lane("first_start_s", cp.faults.first_start_s);
  lane("preempt_count", cp.faults.preempt_count);
  root.set("faults", std::move(faults));
  return report::parse_json(report::canonical_json(root));
}

// Messages are built only on the throwing path; these texts must not drift.
TEST(QueueResume, RejectionTextsArePinned) {
  const QueueSim sim(queue_jobs(10), queue_config(/*with_faults=*/true),
                     QueuePolicy::kFifo);
  const report::JsonValue good = queue_snapshot(sim);
  ASSERT_EQ(rejection([&] { (void)sim.parse_checkpoint(good); }), "accepted");
  const auto parse = [&](const report::JsonValue& snapshot) {
    return rejection([&] { (void)sim.parse_checkpoint(snapshot); });
  };

  EXPECT_EQ(parse(without(good, "now_s")),
            "queue checkpoint: missing \"now_s\" member");

  report::JsonValue not_number = good;
  not_number.set("now_s", report::JsonValue::string("12"));
  EXPECT_EQ(parse(not_number),
            "queue checkpoint: \"now_s\" must be a number");

  report::JsonValue not_integer = good;
  not_integer.set("next_step", report::JsonValue::number(28.5));
  EXPECT_EQ(parse(not_integer),
            "queue checkpoint: \"next_step\" must be an integer");

  report::JsonValue bad_index = good;
  report::JsonValue outcome = report::JsonValue::object();
  outcome.set("job", report::JsonValue::number(10.0));  // 10 jobs: 0..9
  report::JsonValue outcomes = report::JsonValue::array();
  outcomes.append(std::move(outcome));
  bad_index.set("outcomes", std::move(outcomes));
  EXPECT_EQ(parse(bad_index),
            "queue checkpoint: outcome job index out of range");

  report::JsonValue bad_lane = good;
  report::JsonValue lane = report::JsonValue::array();
  for (int i = 0; i < 10; ++i) {
    lane.append(i == 4 ? report::JsonValue::null()
                       : report::JsonValue::number(0.0));
  }
  bad_lane.find("faults")->set("preserved_s", std::move(lane));
  EXPECT_EQ(parse(bad_lane),
            "queue checkpoint: faults.preserved_s entries must be numbers");
}

TEST(FleetResume, ShardEntryRejectionTextIsPinned) {
  const FleetSimulator sim(fleet_config(/*with_faults=*/false));
  auto cp = sim.start();
  sim.advance(cp, 32);
  report::JsonValue snapshot = sim.checkpoint_json(cp);
  report::JsonValue buffer = report::JsonValue::array();
  for (const report::JsonValue& v :
       snapshot.find("shards")->items().front().items()) {
    buffer.append(buffer.items().size() == 3 ? report::JsonValue::string("x")
                                             : v);
  }
  report::JsonValue shards = report::JsonValue::array();
  shards.append(std::move(buffer));
  snapshot.set("shards", std::move(shards));
  EXPECT_EQ(rejection([&] { (void)sim.parse_checkpoint(snapshot); }),
            "fleet checkpoint: shard buffer entries must be numbers");
}

// A double outside the target integer's range is rejected by name before
// any cast (casting it would be undefined behaviour).
TEST(EngineSnapshot, RejectsOutOfRangeIntegers) {
  const double two63 = 9223372036854775808.0;
  for (const double v : {1e300, -1e300, two63}) {
    SCOPED_TRACE(report::shortest_double(v));
    report::JsonValue obj = report::JsonValue::object();
    obj.set("n", report::JsonValue::number(v));
    EXPECT_EQ(rejection([&] {
                (void)engine::require_integer(obj, "n", "test checkpoint");
              }),
              "test checkpoint: \"n\" is out of range");

    // ShardedRun::parse_state's next_step.
    const FleetSimulator fleet(fleet_config(/*with_faults=*/false));
    report::JsonValue fleet_snapshot = fleet.checkpoint_json(fleet.start());
    fleet_snapshot.set("next_step", report::JsonValue::number(v));
    EXPECT_EQ(rejection([&] { (void)fleet.parse_checkpoint(fleet_snapshot); }),
              "fleet checkpoint: next_step out of range");

    const QueueSim queue(queue_jobs(10), queue_config(/*with_faults=*/true),
                         QueuePolicy::kFifo);
    const report::JsonValue good = queue_snapshot(queue);
    const auto parse = [&](const report::JsonValue& snapshot) {
      return rejection([&] { (void)queue.parse_checkpoint(snapshot); });
    };
    report::JsonValue next_step = good;
    next_step.set("next_step", report::JsonValue::number(v));
    EXPECT_EQ(parse(next_step),
              "queue checkpoint: \"next_step\" is out of range");
    report::JsonValue peak = good;
    peak.set("peak_running", report::JsonValue::number(v));
    EXPECT_EQ(parse(peak),
              "queue checkpoint: \"peak_running\" is out of range");
    report::JsonValue counts = good;
    report::JsonValue lane = report::JsonValue::array();
    for (int i = 0; i < 10; ++i) {
      lane.append(report::JsonValue::number(i == 7 ? v : 0.0));
    }
    counts.find("faults")->set("preempt_count", std::move(lane));
    EXPECT_EQ(parse(counts),
              "queue checkpoint: faults.preempt_count entries must be whole "
              "numbers in int range");
  }

  // In long's range but not int's: the narrowing is checked too.
  const QueueSim queue(queue_jobs(10), queue_config(/*with_faults=*/true),
                       QueuePolicy::kFifo);
  report::JsonValue peak = queue_snapshot(queue);
  peak.set("peak_running", report::JsonValue::number(2147483648.0));
  EXPECT_EQ(rejection([&] { (void)queue.parse_checkpoint(peak); }),
            "queue checkpoint: peak_running out of range");
  // A fractional count is not a count.
  report::JsonValue counts = queue_snapshot(queue);
  report::JsonValue lane = report::JsonValue::array();
  for (int i = 0; i < 10; ++i) {
    lane.append(report::JsonValue::number(i == 2 ? 1.5 : 0.0));
  }
  counts.find("faults")->set("preempt_count", std::move(lane));
  EXPECT_EQ(rejection([&] { (void)queue.parse_checkpoint(counts); }),
            "queue checkpoint: faults.preempt_count entries must be whole "
            "numbers in int range");
}

// --- scenario layer -------------------------------------------------------

TEST(ScenarioResume, SegmentedStopResumeBundleByteIdentical) {
  // Drive a fleet scenario through the Runner three ways — whole, spec-level
  // segmentation, and a stop_after kill resumed from the written snapshot —
  // and require the same result.json bytes.
  const std::string spec =
      R"({"scenario": "fleet", "params": {"days": 2, "chunk_steps": 16}})";
  const scenario::Runner runner;
  const scenario::Bundle whole = runner.run_text(spec);
  ASSERT_FALSE(whole.failed);
  const scenario::Artifact* whole_result = whole.find("result.json");
  ASSERT_NE(whole_result, nullptr);

  scenario::CheckpointRequest segmented;
  segmented.segments = 5;
  const scenario::Bundle seg = runner.run_text(spec, nullptr, segmented);
  const scenario::Artifact* seg_result = seg.find("result.json");
  ASSERT_NE(seg_result, nullptr);
  EXPECT_EQ(seg_result->content, whole_result->content);

  std::string snapshot;
  scenario::CheckpointRequest stop;
  stop.segment_steps = 48;
  stop.stop_after = 2;
  stop.write_snapshot = [&snapshot](const std::string& s) { snapshot = s; };
  const scenario::Bundle stopped = runner.run_text(spec, nullptr, stop);
  EXPECT_TRUE(stopped.stopped);
  EXPECT_EQ(stopped.find("result.json"), nullptr);
  ASSERT_FALSE(snapshot.empty());

  scenario::CheckpointRequest resume;
  resume.segment_steps = 48;
  resume.resume_text = snapshot;
  const scenario::Bundle resumed = runner.run_text(spec, nullptr, resume);
  ASSERT_FALSE(resumed.stopped);
  const scenario::Artifact* resumed_result = resumed.find("result.json");
  ASSERT_NE(resumed_result, nullptr);
  EXPECT_EQ(resumed_result->content, whole_result->content);
}

TEST(ScenarioResume, RunnerRejectsUncheckpointableScenario) {
  scenario::CheckpointRequest request;
  request.segments = 4;
  try {
    (void)scenario::Runner().run_text(
        R"({"scenario": "lifecycle_estimate"})", nullptr, request);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("does not support checkpoint/resume"),
              std::string::npos)
        << what;
    // The error lists every scenario that does.
    EXPECT_NE(what.find("fleet"), std::string::npos) << what;
    EXPECT_NE(what.find("planet"), std::string::npos) << what;
    EXPECT_NE(what.find("queue_schedule"), std::string::npos) << what;
  }
}

TEST(ScenarioResume, QueueScheduleSegmentedMatchesWhole) {
  const std::string spec = R"({
    "scenario": "queue_schedule",
    "params": {"jobs": 12, "machines": 3, "policies": ["fifo"],
               "faults": {"preemption_per_day": 8.0, "seed": 9,
                          "max_retries": 50}}
  })";
  const scenario::Runner runner;
  const scenario::Bundle whole = runner.run_text(spec);
  ASSERT_FALSE(whole.failed);
  const scenario::Artifact* whole_result = whole.find("result.json");
  ASSERT_NE(whole_result, nullptr);

  scenario::CheckpointRequest segmented;
  segmented.segments = 7;
  const scenario::Bundle seg = runner.run_text(spec, nullptr, segmented);
  const scenario::Artifact* seg_result = seg.find("result.json");
  ASSERT_NE(seg_result, nullptr);
  EXPECT_EQ(seg_result->content, whole_result->content);
}

// --- checkpoint digests ---------------------------------------------------

// Every snapshot embeds its simulator's config digest and is rejected on a
// mismatch, so a digest that drifts strands every checkpoint written before
// the drift. These hex strings pin the v1 digests of one fixed config per
// simulator; a change here must come with a snapshot schema bump.
TEST(CheckpointDigest, PinnedForFleetPlanetAndQueue) {
  EXPECT_EQ(FleetSimulator(fleet_config(/*with_faults=*/true)).config_digest(),
            "717ba0f9b9baae7d");

  datacenter::PlanetSimulator::Config planet;
  planet.step = minutes(15.0);
  planet.horizon = days(3.0);
  planet.steps_per_chunk = 16;
  for (int r = 0; r < 2; ++r) {
    datacenter::PlanetSimulator::RegionConfig rc;
    rc.name = "region-" + std::to_string(r);
    rc.cluster = resume_cluster();
    rc.grid = fleet_config(false).grid;
    rc.pue = 1.08 + 0.01 * r;
    rc.utc_offset_hours = 3.0 * r;
    rc.faults = fleet_config(r == 0).faults;
    planet.regions.push_back(rc);
  }
  EXPECT_EQ(datacenter::PlanetSimulator(std::move(planet)).config_digest(),
            "a7a8eaa15104694f");

  EXPECT_EQ(QueueSim(queue_jobs(12), queue_config(/*with_faults=*/true),
                     QueuePolicy::kGreedyGreen)
                .config_digest(),
            "42378af887aeebc3");
}

}  // namespace
}  // namespace sustainai
