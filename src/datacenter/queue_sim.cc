#include "datacenter/queue_sim.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>

#include "core/check.h"
#include "core/intensity_cache.h"
#include "datacenter/fleet_sim.h"
#include "engine/snapshot.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sustainai::datacenter {

namespace {

// v1 snapshots carry every outcome inline and five job-sized fault lanes;
// they still resume.
constexpr const char* kSchemaV1 = "sustainai-queue-checkpoint-v1";
constexpr const char* kSchemaV2 = "sustainai-queue-checkpoint-v2";
constexpr const char* kCheckpointContext = "queue checkpoint";

std::size_t require_index(const report::JsonValue& object, const char* key,
                          std::size_t bound, const char* what) {
  const long v = engine::require_integer(object, key, kCheckpointContext);
  if (v < 0 || static_cast<std::size_t>(v) > bound) {
    throw std::invalid_argument(std::string(kCheckpointContext) + ": " + what +
                                " out of range");
  }
  return static_cast<std::size_t>(v);
}

// Validation happens in the member-init list (before the grid / intensity
// table are built from the config), preserving the legacy error precedence.
std::vector<BatchJob> checked_jobs(std::vector<BatchJob> jobs) {
  for (const BatchJob& j : jobs) {
    check_arg(to_seconds(j.duration) > 0.0,
              "run_queue_sim: job durations must be positive");
    check_arg(to_seconds(j.slack) >= 0.0,
              "run_queue_sim: job slack must be >= 0");
  }
  std::sort(jobs.begin(), jobs.end(),
            [](const BatchJob& a, const BatchJob& b) {
              return to_seconds(a.arrival) < to_seconds(b.arrival);
            });
  return jobs;
}

// One journal record: a finished job's outcome.
report::JsonValue outcome_json(std::size_t job,
                               const QueueSim::JobOutcome& out) {
  report::JsonValue j = report::JsonValue::object();
  j.set("job", report::JsonValue::number(static_cast<double>(job)));
  j.set("start_s", report::JsonValue::number(out.start_s));
  j.set("finish_s", report::JsonValue::number(out.finish_s));
  j.set("carbon_g", report::JsonValue::number(out.carbon_g));
  return j;
}

// Bitwise equality, so a -0.0 is never mistaken for a default 0.0.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

QueueSimConfig checked_config(QueueSimConfig config) {
  check_arg(config.machines >= 1, "run_queue_sim: need >= 1 machine");
  check_arg(to_seconds(config.step) > 0.0, "run_queue_sim: step must be > 0");
  return config;
}

}  // namespace

const char* to_string(QueuePolicy policy) {
  switch (policy) {
    case QueuePolicy::kFifo:
      return "queue-fifo";
    case QueuePolicy::kGreedyGreen:
      return "queue-green";
  }
  return "unknown";
}

QueueSim::QueueSim(std::vector<BatchJob> jobs, QueueSimConfig config,
                   QueuePolicy policy)
    : jobs_(checked_jobs(std::move(jobs))),
      config_(checked_config(std::move(config))),
      policy_(policy),
      table_(IntermittentGrid(config_.grid), seconds(0.0), config_.step) {
  step_s_ = to_seconds(config_.step);
  faults_enabled_ = config_.faults.enabled();
  // The plan spans max_horizon so the schedule never depends on the
  // (fault-dependent) makespan.
  if (faults_enabled_) {
    plan_ = config_.faults.plan(config_.max_horizon);
    preempt_events_ = plan_.events_of(fault::FaultKind::kJobPreemption);
  }
  config_digest_ = compute_config_digest();
}

QueueSim::Checkpoint QueueSim::start() const {
  Checkpoint cp;
  cp.outcomes.assign(jobs_.size(), JobOutcome{});
  if (faults_enabled_) {
    cp.faults.preserved_s.assign(jobs_.size(), 0.0);
    cp.faults.prior_carbon_g.assign(jobs_.size(), 0.0);
    cp.faults.earliest_restart_s.assign(jobs_.size(), 0.0);
    cp.faults.first_start_s.assign(jobs_.size(), -1.0);
    cp.faults.preempt_count.assign(jobs_.size(), 0);
  }
  return cp;
}

void QueueSim::step_once(Checkpoint& cp, obs::Gauge& depth_gauge) const {
  check_arg(cp.now_s <= to_seconds(config_.max_horizon),
            "run_queue_sim: exceeded max horizon (overloaded config?)");
  // Admit arrivals up to now.
  while (cp.next_arrival < jobs_.size() &&
         to_seconds(jobs_[cp.next_arrival].arrival) <= cp.now_s + 1e-9) {
    cp.queue.push_back(cp.next_arrival);
    ++cp.next_arrival;
  }
  // Fire due preemption events: the victim loses progress back to its
  // last checkpoint, re-enters the queue, and re-consults the policy
  // after an exponential backoff.
  while (cp.next_preempt < preempt_events_.size() &&
         to_seconds(preempt_events_[cp.next_preempt].time) <= cp.now_s + 1e-9) {
    const fault::FaultEvent e = preempt_events_[cp.next_preempt];
    ++cp.next_preempt;
    if (cp.running.empty()) {
      continue;  // nothing to evict at this instant
    }
    const std::size_t vi = static_cast<std::size_t>(
        e.target % static_cast<std::uint64_t>(cp.running.size()));
    const RunningJob r = cp.running[vi];
    const std::size_t ji = r.job_index;
    ++cp.faults.acc.faults_injected;
    ++cp.faults.preempt_count[ji];
    const double done_this_attempt = r.attempt_total_s - r.remaining_s;
    const double lost_s = to_seconds(
        config_.faults.checkpoint.lost_work(seconds(done_this_attempt)));
    cp.faults.acc.redone_work_hours += lost_s / kSecondsPerHour;
    cp.faults.acc.wasted_energy +=
        joules(to_watts(jobs_[ji].power) * lost_s * config_.pue);
    if (cp.faults.preempt_count[ji] > config_.faults.retry.max_retries) {
      throw fault::RetriesExhaustedError(
          "job '" + jobs_[ji].id + "' preempted " +
              std::to_string(cp.faults.preempt_count[ji]) +
              " times, exceeding max_retries=" +
              std::to_string(config_.faults.retry.max_retries),
          cp.faults.acc);
    }
    ++cp.faults.acc.recoveries;
    cp.faults.preserved_s[ji] += done_this_attempt - lost_s;
    cp.faults.prior_carbon_g[ji] += r.carbon_g;
    cp.faults.earliest_restart_s[ji] =
        cp.now_s + to_seconds(config_.faults.retry.backoff_after(
                       cp.faults.preempt_count[ji] - 1));
    {
      obs::Span span("queue.preempt", r.started_s, cp.now_s);
      span.set_track(obs::kUserTrackBase + ji);
      span.label("id", jobs_[ji].id);
    }
    cp.queue.push_back(ji);
    cp.running[vi] = cp.running.back();
    cp.running.pop_back();
  }
  // One grid lookup per step, shared by the admission decision and the
  // energy accounting below — they must never drift apart.
  const double intensity_now = table_.intensity_at(seconds(cp.now_s)).base();
  // Start jobs while machines are free.
  std::vector<std::size_t> still_waiting;
  for (std::size_t qi = 0; qi < cp.queue.size(); ++qi) {
    const std::size_t ji = cp.queue[qi];
    if (static_cast<int>(cp.running.size()) >= config_.machines) {
      still_waiting.insert(still_waiting.end(), cp.queue.begin() + qi,
                           cp.queue.end());
      break;
    }
    const BatchJob& job = jobs_[ji];
    if (faults_enabled_ && cp.now_s + 1e-9 < cp.faults.earliest_restart_s[ji]) {
      still_waiting.push_back(ji);  // still backing off after preemption
      continue;
    }
    const double waited_s = cp.now_s - to_seconds(job.arrival);
    bool start = true;
    if (policy_ == QueuePolicy::kGreedyGreen &&
        waited_s + 1e-9 < to_seconds(job.slack) &&
        intensity_now > config_.green_threshold.base()) {
      start = false;  // defer: grid is dirty and we still have slack
    }
    if (start) {
      double attempt_total = to_seconds(job.duration);
      if (faults_enabled_) {
        attempt_total -= cp.faults.preserved_s[ji];
        if (cp.faults.first_start_s[ji] < 0.0) {
          cp.faults.first_start_s[ji] = cp.now_s;
        }
      }
      cp.running.push_back(
          RunningJob{ji, attempt_total, cp.now_s, 0.0, attempt_total});
    } else {
      still_waiting.push_back(ji);
    }
  }
  cp.queue.swap(still_waiting);
  cp.peak_running =
      std::max(cp.peak_running, static_cast<int>(cp.running.size()));
  depth_gauge.set(static_cast<double>(cp.running.size() + cp.queue.size()));

  // Advance one step.
  for (RunningJob& r : cp.running) {
    const double dt = std::min(step_s_, r.remaining_s);
    const double energy_j =
        to_watts(jobs_[r.job_index].power) * dt * config_.pue;
    r.carbon_g += energy_j * intensity_now;
    r.remaining_s -= dt;
    cp.busy_machine_s += dt;
  }
  cp.now_s += step_s_;
  ++cp.next_step;
  // Retire finished jobs.
  for (std::size_t i = 0; i < cp.running.size();) {
    if (cp.running[i].remaining_s <= 1e-9) {
      const RunningJob& r = cp.running[i];
      const std::size_t ji = r.job_index;
      JobOutcome& out = cp.outcomes[ji];
      out.completed = true;
      out.start_s = faults_enabled_ && cp.faults.first_start_s[ji] >= 0.0
                        ? cp.faults.first_start_s[ji]
                        : r.started_s;
      out.finish_s = r.started_s + r.attempt_total_s;
      out.carbon_g = faults_enabled_
                         ? cp.faults.prior_carbon_g[ji] + r.carbon_g
                         : r.carbon_g;
      if (faults_enabled_) {
        // Checkpoint overhead is charged per unit of useful work done;
        // it is accounting-only so the step timeline stays untouched.
        const long cps =
            config_.faults.checkpoint.checkpoints_over(jobs_[ji].duration);
        cp.faults.acc.checkpoints += cps;
        cp.faults.acc.checkpoint_energy +=
            joules(to_watts(jobs_[ji].power) *
                   to_seconds(config_.faults.checkpoint.cost) *
                   static_cast<double>(cps) * config_.pue);
      }
      // One deterministic lane per job (kUserTrackBase + index), so the
      // exported span order is a pure function of the job set.
      const double arrival_s = to_seconds(jobs_[ji].arrival);
      if (out.start_s > arrival_s) {
        obs::Span wait_span("queue.wait", arrival_s, out.start_s);
        wait_span.set_track(obs::kUserTrackBase + ji);
        wait_span.label("id", jobs_[ji].id);
      }
      {
        obs::Span job_span("queue.job", r.started_s, out.finish_s);
        job_span.set_track(obs::kUserTrackBase + ji);
        job_span.label("id", jobs_[ji].id);
      }
      cp.sealed.push_back(ji);
      cp.running[i] = cp.running.back();
      cp.running.pop_back();
    } else {
      ++i;
    }
  }
}

void QueueSim::advance(Checkpoint& cp, long max_steps,
                       const std::function<void()>& boundary) const {
  if (boundary) {
    boundary();
  }
  check_arg(max_steps >= 1, "QueueSim::advance: max_steps must be >= 1");
  check_arg(cp.outcomes.size() == jobs_.size(),
            "QueueSim::advance: checkpoint job count mismatch");

  obs::Span sim_span("queue.sim");
  sim_span.label("policy", to_string(policy_));
  // Hoisted: the gauge reference is stable, so the per-step update below is
  // lock-light (no registry lookup inside the loop).
  obs::Gauge& depth_gauge = obs::MetricsRegistry::global().gauge(
      "queue_depth", obs::Labels{{"policy", to_string(policy_)}});

  const double begin_s = cp.now_s;
  long stepped = 0;
  while (!done(cp) && stepped < max_steps) {
    step_once(cp, depth_gauge);
    ++stepped;
  }
  sim_span.sim_interval(begin_s, cp.now_s);
}

QueueSimResult QueueSim::finalize(const Checkpoint& cp) const {
  check_arg(done(cp),
            "QueueSim::finalize: checkpoint has not finished every job");
  check_arg(cp.outcomes.size() == jobs_.size(),
            "QueueSim::finalize: checkpoint job count mismatch");

  // Rebuild the typed per-job records in job-index order, then fold the
  // totals left-to-right in the same order — identical to the legacy
  // single-pass simulator's expression tree.
  std::vector<CompletedJob> done(jobs_.size());
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const JobOutcome& out = cp.outcomes[i];
    CompletedJob c;
    c.job = jobs_[i];
    c.start = seconds(out.start_s);
    c.finish = seconds(out.finish_s);
    c.carbon = grams_co2e(out.carbon_g);
    done[i] = c;
  }

  QueueSimResult result;
  result.policy_name = to_string(policy_);
  result.total_carbon = grams_co2e(0.0);
  double wait_s = 0.0;
  double makespan_s = 0.0;
  for (const CompletedJob& c : done) {
    result.total_carbon += c.carbon;
    wait_s += to_seconds(c.wait());
    makespan_s = std::max(makespan_s, to_seconds(c.finish));
  }
  result.mean_wait =
      seconds(jobs_.empty() ? 0.0 : wait_s / static_cast<double>(jobs_.size()));
  result.makespan = seconds(makespan_s);
  result.utilization = makespan_s > 0.0
                           ? cp.busy_machine_s / (makespan_s * config_.machines)
                           : 0.0;
  result.peak_running = cp.peak_running;
  result.jobs = std::move(done);
  result.preemptions = cp.faults.acc.faults_injected;
  result.faults = cp.faults.acc;

  const obs::Labels policy_labels{{"policy", to_string(policy_)}};
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  metrics.counter("queue_sim_carbon_grams", policy_labels)
      .add(to_grams_co2e(result.total_carbon));
  metrics.counter("queue_sim_jobs", policy_labels)
      .add(static_cast<double>(result.jobs.size()));
  if (faults_enabled_) {
    metrics.counter("queue_preemptions_total", policy_labels)
        .add(static_cast<double>(cp.faults.acc.faults_injected));
    metrics.counter("queue_fault_redone_work_hours", policy_labels)
        .add(cp.faults.acc.redone_work_hours);
    metrics.counter("queue_fault_wasted_energy_joules", policy_labels)
        .add(to_joules(cp.faults.acc.wasted_energy));
  }
  return result;
}

QueueSimResult QueueSim::run() const {
  Checkpoint cp = start();
  if (!done(cp)) {
    advance(cp, std::numeric_limits<long>::max());
  }
  return finalize(cp);
}

report::JsonValue QueueSim::live_members(const Checkpoint& cp) const {
  report::JsonValue root = report::JsonValue::object();
  engine::write_envelope(root, kSchemaV2, config_digest());
  root.set("next_step", report::JsonValue::number(
                            static_cast<double>(cp.next_step)));
  root.set("now_s", report::JsonValue::number(cp.now_s));
  root.set("busy_machine_s", report::JsonValue::number(cp.busy_machine_s));
  root.set("peak_running", report::JsonValue::number(
                               static_cast<double>(cp.peak_running)));
  root.set("next_arrival", report::JsonValue::number(
                               static_cast<double>(cp.next_arrival)));
  root.set("next_preempt", report::JsonValue::number(
                               static_cast<double>(cp.next_preempt)));

  report::JsonValue running = report::JsonValue::array();
  for (const RunningJob& r : cp.running) {
    report::JsonValue j = report::JsonValue::object();
    j.set("job", report::JsonValue::number(static_cast<double>(r.job_index)));
    j.set("remaining_s", report::JsonValue::number(r.remaining_s));
    j.set("started_s", report::JsonValue::number(r.started_s));
    j.set("carbon_g", report::JsonValue::number(r.carbon_g));
    j.set("attempt_total_s", report::JsonValue::number(r.attempt_total_s));
    running.append(std::move(j));
  }
  root.set("running", std::move(running));

  report::JsonValue queue = report::JsonValue::array();
  for (const std::size_t ji : cp.queue) {
    queue.append(report::JsonValue::number(static_cast<double>(ji)));
  }
  root.set("queue", std::move(queue));

  if (faults_enabled_) {
    // Only unfinished jobs whose entries differ from start()'s, in
    // ascending job order: a finished job's entries are never read again.
    const FaultState& fs = cp.faults;
    report::JsonValue entries = report::JsonValue::array();
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      if (cp.outcomes[i].completed ||
          (same_bits(fs.preserved_s[i], 0.0) &&
           same_bits(fs.prior_carbon_g[i], 0.0) &&
           same_bits(fs.earliest_restart_s[i], 0.0) &&
           same_bits(fs.first_start_s[i], -1.0) && fs.preempt_count[i] == 0)) {
        continue;
      }
      report::JsonValue e = report::JsonValue::object();
      e.set("job", report::JsonValue::number(static_cast<double>(i)));
      e.set("preserved_s", report::JsonValue::number(fs.preserved_s[i]));
      e.set("prior_carbon_g", report::JsonValue::number(fs.prior_carbon_g[i]));
      e.set("earliest_restart_s",
            report::JsonValue::number(fs.earliest_restart_s[i]));
      e.set("first_start_s", report::JsonValue::number(fs.first_start_s[i]));
      e.set("preempt_count", report::JsonValue::number(
                                 static_cast<double>(fs.preempt_count[i])));
      entries.append(std::move(e));
    }
    report::JsonValue f = report::JsonValue::object();
    f.set("jobs", std::move(entries));
    const fault::Accounting& acc = fs.acc;
    f.set("faults_injected", report::JsonValue::number(
                                 static_cast<double>(acc.faults_injected)));
    f.set("recoveries",
          report::JsonValue::number(static_cast<double>(acc.recoveries)));
    f.set("checkpoints",
          report::JsonValue::number(static_cast<double>(acc.checkpoints)));
    f.set("redone_work_hours",
          report::JsonValue::number(acc.redone_work_hours));
    f.set("lost_capacity_hours",
          report::JsonValue::number(acc.lost_capacity_hours));
    f.set("wasted_energy_j",
          report::JsonValue::number(to_joules(acc.wasted_energy)));
    f.set("checkpoint_energy_j",
          report::JsonValue::number(to_joules(acc.checkpoint_energy)));
    root.set("faults", std::move(f));
  }
  return root;
}

report::JsonValue QueueSim::checkpoint_json(const Checkpoint& cp) const {
  report::JsonValue root = live_members(cp);
  report::JsonValue outcomes = report::JsonValue::array();
  for (const std::size_t ji : cp.sealed) {
    outcomes.append(outcome_json(ji, cp.outcomes[ji]));
  }
  root.set("outcomes", std::move(outcomes));
  return root;
}

engine::SealedFrame QueueSim::seal(const Checkpoint& cp) const {
  // outcome_json's records, streamed in key order without a DOM.
  report::CanonicalWriter w;
  w.begin_array();
  for (std::size_t i = cp.journal.records; i < cp.sealed.size(); ++i) {
    const JobOutcome& out = cp.outcomes[cp.sealed[i]];
    w.begin_object()
        .key("carbon_g").number(out.carbon_g)
        .key("finish_s").number(out.finish_s)
        .key("job").number(static_cast<double>(cp.sealed[i]))
        .key("start_s").number(out.start_s)
        .end_object();
  }
  w.end_array();
  return engine::seal_frame(std::move(w).finish(),
                            cp.sealed.size() - cp.journal.records, cp.journal);
}

report::JsonValue QueueSim::live_json(
    const Checkpoint& cp, const engine::JournalPrefix& covers) const {
  report::JsonValue root = live_members(cp);
  engine::finish_live(root, covers);
  return root;
}

QueueSim::Checkpoint QueueSim::parse_checkpoint(
    const report::JsonValue& value) const {
  return parse_checkpoint(value, {}, start());
}

QueueSim::Checkpoint QueueSim::parse_checkpoint(const report::JsonValue& value,
                                                std::string_view journal,
                                                Checkpoint base) const {
  Checkpoint cp = parse_live(value);
  const std::optional<engine::JournalPrefix> covered =
      engine::live_prefix(value, kCheckpointContext);
  if (!covered) {
    // Self-contained: every outcome inline (v1, or v2's checkpoint_json).
    read_outcomes(engine::require_member(value, "outcomes", kCheckpointContext),
                  cp);
    return cp;
  }
  const engine::JournalPrefix& to = *covered;
  check_arg(to.records <= jobs_.size(),
            "queue checkpoint: journal names more outcomes than there are jobs");
  check_arg(base.outcomes.size() == jobs_.size() &&
                base.sealed.size() >= base.journal.records,
            "queue checkpoint: base checkpoint does not match this queue");
  // Keep the outcomes base read from its journal prefix; the ones that
  // finished after it come back from `journal`.
  for (std::size_t i = base.journal.records; i < base.sealed.size(); ++i) {
    base.outcomes[base.sealed[i]] = JobOutcome{};
  }
  base.sealed.resize(base.journal.records);
  cp.outcomes = std::move(base.outcomes);
  cp.sealed = std::move(base.sealed);
  cp.sealed.reserve(to.records);
  engine::read_frames(
      journal, base.journal, to,
      [&](const report::JsonValue& records) { read_outcomes(records, cp); },
      kCheckpointContext);
  cp.journal = to;
  return cp;
}

void QueueSim::read_outcomes(const report::JsonValue& records,
                             Checkpoint& cp) const {
  check_arg(records.is_array(),
            "queue checkpoint: outcomes must be an array");
  for (const report::JsonValue& j : records.items()) {
    check_arg(j.is_object(),
              "queue checkpoint: outcome entries must be objects");
    const std::size_t ji =
        require_index(j, "job", jobs_.size() - 1, "outcome job index");
    JobOutcome& out = cp.outcomes[ji];
    check_arg(!out.completed,
              "queue checkpoint: duplicate outcome for one job");
    out.completed = true;
    out.start_s = engine::require_number(j, "start_s", kCheckpointContext);
    out.finish_s = engine::require_number(j, "finish_s", kCheckpointContext);
    out.carbon_g = engine::require_number(j, "carbon_g", kCheckpointContext);
    cp.sealed.push_back(ji);
  }
}

QueueSim::Checkpoint QueueSim::parse_live(const report::JsonValue& value) const {
  const std::size_t version = engine::check_envelope(
      value, {kSchemaV1, kSchemaV2}, config_digest(), kCheckpointContext);
  Checkpoint cp = start();
  cp.next_step = engine::require_integer(value, "next_step", kCheckpointContext);
  check_arg(cp.next_step >= 0,
            "queue checkpoint: next_step must be non-negative");
  cp.now_s = engine::require_number(value, "now_s", kCheckpointContext);
  // A run never steps past the max-horizon guard, so neither may a resumed
  // clock start beyond it (or before zero, which would step for ever).
  check_arg(cp.now_s >= 0.0 &&
                cp.now_s <= to_seconds(config_.max_horizon) + step_s_,
            "queue checkpoint: now_s out of range");
  cp.busy_machine_s =
      engine::require_number(value, "busy_machine_s", kCheckpointContext);
  const long peak_running =
      engine::require_integer(value, "peak_running", kCheckpointContext);
  check_arg(
      peak_running >= 0 && peak_running <= std::numeric_limits<int>::max(),
      "queue checkpoint: peak_running out of range");
  cp.peak_running = static_cast<int>(peak_running);
  cp.next_arrival =
      require_index(value, "next_arrival", jobs_.size(), "next_arrival");
  cp.next_preempt = require_index(value, "next_preempt",
                                  preempt_events_.size(), "next_preempt");

  const report::JsonValue& running =
      engine::require_member(value, "running", kCheckpointContext);
  check_arg(running.is_array(), "queue checkpoint: running must be an array");
  for (const report::JsonValue& j : running.items()) {
    check_arg(j.is_object(),
              "queue checkpoint: running entries must be objects");
    RunningJob r;
    r.job_index =
        require_index(j, "job", jobs_.size() - 1, "running job index");
    r.remaining_s =
        engine::require_number(j, "remaining_s", kCheckpointContext);
    r.started_s = engine::require_number(j, "started_s", kCheckpointContext);
    r.carbon_g = engine::require_number(j, "carbon_g", kCheckpointContext);
    r.attempt_total_s =
        engine::require_number(j, "attempt_total_s", kCheckpointContext);
    cp.running.push_back(r);
  }

  const report::JsonValue& queue =
      engine::require_member(value, "queue", kCheckpointContext);
  check_arg(queue.is_array(), "queue checkpoint: queue must be an array");
  for (const report::JsonValue& j : queue.items()) {
    check_arg(j.is_number() && j.as_number() >= 0.0 &&
                  j.as_number() < static_cast<double>(jobs_.size()),
              "queue checkpoint: queued job index out of range");
    cp.queue.push_back(static_cast<std::size_t>(j.as_number()));
  }

  if (!faults_enabled_) {
    return cp;
  }
  const report::JsonValue& f =
      engine::require_member(value, "faults", kCheckpointContext);
  check_arg(f.is_object(), "queue checkpoint: faults must be an object");
  // Range before the cast: casting a double outside int's range is
  // undefined.
  const auto count_of = [](double c) {
    check_arg(c >= 0.0 &&
                  c <= static_cast<double>(std::numeric_limits<int>::max()) &&
                  std::floor(c) == c,
              "queue checkpoint: faults.preempt_count entries must be "
              "whole numbers in int range");
    return static_cast<int>(c);
  };
  FaultState& fs = cp.faults;
  if (version == 0) {
    const auto lane = [&](const char* key) {
      const auto fail = [key](const char* what) {
        throw std::invalid_argument(
            std::string("queue checkpoint: faults.") + key + what);
      };
      const report::JsonValue& a =
          engine::require_member(f, key, kCheckpointContext);
      if (!a.is_array() || a.items().size() != jobs_.size()) {
        fail(" must be an array with one entry per job");
      }
      std::vector<double> v;
      v.reserve(jobs_.size());
      for (const report::JsonValue& x : a.items()) {
        if (!x.is_number()) {
          fail(" entries must be numbers");
        }
        v.push_back(x.as_number());
      }
      return v;
    };
    fs.preserved_s = lane("preserved_s");
    fs.prior_carbon_g = lane("prior_carbon_g");
    fs.earliest_restart_s = lane("earliest_restart_s");
    fs.first_start_s = lane("first_start_s");
    const std::vector<double> counts = lane("preempt_count");
    for (std::size_t i = 0; i < counts.size(); ++i) {
      fs.preempt_count[i] = count_of(counts[i]);
    }
  } else {
    const report::JsonValue& entries =
        engine::require_member(f, "jobs", kCheckpointContext);
    check_arg(entries.is_array() && entries.items().size() <= jobs_.size(),
              "queue checkpoint: faults.jobs must be an array of at most one "
              "entry per job");
    std::size_t next = 0;  // entries come in ascending job order
    for (const report::JsonValue& e : entries.items()) {
      check_arg(e.is_object(),
                "queue checkpoint: faults.jobs entries must be objects");
      const std::size_t ji =
          require_index(e, "job", jobs_.size() - 1, "fault entry job index");
      check_arg(ji >= next,
                "queue checkpoint: faults.jobs entries must be in ascending "
                "job order, one per job");
      next = ji + 1;
      fs.preserved_s[ji] =
          engine::require_number(e, "preserved_s", kCheckpointContext);
      fs.prior_carbon_g[ji] =
          engine::require_number(e, "prior_carbon_g", kCheckpointContext);
      fs.earliest_restart_s[ji] =
          engine::require_number(e, "earliest_restart_s", kCheckpointContext);
      fs.first_start_s[ji] =
          engine::require_number(e, "first_start_s", kCheckpointContext);
      fs.preempt_count[ji] = count_of(
          engine::require_number(e, "preempt_count", kCheckpointContext));
    }
  }
  fault::Accounting& acc = fs.acc;
  acc.faults_injected =
      engine::require_integer(f, "faults_injected", kCheckpointContext);
  acc.recoveries = engine::require_integer(f, "recoveries", kCheckpointContext);
  acc.checkpoints =
      engine::require_integer(f, "checkpoints", kCheckpointContext);
  acc.redone_work_hours =
      engine::require_number(f, "redone_work_hours", kCheckpointContext);
  acc.lost_capacity_hours =
      engine::require_number(f, "lost_capacity_hours", kCheckpointContext);
  acc.wasted_energy =
      joules(engine::require_number(f, "wasted_energy_j", kCheckpointContext));
  acc.checkpoint_energy = joules(
      engine::require_number(f, "checkpoint_energy_j", kCheckpointContext));
  return cp;
}

std::string QueueSim::compute_config_digest() const {
  engine::ConfigDigest d;
  d.add_double(step_s_);
  d.add_long(config_.machines);
  d.add_double(config_.pue);
  d.add_double(config_.green_threshold.base());
  d.add_double(to_seconds(config_.max_horizon));
  d.add_long(static_cast<long>(policy_));
  d.add_string(IntensityCache::key_of(config_.grid, config_.step));
  digest_fault_spec(d, config_.faults);
  d.add_long(config_.faults.retry.max_retries);
  d.add_double(to_seconds(config_.faults.retry.base_backoff));
  d.add_double(config_.faults.retry.backoff_multiplier);
  for (const BatchJob& j : jobs_) {
    d.add_string(j.id);
    d.add_double(to_watts(j.power));
    d.add_double(to_seconds(j.duration));
    d.add_double(to_seconds(j.arrival));
    d.add_double(to_seconds(j.slack));
  }
  return d.hex();
}

QueueSimResult run_queue_sim(std::vector<BatchJob> jobs,
                             const QueueSimConfig& config, QueuePolicy policy) {
  QueueSim sim(std::move(jobs), config, policy);
  return sim.run();
}

}  // namespace sustainai::datacenter
