#include "oracles/queue_reference.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "core/carbon_intensity.h"
#include "core/check.h"
#include "core/units.h"

namespace sustainai::oracles {

using datacenter::BatchJob;
using datacenter::CompletedJob;
using datacenter::QueuePolicy;
using datacenter::QueueSimConfig;
using datacenter::QueueSimResult;

namespace {

struct Running {
  std::size_t job = 0;
  double remaining_s = 0.0;
  double started_s = 0.0;
  double carbon_g = 0.0;
  double total_s = 0.0;
};

}  // namespace

QueueSimResult reference_queue_run(std::vector<BatchJob> jobs,
                                   const QueueSimConfig& config,
                                   QueuePolicy policy) {
  check_arg(!config.faults.enabled(),
            "reference_queue_run: fault injection is not modelled");
  check_arg(config.machines >= 1, "reference_queue_run: need >= 1 machine");
  check_arg(to_seconds(config.step) > 0.0,
            "reference_queue_run: step must be > 0");
  for (const BatchJob& j : jobs) {
    check_arg(to_seconds(j.duration) > 0.0,
              "reference_queue_run: job durations must be positive");
  }
  std::sort(jobs.begin(), jobs.end(), [](const BatchJob& a, const BatchJob& b) {
    return to_seconds(a.arrival) < to_seconds(b.arrival);
  });

  const IntermittentGrid grid(config.grid);
  const double step_s = to_seconds(config.step);
  std::vector<CompletedJob> done(jobs.size());
  std::vector<std::size_t> queue;
  std::vector<Running> running;
  std::size_t next_arrival = 0;
  std::size_t finished = 0;
  double now_s = 0.0;
  double busy_machine_s = 0.0;
  int peak_running = 0;

  while (finished < jobs.size()) {
    check_arg(now_s <= to_seconds(config.max_horizon),
              "reference_queue_run: exceeded max horizon");
    while (next_arrival < jobs.size() &&
           to_seconds(jobs[next_arrival].arrival) <= now_s + 1e-9) {
      queue.push_back(next_arrival++);
    }
    const double intensity_now = grid.intensity_at(seconds(now_s)).base();
    std::vector<std::size_t> waiting;
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      const std::size_t ji = queue[qi];
      if (static_cast<int>(running.size()) >= config.machines) {
        waiting.insert(waiting.end(), queue.begin() + qi, queue.end());
        break;
      }
      const BatchJob& job = jobs[ji];
      const double waited_s = now_s - to_seconds(job.arrival);
      const bool defer = policy == QueuePolicy::kGreedyGreen &&
                         waited_s + 1e-9 < to_seconds(job.slack) &&
                         intensity_now > config.green_threshold.base();
      if (defer) {
        waiting.push_back(ji);
      } else {
        const double total_s = to_seconds(job.duration);
        running.push_back(Running{ji, total_s, now_s, 0.0, total_s});
      }
    }
    queue.swap(waiting);
    peak_running = std::max(peak_running, static_cast<int>(running.size()));

    for (Running& r : running) {
      const double dt = std::min(step_s, r.remaining_s);
      const double energy_j = to_watts(jobs[r.job].power) * dt * config.pue;
      r.carbon_g += energy_j * intensity_now;
      r.remaining_s -= dt;
      busy_machine_s += dt;
    }
    now_s += step_s;
    for (std::size_t i = 0; i < running.size();) {
      if (running[i].remaining_s <= 1e-9) {
        const Running& r = running[i];
        CompletedJob& c = done[r.job];
        c.job = jobs[r.job];
        c.start = seconds(r.started_s);
        c.finish = seconds(r.started_s + r.total_s);
        c.carbon = grams_co2e(r.carbon_g);
        ++finished;
        running[i] = running.back();
        running.pop_back();
      } else {
        ++i;
      }
    }
  }

  QueueSimResult result;
  result.policy_name = datacenter::to_string(policy);
  result.total_carbon = grams_co2e(0.0);
  double wait_s = 0.0;
  double makespan_s = 0.0;
  for (const CompletedJob& c : done) {
    result.total_carbon += c.carbon;
    wait_s += to_seconds(c.wait());
    makespan_s = std::max(makespan_s, to_seconds(c.finish));
  }
  result.mean_wait =
      seconds(jobs.empty() ? 0.0 : wait_s / static_cast<double>(jobs.size()));
  result.makespan = seconds(makespan_s);
  result.utilization = makespan_s > 0.0
                           ? busy_machine_s / (makespan_s * config.machines)
                           : 0.0;
  result.peak_running = peak_running;
  result.jobs = std::move(done);
  return result;
}

}  // namespace sustainai::oracles
