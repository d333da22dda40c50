#include "scenario/runner.h"

#include <filesystem>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/atomic_file.h"
#include "engine/journal.h"
#include "fault/recovery.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "report/json.h"

namespace sustainai::scenario {

using report::JsonValue;

const Artifact* Bundle::find(const std::string& filename) const {
  for (const Artifact& f : files) {
    if (f.filename == filename) {
      return &f;
    }
  }
  return nullptr;
}

namespace {

// The spec's top level. "params" is checked against the simulation's own
// table once the scenario is known.
const std::vector<ParamDoc>& top_level_params() {
  using P = ParamDoc;
  static const std::vector<ParamDoc> rows = {
      {.name = "scenario", .kind = P::Kind::kString,
       .description = "registered simulation name"},
      P::integer("seed", 42, 0, kMaxSeed, "base seed"),
      {.name = "params", .kind = P::Kind::kObject,
       .description = "simulation parameters", .default_doc = "{}"},
      P::flag("artifacts.trace", false, "write trace.json (sim-time trace)"),
      P::flag("artifacts.metrics", false, "write metrics.prom (Prometheus)"),
      P::integer("checkpoint_segments", 1, 1, 1000000,
                 "checkpointed segments, unless the caller asks for some"),
  };
  return rows;
}

}  // namespace

CheckpointRequest CheckpointRequest::on_disk(const std::string& checkpoint,
                                             const std::string& resume) {
  CheckpointRequest request;
  engine::StoredCheckpoint stored;
  if (!resume.empty()) {
    stored = engine::read_checkpoint(resume);
  }
  if (!checkpoint.empty()) {
    // Shared by both callbacks, so the request stays copyable.
    const auto writer =
        std::make_shared<engine::CheckpointWriter>(checkpoint, stored.journal);
    request.append_journal = [writer](const std::string& frame) {
      writer->append(frame);
    };
    request.write_snapshot = [writer](const std::string& snapshot) {
      writer->commit(snapshot);
    };
  }
  request.resume_text = std::move(stored.snapshot);
  request.resume_journal = std::move(stored.journal);
  return request;
}

Runner::Runner(const Registry& registry) : registry_(&registry) {}

Bundle Runner::run(const Spec& spec, exec::ThreadPool* pool,
                   const CheckpointRequest& checkpoint) const {
  const Params top(spec, top_level_params());
  const std::string scenario_name = top.text("scenario");
  const Simulation& simulation = registry_->require(scenario_name);

  RunContext ctx;
  ctx.pool = pool;
  ctx.seed = static_cast<std::uint64_t>(top.integer("seed"));
  ctx.checkpoint = checkpoint;
  // The spec itself may ask for segmentation; an explicit caller request
  // (CLI flags) wins.
  const long spec_segments = top.integer("checkpoint_segments");
  if (spec_segments > 1 && ctx.checkpoint.segments <= 1) {
    ctx.checkpoint.segments = spec_segments;
  }
  if (ctx.checkpoint.active() && !simulation.supports_checkpoint()) {
    std::string checkpointable;
    for (const Simulation* sim : registry_->simulations()) {
      if (sim->supports_checkpoint()) {
        checkpointable += (checkpointable.empty() ? "" : ", ") + sim->name();
      }
    }
    throw std::invalid_argument(
        "scenario '" + scenario_name +
        "' does not support checkpoint/resume; checkpointable scenarios: " +
        checkpointable);
  }

  const Params artifacts = top.child("artifacts");
  const bool want_trace = artifacts.flag("trace");
  const bool want_metrics = artifacts.flag("metrics");

  // Trace/metrics state is global; scope it to this run so the exports are
  // a pure function of the spec. The tracer is cleared *before* enabling so
  // the deterministic region allocator restarts from zero.
  obs::Tracer& tracer = obs::Tracer::global();
  const bool was_tracing = tracer.enabled();
  if (want_trace) {
    tracer.clear();
    tracer.set_enabled(true);
  }
  obs::MetricsSnapshot metrics_before;
  if (want_metrics) {
    metrics_before = obs::MetricsRegistry::global().snapshot();
  }

  Bundle bundle;
  std::string failure_message;
  fault::Accounting failure_accounting;
  try {
    bundle.result = simulation.run(
        Params(spec.optional_child("params"), simulation.params()), ctx);
  } catch (const fault::RetriesExhaustedError& e) {
    // Fault-injection retry budgets are an expected outcome, not a schema
    // bug: record the failure as an artifact so sibling scenarios in a
    // batch keep running.
    bundle.failed = true;
    failure_message = e.what();
    failure_accounting = e.accounting();
  } catch (...) {
    if (want_trace) {
      tracer.set_enabled(was_tracing);
    }
    throw;
  }

  std::string trace_text;
  if (want_trace) {
    tracer.set_enabled(was_tracing);
    trace_text = obs::chrome_trace_json(tracer.collect());
    tracer.clear();
  }
  std::string metrics_text;
  if (want_metrics) {
    metrics_text = obs::prometheus_text(obs::diff(
        metrics_before, obs::MetricsRegistry::global().snapshot()));
  }

  if (bundle.failed) {
    JsonValue error_json = JsonValue::object();
    error_json.set("schema",
                   JsonValue::string("sustainai-scenario-error-v1"));
    error_json.set("scenario", JsonValue::string(scenario_name));
    error_json.set("seed",
                   JsonValue::number(static_cast<double>(ctx.seed)));
    error_json.set("error", JsonValue::string("retries_exhausted"));
    error_json.set("message", JsonValue::string(failure_message));
    JsonValue jf = JsonValue::object();
    jf.set("faults_injected",
           JsonValue::number(
               static_cast<double>(failure_accounting.faults_injected)));
    jf.set("recoveries",
           JsonValue::number(
               static_cast<double>(failure_accounting.recoveries)));
    jf.set("checkpoints",
           JsonValue::number(
               static_cast<double>(failure_accounting.checkpoints)));
    jf.set("redone_work_hours",
           JsonValue::number(failure_accounting.redone_work_hours));
    jf.set("lost_capacity_hours",
           JsonValue::number(failure_accounting.lost_capacity_hours));
    jf.set("wasted_energy_j",
           JsonValue::number(to_joules(failure_accounting.wasted_energy)));
    jf.set("checkpoint_energy_j",
           JsonValue::number(
               to_joules(failure_accounting.checkpoint_energy)));
    error_json.set("faults", std::move(jf));

    bundle.result.scenario = scenario_name;
    bundle.files.push_back(
        {"error.json", report::canonical_json(error_json)});
  } else if (bundle.result.stopped) {
    // Halted at a segment boundary by stop_after: there is no result to
    // report. The snapshot handed to write_snapshot is the resume handle.
    bundle.stopped = true;
    bundle.result.scenario = scenario_name;
  } else {
    // The report tree can be large; move it into the envelope for
    // serialization and back out instead of deep-copying it.
    JsonValue result_json = JsonValue::object();
    result_json.set("schema", JsonValue::string("sustainai-scenario-v1"));
    result_json.set("scenario", JsonValue::string(scenario_name));
    result_json.set("seed",
                    JsonValue::number(static_cast<double>(ctx.seed)));
    result_json.set("report", std::move(bundle.result.report));

    bundle.files.push_back(
        {"result.json", report::canonical_json(result_json)});
    bundle.result.report = std::move(*result_json.find("report"));
  }

  // Every outcome's tail. A failed or stopped run has no CSV series.
  bundle.files.push_back({"spec.json", spec.canonical()});
  for (const auto& [stem, csv] : bundle.result.csv_series) {
    bundle.files.push_back({stem + ".csv", csv});
  }
  if (want_trace) {
    bundle.files.push_back({"trace.json", std::move(trace_text)});
  }
  if (want_metrics) {
    bundle.files.push_back({"metrics.prom", std::move(metrics_text)});
  }
  return bundle;
}

Bundle Runner::run_text(std::string_view spec_text, exec::ThreadPool* pool,
                        const CheckpointRequest& checkpoint) const {
  return run(Spec::parse(spec_text), pool, checkpoint);
}

bool Runner::write(const Bundle& bundle, const std::string& dir,
                   std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "cannot create directory '" + dir + "': " + ec.message();
    }
    return false;
  }
  for (const Artifact& f : bundle.files) {
    try {
      write_file_atomically((std::filesystem::path(dir) / f.filename).string(),
                            {f.content});
    } catch (const std::invalid_argument& e) {
      if (error != nullptr) {
        *error = e.what();
      }
      return false;
    }
  }
  return true;
}

}  // namespace sustainai::scenario
