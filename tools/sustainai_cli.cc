// sustainai — command-line carbon estimator built on the library.
//
//   sustainai estimate --gpu-days 512 --device v100 --count 8 ...
//       (--utilization 0.55 --grid us-average --pue 1.1 --cfe 1.0)
//   sustainai models            # the Figure 4/5 production + OSS catalog
//   sustainai grids             # available grid profiles
//   sustainai schedule --jobs 24 --duration-h 4 --slack-h 20 --grid us-west-solar
//   sustainai fl --clients 100 --rounds-per-day 24 --days 90
//   sustainai fleet --days 7 --trace /tmp/fleet.json --metrics /tmp/fleet.prom
//   sustainai planet --regions 8 --years 1 --checkpoint /tmp/planet.ckpt
//   sustainai run scenarios/fleet_week.json --out /tmp/fleet_week
//   sustainai scenarios            # list registered scenario simulations
//   sustainai fleet --help         # a command's flags, params, defaults
//
// Each subcommand prints the same accounting the paper's figures use;
// `fleet`, `planet` and `fl` build a scenario spec from their flags and run
// it the way `run` does.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/atomic_file.h"
#include "datacenter/planet_sim.h"
#include "datacenter/scheduler.h"
#include "engine/snapshot.h"
#include "mlcycle/model_zoo.h"
#include "report/table.h"
#include "scenario/runner.h"
#include "scenario/schemas.h"
#include "telemetry/model_card.h"
#include "telemetry/tracker.h"

namespace {

using namespace sustainai;

using scenario::ParamDoc;
using scenario::Params;
using P = scenario::ParamDoc;
using Flags = std::map<std::string, std::string>;

int cmd_models() {
  const mlcycle::AccountingContext ctx = mlcycle::default_accounting();
  report::Table t({"model", "params (B)", "training tCO2e", "inference tCO2e",
                   "embodied tCO2e"});
  for (const auto& m : mlcycle::production_models(ctx)) {
    const PhaseFootprint total = m.footprint(ctx).total();
    t.add_row_values(m.name, {m.params_billions,
                              to_tonnes_co2e(m.training_carbon(ctx)),
                              to_tonnes_co2e(m.inference_carbon(ctx)),
                              to_tonnes_co2e(total.embodied)});
  }
  for (const auto& m : mlcycle::oss_models()) {
    t.add_row({m.name, report::fmt(m.params_billions),
               report::fmt(to_tonnes_co2e(m.training_carbon)), "-", "-"});
  }
  std::printf("%s", t.to_string().c_str());
  return 0;
}

int cmd_grids() {
  report::Table t({"grid", "average intensity", "carbon-free share"});
  for (const GridProfile& g : grids::all()) {
    t.add_row({g.name, to_string(g.average),
               report::fmt_percent(g.carbon_free_fraction)});
  }
  std::printf("%s", t.to_string().c_str());
  return 0;
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::invalid_argument("cannot open '" + path + "' for reading");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// --- flag tables ---------------------------------------------------------
//
// Every subcommand that takes flags declares them in a Command table, and
// each flag names one ParamDoc row: the row is its type, default, range and
// `--help` line. The parser rejects flags not in the table by name. A flag
// of `fleet`, `planet` or `fl` names a param of the scenario spec it
// builds; every other flag names a row of the command's own table, and its
// value is read through Params like a spec's, so it is type- and
// range-checked before the command runs.

struct FlagDef {
  std::string name;   // without the leading "--"
  std::string param;  // the row: the command's own, else the scenario's
  std::string artifact = {};  // the bundle file written to its path
};

struct Command {
  std::string name;
  std::string scenario;  // registry name of the spec it builds, if any
  std::string summary;   // its line in the top-level usage
  std::vector<FlagDef> flags = {};
  std::vector<ParamDoc> rows = {};  // the command's own rows
  std::string operand = {};  // positional argument before the flags, if any

  [[nodiscard]] const FlagDef* find(const std::string& flag) const {
    for (const FlagDef& f : flags) {
      if (f.name == flag) {
        return &f;
      }
    }
    return nullptr;
  }
  // The command's own row `f` names; null for a scenario param.
  [[nodiscard]] const ParamDoc* own_row(const FlagDef& f) const {
    for (const ParamDoc& r : rows) {
      if (r.name == f.param) {
        return &r;
      }
    }
    return nullptr;
  }
  // The row `f` names. A flag naming no declared row is a program error.
  [[nodiscard]] const ParamDoc& row(const FlagDef& f) const {
    if (const ParamDoc* r = own_row(f)) {
      return *r;
    }
    if (!scenario.empty()) {
      for (const ParamDoc& doc :
           scenario::Registry::global().require(scenario).params()) {
        if (doc.name == f.param) {
          return doc;
        }
      }
    }
    throw std::logic_error("flag --" + f.name + " names '" + f.param +
                           "', which `" + name + "` does not declare");
  }
  void add(const std::vector<FlagDef>& more,
           const std::vector<ParamDoc>& more_rows = {}) {
    flags.insert(flags.end(), more.begin(), more.end());
    rows.insert(rows.end(), more_rows.begin(), more_rows.end());
  }
  // Adds `more` to the command's own rows, each with a flag named after it
  // ("gpu_days" is --gpu-days).
  void add_own(const std::vector<ParamDoc>& more) {
    for (const ParamDoc& r : more) {
      std::string flag = r.name;
      std::replace(flag.begin(), flag.end(), '_', '-');
      add({{flag, r.name}}, {r});
    }
  }
};

// The region flags `fleet` sets at the top level and `planet` in each region.
std::vector<FlagDef> region_flags(const std::string& prefix) {
  return {{"web-servers", prefix + "web_servers"},
          {"train-servers", prefix + "train_servers"},
          {"solar-share", prefix + "grid.solar_share"},
          {"wind-share", prefix + "grid.wind_share"},
          {"firm-share", prefix + "grid.firm_share"},
          {"pue", prefix + "pue"},
          {"cfe", prefix + "cfe"}};
}

// `--out`, and the checkpoint flags when the scenario is checkpointable.
void add_run_flags(Command& c, bool checkpointable) {
  c.add_own({P::text("out", "",
                     "write the artifact bundle (result.json, spec.json, "
                     "...) here")});
  if (checkpointable) {
    constexpr long kMaxSteps = 1L << 40;
    c.add_own(
        {P::text("checkpoint", "",
                 "write the snapshot here at every segment boundary"),
         P::text("resume", "", "resume from this snapshot (needs --checkpoint)"),
         P::integer("segment_steps", 0, 0, kMaxSteps,
                    "steps per checkpointed segment (0 = from the segment "
                    "count)"),
         P::integer("stop_after", 0, 0, kMaxSteps,
                    "stop after this many segments (0 = run to the end)")});
  }
}

Command run_command() {
  Command c{"run", "", "run a declarative JSON scenario spec"};
  add_run_flags(c, true);
  c.operand = "<scenario.json>";
  return c;
}

// `fleet`, `planet` and `fl` only translate: each flag sets one param of a
// `fleet`, `planet` or `fl_rounds` scenario spec (unset flags keep the
// scenario's defaults), and the spec runs through run_spec exactly as
// `sustainai run` runs a spec file, so `--out DIR` writes a bundle whose
// spec.json reruns to the same result.json.

Command fleet_command() {
  Command c{"fleet", "fleet", "the datacenter fleet simulator (a `fleet` spec)",
            {{"days", "days"},
             {"step-min", "step_min"},
             {"chunk-steps", "chunk_steps"},
             {"grid", "grid.name"}}};
  c.add(region_flags(""));
  c.add({{"trace", "trace", "trace.json"},
         {"metrics", "metrics", "metrics.prom"}},
        {P::text("trace", "", "write the sim-time Chrome trace here"),
         P::text("metrics", "", "write Prometheus metrics here")});
  add_run_flags(c, true);
  return c;
}

Command planet_command() {
  Command c{"planet", "planet",
            "N region-fleets on cycling grids (a `planet` spec)"};
  c.add_own({P::integer("regions", 8, 1,
                        datacenter::PlanetSimulator::kMaxRegions,
                        "regions to generate, UTC offsets 3 h apart"),
             P::integer("grids", 3, 1, 6,
                        "distinct grids the regions cycle through")});
  c.add({{"years", "years"},
         {"step-min", "step_min"},
         {"chunk-steps", "chunk_steps"}});
  c.add(region_flags("regions[i]."));
  add_run_flags(c, true);
  return c;
}

Command fl_command() {
  Command c{"fl", "fl_rounds",
            "federated-learning campaign footprint (an `fl_rounds` spec)",
            {{"name", "name"},
             {"clients", "clients_per_round"},
             {"rounds-per-day", "rounds_per_day"},
             {"days", "days"},
             {"model-mb", "model_mb"},
             {"compute-min", "compute_min"}}};
  add_run_flags(c, false);
  return c;
}

// --- estimate, schedule, model-card ---------------------------------------
//
// Their tables reuse the adapters' rows (scenario/schemas.h), and the
// values go through the adapters' parsers.

// The accelerator count, then lifecycle_estimate's accounting rows.
void add_accounting(Command& c, long default_count) {
  c.add_own({P::integer("count", default_count, 1, 1000000,
                        "accelerators in the job")});
  c.add_own(scenario::accounting_params());
}

Command estimate_command() {
  Command c{"estimate", "", "carbon impact statement for a training run"};
  c.add_own({P::number("gpu_days", 100, 0, 1e9,
                       "accelerator-days of training, split over --count")});
  add_accounting(c, 1);
  c.add_own({P::text("name", "cli-estimate", "name in the statement")});
  return c;
}

int cmd_estimate(const Command&, const Flags&, const Params& p) {
  const long count = p.integer("count");
  const mlcycle::AccountingContext acct = scenario::parse_accounting(p);
  telemetry::CarbonTracker tracker(
      {acct.operational, acct.embodied_utilization});
  tracker.record_device_use(
      Phase::kTraining, acct.device, acct.device_utilization,
      days(p.number("gpu_days") / static_cast<double>(count)),
      static_cast<int>(count));
  std::printf("%s", tracker.impact_statement(p.text("name")).c_str());
  return 0;
}

// The jobs, threshold and grid rows are the queue and cross-region
// adapters'; the job count has a bound of its own, since run_schedule's
// peak-power scan is quadratic in it.
Command schedule_command() {
  Command c{"schedule", "", "compare carbon-aware scheduling policies",
            {{"jobs", "jobs"},
             {"power-kw", "power_kw"},
             {"duration-h", "duration_h"},
             {"slack-h", "slack_h"},
             {"threshold-g-per-kwh", "threshold_g_per_kwh"},
             {"grid", "grid.name"},
             {"solar-share", "grid.solar_share"},
             {"wind-share", "grid.wind_share"},
             {"firm-share", "grid.firm_share"}},
            scenario::job_params(10000)};
  c.add({}, {scenario::threshold_param()});
  c.add({}, scenario::grid_params("grid."));
  return c;
}

int cmd_schedule(const Command&, const Flags&, const Params& p) {
  using namespace sustainai::datacenter;
  const IntermittentGrid grid(
      scenario::parse_grid(p.child("grid"), IntermittentGrid::Config{}.seed));
  const std::vector<BatchJob> jobs = scenario::make_jobs(p, "job-");
  const FifoPolicy fifo;
  const ThresholdPolicy threshold(
      grams_per_kwh(p.number("threshold_g_per_kwh")));
  const ForecastPolicy forecast;
  report::Table t({"policy", "carbon", "mean delay (h)", "peak power"});
  for (const SchedulerPolicy* policy :
       std::initializer_list<const SchedulerPolicy*>{&fifo, &threshold,
                                                     &forecast}) {
    const ScheduleResult r = run_schedule(jobs, grid, *policy);
    t.add_row({r.policy_name, to_string(r.total_carbon),
               report::fmt(to_hours(r.mean_delay)),
               to_string(r.peak_concurrent_power)});
  }
  std::printf("%s", t.to_string().c_str());
  return 0;
}

Command model_card_command() {
  Command c{"model-card", "",
            "render the carbon section of a model card (markdown)"};
  c.add_own({P::text("name", "my-model", "model name"),
             P::text("description", "", "one-line model description"),
             P::number("runtime_days", 7, 0, 36500,
                       "training wall-clock days")});
  add_accounting(c, 8);
  c.add_own({P::number("predictions_per_day", 0, 0, 1e15,
                       "serving volume (0 = not deployed)"),
             P::number("joules_per_prediction", 0.001, 0, 1e6,
                       "serving energy per prediction")});
  return c;
}

int cmd_model_card(const Command&, const Flags&, const Params& p) {
  const mlcycle::AccountingContext acct = scenario::parse_accounting(p);
  const telemetry::ModelCardInput in{
      p.text("name"),
      p.text("description"),
      acct.device,
      static_cast<int>(p.integer("count")),
      days(p.number("runtime_days")),
      acct.device_utilization,
      acct.operational,
      acct.embodied_utilization,
      p.number("predictions_per_day"),
      joules(p.number("joules_per_prediction"))};
  std::printf("%s", telemetry::render_model_card(in).c_str());
  return 0;
}

// --- flags to values -------------------------------------------------------

void print_help(const Command& cmd, std::FILE* out) {
  std::fprintf(out, "usage: sustainai %s%s%s [--flag value ...]\n",
               cmd.name.c_str(), cmd.operand.empty() ? "" : " ",
               cmd.operand.c_str());
  if (!cmd.scenario.empty()) {
    std::fprintf(out, "Flags set `%s` spec params; unset ones keep the "
                 "scenario defaults.\n", cmd.scenario.c_str());
  }
  report::Table t({"flag", "param", "default", "range", "description"});
  for (const FlagDef& f : cmd.flags) {
    const ParamDoc& doc = cmd.row(f);
    const std::string fallback = doc.default_text();
    t.add_row({"--" + f.name, cmd.own_row(f) != nullptr ? "-" : f.param,
               fallback.empty() ? "none" : fallback, doc.range(),
               doc.description});
  }
  std::fprintf(out, "%s", t.to_string().c_str());
}

// Parses argv[first..] against `cmd`'s flags, rejecting unknown flags by
// name. Returns nullopt after printing the help for `--help`.
std::optional<Flags> parse_command_flags(const Command& cmd, int argc,
                                         char** argv, int first) {
  Flags flags;
  for (int i = first; i < argc; i += 2) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      print_help(cmd, stdout);
      return std::nullopt;
    }
    if (arg.rfind("--", 0) != 0 || cmd.find(arg.substr(2)) == nullptr) {
      throw std::invalid_argument("unknown flag '" + arg + "' for '" +
                                  cmd.name + "'; see sustainai " + cmd.name +
                                  " --help");
    }
    if (i + 1 >= argc) {
      throw std::invalid_argument("flag '" + arg + "' is missing a value");
    }
    flags[arg.substr(2)] = argv[i + 1];
  }
  return flags;
}

// A flag's value as JSON of its row's kind: the text for a string row, else
// a number through the strict JSON grammar (so "inf", "0x10" and "1e999"
// fail here).
report::JsonValue flag_value(const FlagDef& f, const ParamDoc& row,
                             const std::string& text) {
  if (row.kind == ParamDoc::Kind::kString) {
    return report::JsonValue::string(text);
  }
  try {
    report::JsonValue v = report::parse_json(text);
    if (v.is_number()) {
      return v;
    }
  } catch (const report::JsonParseError&) {
  }
  throw std::invalid_argument("--" + f.name + " expects a JSON number, got '" +
                              text + "'");
}

// Sets in `node` every given flag that names one of the command's own rows
// (`own`) or a scenario param, and whose row starts with `prefix` (the
// prefix stripped), creating the objects on its dotted path. Params under a
// further "[i]" belong to a nested call.
void set_params(report::JsonValue& node, const Command& cmd,
                const Flags& flags, bool own, const std::string& prefix = "") {
  for (const FlagDef& f : cmd.flags) {
    const auto it = flags.find(f.name);
    if (it == flags.end() || (cmd.own_row(f) != nullptr) != own ||
        f.param.rfind(prefix, 0) != 0 ||
        f.param.find("[i]", prefix.size()) != std::string::npos) {
      continue;
    }
    const std::string path = f.param.substr(prefix.size());
    report::JsonValue* at = &node;
    std::size_t start = 0;
    for (std::size_t dot; (dot = path.find('.', start)) != std::string::npos;
         start = dot + 1) {
      const std::string key = path.substr(start, dot - start);
      if (at->find(key) == nullptr) {
        at->set(key, report::JsonValue::object());
      }
      at = at->find(key);
    }
    at->set(path.substr(start), flag_value(f, cmd.row(f), it->second));
  }
}

// `what`, a SpecError's text, prefixed with the flag whose row it is at:
// "$.<row>" for the command's own rows (`own`; the path is dropped, the row
// being no spec param), "$.params.<param>" for the scenario's (region 0
// standing for "[i]": every generated region holds the same value).
std::string name_flag(const Command& cmd, const std::string& what, bool own) {
  for (const FlagDef& f : cmd.flags) {
    if ((cmd.own_row(f) != nullptr) != own) {
      continue;
    }
    std::string path = (own ? "$." : "$.params.") + f.param + ":";
    if (const std::size_t i = path.find("[i]"); i != std::string::npos) {
      path.replace(i, 3, "[0]");
    }
    if (what.rfind(path, 0) == 0) {
      return "--" + f.name + ":" + (own ? what.substr(path.size()) : " " + what);
    }
  }
  return what;
}

// Runs `action` on the values of `cmd`'s own flags, checked against its
// rows before it starts. A SpecError at one of those rows names the flag.
int with_own_params(const Command& cmd, const Flags& flags,
                    const std::function<int(const Params&)>& action) {
  report::JsonValue values = report::JsonValue::object();
  set_params(values, cmd, flags, /*own=*/true);
  try {
    return action(Params(scenario::Spec::from_value(std::move(values)),
                         cmd.rows));
  } catch (const scenario::SpecError& e) {
    throw std::invalid_argument(name_flag(cmd, e.what(), /*own=*/true));
  }
}

// --- run, fleet, planet, fl -----------------------------------------------

// Deterministic built-in planet: `--regions` fleets cycling over `--grids`
// distinct grid profiles (same profile + same seed => one shared memoized
// IntensityTable) with UTC offsets marching around the globe in 3-hour
// increments. The count is checked before any region is generated.
report::JsonValue planet_regions(const Command& cmd, const Flags& flags,
                                 const Params& own) {
  using report::JsonValue;
  static const char* kGridCycle[] = {"us-west-solar",   "us-average",
                                     "nordic-hydro",    "asia-pacific",
                                     "us-midwest-coal", "hydro-quebec"};
  const long regions = own.integer("regions");
  const long grids = own.integer("grids");
  JsonValue list = JsonValue::array();
  for (long r = 0; r < regions; ++r) {
    const char* grid_name = kGridCycle[r % grids];
    JsonValue region = JsonValue::object();
    region.set("name", JsonValue::string("region-" + std::to_string(r) + "-" +
                                         grid_name));
    region.set("grid", JsonValue::object().set(
                           "name", JsonValue::string(grid_name)));
    region.set("utc_offset_h",
               JsonValue::number(static_cast<double>((r * 3) % 24)));
    set_params(region, cmd, flags, /*own=*/false, "regions[i].");
    list.append(std::move(region));
  }
  return list;
}

// Runs `spec` per `cmd`'s own flags `own`: checkpoint and resume, the
// summary on stdout, the bundle under --out, artifacts at their flags'
// paths. A SpecError at a flag's param names the flag. Returns the exit
// status.
int run_spec(const scenario::Spec& spec, const Command& cmd,
             const Params& own) {
  const bool checkpointable = cmd.find("checkpoint") != nullptr;
  const std::string checkpoint = checkpointable ? own.text("checkpoint") : "";
  const std::string resume = checkpointable ? own.text("resume") : "";
  if (!resume.empty() && checkpoint.empty()) {
    throw std::invalid_argument(
        "--resume requires --checkpoint (the path further snapshots are "
        "written to); pass --checkpoint " +
        resume + " to continue updating the same file");
  }
  scenario::CheckpointRequest request =
      scenario::CheckpointRequest::on_disk(checkpoint, resume);
  if (checkpointable) {
    request.segment_steps = own.integer("segment_steps");
    request.stop_after = own.integer("stop_after");
  }

  scenario::Bundle bundle;
  const auto wall0 = std::chrono::steady_clock::now();
  try {
    bundle = scenario::Runner().run(spec, nullptr, request);
  } catch (const engine::SnapshotDigestMismatch&) {
    throw std::invalid_argument(
        "cannot resume from '" + resume +
        "': config digest mismatch — this checkpoint was written by a "
        "differently-configured run; re-run with the original spec or "
        "flags, or start fresh without --resume");
  } catch (const scenario::SpecError& e) {
    throw std::invalid_argument(name_flag(cmd, e.what(), /*own=*/false));
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();

  std::printf("scenario: %s\n", bundle.result.scenario.c_str());
  if (bundle.failed) {
    // No summary to print: the run died mid-flight. error.json carries the
    // wasted-work accounting.
    const scenario::Artifact* err = bundle.find("error.json");
    std::printf("run FAILED (fault-injection retries exhausted)\n");
    if (err != nullptr) {
      std::printf("%s\n", err->content.c_str());
    }
  } else if (bundle.stopped) {
    std::printf("stopped at a segment boundary (--stop-after %ld)",
                request.stop_after);
    if (!checkpoint.empty()) {
      std::printf("; resume with --resume %s", checkpoint.c_str());
    }
    std::printf("\n");
  } else {
    std::printf("%s", bundle.result.summary_table().to_string().c_str());
    for (const std::string& note : bundle.result.notes) {
      std::printf("  %s\n", note.c_str());
    }
    if (bundle.result.scenario == "planet" && resume.empty()) {
      // End to end: the whole Runner::run call, construction included. The
      // simulated horizon is the t_end_s of the series' last window.
      const std::string& series = bundle.result.csv_series.front().second;
      const std::size_t row = series.rfind('\n', series.size() - 2) + 1;
      const double region_years =
          bundle.result.report.find("region_count")->as_number() *
          std::stod(series.substr(series.find(',', row) + 1)) /
          kSecondsPerYear;
      std::printf("  throughput:       %.0f region-years/min end to end, "
                  "construction included (%.1f region-years in %.2f s)\n",
                  region_years / (wall_s / 60.0), region_years, wall_s);
    }
  }
  const std::string out_dir = own.text("out");
  if (!out_dir.empty()) {
    std::string error;
    if (!scenario::Runner::write(bundle, out_dir, &error)) {
      throw std::invalid_argument(error);
    }
    std::string names;
    for (const scenario::Artifact& f : bundle.files) {
      names += (names.empty() ? "" : ", ") + f.filename;
    }
    std::printf("wrote %s to %s\n", names.c_str(), out_dir.c_str());
  }
  for (const FlagDef& f : cmd.flags) {
    const scenario::Artifact* artifact =
        f.artifact.empty() ? nullptr : bundle.find(f.artifact);
    if (artifact != nullptr) {
      const std::string path = own.text(f.param);
      write_file_atomically(path, {artifact->content});
      std::printf("wrote %s to %s\n", f.artifact.c_str(), path.c_str());
    }
  }
  // The failed bundle is still written (error.json + spec.json), but the
  // exit status lets batch drivers count the failure.
  return bundle.failed ? 1 : 0;
}

int cmd_run(int argc, char** argv) {
  const Command cmd = run_command();
  const bool has_spec = argc >= 3 && std::string(argv[2]).rfind("--", 0) != 0;
  const std::optional<Flags> flags =
      parse_command_flags(cmd, argc, argv, has_spec ? 3 : 2);
  if (!flags) {
    return 0;
  }
  if (!has_spec) {
    print_help(cmd, stderr);
    return 2;
  }
  return with_own_params(cmd, *flags, [&](const Params& own) {
    return run_spec(scenario::Spec::parse(read_text_file(argv[2])), cmd, own);
  });
}

// `fleet`, `planet`, `fl`: flags -> spec -> run_spec.
int cmd_translate(const Command& cmd, const Flags& flags, const Params& own) {
  using report::JsonValue;
  JsonValue spec = JsonValue::object();
  spec.set("scenario", JsonValue::string(cmd.scenario));
  JsonValue params = JsonValue::object();
  set_params(params, cmd, flags, /*own=*/false);
  if (cmd.scenario == "planet") {
    params.set("regions", planet_regions(cmd, flags, own));
  }
  spec.set("params", std::move(params));
  for (const FlagDef& f : cmd.flags) {
    if (!f.artifact.empty() && flags.count(f.name) != 0) {
      if (spec.find("artifacts") == nullptr) {
        spec.set("artifacts", JsonValue::object());
      }
      spec.find("artifacts")->set(f.artifact.substr(0, f.artifact.find('.')),
                                  JsonValue::boolean(true));
    }
  }
  return run_spec(scenario::Spec::from_value(std::move(spec)), cmd, own);
}

int cmd_scenarios(int argc, char** argv) {
  const scenario::Registry& registry = scenario::Registry::global();
  if (argc >= 3 && std::string(argv[2]).rfind("--", 0) != 0) {
    const scenario::Simulation& sim = registry.require(argv[2]);
    std::printf("%s: %s\n", sim.name().c_str(), sim.description().c_str());
    if (sim.supports_checkpoint()) {
      std::printf("supports checkpoint/resume "
                  "(--checkpoint/--resume/--segment-steps/--stop-after)\n");
    }
    std::printf("\n");
    report::Table t({"param", "type", "default", "range", "description"});
    for (const scenario::ParamDoc& doc : sim.params()) {
      t.add_row({doc.name, doc.type(), doc.default_text(), doc.range(),
                 doc.description});
    }
    std::printf("%s", t.to_string().c_str());
    return 0;
  }
  report::Table t({"scenario", "checkpointable", "description"});
  for (const scenario::Simulation* sim : registry.simulations()) {
    t.add_row({sim->name(), sim->supports_checkpoint() ? "yes" : "no",
               sim->description()});
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("run one with: sustainai run <spec.json>; "
              "see its parameters with: sustainai scenarios <name>\n");
  return 0;
}

int usage() {
  std::printf(
      "usage: sustainai <command> [--flag value ...]\n"
      "commands:\n"
      "  models     the production + open-source model catalog\n"
      "  grids      available grid carbon-intensity profiles\n"
      "  scenarios  list registered scenarios, or show one scenario's\n"
      "             parameters (sustainai scenarios [name])\n");
  for (const Command& cmd :
       {estimate_command(), schedule_command(), model_card_command(),
        run_command(), fleet_command(), planet_command(), fl_command()}) {
    std::printf("  %-10s %s\n             (sustainai %s --help lists its flags)\n",
                cmd.name.c_str(), cmd.summary.c_str(), cmd.name.c_str());
  }
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  const std::string command = argv[1];
  try {
    // `run` and `scenarios` take a positional argument; the others with
    // flags parse against their own flag tables.
    if (command == "run") {
      return cmd_run(argc, argv);
    }
    if (command == "scenarios") {
      return cmd_scenarios(argc, argv);
    }
    if (command == "models") {
      return cmd_models();
    }
    if (command == "grids") {
      return cmd_grids();
    }
    using Action = int (*)(const Command&, const Flags&, const Params&);
    const std::pair<Command, Action> commands[] = {
        {estimate_command(), cmd_estimate},
        {schedule_command(), cmd_schedule},
        {model_card_command(), cmd_model_card},
        {fleet_command(), cmd_translate},
        {planet_command(), cmd_translate},
        {fl_command(), cmd_translate}};
    for (const auto& [cmd, action] : commands) {
      if (command == cmd.name) {
        const std::optional<Flags> flags =
            parse_command_flags(cmd, argc, argv, 2);
        if (!flags) {
          return 0;
        }
        return with_own_params(cmd, *flags, [&](const Params& own) {
          return action(cmd, *flags, own);
        });
      }
    }
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
