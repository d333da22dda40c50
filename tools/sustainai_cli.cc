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
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "datacenter/planet_sim.h"
#include "datacenter/scheduler.h"
#include "engine/snapshot.h"
#include "mlcycle/model_zoo.h"
#include "report/table.h"
#include "scenario/runner.h"
#include "telemetry/model_card.h"
#include "telemetry/tracker.h"

namespace {

using namespace sustainai;

using Flags = std::map<std::string, std::string>;

GridProfile grid_by_name(const std::string& name) {
  std::optional<GridProfile> grid = grids::by_name(name);
  if (!grid.has_value()) {
    throw std::invalid_argument("unknown grid '" + name +
                                "'; available: " + grids::known_names());
  }
  return *grid;
}

hw::DeviceSpec device_by_name(const std::string& name) {
  std::optional<hw::DeviceSpec> device = hw::catalog::by_name(name);
  if (!device.has_value()) {
    throw std::invalid_argument("unknown device '" + name + "'; available: " +
                                hw::catalog::known_names());
  }
  return *device;
}

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

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::invalid_argument("cannot open '" + path + "' for writing");
  }
  out << content;
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
// Every subcommand that takes flags declares them in a Command table: the
// parser rejects flags not in it by name, `<cmd> --help` prints it, and
// unset flags read their default from it.

// One accepted flag. `param` is the spec param the value sets; a
// "regions[i]." param is set in every generated planet region. A flag
// without a param steers the run or generates params, and documents its
// own default ("" for none); `artifact` names the bundle file written to
// its path.
struct FlagDef {
  std::string name;  // without the leading "--"
  std::string param;
  bool number = true;  // a JSON number; otherwise text
  std::string default_value = {};
  std::string help = {};
  std::string artifact = {};
};

struct Command {
  std::string name;
  std::string scenario;  // registry name of the spec it builds, if any
  std::string summary;   // its line in the top-level usage
  std::vector<FlagDef> flags;
  std::string operand = {};  // positional argument before the flags, if any

  [[nodiscard]] const FlagDef* find(const std::string& flag) const {
    for (const FlagDef& f : flags) {
      if (f.name == flag) {
        return &f;
      }
    }
    return nullptr;
  }
  void add(const std::vector<FlagDef>& more) {
    flags.insert(flags.end(), more.begin(), more.end());
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
std::vector<FlagDef> run_flags(bool checkpointable) {
  std::vector<FlagDef> flags = {
      {"out", "", false, "",
       "write the artifact bundle (result.json, spec.json, ...) here"}};
  if (checkpointable) {
    flags.insert(
        flags.end(),
        {{"checkpoint", "", false, "",
          "write the snapshot here at every segment boundary"},
         {"resume", "", false, "",
          "resume from this snapshot (needs --checkpoint)"},
         {"segment-steps", "", true, "0",
          "steps per checkpointed segment (0 = from the segment count)"},
         {"stop-after", "", true, "0",
          "stop after this many segments (0 = run to the end)"}});
  }
  return flags;
}

Command run_command() {
  return {"run", "", "run a declarative JSON scenario spec", run_flags(true),
          "<scenario.json>"};
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
             {"grid", "grid.name", false}}};
  c.add(region_flags(""));
  c.add({{"trace", "", false, "", "write the sim-time Chrome trace here",
          "trace.json"},
         {"metrics", "", false, "", "write Prometheus metrics here",
          "metrics.prom"}});
  c.add(run_flags(true));
  return c;
}

Command planet_command() {
  Command c{"planet", "planet",
            "N region-fleets on cycling grids (a `planet` spec)",
            {{"regions", "", true, "8",
              "regions to generate, UTC offsets 3 h apart (at most " +
                  std::to_string(datacenter::PlanetSimulator::kMaxRegions) +
                  ")"},
             {"grids", "", true, "3",
              "distinct grids the regions cycle through (1 to 6)"},
             {"years", "years"},
             {"step-min", "step_min"},
             {"chunk-steps", "chunk_steps"}}};
  c.add(region_flags("regions[i]."));
  c.add(run_flags(true));
  return c;
}

Command fl_command() {
  Command c{"fl", "fl_rounds",
            "federated-learning campaign footprint (an `fl_rounds` spec)",
            {{"name", "name", false},
             {"clients", "clients_per_round"},
             {"rounds-per-day", "rounds_per_day"},
             {"days", "days"},
             {"model-mb", "model_mb"},
             {"compute-min", "compute_min"}}};
  c.add(run_flags(false));
  return c;
}

// The scenario param row `f` sets. A flag whose param the scenario does not
// declare is a program error.
const scenario::ParamDoc& declared_param(const Command& cmd,
                                         const FlagDef& f) {
  for (const scenario::ParamDoc& doc :
       scenario::Registry::global().require(cmd.scenario).params()) {
    if (doc.name == f.param) {
      return doc;
    }
  }
  throw std::logic_error("flag --" + f.name + " sets '" + f.param +
                         "', which `" + cmd.scenario + "` does not declare");
}

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
    if (f.param.empty()) {
      t.add_row({"--" + f.name, "-",
                 f.default_value.empty() ? "none" : f.default_value, "",
                 f.help});
      continue;
    }
    const scenario::ParamDoc& doc = declared_param(cmd, f);
    t.add_row({"--" + f.name, f.param, doc.default_text(), doc.range(),
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

// A flag's value as spec JSON: numbers through the strict JSON grammar
// (so "inf", "0x10" and "1e999" fail here), anything else as a string.
report::JsonValue flag_json(const FlagDef& f, const std::string& text) {
  if (!f.number) {
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

// A flag's text: the given value, else its table default. A flag `cmd`
// does not accept reads as "" (unset).
std::string text_flag(const Command& cmd, const Flags& flags,
                      const std::string& name) {
  const auto it = flags.find(name);
  if (it != flags.end()) {
    return it->second;
  }
  const FlagDef* f = cmd.find(name);
  return f == nullptr ? "" : f->default_value;
}

// A number flag's value, given or default; `name` must be in `cmd`'s table.
double number_flag(const Command& cmd, const Flags& flags,
                   const std::string& name) {
  return flag_json(*cmd.find(name), text_flag(cmd, flags, name)).as_number();
}

// A flag that is no spec param but must be a whole number in [min, max].
long whole_flag(const Command& cmd, const Flags& flags, const std::string& name,
                long min, long max) {
  const double v = number_flag(cmd, flags, name);
  if (v != std::floor(v) || v < static_cast<double>(min) ||
      v > static_cast<double>(max)) {
    throw std::invalid_argument(
        "--" + name + ": " + text_flag(cmd, flags, name) +
        " is not a whole number in [" + std::to_string(min) + ", " +
        std::to_string(max) + "]");
  }
  return static_cast<long>(v);
}

// --- estimate, schedule, model-card ---------------------------------------

// Upper bounds of the whole-count flags: past them a count fails by name
// instead of overflowing the int the accounting takes.
constexpr long kMaxDevices = 1000000;  // --count of estimate and model-card
constexpr long kMaxJobs = 10000;       // --jobs of schedule

// The accounting flags estimate and model-card share.
std::vector<FlagDef> accounting_flags(const char* default_count) {
  return {{"count", "", true, default_count,
           "accelerators in the job (at most " + std::to_string(kMaxDevices) +
               ")"},
          {"device", "", false, "v100", "accelerator (hardware catalog name)"},
          {"utilization", "", true, "0.5", "average accelerator utilization"},
          {"grid", "", false, "us-average", "grid profile (sustainai grids)"},
          {"pue", "", true, report::shortest_double(kHyperscalePue),
           "datacenter power usage effectiveness"},
          {"cfe", "", true, "0",
           "carbon-free energy coverage, for market-based carbon"},
          {"fleet-utilization", "", true, "0.45",
           "fleet utilization that amortizes embodied carbon"}};
}

Command estimate_command() {
  Command c{"estimate", "", "carbon impact statement for a training run",
            {{"gpu-days", "", true, "100",
              "accelerator-days of training, split over --count"}}};
  c.add(accounting_flags("1"));
  c.add({{"name", "", false, "cli-estimate", "name in the statement"}});
  return c;
}

int cmd_estimate(const Command& cmd, const Flags& flags) {
  const double gpu_days = number_flag(cmd, flags, "gpu-days");
  const long count = whole_flag(cmd, flags, "count", 1, kMaxDevices);
  const double utilization = number_flag(cmd, flags, "utilization");
  const hw::DeviceSpec device = device_by_name(text_flag(cmd, flags, "device"));
  const GridProfile grid = grid_by_name(text_flag(cmd, flags, "grid"));

  telemetry::CarbonTracker tracker(
      {OperationalCarbonModel(number_flag(cmd, flags, "pue"), grid,
                              number_flag(cmd, flags, "cfe")),
       number_flag(cmd, flags, "fleet-utilization")});
  tracker.record_device_use(Phase::kTraining, device, utilization,
                            days(gpu_days / static_cast<double>(count)),
                            static_cast<int>(count));
  std::printf(
      "%s",
      tracker.impact_statement(text_flag(cmd, flags, "name")).c_str());
  return 0;
}

Command schedule_command() {
  return {"schedule", "", "compare carbon-aware scheduling policies",
          {{"jobs", "", true, "24",
            "batch jobs, one arriving each hour of a day (at most " +
                std::to_string(kMaxJobs) + ")"},
           {"power-kw", "", true, "22.4", "power draw of every job"},
           {"duration-h", "", true, "4", "run time of every job"},
           {"slack-h", "", true, "20", "how long a job may be deferred"},
           {"threshold-g-per-kwh", "", true, "200",
            "the threshold policy runs jobs at or below this intensity"},
           {"grid", "", false, "us-west-solar", "grid profile (sustainai grids)"},
           {"solar-share", "", true, "0.5", "solar share of the grid mix"},
           {"wind-share", "", true, "0.15", "wind share of the grid mix"},
           {"firm-share", "", true, "0.1",
            "firm carbon-free share of the grid mix"}}};
}

int cmd_schedule(const Command& cmd, const Flags& flags) {
  using namespace sustainai::datacenter;
  IntermittentGrid::Config grid_cfg;
  grid_cfg.profile = grid_by_name(text_flag(cmd, flags, "grid"));
  grid_cfg.solar_share = number_flag(cmd, flags, "solar-share");
  grid_cfg.wind_share = number_flag(cmd, flags, "wind-share");
  grid_cfg.firm_share = number_flag(cmd, flags, "firm-share");
  const IntermittentGrid grid(grid_cfg);

  const long num_jobs = whole_flag(cmd, flags, "jobs", 1, kMaxJobs);
  BatchJob job;
  job.power = kilowatts(number_flag(cmd, flags, "power-kw"));
  job.duration = hours(number_flag(cmd, flags, "duration-h"));
  job.slack = hours(number_flag(cmd, flags, "slack-h"));
  std::vector<BatchJob> jobs;
  for (long i = 0; i < num_jobs; ++i) {
    job.id = "job-" + std::to_string(i);
    job.arrival = hours(static_cast<double>(i % 24));
    jobs.push_back(job);
  }

  const FifoPolicy fifo;
  const ThresholdPolicy threshold(
      grams_per_kwh(number_flag(cmd, flags, "threshold-g-per-kwh")));
  const ForecastPolicy forecast;
  report::Table t({"policy", "carbon", "mean delay (h)", "peak power"});
  for (const SchedulerPolicy* p :
       std::initializer_list<const SchedulerPolicy*>{&fifo, &threshold,
                                                     &forecast}) {
    const ScheduleResult r = run_schedule(jobs, grid, *p);
    t.add_row({r.policy_name, to_string(r.total_carbon),
               report::fmt(to_hours(r.mean_delay)),
               to_string(r.peak_concurrent_power)});
  }
  std::printf("%s", t.to_string().c_str());
  return 0;
}

Command model_card_command() {
  Command c{"model-card", "",
            "render the carbon section of a model card (markdown)",
            {{"name", "", false, "my-model", "model name"},
             {"description", "", false, "", "one-line model description"},
             {"runtime-days", "", true, "7", "training wall-clock days"}}};
  c.add(accounting_flags("8"));
  c.add({{"predictions-per-day", "", true, "0",
          "serving volume (0 = not deployed)"},
         {"joules-per-prediction", "", true, "0.001",
          "serving energy per prediction"}});
  return c;
}

int cmd_model_card(const Command& cmd, const Flags& flags) {
  telemetry::ModelCardInput in{
      text_flag(cmd, flags, "name"),
      text_flag(cmd, flags, "description"),
      device_by_name(text_flag(cmd, flags, "device")),
      static_cast<int>(whole_flag(cmd, flags, "count", 1, kMaxDevices)),
      days(number_flag(cmd, flags, "runtime-days")),
      number_flag(cmd, flags, "utilization"),
      OperationalCarbonModel(number_flag(cmd, flags, "pue"),
                             grid_by_name(text_flag(cmd, flags, "grid")),
                             number_flag(cmd, flags, "cfe")),
      number_flag(cmd, flags, "fleet-utilization"),
      number_flag(cmd, flags, "predictions-per-day"),
      joules(number_flag(cmd, flags, "joules-per-prediction"))};
  std::printf("%s", telemetry::render_model_card(in).c_str());
  return 0;
}

// --- run, fleet, planet, fl -----------------------------------------------

// Sets in `node` every given flag whose param starts with `prefix` (the
// prefix stripped), creating the objects on its dotted path. Params under
// a further "[i]" belong to a nested call.
void set_params(report::JsonValue& node, const Command& cmd,
                const Flags& flags, const std::string& prefix) {
  for (const FlagDef& f : cmd.flags) {
    const auto it = flags.find(f.name);
    if (it == flags.end() || f.param.empty() ||
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
    at->set(path.substr(start), flag_json(f, it->second));
  }
}

// Deterministic built-in planet: `--regions` fleets cycling over `--grids`
// distinct grid profiles (same profile + same seed => one shared memoized
// IntensityTable) with UTC offsets marching around the globe in 3-hour
// increments. The count is checked before any region is generated.
report::JsonValue planet_regions(const Command& cmd, const Flags& flags) {
  using report::JsonValue;
  static const char* kGridCycle[] = {"us-west-solar",   "us-average",
                                     "nordic-hydro",    "asia-pacific",
                                     "us-midwest-coal", "hydro-quebec"};
  const long regions = whole_flag(
      cmd, flags, "regions", 1,
      static_cast<long>(datacenter::PlanetSimulator::kMaxRegions));
  const long grids = whole_flag(cmd, flags, "grids", 1, 6);
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
    set_params(region, cmd, flags, "regions[i].");
    list.append(std::move(region));
  }
  return list;
}

// Runs `spec` per `cmd`'s flags: checkpoint and resume, the summary on
// stdout, the bundle under --out, artifacts at their flags' paths. A
// SpecError at a flag's param names the flag. Returns the exit status.
int run_spec(const scenario::Spec& spec, const Command& cmd,
             const Flags& flags) {
  const std::string checkpoint = text_flag(cmd, flags, "checkpoint");
  const std::string resume = text_flag(cmd, flags, "resume");
  if (!resume.empty() && checkpoint.empty()) {
    throw std::invalid_argument(
        "--resume requires --checkpoint (the path further snapshots are "
        "written to); pass --checkpoint " +
        resume + " to continue updating the same file");
  }
  constexpr long kMaxSteps = 1L << 40;
  scenario::CheckpointRequest request;
  if (cmd.find("segment-steps") != nullptr) {  // a checkpointable scenario
    request.segment_steps =
        whole_flag(cmd, flags, "segment-steps", 0, kMaxSteps);
    request.stop_after = whole_flag(cmd, flags, "stop-after", 0, kMaxSteps);
  }
  if (!resume.empty()) {
    std::string text;
    try {
      text = read_text_file(resume);
    } catch (const std::exception&) {
      throw std::invalid_argument("cannot resume: checkpoint file '" + resume +
                                  "' is missing or unreadable");
    }
    try {
      request.resume_text = report::canonical_json(report::parse_json(text));
    } catch (const report::JsonParseError& e) {
      throw std::invalid_argument(
          "cannot resume from '" + resume + "': not valid JSON (" +
          std::string(e.what()) +
          "); the checkpoint file may be truncated or corrupt");
    }
  }
  if (!checkpoint.empty()) {
    request.write_snapshot = [&checkpoint](const std::string& snapshot) {
      write_text_file(checkpoint, snapshot + "\n");
    };
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
    const std::string what = e.what();
    for (const FlagDef& f : cmd.flags) {
      if (f.param.empty()) {
        continue;
      }
      // Every generated region holds the same value; region 0 fails first.
      std::string path = "$.params." + f.param + ":";
      if (const std::size_t i = path.find("[i]"); i != std::string::npos) {
        path.replace(i, 3, "[0]");
      }
      if (what.rfind(path, 0) == 0) {
        throw std::invalid_argument("--" + f.name + ": " + what);
      }
    }
    throw;
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
  const std::string out_dir = text_flag(cmd, flags, "out");
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
      write_text_file(flags.at(f.name), artifact->content);
      std::printf("wrote %s to %s\n", f.artifact.c_str(),
                  flags.at(f.name).c_str());
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
  return run_spec(scenario::Spec::parse(read_text_file(argv[2])), cmd,
                  *flags);
}

// `fleet`, `planet`, `fl`: flags -> spec -> run_spec.
int cmd_translate(const Command& cmd, const Flags& flags) {
  using report::JsonValue;
  JsonValue spec = JsonValue::object();
  spec.set("scenario", JsonValue::string(cmd.scenario));
  JsonValue params = JsonValue::object();
  set_params(params, cmd, flags, "");
  if (cmd.scenario == "planet") {
    params.set("regions", planet_regions(cmd, flags));
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
  return run_spec(scenario::Spec::from_value(std::move(spec)), cmd, flags);
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
    using Action = int (*)(const Command&, const Flags&);
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
        return flags ? action(cmd, *flags) : 0;
      }
    }
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
