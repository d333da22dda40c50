// The uniform simulation interface behind the scenario engine.
//
// Every registered simulation adapts one module's Config from a declarative
// scenario::Spec and returns a RunResult: printable summary rows, a
// structured JSON report in *base units* (joules, grams, seconds — so
// downstream consumers can reconstruct exact typed quantities), and
// optional CSV series. Simulations are stateless and deterministic: a fixed
// spec and RunContext produce the same RunResult at any SUSTAINAI_THREADS
// (the sims inherit the exec-layer determinism contract, exec/parallel.h).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "report/json.h"
#include "report/table.h"
#include "scenario/params.h"

namespace sustainai::scenario {

// Uniform checkpoint/resume request, honored by every simulation that
// advertises supports_checkpoint(). The run is split into segments; at each
// segment boundary the simulator's snapshot round-trips through canonical
// JSON (and is handed to `write_snapshot`, when set), so the path a killed
// and resumed run takes is exercised — byte-identical to an uninterrupted
// run by the engine checkpoint contract (DESIGN.md §11). A simulator with
// history (queue, planet) also seals the records each segment finished
// into one journal frame (engine/journal.h), handed to `append_journal`
// before the snapshot that names it.
struct CheckpointRequest {
  // Split the run into this many equal segments (1 = unsegmented). A
  // sim-level "checkpoint_segments" param may raise this further.
  long segments = 1;
  // Explicit steps per segment; overrides `segments` when > 0. Rounded up
  // to the simulator's chunk granule where one exists.
  long segment_steps = 0;
  // Stop (without finalizing) after this many segments; 0 runs to the end.
  // A stopped run yields a Bundle with `stopped` set and no result.json.
  long stop_after = 0;
  // Snapshot JSON to resume from instead of starting fresh. The embedded
  // config digest must match the spec's simulator configuration.
  std::string resume_text;
  // The journal bytes a live resume_text names (empty for a snapshot that
  // carries its records inline); bytes past the named prefix are ignored.
  std::string resume_journal;
  // Called with each non-empty journal frame, before the snapshot naming it.
  // Both callbacks may run inside the simulator's next advance(), on the
  // calling thread while the pool runs that segment's first region: they
  // must not call the simulator (its advance() and state_bytes() throw
  // std::logic_error there) nor open a parallel region.
  std::function<void(const std::string&)> append_journal;
  // Called with the canonical snapshot at every segment boundary.
  std::function<void(const std::string&)> write_snapshot;

  // Resumes from the checkpoint files at `resume` (when not empty) and
  // writes to `checkpoint` (when not empty): the snapshot and its
  // `.journal`, in engine::CheckpointWriter's commit order. This is what
  // `sustainai run --checkpoint --resume` does. Throws
  // std::invalid_argument when the files at `resume` cannot be read.
  [[nodiscard]] static CheckpointRequest on_disk(const std::string& checkpoint,
                                                 const std::string& resume);

  [[nodiscard]] bool active() const {
    return segments > 1 || segment_steps > 0 || stop_after > 0 ||
           !resume_text.empty() || static_cast<bool>(append_journal) ||
           static_cast<bool>(write_snapshot);
  }
};

// What one simulation run produced.
struct RunResult {
  std::string scenario;  // registry name of the simulation
  std::vector<std::string> summary_header;
  std::vector<std::vector<std::string>> summary_rows;
  // Machine-readable report; physical quantities in base units with
  // unit-suffixed keys (energy "…_j", carbon "…_g", time "…_s", power "…_w").
  report::JsonValue report = report::JsonValue::object();
  // Optional per-series CSV artifacts: (file stem, csv text). The Runner
  // writes each as "<stem>.csv" in the bundle.
  std::vector<std::pair<std::string, std::string>> csv_series;
  // Headline one-liners printed after the summary table ("IT energy: 1.2 GWh").
  std::vector<std::string> notes;
  // True when a CheckpointRequest's stop_after halted the run mid-flight.
  // Summary/report are incomplete; the snapshot written at the last segment
  // boundary is the resume handle.
  bool stopped = false;

  // The summary rendered as a fixed-width report::Table.
  [[nodiscard]] report::Table summary_table() const {
    report::Table t(summary_header);
    for (const std::vector<std::string>& row : summary_rows) {
      t.add_row(row);
    }
    return t;
  }
};

struct RunContext {
  // Thread pool for parallel sims; nullptr means exec::ThreadPool::global().
  exec::ThreadPool* pool = nullptr;
  // Base seed, taken from the spec's top-level "seed" (default 42). Sims
  // whose module defaults differ (fl_rounds) document their own seed params.
  std::uint64_t seed = 42;
  // Checkpoint/resume request; ignored unless active(). The Runner rejects
  // an active request against a sim without supports_checkpoint().
  CheckpointRequest checkpoint;
};

// A simulation is its name, description and param table (every param it
// accepts, with kind, default, range and doc), plus run().
class Simulation {
 public:
  Simulation(std::string name, std::string description,
             std::vector<ParamDoc> params, bool checkpointable = false)
      : name_(std::move(name)),
        description_(std::move(description)),
        params_(std::move(params)),
        checkpointable_(checkpointable) {}
  virtual ~Simulation() = default;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::string& description() const { return description_; }
  [[nodiscard]] const std::vector<ParamDoc>& params() const { return params_; }
  // True when the simulation honors RunContext::checkpoint (segmented
  // advance, canonical-JSON snapshots, resume).
  [[nodiscard]] bool supports_checkpoint() const { return checkpointable_; }

  // Runs the simulation. `params` is the spec's "params" object, checked
  // against params() (the Runner builds it); values out of a run-time bound
  // and unknown catalog names throw SpecError with the full JSON path.
  [[nodiscard]] virtual RunResult run(const Params& params,
                                      const RunContext& ctx) const = 0;

 private:
  std::string name_;
  std::string description_;
  std::vector<ParamDoc> params_;
  bool checkpointable_;
};

}  // namespace sustainai::scenario
