// The scenario Runner: spec in, self-describing artifact bundle out.
//
// A top-level scenario spec is a JSON object naming a registered
// "scenario", its "params" (checked against the simulation's param table),
// and optionally a base "seed", "checkpoint_segments" and the extra
// "artifacts" {trace, metrics}; runner.cc declares these keys in the same
// table form.
//
// Runner::run executes the named simulation and assembles the bundle
// in-memory: `result.json` (canonical JSON, base-unit report), `spec.json`
// (the spec re-emitted canonically — parsing it back yields an equivalent
// run), any CSV series, and the optional trace/metrics exports. Everything
// in the bundle is a pure function of (spec, seed): for a fixed spec the
// bundle is byte-identical at any SUSTAINAI_THREADS (tests/scenario_test.cc
// asserts this for the fleet preset at 1/2/8 threads).
#pragma once

#include <string>
#include <vector>

#include "exec/thread_pool.h"
#include "scenario/registry.h"

namespace sustainai::scenario {

// One bundle file, held in memory so tests can compare bundles without
// touching the filesystem.
struct Artifact {
  std::string filename;
  std::string content;
};

struct Bundle {
  RunResult result;
  std::vector<Artifact> files;

  // True when the run exhausted its fault-injection retry budget. The
  // bundle then carries `error.json` + `spec.json` instead of
  // `result.json`, so a batch of scenarios degrades gracefully: the failed
  // run is recorded on disk and sibling scenarios still execute.
  bool failed = false;

  // True when a CheckpointRequest's stop_after halted the run at a segment
  // boundary. The bundle carries `spec.json` (plus trace/metrics if
  // requested) but no `result.json`; the snapshot handed to
  // `write_snapshot` is the resume handle.
  bool stopped = false;

  // nullptr when the bundle has no file named `filename`.
  [[nodiscard]] const Artifact* find(const std::string& filename) const;
};

class Runner {
 public:
  explicit Runner(const Registry& registry = Registry::global());

  // Validates the top-level spec, runs the named simulation, and returns
  // the full bundle. `pool` overrides the exec pool (nullptr means
  // exec::ThreadPool::global()). Throws SpecError on schema problems and
  // std::invalid_argument on unknown scenario names, or when `checkpoint`
  // is active for a simulation without supports_checkpoint(). The spec's
  // optional top-level "checkpoint_segments" raises checkpoint.segments
  // when the caller didn't set one.
  [[nodiscard]] Bundle run(const Spec& spec, exec::ThreadPool* pool = nullptr,
                           const CheckpointRequest& checkpoint = {}) const;

  // Convenience: parse + run.
  [[nodiscard]] Bundle run_text(std::string_view spec_text,
                                exec::ThreadPool* pool = nullptr,
                                const CheckpointRequest& checkpoint = {}) const;

  // Writes every artifact into `dir` (created if missing). Returns false
  // and sets `*error` on I/O failure.
  static bool write(const Bundle& bundle, const std::string& dir,
                    std::string* error);

 private:
  const Registry* registry_;
};

}  // namespace sustainai::scenario
