// Generic checkpointable shard/merge run driver (DESIGN.md §11).
//
// A simulator models its horizon as `steps` fixed time steps cut into
// chunks of `steps_per_chunk`, across one or more independent *shards*.
// The simulator supplies one pure function — the cell — that simulates
// chunk [begin, end) of one shard and returns a Partial; the driver owns
// everything around it:
//
//   * Segmentation: advance() runs up to `max_steps` steps, with the
//     segment end rounded UP to a chunk boundary (clipped to the horizon),
//     so the sequence of per-shard chunk folds — and therefore every byte
//     of the result — is independent of how a run is cut into segments.
//   * One task grid: a segment runs as (shard, chunk) tasks, numbered
//     shard-major, in waves of whole chunk columns holding at most
//     kMaxWaveTasks tasks (one column when there are more shards than
//     that). Each task is one exec chunk, so one deterministic obs track,
//     and copies its Partial's buffer into the wave's flat slot array; a
//     wave's memory is bounded whatever the segment's length.
//   * Deterministic merging: after each wave the caller folds every
//     shard's slots into its accumulator strictly in ascending chunk order,
//     one at a time — the exact left-to-right floating-point fold an
//     uninterrupted exec::parallel_reduce would produce, which is what
//     makes segmented and whole runs byte-identical.
//   * Snapshots: state_json()/parse_state() serialize (next_step, shard
//     buffers) through canonical JSON losslessly (shortest_double), under
//     a versioned schema string and an FNV-1a config digest
//     (engine/snapshot.h), so a killed run resumes in a fresh process to
//     the same bytes.
//
// The exec layer records no chunk span: a cell that wants one records its
// own over its chunk. A wave of fewer than kInlineSegmentSteps shard-steps
// runs its tasks inline on the caller.
//
// The Partial type must be default-constructible at merge identity and
// provide merge(const Partial&), buffer() -> a contiguous range of double
// (its size fixed by the Partial's shape), and
// set_buffer(std::span<const double>) copying into that shape (throwing on
// a size mismatch) — datacenter::FleetPartial is the canonical model.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <initializer_list>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "engine/snapshot.h"
#include "exec/parallel.h"
#include "obs/trace.h"
#include "report/json.h"

namespace sustainai::engine {

// Resumable run state: the exact shard accumulators after simulating steps
// [0, next_step), with next_step always on a chunk boundary (or the horizon
// end). Simulators with no extra state use this directly as their
// Checkpoint; ones with more (planet's series) embed the same fields.
template <typename Partial>
struct ShardState {
  long next_step = 0;
  std::vector<Partial> shards;
};

template <typename Partial>
class ShardedRun {
 public:
  struct Config {
    long steps = 0;
    long steps_per_chunk = 1;
    std::size_t shards = 1;
    exec::ThreadPool* pool = nullptr;  // nullptr => ThreadPool::global()
    double step_seconds = 0.0;  // sim-time scale for the obs spans
    // Error-message prefix, e.g. "planet checkpoint".
    const char* context = "checkpoint";
    // Optional span per advance(); nullptr emits none.
    const char* segment_span = nullptr;
  };

  // cell(shard, begin, end): simulate steps [begin, end) of `shard`. Tasks
  // run concurrently, so cells of one shard may meet on shared state.
  using CellFn = std::function<Partial(std::size_t, long, long)>;
  // observe(shard, chunk, partial): called per chunk before its merge,
  // serially, in ascending chunk order within each shard — a hook for
  // per-window series extraction.
  using ObserveFn = std::function<void(std::size_t, long, const Partial&)>;

  // Most (shard, chunk) tasks one wave holds, and so the most partial
  // buffers a segment keeps at once (unless the shards alone outnumber it):
  // a segment of millions of chunks folds in bounded memory, and every
  // task's obs track stays clear of the next wave's.
  static constexpr std::size_t kMaxWaveTasks = 4096;

  // A wave of fewer shard-steps than this runs its tasks inline on the
  // caller: a few thousand steps take microseconds, less than waking the
  // pool's helpers costs. The inline path records the same spans, tracks
  // and fold as the pooled one, so results and traces do not depend on it.
  static constexpr long kInlineSegmentSteps = 4096;

  ShardedRun() = default;

  explicit ShardedRun(Config config) : config_(std::move(config)) {
    require(config_.steps >= 1, "steps must be >= 1");
    require(config_.steps_per_chunk >= 1, "steps_per_chunk must be >= 1");
    require(config_.shards >= 1, "at least one shard is required");
  }

  [[nodiscard]] long steps() const { return config_.steps; }
  [[nodiscard]] long steps_per_chunk() const { return config_.steps_per_chunk; }
  [[nodiscard]] long chunk_count() const {
    return (config_.steps + config_.steps_per_chunk - 1) / config_.steps_per_chunk;
  }
  [[nodiscard]] bool done(long next_step) const {
    return next_step >= config_.steps;
  }

  // Fresh zeroed state at step 0 (Partial's default must be merge identity).
  [[nodiscard]] ShardState<Partial> start() const {
    ShardState<Partial> state;
    state.shards.resize(config_.shards);
    return state;
  }

  // Validates `begin` as a resumable position and returns the segment end
  // for an advance of up to `max_steps`: rounded up to a chunk boundary,
  // clipped to the horizon. begin == steps() returns steps() (no-op).
  [[nodiscard]] long segment_end(long begin, long max_steps) const {
    require(max_steps >= 1, "advance needs max_steps >= 1");
    require(begin >= 0 && begin <= config_.steps,
            "checkpoint step out of range");
    if (begin >= config_.steps) {
      return config_.steps;
    }
    require(begin % config_.steps_per_chunk == 0,
            "checkpoint not on a chunk boundary");
    const long cpc = config_.steps_per_chunk;
    const long c1 = (std::min(config_.steps, begin + max_steps) + cpc - 1) / cpc;
    return std::min(config_.steps, c1 * cpc);
  }

  // Advances `shards` from `next_step` by up to `max_steps` steps (rounded
  // up to a chunk boundary, clipped to the horizon), merging each chunk's
  // Partial into its shard accumulator in ascending chunk order.
  void advance(long& next_step, std::vector<Partial>& shards, long max_steps,
               const CellFn& cell, const ObserveFn& observe = {}) const {
    require(shards.size() == config_.shards, "checkpoint shard count mismatch");
    const long begin = next_step;
    const long end = segment_end(begin, max_steps);
    if (end <= begin) {
      return;
    }
    const long cpc = config_.steps_per_chunk;
    const long c1 = (end + cpc - 1) / cpc;
    const std::size_t n_shards = config_.shards;

    std::optional<obs::Span> segment_span;
    if (config_.segment_span != nullptr) {
      segment_span.emplace(config_.segment_span,
                           config_.step_seconds * static_cast<double>(begin),
                           config_.step_seconds * static_cast<double>(end));
    }

    // Shard r's slots: `width[r]` doubles a chunk, its chunks contiguous
    // after those of the shards before it.
    std::vector<std::size_t> width(n_shards);
    std::size_t column_width = 0;
    for (std::size_t r = 0; r < n_shards; ++r) {
      width[r] = shards[r].buffer().size();
      column_width += width[r];
    }
    const long columns = static_cast<long>(
        std::max<std::size_t>(1, kMaxWaveTasks / n_shards));
    std::vector<double> slots;
    std::vector<std::size_t> base(n_shards);

    for (long w0 = begin / cpc; w0 < c1; w0 += columns) {
      const long w1 = std::min(c1, w0 + columns);
      const auto cols = static_cast<std::size_t>(w1 - w0);
      slots.resize(cols * column_width);
      for (std::size_t r = 1; r < n_shards; ++r) {
        base[r] = base[r - 1] + cols * width[r - 1];
      }
      const auto task = [&](std::size_t t, std::size_t, std::size_t) {
        const std::size_t r = t / cols;
        const std::size_t k = t % cols;
        const long b = (w0 + static_cast<long>(k)) * cpc;
        const Partial partial = cell(r, b, std::min(config_.steps, b + cpc));
        const auto& buffer = partial.buffer();
        require(buffer.size() == width[r], "partial size mismatch");
        std::copy(buffer.begin(), buffer.end(),
                  slots.begin() + static_cast<std::ptrdiff_t>(base[r] + k * width[r]));
      };
      const exec::ChunkPlan plan = exec::plan_chunks(n_shards * cols, 1);
      const long wave_steps = std::min(end, w1 * cpc) - w0 * cpc;
      if (wave_steps < kInlineSegmentSteps &&
          static_cast<long>(n_shards) * wave_steps < kInlineSegmentSteps) {
        exec::run_chunks_inline(plan, task, /*record_chunk_span=*/false);
      } else {
        exec::run_chunks(config_.pool, plan, task, /*record_chunk_span=*/false);
      }

      for (std::size_t r = 0; r < n_shards; ++r) {
        Partial& acc = shards[r];
        Partial partial = acc;  // the shard's shape; each slot overwrites it
        for (std::size_t k = 0; k < cols; ++k) {
          partial.set_buffer(std::span<const double>(
              slots.data() + base[r] + k * width[r], width[r]));
          if (observe) {
            observe(r, w0 + static_cast<long>(k), partial);
          }
          acc.merge(partial);
        }
      }
    }
    next_step = end;
  }

  void advance(ShardState<Partial>& state, long max_steps, const CellFn& cell,
               const ObserveFn& observe = {}) const {
    advance(state.next_step, state.shards, max_steps, cell, observe);
  }

  // Lossless JSON image of (next_step, shards) under the envelope; the
  // shard buffers land under `shard_key`. Callers may append extra members
  // (planet adds "series") — parse_state ignores unknown keys.
  [[nodiscard]] report::JsonValue state_json(long next_step,
                                             const std::vector<Partial>& shards,
                                             const char* schema,
                                             const std::string& digest,
                                             const char* shard_key) const {
    require(shards.size() == config_.shards, "checkpoint shard count mismatch");
    report::JsonValue root = report::JsonValue::object();
    write_envelope(root, schema, digest);
    root.set("next_step",
             report::JsonValue::number(static_cast<double>(next_step)));
    report::JsonValue shard_array = report::JsonValue::array();
    for (const Partial& partial : shards) {
      report::JsonValue buffer = report::JsonValue::array();
      for (const double v : partial.buffer()) {
        buffer.append(report::JsonValue::number(v));
      }
      shard_array.append(std::move(buffer));
    }
    root.set(shard_key, std::move(shard_array));
    return root;
  }

  // Inverse of state_json, accepting any of `schemas` (a simulator that
  // reads older snapshot versions lists them all). `make(shard)` constructs
  // an empty Partial of the right shape for `shard`; its set_buffer
  // enforces the buffer size. Throws SnapshotDigestMismatch when only the
  // digest disagrees.
  template <typename MakeShard>
  [[nodiscard]] ShardState<Partial> parse_state(
      const report::JsonValue& value, std::initializer_list<const char*> schemas,
      const std::string& digest, const char* shard_key, MakeShard&& make) const {
    (void)check_envelope(value, schemas, digest, config_.context);

    const double next_d = require_number(value, "next_step", config_.context);
    // Range and integrality before the cast: casting a double outside
    // long's range is undefined.
    require(next_d >= 0.0 && next_d <= static_cast<double>(config_.steps) &&
                std::floor(next_d) == next_d,
            "next_step out of range");
    const long next_step = static_cast<long>(next_d);
    require(next_step == config_.steps ||
                next_step % config_.steps_per_chunk == 0,
            "next_step must be on a chunk boundary");

    const report::JsonValue& shard_array =
        require_member(value, shard_key, config_.context);
    require(shard_array.is_array() &&
                shard_array.items().size() == config_.shards,
            "shard count mismatch");

    ShardState<Partial> state;
    state.next_step = next_step;
    state.shards.reserve(config_.shards);
    for (std::size_t r = 0; r < config_.shards; ++r) {
      const report::JsonValue& buffer_json = shard_array.items()[r];
      require(buffer_json.is_array(), "shard buffer must be an array");
      std::vector<double> buffer;
      buffer.reserve(buffer_json.items().size());
      for (const report::JsonValue& v : buffer_json.items()) {
        require(v.is_number(), "shard buffer entries must be numbers");
        buffer.push_back(v.as_number());
      }
      Partial partial = make(r);
      partial.set_buffer(buffer);  // throws on a size mismatch
      state.shards.push_back(std::move(partial));
    }
    return state;
  }

  template <typename MakeShard>
  [[nodiscard]] ShardState<Partial> parse_state(const report::JsonValue& value,
                                                const char* schema,
                                                const std::string& digest,
                                                const char* shard_key,
                                                MakeShard&& make) const {
    return parse_state(value, {schema}, digest, shard_key,
                       std::forward<MakeShard>(make));
  }

 private:
  // Throws std::invalid_argument("<context>: <what>") when !ok. The message
  // is built only on failure: parse_state checks every buffer entry.
  void require(bool ok, const char* what) const {
    if (!ok) {
      throw std::invalid_argument(std::string(config_.context) + ": " + what);
    }
  }

  Config config_;
};

}  // namespace sustainai::engine
