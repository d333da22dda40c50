// Deterministic span tracing for the simulators (Section V-A telemetry,
// turned inward on our own hot paths).
//
// Spans are RAII objects carrying a name, optional labels, a wall-clock
// interval, and an optional *simulated-time* interval. They are recorded
// into per-thread buffers and merged into one deterministic order: every
// span carries a (track, seq) key, where `track` is a logical lane that is
// independent of the thread scheduler (kSerialTrack for serial program
// flow, a region/chunk-derived id inside exec parallel regions — see
// TaskScope — or an explicit per-entity lane via Span::set_track) and
// `seq` is the emission index within the emitting thread. Sorting by
// (track, seq) therefore yields the same span list at any value of
// SUSTAINAI_THREADS, which is what makes the sim-time Chrome-trace export
// byte-identical across thread counts (tests/obs_test.cc).
//
// Determinism contract (relied on by obs_test.cc):
//   1. Track-0 (serial) spans must be emitted from serial program flow.
//   2. Inside a parallel region, spans must be emitted under a TaskScope
//      whose track is a pure function of (region, chunk) — exec::run_chunks
//      installs one per chunk automatically when tracing is enabled.
//   3. Parallel regions must start serially (true for every simulator here;
//      nested regions still trace but without the byte-identity guarantee).
//   4. Tracer::clear() resets the region allocator, so repeated runs from a
//      cleared tracer produce identical track ids.
//
// Overhead contract: when the tracer is disabled (the default), a Span
// costs one relaxed atomic load and a branch — no allocation, no lock, no
// clock read. Hot paths therefore stay instrumented unconditionally; the
// `fleet_step_tracer_off` benchmark in bench/perf_harness guards this.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace sustainai::obs {

// Ordered key/value annotations; also used by the metrics registry.
using Labels = std::vector<std::pair<std::string, std::string>>;

// Serial program flow records on this track.
inline constexpr std::uint64_t kSerialTrack = 0;
// Simulators may pin per-entity lanes (e.g. one per queued job) at or above
// this base via Span::set_track; it is disjoint from chunk_track() values.
inline constexpr std::uint64_t kUserTrackBase = std::uint64_t{1} << 48;

// Track id of chunk `chunk` of parallel region `region` (regions count from
// 1 via Tracer::next_region_id, so these never collide with kSerialTrack).
[[nodiscard]] constexpr std::uint64_t chunk_track(std::uint64_t region,
                                                  std::uint64_t chunk) {
  return (region << 20) + chunk + 1;
}

// One finished span. `sim_begin_s`/`sim_end_s` are NaN when the span has no
// simulated-time interval; wall fields and `thread_index` are diagnostics
// only and are excluded from deterministic exports.
struct SpanRecord {
  std::string name;
  Labels labels;
  std::uint64_t track = kSerialTrack;
  std::uint64_t seq = 0;
  std::uint32_t depth = 0;
  double sim_begin_s = 0.0;
  double sim_end_s = 0.0;
  bool has_sim = false;
  std::uint64_t wall_begin_ns = 0;
  std::uint64_t wall_end_ns = 0;
  int thread_index = 0;
};

// Process-wide span sink. Disabled by default; near-zero overhead while
// disabled (see file comment).
class Tracer {
 public:
  static Tracer& global();

  void set_enabled(bool on);
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  // Drops every recorded span and resets the deterministic region allocator.
  // Call between traced runs that must produce identical exports. Requires
  // quiescence (see collect).
  void clear();

  // Merged deterministic view of all per-thread buffers, stably sorted by
  // (track, seq). The caller must ensure no span is concurrently being
  // recorded (quiescence); the simulators satisfy this by collecting only
  // after run() returns — exec::run_chunks blocks until every chunk has
  // finished, so the calling thread is a natural quiescent point. record()
  // relies on this contract to append to its thread-local buffer without a
  // lock (the per-record mutex was the bulk of tracer-on overhead on the
  // fleet hot lane).
  [[nodiscard]] std::vector<SpanRecord> collect() const;

  // Number of spans currently buffered (post-merge count of collect()).
  // Requires quiescence (see collect).
  [[nodiscard]] std::size_t span_count() const;

  // Next parallel-region ordinal, counting from 1. Deterministic as long as
  // regions start serially (contract point 3 above).
  std::uint64_t next_region_id() {
    return next_region_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  // Internal: appends a finished record to the calling thread's buffer.
  // Lock-free — safe because buffers are thread-local for writes and the
  // cross-thread readers (collect/clear/span_count) require quiescence.
  void record(SpanRecord&& rec);

  // Nanoseconds since the tracer singleton was created (steady clock).
  [[nodiscard]] std::uint64_t now_ns() const;

 private:
  struct ThreadBuffer {
    std::vector<SpanRecord> spans;
    int thread_index = 0;
  };

  Tracer();
  ThreadBuffer& local_buffer();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_region_{0};
  std::atomic<int> next_thread_index_{0};
  std::uint64_t epoch_ns_ = 0;
  mutable std::mutex mu_;  // guards buffers_ registration and collect()
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

// RAII span over Tracer::global(). The ordering key is taken at
// construction (emission order); the record is published at destruction.
class Span {
 public:
  explicit Span(const char* name);
  Span(const char* name, double sim_begin_s, double sim_end_s);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Attaches/overwrites the simulated-time interval.
  void sim_interval(double begin_s, double end_s);
  // Appends a label. Argument evaluation is not elided when tracing is
  // disabled — keep label construction off per-step hot loops.
  void label(const char* key, std::string value);
  // Moves the span onto an explicit deterministic lane (kUserTrackBase+i).
  void set_track(std::uint64_t track);

  [[nodiscard]] bool active() const { return active_; }

 private:
  bool active_;
  SpanRecord rec_;
};

// Marks the enclosing scope as deterministic track `track` (one exec chunk):
// saves the thread's (track, seq, depth) state, zeroes seq/depth for the
// chunk, and restores on exit. Installed by exec::run_chunks per chunk.
class TaskScope {
 public:
  explicit TaskScope(std::uint64_t track);
  ~TaskScope();

  TaskScope(const TaskScope&) = delete;
  TaskScope& operator=(const TaskScope&) = delete;

 private:
  bool active_;
  std::uint64_t saved_track_ = 0;
  std::uint64_t saved_seq_ = 0;
  std::uint32_t saved_depth_ = 0;
};

}  // namespace sustainai::obs
