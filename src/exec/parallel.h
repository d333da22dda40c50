// Chunked parallel loops with bit-exact determinism.
//
// Contract (relied on by tests/exec_test.cc and every simulator built on
// this layer): the result of a parallel loop is byte-identical no matter how
// many worker threads execute it. Three rules make that hold:
//
//   1. Work over [0, n) is split into fixed chunks by ChunkPlan, a pure
//      function of (n, chunk_size) — never of thread count or load.
//   2. Each chunk writes only to its own output slot; any per-chunk
//      randomness must come from a forked stream, datagen::Rng::fork(chunk),
//      not from a shared generator.
//   3. parallel_reduce evaluates chunks concurrently but merges the partial
//      results strictly in ascending chunk order, so floating-point
//      accumulation order is fixed.
//
// The sequential path is the same chunked computation on one thread, so
// "parallel vs sequential" is a non-event: both are the identical fold.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"

namespace sustainai::exec {

// Fixed-size chunking of the index range [0, total).
struct ChunkPlan {
  std::size_t total = 0;
  std::size_t chunk_size = 1;

  [[nodiscard]] std::size_t num_chunks() const {
    return total == 0 ? 0 : (total + chunk_size - 1) / chunk_size;
  }

  struct Range {
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  // Half-open index range of chunk `c` (last chunk may be short).
  [[nodiscard]] Range chunk(std::size_t c) const;
};

// chunk_size == 0 picks a default from `total` alone (never thread count):
// enough chunks that any realistic pool load-balances, large enough that
// dispatch overhead stays negligible. A caller that needs chunk boundaries
// on an alignment block passes a chunk_size that is a multiple of it.
[[nodiscard]] ChunkPlan plan_chunks(std::size_t total, std::size_t chunk_size = 0);

// Process-wide monotonic counters over all parallel work; surfaced to
// telemetry consumers via telemetry::exec_work_counters(). counters() reads
// all work fields under one lock and every writer updates them in a single
// batched increment after its region completes, so a snapshot is internally
// consistent: it always reflects whole regions (never a region's chunk count
// without its item count).
struct CounterSnapshot {
  std::uint64_t parallel_regions = 0;  // completed run_chunks invocations
  std::uint64_t chunks_executed = 0;
  std::uint64_t items_processed = 0;   // sum of executed chunk sizes
  std::uint64_t pool_threads = 0;      // current global-pool worker count
  std::uint64_t pool_busy_ns = 0;      // cumulative global-pool task time
};
[[nodiscard]] CounterSnapshot counters();
void reset_counters();  // test hook

// Runs body(chunk_id, begin, end) for every chunk of `plan`, blocking until
// all chunks finish. `pool` of nullptr means ThreadPool::global(); the
// calling thread always participates, so nesting a region inside a pool
// worker cannot deadlock. It submits min(pool size, chunks - 1) helper
// tasks, so a pool of N >= 2 workers (SUSTAINAI_THREADS=N) runs a region on
// up to N + 1 threads: the helpers and the caller. With a 1-thread pool the
// chunks run inline on the caller in ascending order. The first exception
// thrown by `body` is rethrown after the region completes. While tracing, each chunk runs on
// its own track and records an exec.chunk span, unless `record_chunk_span`
// is false, for a body that records its own span over the chunk.
//
// `caller_job`, when set, runs once on the calling thread, on its own track
// and outside every chunk, after the helpers are submitted and before the
// caller drains chunks: serial work that overlaps the region instead of
// preceding it. Inline, it runs before the first chunk. The region still
// runs every chunk and joins them all when the job throws; the job's
// exception is then rethrown ahead of any chunk's.
void run_chunks(ThreadPool* pool, const ChunkPlan& plan,
                const std::function<void(std::size_t, std::size_t, std::size_t)>& body,
                bool record_chunk_span = true,
                const std::function<void()>& caller_job = {});

// The sequential path of run_chunks: every chunk inline on the caller in
// ascending order, with the same chunk spans, chunk tracks and work
// counters a parallel run records. For regions too small to be worth waking
// pool helpers for.
void run_chunks_inline(
    const ChunkPlan& plan,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body,
    bool record_chunk_span = true,
    const std::function<void()>& caller_job = {});

struct ParallelOptions {
  ThreadPool* pool = nullptr;  // nullptr => ThreadPool::global()
  std::size_t chunk_size = 0;  // 0 => plan_chunks() default
};

// fn(i) for every i in [0, n). fn must only write state owned by index i.
template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn, const ParallelOptions& options = {}) {
  run_chunks(options.pool, plan_chunks(n, options.chunk_size),
             [&fn](std::size_t, std::size_t begin, std::size_t end) {
               for (std::size_t i = begin; i < end; ++i) {
                 fn(i);
               }
             });
}

// Collects fn(i) into a vector in index order. The element type must be
// default-constructible (slots are pre-allocated, then overwritten).
template <typename Fn>
auto parallel_map(std::size_t n, Fn&& fn, const ParallelOptions& options = {})
    -> std::vector<std::decay_t<decltype(fn(std::size_t{}))>> {
  std::vector<std::decay_t<decltype(fn(std::size_t{}))>> out(n);
  run_chunks(options.pool, plan_chunks(n, options.chunk_size),
             [&fn, &out](std::size_t, std::size_t begin, std::size_t end) {
               for (std::size_t i = begin; i < end; ++i) {
                 out[i] = fn(i);
               }
             });
  return out;
}

// Ordered reduction: chunk_fn(begin, end, chunk_id) -> Acc partial, computed
// concurrently; partials are folded in ascending chunk order via
// merge(acc, partial). `init` must be the merge identity (it seeds the fold).
template <typename Acc, typename ChunkFn, typename MergeFn>
Acc parallel_reduce(std::size_t n, Acc init, ChunkFn&& chunk_fn, MergeFn&& merge,
                    const ParallelOptions& options = {}) {
  const ChunkPlan plan = plan_chunks(n, options.chunk_size);
  std::vector<Acc> partials(plan.num_chunks());
  run_chunks(options.pool, plan,
             [&chunk_fn, &partials](std::size_t c, std::size_t begin, std::size_t end) {
               partials[c] = chunk_fn(begin, end, c);
             });
  Acc acc = std::move(init);
  for (Acc& partial : partials) {
    acc = merge(std::move(acc), std::move(partial));
  }
  return acc;
}

}  // namespace sustainai::exec
