#include "exec/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>

#include "obs/trace.h"

namespace sustainai::exec {

namespace {

// All work counters live behind one mutex so a CounterSnapshot is internally
// consistent: counters() copies the whole struct under the same lock every
// writer holds. Writers batch their updates (once per inline region, once
// per worker drain) so the lock is never taken per chunk body.
struct WorkTotals {
  std::uint64_t parallel_regions = 0;
  std::uint64_t chunks_executed = 0;
  std::uint64_t items_processed = 0;
};
std::mutex g_totals_mu;
WorkTotals g_totals;

void add_totals(std::uint64_t regions, std::uint64_t chunks,
                std::uint64_t items) {
  std::lock_guard<std::mutex> lock(g_totals_mu);
  g_totals.parallel_regions += regions;
  g_totals.chunks_executed += chunks;
  g_totals.items_processed += items;
}

// When tracing, each chunk runs under a TaskScope whose track is a pure
// function of (region ordinal, chunk id) — that is what keeps span order
// independent of which worker thread runs which chunk (see obs/trace.h).
// Returns the new region's ordinal, or 0 while tracing is off (ordinals
// count from 1).
std::uint64_t next_trace_region() {
  obs::Tracer& tracer = obs::Tracer::global();
  return tracer.enabled() ? tracer.next_region_id() : 0;
}

}  // namespace

ChunkPlan::Range ChunkPlan::chunk(std::size_t c) const {
  const std::size_t begin = c * chunk_size;
  return {begin, std::min(total, begin + chunk_size)};
}

ChunkPlan plan_chunks(std::size_t total, std::size_t chunk_size) {
  ChunkPlan plan;
  plan.total = total;
  plan.chunk_size = chunk_size > 0 ? chunk_size
                                   : std::max<std::size_t>(1, total / 256);
  return plan;
}

CounterSnapshot counters() {
  CounterSnapshot s;
  {
    std::lock_guard<std::mutex> lock(g_totals_mu);
    s.parallel_regions = g_totals.parallel_regions;
    s.chunks_executed = g_totals.chunks_executed;
    s.items_processed = g_totals.items_processed;
  }
  ThreadPool& pool = ThreadPool::global();
  s.pool_threads = static_cast<std::uint64_t>(pool.size());
  s.pool_busy_ns = pool.total_busy_ns();
  return s;
}

void reset_counters() {
  std::lock_guard<std::mutex> lock(g_totals_mu);
  g_totals = WorkTotals{};
}

void run_chunks_inline(
    const ChunkPlan& plan,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body,
    bool record_chunk_span) {
  const std::size_t num_chunks = plan.num_chunks();
  if (num_chunks == 0) {
    return;
  }
  const std::uint64_t trace_region = next_trace_region();
  const bool traced = trace_region != 0;
  std::exception_ptr error;
  for (std::size_t c = 0; c < num_chunks; ++c) {
    const ChunkPlan::Range r = plan.chunk(c);
    try {
      if (traced) {
        obs::TaskScope scope(obs::chunk_track(trace_region, c));
        std::optional<obs::Span> span;
        if (record_chunk_span) {
          span.emplace("exec.chunk");
        }
        body(c, r.begin, r.end);
      } else {
        body(c, r.begin, r.end);
      }
    } catch (...) {
      if (error == nullptr) {
        error = std::current_exception();
      }
    }
  }
  add_totals(1, num_chunks, plan.total);
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

void run_chunks(ThreadPool* pool, const ChunkPlan& plan,
                const std::function<void(std::size_t, std::size_t, std::size_t)>& body,
                bool record_chunk_span) {
  const std::size_t num_chunks = plan.num_chunks();
  if (num_chunks == 0) {
    return;
  }

  ThreadPool& executor = pool != nullptr ? *pool : ThreadPool::global();
  // Chunks run inline in ascending order when parallelism cannot help; this
  // is the canonical sequential path the parallel one must match bit-exactly.
  if (executor.size() <= 1 || num_chunks == 1) {
    run_chunks_inline(plan, body, record_chunk_span);
    return;
  }

  const std::uint64_t trace_region = next_trace_region();
  const bool traced = trace_region != 0;

  // Shared by the caller and the helper tasks; shared_ptr because a helper
  // may wake after every chunk has been claimed (and run_chunks returned).
  struct Region {
    explicit Region(const ChunkPlan& p,
                    std::function<void(std::size_t, std::size_t, std::size_t)> b,
                    bool traced_in, std::uint64_t trace_region_in,
                    bool record_chunk_span_in)
        : plan(p),
          body(std::move(b)),
          traced(traced_in),
          trace_region(trace_region_in),
          record_chunk_span(record_chunk_span_in) {}
    ChunkPlan plan;
    std::function<void(std::size_t, std::size_t, std::size_t)> body;
    bool traced;
    std::uint64_t trace_region;
    bool record_chunk_span;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex mu;
    std::condition_variable cv;
    std::exception_ptr error;  // first failure only; guarded by mu
  };
  auto region = std::make_shared<Region>(plan, body, traced, trace_region,
                                         record_chunk_span);

  auto drain = [region] {
    const std::size_t total_chunks = region->plan.num_chunks();
    for (;;) {
      const std::size_t c = region->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= total_chunks) {
        return;
      }
      const ChunkPlan::Range r = region->plan.chunk(c);
      try {
        if (region->traced) {
          obs::TaskScope scope(
              obs::chunk_track(region->trace_region, c));
          std::optional<obs::Span> span;
          if (region->record_chunk_span) {
            span.emplace("exec.chunk");
          }
          region->body(c, r.begin, r.end);
        } else {
          region->body(c, r.begin, r.end);
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(region->mu);
        if (region->error == nullptr) {
          region->error = std::current_exception();
        }
      }
      if (region->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          total_chunks) {
        std::lock_guard<std::mutex> lock(region->mu);
        region->cv.notify_all();
      }
    }
  };

  const std::size_t helpers =
      std::min(static_cast<std::size_t>(executor.size()), num_chunks - 1);
  for (std::size_t i = 0; i < helpers; ++i) {
    executor.submit(drain);
  }
  drain();  // the caller participates, so nested regions cannot deadlock

  std::unique_lock<std::mutex> lock(region->mu);
  region->cv.wait(lock, [&region, num_chunks] {
    return region->done.load(std::memory_order_acquire) == num_chunks;
  });
  lock.unlock();
  // One batched update per region, taken only after every chunk has run: a
  // counter snapshot therefore always reflects whole completed regions.
  add_totals(1, num_chunks, plan.total);
  if (region->error != nullptr) {
    std::rethrow_exception(region->error);
  }
}

}  // namespace sustainai::exec
