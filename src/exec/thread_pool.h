// Worker-thread pool for the deterministic parallel loops in exec/parallel.h.
//
// The pool itself is a plain task queue; all determinism guarantees live in
// the chunked loop layer on top (see parallel.h). Simulators accept an
// optional `ThreadPool*` and fall back to the process-wide pool, whose size
// is the SUSTAINAI_THREADS environment variable when set, otherwise
// std::thread::hardware_concurrency().
//
// The size is the worker count, not the number of running threads:
// run_chunks (parallel.h) submits min(size(), chunks - 1) helpers and the
// calling thread drains chunks too, so a pool of N >= 2 runs up to N + 1
// threads at once, and a pool of 1 runs every region inline on the caller.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace sustainai::exec {

// Worker count used for ThreadPool::global(): SUSTAINAI_THREADS when set to
// a positive integer, otherwise hardware concurrency (at least 1).
[[nodiscard]] int default_thread_count();

class ThreadPool {
 public:
  // Spawns `num_threads` >= 1 workers.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  // Enqueues a task for execution on some worker. Tasks must not throw;
  // parallel loops capture exceptions inside the task body themselves.
  void submit(std::function<void()> task);

  // Cumulative wall time worker `i` has spent inside tasks, in nanoseconds.
  // Busy time is telemetry, not part of any determinism contract.
  [[nodiscard]] std::uint64_t busy_ns(int i) const;

  // Sum of busy_ns over all workers.
  [[nodiscard]] std::uint64_t total_busy_ns() const;

  // The process-wide pool, created on first use with default_thread_count()
  // workers and destroyed at exit.
  static ThreadPool& global();

 private:
  void worker_loop(std::size_t worker_index);

  std::vector<std::thread> workers_;
  // unique_ptr keeps addresses stable; each worker updates only its own slot.
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> busy_ns_;
  std::deque<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace sustainai::exec
