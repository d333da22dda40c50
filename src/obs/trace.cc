#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace sustainai::obs {

namespace {

// Per-thread recording state. The buffer is registered with the tracer on
// first use and owned by it, so collect() can read buffers of threads that
// have already exited; the thread keeps a plain pointer, so a record does
// not touch a reference count.
struct ThreadState {
  void* buffer = nullptr;  // actually Tracer::ThreadBuffer
  std::uint64_t track = kSerialTrack;
  std::uint64_t next_seq = 0;
  std::uint32_t depth = 0;
};

thread_local ThreadState t_state;

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Tracer::Tracer() : epoch_ns_(steady_ns()) {}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::now_ns() const { return steady_ns() - epoch_ns_; }

void Tracer::set_enabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buffer : buffers_) {
    buffer->spans.clear();
  }
  next_region_.store(0, std::memory_order_relaxed);
}

Tracer::ThreadBuffer& Tracer::local_buffer() {
  if (t_state.buffer == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    // Amortize the first growth steps: a traced run emits thousands of
    // spans per thread, so starting at a real capacity keeps early records
    // off the allocator.
    buffer->spans.reserve(256);
    buffer->thread_index =
        next_thread_index_.fetch_add(1, std::memory_order_relaxed);
    t_state.buffer = buffer.get();
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::move(buffer));
  }
  return *static_cast<ThreadBuffer*>(t_state.buffer);
}

void Tracer::record(SpanRecord&& rec) {
  // Lock-free: the buffer is thread-local, and the readers (collect, clear,
  // span_count) require quiescence — see the header contract — so no other
  // thread ever touches `spans` while a record is in flight.
  ThreadBuffer& buffer = local_buffer();
  rec.thread_index = buffer.thread_index;
  buffer.spans.push_back(std::move(rec));
}

std::vector<SpanRecord> Tracer::collect() const {
  std::vector<SpanRecord> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buffer : buffers_) {
      out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
    }
  }
  // Records land in buffers in close order; (track, seq) restores open
  // order per track, and the sort is what makes the merge deterministic.
  std::stable_sort(out.begin(), out.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     if (a.track != b.track) {
                       return a.track < b.track;
                     }
                     return a.seq < b.seq;
                   });
  return out;
}

std::size_t Tracer::span_count() const {
  std::size_t n = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buffer : buffers_) {
    n += buffer->spans.size();
  }
  return n;
}

Span::Span(const char* name) : active_(Tracer::global().enabled()) {
  if (!active_) {
    return;
  }
  Tracer& tracer = Tracer::global();
  rec_.name = name;
  rec_.track = t_state.track;
  rec_.seq = t_state.next_seq++;
  rec_.depth = t_state.depth++;
  rec_.wall_begin_ns = tracer.now_ns();
}

Span::Span(const char* name, double sim_begin_s, double sim_end_s)
    : Span(name) {
  sim_interval(sim_begin_s, sim_end_s);
}

Span::~Span() {
  if (!active_) {
    return;
  }
  Tracer& tracer = Tracer::global();
  rec_.wall_end_ns = tracer.now_ns();
  --t_state.depth;
  tracer.record(std::move(rec_));
}

void Span::sim_interval(double begin_s, double end_s) {
  if (!active_) {
    return;
  }
  rec_.sim_begin_s = begin_s;
  rec_.sim_end_s = end_s;
  rec_.has_sim = std::isfinite(begin_s) && std::isfinite(end_s);
}

void Span::label(const char* key, std::string value) {
  if (!active_) {
    return;
  }
  rec_.labels.emplace_back(key, std::move(value));
}

void Span::set_track(std::uint64_t track) {
  if (!active_) {
    return;
  }
  rec_.track = track;
}

TaskScope::TaskScope(std::uint64_t track)
    : active_(Tracer::global().enabled()) {
  if (!active_) {
    return;
  }
  saved_track_ = t_state.track;
  saved_seq_ = t_state.next_seq;
  saved_depth_ = t_state.depth;
  t_state.track = track;
  t_state.next_seq = 0;
  t_state.depth = 0;
}

TaskScope::~TaskScope() {
  if (!active_) {
    return;
  }
  t_state.track = saved_track_;
  t_state.next_seq = saved_seq_;
  t_state.depth = saved_depth_;
}

}  // namespace sustainai::obs
