// Phase-span tracing: RAII spans emitted into thread-local buffers and
// written out as Chrome trace-event JSON (load the file in
// chrome://tracing or https://ui.perfetto.dev).
//
// Every pipeline phase in Manthan3::synthesize (sample, learn, verify
// round, repair, MaxSAT round, refit, substitute) and every service
// boundary (job start, cache hit, race lanes) opens a Span; the span
// records {name, category, start, duration, thread, trace id} when
// it closes. Trace ids are derived from the canonical spec fingerprint,
// so all spans of one request correlate across threads — race lanes and
// scheduler workers included.
//
// Cost model: tracing is off by default and every Span construction is
// exactly one relaxed atomic load + branch while it stays off — cheap
// enough to leave instrumentation in release hot paths (phase-level, not
// per-propagation). When on, a span close is one steady-clock read and a
// push into a per-thread buffer guarded by an uncontended mutex (the
// owning thread is the only writer; the mutex exists so a concurrent
// trace write can snapshot safely).
//
// Buffers are bounded (kMaxEventsPerThread); once a thread fills its
// buffer, further events are dropped and counted — a daemon left tracing
// for days degrades to a truncated trace, never to unbounded memory.
//
// Timestamps come from util::monotonic_ns(), the same epoch the log
// prefix uses, so `[  12.345678] [T03] [DEBUG] …` lines line up with
// trace spans at ts≈12345678µs.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace manthan::obs {

namespace detail {
extern std::atomic<bool> g_trace_enabled;
}  // namespace detail

/// True while spans are being collected. The one branch every disabled
/// span pays.
inline bool tracing_enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Drop any buffered events and start collecting. Thread-safe.
void start_tracing();
/// Stop collecting; buffered events remain available for writing.
void stop_tracing();
/// Drop all buffered events (does not change the enabled flag).
void clear_trace();

/// Events currently buffered across all threads.
std::size_t trace_event_count();
/// Events dropped because a thread buffer hit kMaxEventsPerThread.
std::size_t trace_dropped_events();

/// Write everything buffered so far as Chrome trace-event JSON. May be
/// called while tracing is live (the daemon rewrites its trace file every
/// drain cycle); events are not consumed.
void write_trace_json(std::ostream& os);
/// write_trace_json via temp-file + rename.
bool write_trace_json_atomic(const std::string& path);

/// RAII span: records [construction, destruction) under `name`.
/// `name` and `category` must be string literals (or otherwise outlive
/// the trace) — events store the pointers, not copies.
class Span {
 public:
  explicit Span(const char* name, const char* category = "phase",
                std::uint64_t trace_id = 0) {
    if (tracing_enabled()) begin(name, category, trace_id);
  }
  ~Span() {
    if (active_) end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void begin(const char* name, const char* category, std::uint64_t trace_id);
  void end();

  bool active_ = false;
  const char* name_ = nullptr;
  const char* category_ = nullptr;
  std::uint64_t trace_id_ = 0;
  std::uint64_t start_ns_ = 0;
};

/// Zero-duration marker (Chrome "instant" event) — race-lane
/// cancellations, cache hits, drain-cycle boundaries.
void trace_instant(const char* name, const char* category = "event",
                   std::uint64_t trace_id = 0);

}  // namespace manthan::obs
