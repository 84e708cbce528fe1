// trace.h — hierarchical span tracing (a flight recorder).
//
// A TraceSpan is an RAII probe: construction timestamps the start,
// destruction writes one completed-span record into this thread's ring
// buffer. Parent/child nesting is carried by a thread-local
// active-span stack — a span opened while another is live records that
// span's id as its parent — so a drained trace reconstructs the call
// tree (serve.request → scenario.run → ltv.solve → qp.factorize).
//
// The recorder is built for always-on production use:
//   - per-thread ring buffers of kTraceRingCapacity slots, newest-wins
//     overwrite: memory is fixed, old spans fall off the back;
//   - zero allocation on the hot path: a thread's ring is acquired
//     once (first span on that thread) and slot writes are plain
//     relaxed atomic stores — rings are recycled through a free list
//     when threads exit, so churning session threads do not grow the
//     process;
//   - a kill switch like obs/metrics.h's: tracing is OFF by default
//     and costs one relaxed load per span; set_trace_enabled(true)
//     turns it on at runtime;
//   - TSan-clean concurrent draining: every slot field is an atomic,
//     so a TraceCollector may read while writers write. A record being
//     overwritten at that instant can mix fields of two spans — the
//     price of a lock-free flight recorder; drain at quiescence (end
//     of run, serve stats) for exact traces.
//
// TraceCollector drains the rings into Chrome trace-event JSON
// (schema "otem.trace.v1" — load the file in chrome://tracing or
// https://ui.perfetto.dev) or into per-name summaries (the serve
// `stats` method).
//
// All timestamps share obs::now_us()'s steady epoch, so spans emitted
// by different layers (and trace_emit() records made from timings the
// caller already took) nest consistently.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"

namespace otem::obs {

/// Runtime tracing switch (process-wide, default OFF — tracing is
/// opt-in, unlike metrics). Independent of obs::set_enabled.
bool trace_enabled();
void set_trace_enabled(bool on);

/// Slots per thread ring. 2048 spans outlives any single request's
/// span tree by a wide margin (~80 KiB per thread).
constexpr size_t kTraceRingCapacity = 2048;
/// Nesting deeper than this still records spans, but with parent 0.
constexpr size_t kTraceMaxDepth = 32;

/// One completed span as drained from a ring. `name` points at the
/// static string literal the span was created with.
struct SpanRecord {
  const char* name = nullptr;
  double ts_us = 0.0;   ///< start, obs::now_us() epoch
  double dur_us = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root span
  std::uint32_t tid = 0;     ///< stable per-ring thread id (1-based)
  std::uint32_t depth = 0;
};

/// RAII span. `name` MUST be a string literal (or otherwise outlive
/// every drain): rings store the pointer, not a copy.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (trace_enabled()) begin(name);
  }
  ~TraceSpan() {
    if (id_ != 0) finish();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  void begin(const char* name);
  void finish();

  const char* name_ = nullptr;
  double start_us_ = 0.0;
  std::uint64_t id_ = 0;  ///< 0 = inactive (tracing was off at entry)
  std::uint64_t parent_ = 0;
  std::uint32_t depth_ = 0;
};

/// Record an already-timed interval as a span under the current
/// thread's active span (no clock reads — for hot loops that timed the
/// interval anyway, like the simulator's sampled step timing).
void trace_emit(const char* name, double ts_us, double dur_us);

/// Reset every ring to empty. Call at quiescence (between runs); a
/// thread writing concurrently may keep a handful of spans.
void trace_reset();

/// Drains the per-thread rings. Stateless — each call reads the
/// current ring contents (the newest <= kTraceRingCapacity spans per
/// thread that ever traced).
class TraceCollector {
 public:
  /// All live span records, per-thread oldest-first.
  std::vector<SpanRecord> collect() const;

  /// Per-name aggregate over collect(), sorted by name.
  struct SpanSummary {
    std::string name;
    std::uint64_t count = 0;
    double total_us = 0.0;
    double max_us = 0.0;
  };
  std::vector<SpanSummary> summaries() const;

  /// Chrome trace-event JSON (schema "otem.trace.v1"): complete "X"
  /// events sorted by (tid, ts), args carrying id/parent/depth. ts is
  /// microseconds since the earliest exported span, so the earliest
  /// event reads 0. A span's exported id is its 1-based position in the
  /// events; parent is the enclosing span's exported id, 0 for a root
  /// span or when the parent's record was overwritten.
  Json to_chrome_json() const;

  /// to_chrome_json() + write to `path`; throws otem::SimError on I/O
  /// failure.
  void write_chrome_trace(const std::string& path) const;
};

}  // namespace otem::obs
