#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "obs/timer.h"

namespace otem::obs {

namespace {
std::atomic<bool> g_trace_enabled{false};
}  // namespace

bool trace_enabled() {
  return g_trace_enabled.load(std::memory_order_relaxed);
}
void set_trace_enabled(bool on) {
  g_trace_enabled.store(on, std::memory_order_relaxed);
}

namespace {

/// One ring slot. Every field is an atomic so a collector may read
/// while the owner thread overwrites — a torn record mixes two spans'
/// fields, never produces an invalid pointer or a half-written double.
struct Slot {
  std::atomic<const char*> name{nullptr};
  std::atomic<double> ts{0.0};
  std::atomic<double> dur{0.0};
  std::atomic<std::uint64_t> id{0};
  std::atomic<std::uint64_t> parent{0};
  std::atomic<std::uint32_t> depth{0};
};

struct ThreadRing {
  explicit ThreadRing(std::uint32_t tid_) : tid(tid_) {}
  const std::uint32_t tid;
  std::atomic<bool> in_use{false};
  /// Total records ever written; only the owner thread stores it.
  std::atomic<std::uint64_t> head{0};
  /// Span-id sequence; never reset, so ids stay unique across leases.
  std::atomic<std::uint64_t> next_seq{0};
  Slot slots[kTraceRingCapacity];
};

/// Global ring registry. Rings are never destroyed (collectors hold no
/// locks while reading them); a thread that exits releases its ring to
/// the free pool and the next new thread reuses it, so the set is
/// bounded by the peak concurrent thread count.
class Tracer {
 public:
  static Tracer& instance() {
    static Tracer* tracer = new Tracer();  // leaked: outlive all threads
    return *tracer;
  }

  ThreadRing* acquire() {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const std::unique_ptr<ThreadRing>& ring : rings_) {
      if (!ring->in_use.load(std::memory_order_relaxed)) {
        // Do NOT reset head: the previous leaseholder's records stay
        // drainable (flight-recorder semantics — short-lived serve
        // session threads must not wipe each other's spans). The new
        // owner appends after them; trace_reset() is the explicit wipe.
        ring->in_use.store(true, std::memory_order_relaxed);
        return ring.get();
      }
    }
    rings_.push_back(std::make_unique<ThreadRing>(
        static_cast<std::uint32_t>(rings_.size() + 1)));
    rings_.back()->in_use.store(true, std::memory_order_relaxed);
    return rings_.back().get();
  }

  void release(ThreadRing* ring) {
    ring->in_use.store(false, std::memory_order_release);
  }

  std::vector<ThreadRing*> rings() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<ThreadRing*> out;
    out.reserve(rings_.size());
    for (const std::unique_ptr<ThreadRing>& ring : rings_)
      out.push_back(ring.get());
    return out;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadRing>> rings_;
};

/// Thread-local ring lease + active-span stack. The stack holds span
/// ids; depth_ counts opens even past kTraceMaxDepth so pops stay
/// balanced (overdeep spans just record parent 0).
struct Lease {
  ThreadRing* ring = nullptr;
  std::uint64_t stack[kTraceMaxDepth] = {};
  std::uint32_t depth = 0;

  ThreadRing* get() {
    if (!ring) ring = Tracer::instance().acquire();
    return ring;
  }
  ~Lease() {
    if (ring) Tracer::instance().release(ring);
  }
};

thread_local Lease t_lease;

std::uint64_t current_parent(const Lease& lease) {
  if (lease.depth == 0 || lease.depth > kTraceMaxDepth) return 0;
  return lease.stack[lease.depth - 1];
}

std::uint64_t next_span_id(ThreadRing* ring) {
  return (static_cast<std::uint64_t>(ring->tid) << 40) |
         (ring->next_seq.fetch_add(1, std::memory_order_relaxed) + 1);
}

void write_record(ThreadRing* ring, const char* name, double ts_us,
                  double dur_us, std::uint64_t id, std::uint64_t parent,
                  std::uint32_t depth) {
  const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
  Slot& slot = ring->slots[head % kTraceRingCapacity];
  slot.name.store(name, std::memory_order_relaxed);
  slot.ts.store(ts_us, std::memory_order_relaxed);
  slot.dur.store(dur_us, std::memory_order_relaxed);
  slot.id.store(id, std::memory_order_relaxed);
  slot.parent.store(parent, std::memory_order_relaxed);
  slot.depth.store(depth, std::memory_order_relaxed);
  // The release publishes the slot stores to an acquiring collector.
  ring->head.store(head + 1, std::memory_order_release);
}

}  // namespace

// --- TraceSpan ----------------------------------------------------------

void TraceSpan::begin(const char* name) {
  Lease& lease = t_lease;
  ThreadRing* ring = lease.get();
  name_ = name;
  parent_ = current_parent(lease);
  depth_ = lease.depth;
  id_ = next_span_id(ring);
  if (lease.depth < kTraceMaxDepth) lease.stack[lease.depth] = id_;
  ++lease.depth;
  start_us_ = now_us();
}

void TraceSpan::finish() {
  const double end_us = now_us();
  Lease& lease = t_lease;
  if (lease.depth > 0) --lease.depth;
  write_record(lease.get(), name_, start_us_, end_us - start_us_, id_,
               parent_, depth_);
}

void trace_emit(const char* name, double ts_us, double dur_us) {
  if (!trace_enabled()) return;
  Lease& lease = t_lease;
  ThreadRing* ring = lease.get();
  write_record(ring, name, ts_us, dur_us, next_span_id(ring),
               current_parent(lease), lease.depth);
}

void trace_reset() {
  for (ThreadRing* ring : Tracer::instance().rings())
    ring->head.store(0, std::memory_order_relaxed);
}

// --- TraceCollector -----------------------------------------------------

std::vector<SpanRecord> TraceCollector::collect() const {
  std::vector<SpanRecord> out;
  for (ThreadRing* ring : Tracer::instance().rings()) {
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t n =
        std::min<std::uint64_t>(head, kTraceRingCapacity);
    for (std::uint64_t i = head - n; i < head; ++i) {
      const Slot& slot = ring->slots[i % kTraceRingCapacity];
      SpanRecord rec;
      rec.name = slot.name.load(std::memory_order_relaxed);
      rec.ts_us = slot.ts.load(std::memory_order_relaxed);
      rec.dur_us = slot.dur.load(std::memory_order_relaxed);
      rec.id = slot.id.load(std::memory_order_relaxed);
      rec.parent = slot.parent.load(std::memory_order_relaxed);
      rec.depth = slot.depth.load(std::memory_order_relaxed);
      rec.tid = ring->tid;
      if (rec.name != nullptr) out.push_back(rec);
    }
  }
  return out;
}

std::vector<TraceCollector::SpanSummary> TraceCollector::summaries() const {
  std::map<std::string, SpanSummary> by_name;
  for (const SpanRecord& rec : collect()) {
    SpanSummary& s = by_name[rec.name];
    ++s.count;
    s.total_us += rec.dur_us;
    s.max_us = std::max(s.max_us, rec.dur_us);
  }
  std::vector<SpanSummary> out;
  out.reserve(by_name.size());
  for (auto& [name, summary] : by_name) {
    summary.name = name;
    out.push_back(std::move(summary));
  }
  return out;
}

Json TraceCollector::to_chrome_json() const {
  std::vector<SpanRecord> spans = collect();
  std::stable_sort(spans.begin(), spans.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.ts_us < b.ts_us;
                   });
  // Export ids are 1-based positions in this sorted output. A raw id is
  // (tid << 40) | seq, more digits than the JSON number writer keeps, so
  // written as-is, neighbouring spans would read the same id. A parent
  // whose record was overwritten maps to 0.
  std::unordered_map<std::uint64_t, std::uint64_t> export_id;
  export_id.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i)
    export_id.emplace(spans[i].id, i + 1);
  Json root = Json::object();
  root.set("schema", "otem.trace.v1");
  root.set("displayTimeUnit", "ms");
  Json events = Json::array();
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    const auto parent = export_id.find(span.parent);
    Json e = Json::object();
    e.set("name", span.name);
    e.set("cat", "otem");
    e.set("ph", "X");
    e.set("ts", span.ts_us);
    e.set("dur", span.dur_us);
    e.set("pid", 1.0);
    e.set("tid", static_cast<double>(span.tid));
    Json args = Json::object();
    args.set("id", static_cast<double>(i + 1));
    args.set("parent", parent == export_id.end()
                           ? 0.0
                           : static_cast<double>(parent->second));
    args.set("depth", static_cast<double>(span.depth));
    e.set("args", std::move(args));
    events.push(std::move(e));
  }
  root.set("traceEvents", std::move(events));
  return root;
}

void TraceCollector::write_chrome_trace(const std::string& path) const {
  write_json_file(path, to_chrome_json());
}

}  // namespace otem::obs
