// metrics.h — thread-safe instrumentation registry.
//
// A MetricsRegistry owns named counters, gauges and quantile sketches
// (obs/sketch.h). Counters and sketches are SHARDED: each instrument
// keeps kShards cache-line-separated slots and a thread writes the slot
// picked by its thread-local shard id, so concurrent missions (campaign
// workers, exec::parallel_for ranges, daemon connections) update the
// same instrument without contending on one cache line. snapshot()
// aggregates the shards into plain numbers. What is exact once the
// registry is quiescent, at any thread count: counter totals, sketch
// counts, min and max, and the sum of integer samples.
// Sketch quantiles hold within the sketch's rank error (<= 2 % at the
// default k, pinned by tests/test_trace.cpp): shards follow threads, so
// the merged sketch depends on how samples fell across them.
//
// Gauges are last-write-wins (a single atomic slot, no sharding) —
// they record a level, not a rate.
//
// Kill switch: obs::set_enabled(false) turns every record path into a
// cheap early-out (one relaxed load). Instrument REGISTRATION always
// works; only recording is gated, so snapshots of a disabled registry
// are well-formed (all zeros).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/json.h"
#include "obs/sketch.h"

namespace otem::obs {

/// Global recording switch (process-wide, default on).
bool enabled();
void set_enabled(bool on);

namespace detail {
/// Shard count per instrument. A power of two so the shard pick is a
/// mask; 16 slots × 64 B keeps an instrument within 1 KiB.
constexpr size_t kShards = 16;

/// This thread's shard slot: a thread-local id assigned on first use,
/// masked into [0, kShards).
size_t shard_index();

/// One cache line worth of padding between shard slots.
struct alignas(64) CounterSlot {
  std::atomic<std::uint64_t> value{0};
};
struct alignas(64) GaugeSlot {
  std::atomic<double> value{0.0};
};
}  // namespace detail

/// Monotonic event count. add() is wait-free; value() is exact when
/// writers are quiescent.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (!enabled()) return;
    shards_[detail::shard_index()].value.fetch_add(
        n, std::memory_order_relaxed);
  }
  std::uint64_t value() const;

 private:
  detail::CounterSlot shards_[detail::kShards];
};

/// Last-written level (not sharded: the latest set wins globally).
class Gauge {
 public:
  void set(double v) {
    if (!enabled()) return;
    value_.value.store(v, std::memory_order_relaxed);
  }
  double value() const {
    return value_.value.load(std::memory_order_relaxed);
  }

 private:
  detail::GaugeSlot value_;
};

/// Aggregated view of a whole registry; maps keep names sorted so the
/// JSON rendering is byte-stable for a given set of values.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Sketch::Snapshot> sketches;
};

/// Named instrument registry. Lookup/creation takes a mutex (do it once
/// per run, not per step); the returned references stay valid for the
/// registry's lifetime. Counter and gauge records are lock-free; a
/// sketch record takes only its own shard's mutex.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Mergeable quantile sketch (obs/sketch.h); k must match on
  /// re-registration (throws otem::SimError otherwise).
  Sketch& sketch(const std::string& name, size_t k = kDefaultSketchK);

  MetricsSnapshot snapshot() const;

  /// Process-wide default registry.
  static MetricsRegistry& global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Sketch>> sketches_;
};

/// Stable JSON rendering of a snapshot (schema "otem.metrics.v2"):
/// {"schema": ..., "counters": {name: n}, "gauges": {name: v},
///  "sketches": {name: {count,sum,min,max,mean,p50,p95,p99,p999}}}
/// Names are sorted; an empty section renders as {}.
Json snapshot_to_json(const MetricsSnapshot& snapshot);

/// snapshot() + snapshot_to_json() + write to `path`; throws
/// otem::SimError on I/O failure.
void write_metrics_json(const std::string& path,
                        const MetricsRegistry& registry);

}  // namespace otem::obs
