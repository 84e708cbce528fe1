// sketch.h — mergeable streaming quantile estimation.
//
// QuantileSketch is a fixed-k KLL-style compactor hierarchy: level i
// holds up to k raw samples each standing for 2^i originals, and a
// full level sorts itself and promotes every second element (the
// surviving parity alternates per level, so the selection is
// DETERMINISTIC — no RNG). Feeding the same values in the same order
// always yields the same sketch, and merge() is deterministic in its
// operand order, so per-worker sketches combined in worker order give
// the same quantiles at every thread count. Memory is O(k log(n/k))
// regardless of the stream length; the rank error of quantile(q) is a
// small multiple of 1/k (tests/test_trace.cpp pins <= 2% at the
// default k against exact quantiles of known distributions).
//
// Sketch is the thread-safe registry instrument built on top: kShards
// mutex-guarded QuantileSketches indexed by the same thread-local
// shard id the counters use, so concurrent writers virtually never
// contend. collect() merges the shards IN SHARD ORDER into one
// QuantileSketch; snapshot() derives the p50/p95/p99/p999 summary that
// otem.metrics.v2 snapshots embed. Which shard a sample lands in
// follows its thread, so across thread counts only count, min, max and
// the sum of integer samples are exact; quantiles agree within the
// rank error. The obs kill switch applies: record() is a no-op after
// set_enabled(false).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/json.h"

namespace otem::obs {

/// Default compactor width. 256 keeps worst-case rank error well under
/// 2% while a million-sample sketch stays under ~40 KiB.
constexpr size_t kDefaultSketchK = 256;

/// Single-writer mergeable quantile sketch (no internal locking —
/// wrap in Sketch for concurrent recording).
class QuantileSketch {
 public:
  explicit QuantileSketch(size_t k = kDefaultSketchK);

  /// Stream one sample. Amortized O(log k); allocation only when a new
  /// level first opens.
  void add(double value);

  /// Fold `other` into this sketch (same k required). The result is a
  /// valid sketch over the union of both streams; deterministic given
  /// the operand order.
  void merge(const QuantileSketch& other);

  /// Exact stream length (not an estimate).
  std::uint64_t count() const { return n_; }
  /// Exact running sum / extrema (0 when empty).
  double sum() const { return sum_; }
  double min() const;
  double max() const;
  size_t k() const { return k_; }

  /// Estimated q-quantile for q in [0, 1]; exact min/max at the
  /// endpoints, 0 when the sketch is empty.
  double quantile(double q) const;

  /// Serialize the COMPLETE internal state (levels, parity, running
  /// moments) for checkpoint files. Doubles are encoded as IEEE-754 bit
  /// patterns in hex, so from_json(to_json(s)) is bit-identical to s:
  /// feeding or merging the same stream into either afterwards yields
  /// byte-equal sketches — the property campaign resume rests on.
  Json to_json() const;
  static QuantileSketch from_json(const Json& doc);

 private:
  void compact_level(size_t level);

  size_t k_;
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0, max_ = 0.0;
  /// levels_[i] holds samples of weight 2^i, unsorted between
  /// compactions.
  std::vector<std::vector<double>> levels_;
  /// Per-level surviving parity, flipped on every compaction.
  std::vector<std::uint8_t> parity_;
};

/// Thread-safe named instrument over QuantileSketch (see header
/// comment). Register through MetricsRegistry::sketch().
class Sketch {
 public:
  explicit Sketch(size_t k = kDefaultSketchK);

  /// Record one sample; wait-free against other shards, a brief
  /// uncontended mutex within one. No-op when recording is disabled.
  void record(double value);

  /// Fold an externally-built sketch (e.g. one worker's private
  /// QuantileSketch) into this instrument.
  void merge_in(const QuantileSketch& worker);

  /// Ordered (shard 0..kShards-1) merge of the shards.
  QuantileSketch collect() const;

  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
  };
  Snapshot snapshot() const;

  size_t k() const { return k_; }

  Sketch(const Sketch&) = delete;
  Sketch& operator=(const Sketch&) = delete;
  ~Sketch();

 private:
  struct Shard;
  size_t k_;
  Shard* shards_;  ///< kShards slots, cache-line separated
};

/// Summary of an already-collected sketch (what Sketch::snapshot()
/// derives from collect()).
Sketch::Snapshot summarize(const QuantileSketch& sketch);

}  // namespace otem::obs
