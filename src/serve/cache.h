// cache.h — content-addressed result cache with LRU eviction.
//
// The daemon's repeated-query fast path: run results are keyed by a
// CANONICAL description of the resolved work — the fully-resolved
// sim::Scenario (seeded routes, repeats, initial state and all) plus
// every remaining spec override, sorted — so two requests that mean the
// same mission hit the same entry even when they spell it differently
// (e.g. one writes "cycle=UDDS" and the other relies on the default).
// Values are the pre-serialized compact result documents, which is what
// makes cached responses byte-identical to the original computation.
//
// Lookups are SINGLE-FLIGHT: the first miss for a key claims it and
// computes; concurrent requests for the same key block until the value
// lands instead of duplicating a multi-second simulation (they count as
// coalesced hits). If the computation fails, waiters are released to
// fend for themselves. Eviction is strict LRU by byte budget; entries
// being computed are not evictable.
//
// Thread-safe throughout: the daemon keeps ONE cache, whatever its
// worker count, so every acceptor resolves a key to the same entry and
// concurrent identical requests coalesce onto one computation. Its
// instruments (hits/misses/coalesced/evictions counters, bytes/entries
// gauges) land in the registry handed to the constructor under
// `serve.cache.`.
#pragma once

#include <cstddef>
#include <condition_variable>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "obs/metrics.h"

namespace otem {
class Config;
}

namespace otem::sim {
struct Scenario;
}

namespace otem::serve {

/// The canonical cache key for a run request: a stable, human-readable
/// serialization of the resolved scenario plus all non-scenario
/// overrides (sorted key=value lines). Exposed for tests and for the
/// docs' worked example.
std::string canonical_scenario_key(const sim::Scenario& scenario,
                                   const Config& cfg);

class ResultCache {
 public:
  /// `max_bytes` bounds the sum of key+value byte sizes (plus a small
  /// per-entry overhead); 0 disables caching entirely (every lookup
  /// misses, fills are dropped).
  ResultCache(size_t max_bytes, obs::MetricsRegistry& registry);

  /// Single-flight lookup. Returns the cached value on a hit (possibly
  /// after blocking on another thread's in-progress computation).
  /// Returns nullopt when THIS caller claimed the key: it must follow
  /// up with fill() on success or abandon() on failure, or waiters
  /// block until the server drains.
  std::optional<std::string> lookup_or_begin(const std::string& key);

  /// Publish the computed value for a key claimed via lookup_or_begin
  /// and wake coalesced waiters. Evicts LRU entries over budget.
  void fill(const std::string& key, std::string value);

  /// Release a claimed key without a value (computation failed); one
  /// waiter inherits the claim, the rest re-queue behind it.
  void abandon(const std::string& key);

  size_t bytes() const;
  size_t entries() const;

 private:
  struct Entry {
    std::string value;
    bool pending = true;
    /// Position in lru_ (valid only when !pending).
    std::list<std::string>::iterator lru_pos;
  };

  void evict_over_budget_locked();

  const size_t max_bytes_;
  mutable std::mutex mutex_;
  std::condition_variable filled_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  ///< most-recently-used at front
  size_t bytes_ = 0;

  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& coalesced_;
  obs::Counter& evictions_;
  obs::Gauge& bytes_gauge_;
  obs::Gauge& entries_gauge_;
};

}  // namespace otem::serve
