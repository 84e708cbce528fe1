#include "serve/cache.h"

#include <algorithm>

#include "common/config.h"
#include "common/json.h"
#include "common/strings.h"
#include "serve/protocol.h"
#include "sim/scenario.h"

namespace otem::serve {

namespace {

/// Scenario-owned config keys (the vocabulary Scenario::from_config
/// consumes — see sim/scenario.h's header comment). These are excluded
/// from the sorted override tail of the cache key because the resolved
/// scenario block already encodes them canonically; listing "cycle=UDDS"
/// explicitly must hash identically to relying on the default.
bool is_scenario_key(const std::string& key) {
  static const char* kKeys[] = {
      "method",        "cycle",
      "cycle_csv",     "time_column",
      "speed_column",  "synthetic",
      "synthetic_seed", "synthetic_duration_s",
      "synthetic_max_speed_mps", "repeats",
      "soak",          "t_battery0_k",
      "t_coolant0_k",  "soe0",
      "soc0",          "record_trace",
      "trace_csv",     "metrics_out",
      "events_jsonl",  "events_every",
  };
  return std::any_of(std::begin(kKeys), std::end(kKeys),
                     [&](const char* k) { return key == k; });
}

/// Per-entry bookkeeping overhead charged against the byte budget.
constexpr size_t kEntryOverhead = 64;

}  // namespace

std::string canonical_scenario_key(const sim::Scenario& scenario,
                                   const Config& cfg) {
  // The scenario block: every field that picks the work, in a fixed
  // order, serialized with the Json dumper (%.12g — missions differing
  // only beyond 12 significant digits alias, which is fine for a
  // cache: an alias returns a result for parameters indistinguishable
  // from the request's).
  Json sc = Json::object();
  sc.set("schema", kSchema);
  sc.set("methodology", scenario.methodology);
  sc.set("cycle", scenario.cycle);
  sc.set("cycle_csv", scenario.cycle_csv);
  sc.set("time_column", scenario.time_column);
  sc.set("speed_column", scenario.speed_column);
  sc.set("synthetic", scenario.synthetic);
  sc.set("synthetic_seed",
         strings::format_double(static_cast<double>(scenario.synthetic_seed),
                                0));
  sc.set("synthetic_duration_s", scenario.synthetic_duration_s);
  sc.set("synthetic_max_speed_mps", scenario.synthetic_max_speed_mps);
  sc.set("repeats", scenario.repeats);
  sc.set("ambient_k", scenario.ambient_k);
  sc.set("soak", scenario.soak);
  sc.set("t_battery0_k", scenario.initial.t_battery_k);
  sc.set("t_coolant0_k", scenario.initial.t_coolant_k);
  sc.set("soc0", scenario.initial.soc_percent);
  sc.set("soe0", scenario.initial.soe_percent);

  std::string key = sc.dump(0);
  key += '\n';

  // The spec tail: every remaining override, sorted, so battery./
  // thermal./otem.* parameters distinguish entries. keys() is already
  // sorted.
  for (const std::string& k : cfg.keys()) {
    if (is_scenario_key(k)) continue;
    key += k;
    key += '=';
    key += cfg.get_string(k, "");
    key += '\n';
  }
  return key;
}

ResultCache::ResultCache(size_t max_bytes, obs::MetricsRegistry& registry)
    : max_bytes_(max_bytes),
      hits_(registry.counter("serve.cache.hits")),
      misses_(registry.counter("serve.cache.misses")),
      coalesced_(registry.counter("serve.cache.coalesced")),
      evictions_(registry.counter("serve.cache.evictions")),
      bytes_gauge_(registry.gauge("serve.cache.bytes")),
      entries_gauge_(registry.gauge("serve.cache.entries")) {}

std::optional<std::string> ResultCache::lookup_or_begin(
    const std::string& key) {
  if (max_bytes_ == 0) {
    misses_.add();
    return std::nullopt;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      // First asker: claim the key; pending entries carry no bytes and
      // sit outside the LRU list.
      entries_.emplace(key, Entry{});
      misses_.add();
      return std::nullopt;
    }
    if (!it->second.pending) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      hits_.add();
      return it->second.value;
    }
    // Someone is computing this key right now: wait for fill() or
    // abandon(), then re-examine.
    coalesced_.add();
    filled_.wait(lock);
  }
}

void ResultCache::fill(const std::string& key, std::string value) {
  if (max_bytes_ == 0) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end() || !it->second.pending) return;
    it->second.value = std::move(value);
    it->second.pending = false;
    lru_.push_front(key);
    it->second.lru_pos = lru_.begin();
    bytes_ += key.size() + it->second.value.size() + kEntryOverhead;
    evict_over_budget_locked();
    bytes_gauge_.set(static_cast<double>(bytes_));
    entries_gauge_.set(static_cast<double>(entries_.size()));
  }
  filled_.notify_all();
}

void ResultCache::abandon(const std::string& key) {
  if (max_bytes_ == 0) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second.pending) entries_.erase(it);
  }
  filled_.notify_all();
}

void ResultCache::evict_over_budget_locked() {
  while (bytes_ > max_bytes_ && !lru_.empty()) {
    const std::string victim = lru_.back();
    lru_.pop_back();
    auto it = entries_.find(victim);
    if (it != entries_.end()) {
      bytes_ -= std::min(
          bytes_, victim.size() + it->second.value.size() + kEntryOverhead);
      entries_.erase(it);
    }
    evictions_.add();
  }
}

size_t ResultCache::bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

size_t ResultCache::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace otem::serve

