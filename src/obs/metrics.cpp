#include "obs/metrics.h"

#include "common/error.h"

namespace otem::obs {

namespace {
std::atomic<bool> g_enabled{true};
}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

namespace detail {
size_t shard_index() {
  static std::atomic<size_t> next{0};
  thread_local const size_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  static_assert((kShards & (kShards - 1)) == 0, "kShards must be 2^k");
  return id & (kShards - 1);
}
}  // namespace detail

// --- Counter ------------------------------------------------------------

std::uint64_t Counter::value() const {
  std::uint64_t total = 0;
  for (const detail::CounterSlot& s : shards_)
    total += s.value.load(std::memory_order_relaxed);
  return total;
}

// --- MetricsRegistry ----------------------------------------------------

Counter& MetricsRegistry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Sketch& MetricsRegistry::sketch(const std::string& name, size_t k) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = sketches_[name];
  if (!slot) {
    slot = std::make_unique<Sketch>(k);
  } else {
    OTEM_REQUIRE(slot->k() == k,
                 "sketch re-registered with different k: " + name);
  }
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot out;
  for (const auto& [name, c] : counters_) out.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) out.gauges[name] = g->value();
  for (const auto& [name, s] : sketches_) out.sketches[name] = s->snapshot();
  return out;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

// --- JSON rendering -----------------------------------------------------

Json snapshot_to_json(const MetricsSnapshot& snapshot) {
  Json root = Json::object();
  root.set("schema", "otem.metrics.v2");

  Json counters = Json::object();
  for (const auto& [name, value] : snapshot.counters)
    counters.set(name, static_cast<double>(value));
  root.set("counters", std::move(counters));

  Json gauges = Json::object();
  for (const auto& [name, value] : snapshot.gauges) gauges.set(name, value);
  root.set("gauges", std::move(gauges));

  Json sketches = Json::object();
  for (const auto& [name, s] : snapshot.sketches) {
    Json sj = Json::object();
    sj.set("count", static_cast<double>(s.count));
    sj.set("sum", s.sum);
    sj.set("min", s.min);
    sj.set("max", s.max);
    sj.set("mean", s.count ? s.sum / static_cast<double>(s.count) : 0.0);
    sj.set("p50", s.p50);
    sj.set("p95", s.p95);
    sj.set("p99", s.p99);
    sj.set("p999", s.p999);
    sketches.set(name, std::move(sj));
  }
  root.set("sketches", std::move(sketches));
  return root;
}

void write_metrics_json(const std::string& path,
                        const MetricsRegistry& registry) {
  write_json_file(path, snapshot_to_json(registry.snapshot()));
}

}  // namespace otem::obs
