#include "serve/session.h"

#include <cmath>

#include "common/error.h"
#include "common/strings.h"
#include "core/methodology_registry.h"

namespace otem::serve {

Session::Session(std::string id, const sim::Scenario& scenario,
                 const Config& cfg)
    : id_(std::move(id)), methodology_name_(scenario.methodology) {
  spec_ = core::SystemSpec::from_config(cfg);
  if (scenario.ambient_k > 0.0) spec_.ambient_k = scenario.ambient_k;

  // The route's step period is the session's, as it is for `run`.
  power_ = sim::scenario_power_trace(scenario, spec_);
  OTEM_REQUIRE(!power_.empty(), "session route resolved to zero steps");

  state_ = scenario.initial;
  if (scenario.soak) {
    state_.t_battery_k = spec_.ambient_k;
    state_.t_coolant_k = spec_.ambient_k;
  }

  methodology_ = core::make_methodology(scenario.methodology, spec_, cfg);
  // The full route is the forecast P_hat_e (Algorithm 1 input); the
  // session then steps through it — or past it, with explicit requests.
  methodology_->reset(state_, power_);

  // The client decides when to hang up, so the mission length is open.
  stepper_.begin(sim::RunContext{spec_, dt(), /*steps=*/0, state_},
                 {&metrics_});
}

Session::StepOutcome Session::step(bool has_p, double p_request_w) {
  std::lock_guard<std::mutex> lock(mutex_);
  StepOutcome out;
  out.k = stepper_.steps();
  out.p_request_w = p_request_w;
  if (has_p) {
    // No step can draw more than both storages at their power caps; a
    // request past that would be accounted as if served, for good.
    const double limit =
        spec_.hybrid.max_battery_power_w + spec_.ultracap.max_power_w;
    if (!(std::abs(p_request_w) <= limit)) {
      throw SimError("session '" + id_ + "': p_request_w must be within " +
                     "+/-" + strings::format_double(limit, 0) +
                     " W (hees.max_battery_power + ultracap.max_power_w)");
    }
  } else {
    OTEM_REQUIRE(out.k < power_.size(),
                 "session '" + id_ + "' route exhausted after " +
                     std::to_string(power_.size()) +
                     " steps; supply p_request_w to keep streaming");
    out.p_request_w = power_[out.k];
  }
  out.rec = methodology_->step(state_, out.p_request_w, out.k, dt());
  stepper_.record(out.rec, state_);
  return out;
}

sim::RunResult Session::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  stepper_.end(state_);
  return metrics_.take();
}

size_t Session::steps_done() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stepper_.steps();
}

SessionManager::SessionManager(const SessionLimits& limits,
                               obs::MetricsRegistry& registry)
    : limits_(limits),
      active_gauge_(registry.gauge("serve.sessions_active")),
      opened_(registry.counter("serve.sessions_opened")),
      closed_(registry.counter("serve.sessions_closed")),
      evicted_(registry.counter("serve.sessions_evicted")) {}

std::string SessionManager::next_id() {
  std::string id = "s";
  id += std::to_string(next_id_.fetch_add(1, std::memory_order_relaxed));
  return id;
}

void SessionManager::erase_locked(const std::string& id) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return;
  lru_.erase(it->second.lru_pos);
  entries_.erase(it);
}

void SessionManager::evict_locked(size_t headroom) {
  const Clock::time_point now = Clock::now();
  // TTL sweep: retire anything idle past the deadline, coldest first.
  if (limits_.ttl_s > 0.0) {
    const auto ttl = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(limits_.ttl_s));
    while (!lru_.empty()) {
      const auto it = entries_.find(lru_.back());
      if (now - it->second.last_used < ttl) break;
      entries_.erase(it);
      lru_.pop_back();
      evicted_.add();
    }
  }
  // Capacity: evict from the cold end until `headroom` slots are free.
  while (!lru_.empty() &&
         entries_.size() + headroom > limits_.max_sessions) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    evicted_.add();
  }
  active_gauge_.set(static_cast<double>(entries_.size()));
}

bool SessionManager::insert(std::shared_ptr<Session> session) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (limits_.max_sessions == 0) return false;
  evict_locked(1);
  const std::string id = session->id();
  lru_.push_front(id);
  entries_[id] = Entry{std::move(session), Clock::now(), lru_.begin()};
  active_gauge_.set(static_cast<double>(entries_.size()));
  opened_.add();
  return true;
}

std::shared_ptr<Session> SessionManager::find(const std::string& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  evict_locked(0);
  const auto it = entries_.find(id);
  if (it == entries_.end()) return nullptr;
  it->second.last_used = Clock::now();
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  it->second.lru_pos = lru_.begin();
  return it->second.session;
}

std::shared_ptr<Session> SessionManager::remove(const std::string& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(id);
  if (it == entries_.end()) return nullptr;
  std::shared_ptr<Session> session = std::move(it->second.session);
  lru_.erase(it->second.lru_pos);
  entries_.erase(it);
  active_gauge_.set(static_cast<double>(entries_.size()));
  closed_.add();
  return session;
}

void SessionManager::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  lru_.clear();
  active_gauge_.set(0.0);
}

size_t SessionManager::active() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace otem::serve
