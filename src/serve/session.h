// session.h — resident mission sessions for the serve daemon.
//
// A Session pins everything one streamed mission needs between protocol
// frames: the resolved SystemSpec, the route power trace (the
// controller's forecast P_hat_e), a resident core::Methodology and the
// live PlantState. session.step then costs exactly one
// Methodology::step() — for otem-ltv that means the QP warm start and
// KKT factorization carried inside LtvOtemController survive ACROSS
// protocol steps, which is what makes a streamed control decision
// sub-millisecond where a one-shot `run` request pays a cold solve.
// Each step goes through a sim::Stepper into a MetricsAccumulator — the
// same step accounting Simulator::run uses — so session.close returns
// the bits a batch run would have produced for the steps streamed.
//
// SessionManager owns the resident table: ids are server-assigned
// ("s1", "s2", ...), lookups touch an LRU list, and eviction is
// LRU-with-TTL — every access first retires sessions idle longer than
// ttl_s, then evicts from the cold end until the table fits
// max_sessions. An evicted or closed id simply stops resolving
// (kUnknownSession); a step already executing on an evicted session
// finishes safely on its shared_ptr. Instruments land in the registry
// handed to the constructor: serve.sessions_active (gauge),
// serve.sessions_evicted / serve.sessions_opened / serve.sessions_closed
// (counters).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/config.h"
#include "common/timeseries.h"
#include "core/methodology.h"
#include "core/system_spec.h"
#include "obs/metrics.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "sim/step_sink.h"
#include "sim/stepper.h"

namespace otem::serve {

/// One resident mission (see header comment). Thread-safe: step() and
/// close() serialize on an internal mutex, so a session id misused from
/// two connections degrades to in-order execution, never a race.
class Session {
 public:
  /// Builds the spec, route trace and methodology from the same
  /// scenario/config vocabulary `run` uses, then resets the methodology
  /// with the full route as its forecast. Throws otem::SimError on any
  /// invalid configuration (the server maps that to kBadRequest).
  Session(std::string id, const sim::Scenario& scenario, const Config& cfg);

  const std::string& id() const { return id_; }
  const std::string& methodology() const { return methodology_name_; }
  double dt() const { return power_.dt(); }
  size_t route_steps() const { return power_.size(); }

  struct StepOutcome {
    size_t k = 0;             ///< step index that was just executed
    double p_request_w = 0.0; ///< the request actually served
    core::StepRecord rec;
  };

  /// Execute one plant step. `has_p` supplies an explicit power request
  /// (deviating from the forecast, as real traffic does); otherwise the
  /// session serves the next value of its own route trace. Throws
  /// otem::SimError, leaving the session as it was, when an explicit
  /// request exceeds hees.max_battery_power + ultracap.max_power_w in
  /// magnitude, or once the route is exhausted and no explicit request
  /// is given.
  StepOutcome step(bool has_p, double p_request_w);

  /// Finalize the accumulated report over the steps streamed so far.
  /// The session is unusable afterwards (the manager removes it first).
  sim::RunResult close();

  size_t steps_done() const;

 private:
  std::string id_;
  std::string methodology_name_;
  core::SystemSpec spec_;
  TimeSeries power_;
  std::unique_ptr<core::Methodology> methodology_;
  core::PlantState state_;
  sim::MetricsAccumulator metrics_;
  sim::Stepper stepper_;  ///< over metrics_; steps() is the next k
  mutable std::mutex mutex_;
};

struct SessionLimits {
  /// Resident-session ceiling; opening past it evicts the LRU session.
  size_t max_sessions = 64;
  /// Idle time after which a session is evictable [s]; 0 disables the
  /// TTL sweep (LRU capacity eviction still applies).
  double ttl_s = 300.0;
};

class SessionManager {
 public:
  SessionManager(const SessionLimits& limits, obs::MetricsRegistry& registry);

  /// The next server-assigned session id ("s1", "s2", ...); unique for
  /// the server's lifetime even when the insert that follows fails.
  std::string next_id();

  /// Make `session` resident under its id, evicting expired + LRU
  /// sessions to fit. False when max_sessions == 0 (sessions disabled).
  bool insert(std::shared_ptr<Session> session);

  /// Resolve an id and mark it most-recently-used; nullptr when the id
  /// is not resident (never opened, closed, or evicted).
  std::shared_ptr<Session> find(const std::string& id);

  /// Remove an id for session.close; nullptr when not resident.
  std::shared_ptr<Session> remove(const std::string& id);

  /// Drop every resident session (drain path; not counted as
  /// evictions).
  void clear();

  size_t active() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Entry {
    std::shared_ptr<Session> session;
    Clock::time_point last_used;
    std::list<std::string>::iterator lru_pos;
  };

  /// Retire TTL-expired entries, then LRU-evict until `headroom` slots
  /// are free. Caller holds mutex_.
  void evict_locked(size_t headroom);
  void erase_locked(const std::string& id);

  SessionLimits limits_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  ///< most-recently-used at front
  std::atomic<std::uint64_t> next_id_{1};

  obs::Gauge& active_gauge_;
  obs::Counter& opened_;
  obs::Counter& closed_;
  obs::Counter& evicted_;
};

}  // namespace otem::serve
