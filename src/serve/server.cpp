#include "serve/server.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/error.h"
#include "common/logging.h"
#include "core/methodology_registry.h"
#include "core/system_spec.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "serve/codec.h"
#include "sim/report.h"
#include "sim/scenario.h"

namespace otem::serve {

namespace {

/// Signal plumbing must be async-signal-safe: the handler only flips a
/// flag and writes one byte to the self-pipe to wake a poll(). The
/// serving loops translate the flag into an orderly drain.
std::atomic<bool> g_signal_stop{false};
std::atomic<int> g_wake_fd{-1};

void on_stop_signal(int) {
  g_signal_stop.store(true, std::memory_order_relaxed);
  const int fd = g_wake_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 'x';
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

struct SignalGuard {
  SignalGuard() {
    g_signal_stop.store(false, std::memory_order_relaxed);
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = on_stop_signal;
    ::sigaction(SIGINT, &sa, &old_int);
    ::sigaction(SIGTERM, &sa, &old_term);
    // A client that hangs up mid-response must not kill the daemon.
    struct sigaction ign;
    std::memset(&ign, 0, sizeof(ign));
    ign.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ign, &old_pipe);
  }
  ~SignalGuard() {
    ::sigaction(SIGINT, &old_int, nullptr);
    ::sigaction(SIGTERM, &old_term, nullptr);
    ::sigaction(SIGPIPE, &old_pipe, nullptr);
    g_wake_fd.store(-1, std::memory_order_relaxed);
  }
  struct sigaction old_int{}, old_term{}, old_pipe{};
};

/// Overrides that name server-side output files are refused: a cached
/// replay would skip the side effect, silently breaking the contract
/// that identical requests are interchangeable.
bool is_output_override(const std::string& key) {
  return key == "trace_csv" || key == "metrics_out" ||
         key == "events_jsonl" || key == "report_json" ||
         key == "record_trace" || key == "trace_out";
}

/// The otem.serve.v1 method vocabulary (serve/protocol.h), indexed by
/// Method. Only these names get a serve.requests.<method> counter, and
/// the Server resolves all of them when it is built: a method name is
/// client input, so counting it under its own name would let clients
/// grow the registry without bound.
enum Method : size_t {
  kPing,
  kMetrics,
  kStats,
  kMethods,
  kRun,
  kSessionOpen,
  kSessionStep,
  kSessionClose,
  kMethodCount,
};
constexpr std::array<std::string_view, kMethodCount> kMethodNames = {
    "ping", "metrics",      "stats",        "methods",
    "run",  "session.open", "session.step", "session.close"};

/// One quantile-sketch snapshot as the `stats` method reports it.
Json sketch_stats_json(const obs::Sketch::Snapshot& s) {
  Json j = Json::object();
  j.set("count", static_cast<double>(s.count));
  j.set("mean", s.count ? s.sum / static_cast<double>(s.count) : 0.0);
  j.set("min", s.min);
  j.set("max", s.max);
  j.set("p50", s.p50);
  j.set("p95", s.p95);
  j.set("p99", s.p99);
  j.set("p999", s.p999);
  return j;
}

}  // namespace

Server::Server(const ServerOptions& options)
    : options_(options),
      cache_(options.cache_bytes, std::max<size_t>(options.workers, 1),
             registry_),
      sessions_(SessionLimits{options.session_limit, options.session_ttl_s},
                registry_),
      run_instruments_(registry_),
      pool_(std::make_unique<exec::ThreadPool>(options.threads)),
      latency_sketch_(registry_.sketch("serve.request.latency_us")),
      queue_wait_sketch_(registry_.sketch("serve.queue.wait_us")),
      session_step_sketch_(registry_.sketch("serve.session.step_us")),
      queue_depth_(registry_.gauge("serve.queue.depth")) {
  options_.workers = std::max<size_t>(options_.workers, 1);
  worker_latency_.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    worker_latency_.push_back(&registry_.sketch(
        "serve.worker" + std::to_string(i) + ".request_latency_us"));
  }
  for (const std::string_view method : kMethodNames) {
    request_counters_.push_back(&registry_.counter(
        "serve.requests." + std::string(method)));
  }
  for (const std::string& key : options_.base.keys())
    base_pairs_.emplace_back(key, options_.base.get_string(key, ""));
  if (!options_.trace_out.empty()) obs::set_trace_enabled(true);
}

bool Server::stopping() const {
  return stop_.load(std::memory_order_relaxed) ||
         g_signal_stop.load(std::memory_order_relaxed);
}

void Server::request_stop() {
  stop_.store(true, std::memory_order_relaxed);
  // serve_listener closes the pipe under wake_mutex_ too, so a late
  // stop never writes into a closed (or recycled) descriptor.
  std::lock_guard<std::mutex> lock(wake_mutex_);
  if (wake_write_fd_ >= 0) {
    const char byte = 'x';
    [[maybe_unused]] const ssize_t n = ::write(wake_write_fd_, &byte, 1);
  }
}

bool Server::try_admit() {
  size_t cur = admitted_.load(std::memory_order_relaxed);
  do {
    if (cur >= options_.queue_depth) return false;
  } while (!admitted_.compare_exchange_weak(cur, cur + 1,
                                            std::memory_order_acq_rel));
  queue_depth_.set(static_cast<double>(cur + 1));
  return true;
}

void Server::release_admission() {
  const size_t now = admitted_.fetch_sub(1, std::memory_order_acq_rel) - 1;
  queue_depth_.set(static_cast<double>(now));
}

std::uint64_t Server::register_inflight(const exec::StopSource& source) {
  std::lock_guard<std::mutex> lock(inflight_mutex_);
  const std::uint64_t id = next_inflight_id_++;
  inflight_.emplace(id, source);
  // Close the admit/drain race: a request that slipped past the
  // stopping() check while drain() was sweeping in-flight tokens would
  // otherwise run to completion unobserved by the cancel pass.
  if (stopping()) source.request_stop();
  return id;
}

void Server::unregister_inflight(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(inflight_mutex_);
  inflight_.erase(id);
}

size_t Server::active_requests() const {
  std::lock_guard<std::mutex> lock(inflight_mutex_);
  return inflight_.size();
}

std::string Server::error_response(const Json& id, ErrorCode code,
                                   const std::string& message) {
  registry_.counter(std::string("serve.errors.") + to_string(code)).add();
  return build_error_response(id, code, message);
}

std::string Server::oversized_response() {
  return error_response(
      Json(), ErrorCode::kOversizedFrame,
      "frame exceeds " + std::to_string(options_.max_frame_bytes) +
          " bytes");
}

std::string Server::handle_line(const std::string& line, size_t worker) {
  const obs::TraceSpan request_span("serve.request");
  const double t0 = obs::now_us();
  if (worker >= worker_latency_.size()) worker = 0;
  Request req;
  try {
    const obs::TraceSpan parse_span("serve.parse");
    req = parse_request(line);
  } catch (const SimError& e) {
    return error_response(Json(), ErrorCode::kBadRequest, e.what());
  } catch (const std::exception& e) {
    return error_response(Json(), ErrorCode::kInternal, e.what());
  }

  const auto method = static_cast<size_t>(
      std::find(kMethodNames.begin(), kMethodNames.end(), req.method) -
      kMethodNames.begin());
  if (method < kMethodCount) request_counters_[method]->add();

  try {
    if (method == kPing) {
      Json result = Json::object();
      result.set("pong", true);
      return build_ok_response(req.id, false, result.dump(0));
    }
    if (method == kMetrics) {
      return build_ok_response(
          req.id, false, obs::snapshot_to_json(registry_.snapshot()).dump(0));
    }
    if (method == kStats) {
      // Live introspection: exact latency / queue-wait quantiles from
      // the sketches, plus per-name aggregates of the spans still in
      // the flight-recorder rings (empty unless tracing is enabled).
      Json result = Json::object();
      result.set("latency_us", sketch_stats_json(latency_sketch_.snapshot()));
      result.set("queue_wait_us",
                 sketch_stats_json(queue_wait_sketch_.snapshot()));
      result.set("session_step_us",
                 sketch_stats_json(session_step_sketch_.snapshot()));
      result.set("sessions_active", sessions_.active());
      // Per-worker latency sketches folded IN WORKER ORDER — the same
      // deterministic KLL merge the campaign fabric relies on, so the
      // merged quantiles are identical on every stats call over the
      // same traffic regardless of which worker answers it.
      {
        Json workers = Json::object();
        workers.set("count", worker_latency_.size());
        obs::QuantileSketch merged(worker_latency_.front()->k());
        for (const obs::Sketch* ws : worker_latency_)
          merged.merge(ws->collect());
        workers.set("request_latency_us",
                    sketch_stats_json(obs::summarize(merged)));
        result.set("workers", std::move(workers));
      }
      Json spans = Json::object();
      for (const obs::TraceCollector::SpanSummary& s :
           obs::TraceCollector().summaries()) {
        Json sj = Json::object();
        sj.set("count", static_cast<double>(s.count));
        sj.set("total_us", s.total_us);
        sj.set("max_us", s.max_us);
        spans.set(s.name, std::move(sj));
      }
      result.set("spans", std::move(spans));
      return build_ok_response(req.id, false, result.dump(0));
    }
    if (method == kMethods) {
      Json names = Json::array();
      for (const std::string& name :
           core::MethodologyRegistry::instance().names())
        names.push(name);
      Json result = Json::object();
      result.set("methods", std::move(names));
      return build_ok_response(req.id, false, result.dump(0));
    }
    if (method == kRun) {
      // Latency is recorded HERE, on every completion path (success,
      // cache hit, refusal, error) — and t0 is taken at frame entry, so
      // it always includes queue wait and parse time.
      const std::string response = handle_run(req);
      const double latency = obs::now_us() - t0;
      latency_sketch_.record(latency);
      worker_latency_[worker]->record(latency);
      return response;
    }
    if (method == kSessionOpen) {
      const std::string response = handle_session_open(req);
      worker_latency_[worker]->record(obs::now_us() - t0);
      return response;
    }
    if (method == kSessionStep) {
      const std::string response = handle_session_step(req);
      const double latency = obs::now_us() - t0;
      session_step_sketch_.record(latency);
      worker_latency_[worker]->record(latency);
      return response;
    }
    if (method == kSessionClose) {
      const std::string response = handle_session_close(req);
      worker_latency_[worker]->record(obs::now_us() - t0);
      return response;
    }
  } catch (const std::exception& e) {
    return error_response(req.id, ErrorCode::kInternal, e.what());
  }
  return error_response(req.id, ErrorCode::kUnknownMethod,
                        "unknown method '" + req.method + "'");
}

std::string Server::resolve_scenario(const Request& req, Config& merged,
                                     sim::Scenario& scenario) {
  // A private Config per request: base pairs first, then the request's
  // overrides on top. Never share a Config across sessions — copies
  // share their consumed-key set, which concurrent reads would race on.
  for (const auto& [key, value] : base_pairs_) merged.set(key, value);
  for (const auto& [key, value] : req.overrides) {
    if (is_output_override(key)) {
      return error_response(req.id, ErrorCode::kBadRequest,
                            "override '" + key +
                                "' is not allowed in serve mode (results "
                                "are returned in the response)");
    }
    merged.set(key, value);
  }

  try {
    scenario = sim::Scenario::from_config(merged);
  } catch (const SimError& e) {
    return error_response(req.id, ErrorCode::kBadRequest, e.what());
  }
  // Serve-mode scenarios never record or stream server-side: the
  // response carries the report, and cache hits must be side-effect
  // free.
  scenario.record_trace = false;
  scenario.trace_csv.clear();
  scenario.metrics_out.clear();
  scenario.events_jsonl.clear();
  return "";
}

std::string Server::handle_run(const Request& req) {
  Config merged;
  sim::Scenario scenario;
  if (std::string refused = resolve_scenario(req, merged, scenario);
      !refused.empty())
    return refused;

  std::string cache_key = canonical_scenario_key(scenario, merged);
  // hex_doubles changes the result BYTES (the report_hex block), so it
  // must partition the cache — a plain request must never replay a hex
  // result or vice versa.
  if (req.hex_doubles) cache_key += "hex_doubles=true\n";

  bool claimed = false;
  if (!req.cache_bypass) {
    if (std::optional<std::string> hit = cache_.lookup_or_begin(cache_key))
      return build_ok_response(req.id, true, *hit);
    claimed = true;
  }

  if (stopping()) {
    if (claimed) cache_.abandon(cache_key);
    return error_response(req.id, ErrorCode::kDraining,
                          "server is draining, not accepting new work");
  }
  if (!try_admit()) {
    if (claimed) cache_.abandon(cache_key);
    return error_response(req.id, ErrorCode::kOverloaded,
                          "admission queue full (queue_depth=" +
                              std::to_string(options_.queue_depth) +
                              "), retry with backoff");
  }

  exec::StopSource source =
      req.deadline_ms > 0.0
          ? exec::StopSource::with_deadline(
                std::chrono::steady_clock::now() +
                std::chrono::microseconds(
                    static_cast<long long>(req.deadline_ms * 1000.0)))
          : exec::StopSource();
  const std::uint64_t inflight_id = register_inflight(source);

  std::string result_json;
  const exec::StopToken token = source.token();
  const obs::TraceSpan dispatch_span("serve.dispatch");
  const double enqueued_us = obs::now_us();
  exec::TaskHandle handle = pool_->submit([&] {
    const double wait_us = obs::now_us() - enqueued_us;
    queue_wait_sketch_.record(wait_us);
    obs::trace_emit("serve.queue_wait", enqueued_us, wait_us);
    const obs::TraceSpan run_span("serve.run");
    const core::SystemSpec spec = core::SystemSpec::from_config(merged);
    // Aggregate this run's sim/solver telemetry into the server
    // registry: the metrics method then reports warm-start hits,
    // ADMM iteration distributions etc. across every served run.
    sim::DiagnosticsSink diagnostics(run_instruments_);
    const sim::ScenarioOutcome outcome =
        sim::run_scenario(scenario, spec, merged, {&diagnostics}, token);
    Json result = Json::object();
    result.set("methodology", scenario.methodology);
    result.set("steps", outcome.power.size());
    result.set("distance_m", outcome.distance_m);
    result.set("report", sim::run_result_to_json(outcome.result));
    if (req.hex_doubles)
      result.set("report_hex", sim::run_result_to_hex_json(outcome.result));
    result_json = result.dump(0);
  });

  std::string response;
  try {
    handle.wait();
    if (claimed) cache_.fill(cache_key, result_json);
    response = build_ok_response(req.id, false, result_json);
  } catch (const SimCancelled& e) {
    if (claimed) cache_.abandon(cache_key);
    response = error_response(req.id,
                              token.deadline_expired()
                                  ? ErrorCode::kDeadlineExceeded
                                  : ErrorCode::kCancelled,
                              e.what());
  } catch (const SimError& e) {
    if (claimed) cache_.abandon(cache_key);
    response = error_response(req.id, ErrorCode::kBadRequest, e.what());
  } catch (const std::exception& e) {
    if (claimed) cache_.abandon(cache_key);
    response = error_response(req.id, ErrorCode::kInternal, e.what());
  }
  unregister_inflight(inflight_id);
  release_admission();
  return response;
}

std::string Server::handle_session_open(const Request& req) {
  if (stopping()) {
    return error_response(req.id, ErrorCode::kDraining,
                          "server is draining, not accepting new sessions");
  }
  Config merged;
  sim::Scenario scenario;
  if (std::string refused = resolve_scenario(req, merged, scenario);
      !refused.empty())
    return refused;

  const std::string sid = sessions_.next_id();
  std::shared_ptr<Session> session;
  try {
    const obs::TraceSpan open_span("serve.session.open");
    session = std::make_shared<Session>(sid, scenario, merged);
  } catch (const SimError& e) {
    return error_response(req.id, ErrorCode::kBadRequest, e.what());
  }
  if (!sessions_.insert(session)) {
    return error_response(req.id, ErrorCode::kSessionLimit,
                          "sessions are disabled (session_limit=0)");
  }

  Json result = Json::object();
  result.set("session", sid);
  result.set("methodology", session->methodology());
  result.set("dt_s", session->dt());
  result.set("route_steps", session->route_steps());
  return build_ok_response(req.id, false, result.dump(0));
}

std::string Server::handle_session_step(const Request& req) {
  if (req.session.empty()) {
    return error_response(req.id, ErrorCode::kBadRequest,
                          "session.step requires 'session'");
  }
  if (stopping()) {
    return error_response(req.id, ErrorCode::kDraining,
                          "server is draining, session is being torn down");
  }
  const std::shared_ptr<Session> session = sessions_.find(req.session);
  if (session == nullptr) {
    return error_response(req.id, ErrorCode::kUnknownSession,
                          "session '" + req.session +
                              "' is not resident (closed or evicted)");
  }
  try {
    const obs::TraceSpan step_span("serve.session.step");
    const Session::StepOutcome out =
        session->step(req.has_p_request, req.p_request_w);
    const core::StepRecord& rec = out.rec;
    const core::SolveDiagnostics& solve = rec.solve;

    // The reply has one fixed shape, so it is written straight into the
    // string: keys, with the punctuation before them, are literals, and
    // values go through the writers Json::dump uses, so the bytes are
    // those a dumped Json tree of the same object would have.
    std::string result;
    result.reserve(512);
    const auto number = [&result](std::string_view key, double v) {
      result += key;
      append_json_number(result, v);
    };
    const auto boolean = [&result](std::string_view key, bool b) {
      result += key;
      result += b ? "true" : "false";
    };
    result += "{\"session\":";
    append_json_string(result, req.session);
    number(",\"k\":", static_cast<double>(out.k));
    number(",\"p_request_w\":", out.p_request_w);
    number(",\"decision\":{\"p_cooler_w\":", rec.p_cooler_w);
    number(",\"t_inlet_k\":", rec.t_inlet_k);
    number(",\"p_cap_w\":", rec.e_cap_j / session->dt());
    number(",\"i_bat_a\":", rec.i_bat_a);
    number(",\"i_cap_a\":", rec.i_cap_a);
    number("},\"state\":{\"t_battery_k\":", rec.state_after.t_battery_k);
    number(",\"t_coolant_k\":", rec.state_after.t_coolant_k);
    number(",\"soc_percent\":", rec.state_after.soc_percent);
    number(",\"soe_percent\":", rec.state_after.soe_percent);
    boolean("},\"feasible\":", rec.feasible);
    number(",\"unmet_w\":", rec.unmet_w);
    boolean(",\"solve\":{\"present\":", solve.present);
    boolean(",\"converged\":", solve.converged);
    boolean(",\"fallback\":", solve.fallback);
    number(",\"iterations\":", static_cast<double>(solve.iterations));
    number(",\"sqp_rounds\":", static_cast<double>(solve.sqp_rounds));
    number(",\"qp_iterations\":", static_cast<double>(solve.qp_iterations));
    number(",\"qp_warm_hits\":", static_cast<double>(solve.qp_warm_hits));
    number(",\"kkt_refactorizations\":",
           static_cast<double>(solve.kkt_refactorizations));
    number(",\"qp_polish_hits\":", static_cast<double>(solve.qp_polish_hits));
    number(",\"solve_time_us\":", solve.solve_time_us);
    result += "}}";
    return build_ok_response(req.id, false, result);
  } catch (const SimError& e) {
    return error_response(req.id, ErrorCode::kBadRequest, e.what());
  }
}

std::string Server::handle_session_close(const Request& req) {
  if (req.session.empty()) {
    return error_response(req.id, ErrorCode::kBadRequest,
                          "session.close requires 'session'");
  }
  const std::shared_ptr<Session> session = sessions_.remove(req.session);
  if (session == nullptr) {
    return error_response(req.id, ErrorCode::kUnknownSession,
                          "session '" + req.session +
                              "' is not resident (closed or evicted)");
  }
  const sim::RunResult result = session->close();
  Json doc = Json::object();
  doc.set("session", req.session);
  doc.set("steps", session->steps_done());
  doc.set("report", sim::run_result_to_json(result));
  if (req.hex_doubles)
    doc.set("report_hex", sim::run_result_to_hex_json(result));
  return build_ok_response(req.id, false, doc.dump(0));
}

void Server::session_loop(int in_fd, int out_fd, size_t worker) {
  FrameReader reader(in_fd, options_.max_frame_bytes);
  std::string line;
  for (;;) {
    const FrameReader::Status status = reader.next(line, 200);
    if (status == FrameReader::Status::kEof ||
        status == FrameReader::Status::kError)
      return;
    if (status == FrameReader::Status::kNoData) {
      if (stopping()) return;
      continue;
    }
    const std::string response = status == FrameReader::Status::kOversized
                                     ? oversized_response()
                                     : handle_line(line, worker);
    if (!write_frame(out_fd, response)) return;
  }
}

void Server::drain() {
  using clock = std::chrono::steady_clock;
  const auto deadline =
      clock::now() + std::chrono::duration_cast<clock::duration>(
                         std::chrono::duration<double>(
                             options_.drain_timeout_s));
  // Phase 1: give in-flight work the drain window to finish naturally.
  while (active_requests() > 0 && clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));

  // Phase 2: cancel the stragglers through their stop tokens; the
  // per-step check in the simulator unwinds them within one step.
  size_t cancelled = 0;
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    for (auto& [id, source] : inflight_) {
      source.request_stop();
      ++cancelled;
    }
  }
  if (cancelled > 0)
    log::info("serve: drain timeout, cancelled ", cancelled,
              " in-flight request(s)");
  while (active_requests() > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

  // Tear down resident sessions: stopping() already refuses new steps,
  // a step in flight finishes safely on its shared_ptr, and everything
  // after this answers kUnknownSession.
  const size_t resident = sessions_.active();
  if (resident > 0)
    log::info("serve: drain dropped ", resident, " resident session(s)");
  sessions_.clear();
}

void Server::shutdown_flush() {
  const obs::MetricsSnapshot snap = registry_.snapshot();
  const auto count = [&](const char* name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? std::uint64_t{0} : it->second;
  };
  log::info("serve: shutting down — requests=",
            count("serve.requests.run"), " cache_hits=",
            count("serve.cache.hits"), " cache_misses=",
            count("serve.cache.misses"));
  if (!options_.metrics_out.empty()) {
    try {
      obs::write_metrics_json(options_.metrics_out, registry_);
      log::info("serve: final metrics snapshot written to ",
                options_.metrics_out);
    } catch (const std::exception& e) {
      log::error("serve: failed to flush metrics snapshot: ", e.what());
    }
  }
  if (!options_.trace_out.empty()) {
    try {
      obs::TraceCollector().write_chrome_trace(options_.trace_out);
      log::info("serve: trace written to ", options_.trace_out);
    } catch (const std::exception& e) {
      log::error("serve: failed to write trace: ", e.what());
    }
  }
}

int Server::serve_stdio(int in_fd, int out_fd) {
  SignalGuard signals;
  session_loop(in_fd, out_fd, 0);
  request_stop();
  drain();
  shutdown_flush();
  return 0;
}

void Server::accept_loop(int listen_fd, bool tcp, size_t worker) {
  obs::Counter& connections = registry_.counter("serve.connections");
  while (!stopping()) {
    struct pollfd pfds[2];
    pfds[0] = {listen_fd, POLLIN, 0};
    pfds[1] = {wake_read_fd_, POLLIN, 0};
    const int pr = ::poll(pfds, 2, 500);
    if (pr <= 0) continue;  // timeout or EINTR: re-check stopping()
    if (pfds[1].revents != 0) continue;  // woken for shutdown
    if ((pfds[0].revents & POLLIN) == 0) continue;
    // The listening socket is non-blocking: every worker polls it, so a
    // wakeup may find another acceptor already took the connection
    // (EAGAIN) — just go around.
    const int client_fd = ::accept(listen_fd, nullptr, nullptr);
    if (client_fd < 0) continue;
    if (tcp) {
      // One-line control frames must never sit in Nagle's buffer — a
      // session.step round trip IS the latency budget.
      const int one = 1;
      ::setsockopt(client_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    connections.add();
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      ++open_connections_;
    }
    std::thread([this, client_fd, worker] {
      session_loop(client_fd, client_fd, worker);
      ::close(client_fd);
      // Notify under the lock, so ~Server cannot destroy the condition
      // variable before this thread is done with it.
      std::lock_guard<std::mutex> lock(connections_mutex_);
      --open_connections_;
      connections_done_.notify_all();
    }).detach();
  }
}

int Server::serve_listener(int listen_fd, bool tcp) {
  SignalGuard signals;

  int wake[2] = {-1, -1};
  OTEM_REQUIRE(::pipe(wake) == 0, "serve: cannot create wake pipe");
  ::fcntl(wake[0], F_SETFL, O_NONBLOCK);
  ::fcntl(wake[1], F_SETFL, O_NONBLOCK);
  wake_read_fd_ = wake[0];
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    wake_write_fd_ = wake[1];
  }
  g_wake_fd.store(wake[1], std::memory_order_relaxed);
  // Non-blocking accept: all workers poll the same listening socket and
  // the kernel wakes whoever it pleases; losers of the accept race must
  // not block.
  ::fcntl(listen_fd, F_SETFL, O_NONBLOCK);

  // Workers 1..N-1 on their own threads, worker 0 on this one. The
  // wake byte is deliberately never read: once written, every poller
  // sees POLLIN forever, so ALL workers wake and observe stopping().
  std::vector<std::thread> acceptors;
  for (size_t w = 1; w < options_.workers; ++w)
    acceptors.emplace_back([this, listen_fd, tcp, w] {
      accept_loop(listen_fd, tcp, w);
    });
  accept_loop(listen_fd, tcp, 0);
  for (std::thread& t : acceptors) t.join();

  ::close(listen_fd);
  request_stop();  // make stopping() true for sessions even on signal path
  drain();
  {
    // Connection threads exit within one poll interval of stopping();
    // in-flight work was finished or cancelled by drain() above.
    std::unique_lock<std::mutex> lock(connections_mutex_);
    connections_done_.wait(lock, [&] { return open_connections_ == 0; });
  }
  g_wake_fd.store(-1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    wake_write_fd_ = -1;
    ::close(wake[1]);
  }
  wake_read_fd_ = -1;
  ::close(wake[0]);
  shutdown_flush();
  return 0;
}

int Server::serve_unix(const std::string& socket_path) {
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  OTEM_REQUIRE(listen_fd >= 0, "serve: cannot create socket");

  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  OTEM_REQUIRE(socket_path.size() < sizeof(addr.sun_path),
               "serve: socket path too long: " + socket_path);
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  // A stale socket file from a crashed daemon would block the bind;
  // remove it. A LIVE daemon on the path loses its socket too — the
  // deployment owns the path, as with any pid/socket file.
  ::unlink(socket_path.c_str());
  OTEM_REQUIRE(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0,
               "serve: cannot bind " + socket_path + ": " +
                   std::strerror(errno));
  OTEM_REQUIRE(::listen(listen_fd, 64) == 0,
               "serve: cannot listen on " + socket_path);

  log::info("serve: listening on ", socket_path, " (workers=",
            options_.workers, " threads=", pool_->thread_count(),
            " queue_depth=", options_.queue_depth,
            " cache_bytes=", options_.cache_bytes, ")");

  const int rc = serve_listener(listen_fd, /*tcp=*/false);
  ::unlink(socket_path.c_str());
  return rc;
}

int Server::serve_tcp(const std::string& host_port) {
  const size_t colon = host_port.rfind(':');
  OTEM_REQUIRE(colon != std::string::npos,
               "serve: tcp endpoint must be host:port, got '" + host_port +
                   "'");
  std::string host = host_port.substr(0, colon);
  const std::string port_str = host_port.substr(colon + 1);
  char* end = nullptr;
  const long port = std::strtol(port_str.c_str(), &end, 10);
  OTEM_REQUIRE(end != nullptr && *end == '\0' && port >= 0 && port <= 65535,
               "serve: invalid tcp port '" + port_str + "'");
  if (host.empty() || host == "localhost") host = "127.0.0.1";
  if (host == "*") host = "0.0.0.0";

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  OTEM_REQUIRE(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
               "serve: invalid tcp host '" + host +
                   "' (IPv4 literal or 'localhost')");

  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  OTEM_REQUIRE(listen_fd >= 0, "serve: cannot create tcp socket");
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  OTEM_REQUIRE(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0,
               "serve: cannot bind " + host_port + ": " +
                   std::strerror(errno));
  OTEM_REQUIRE(::listen(listen_fd, 128) == 0,
               "serve: cannot listen on " + host_port);

  // Report the kernel-assigned port for port-0 binds (tests, loadtest).
  struct sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0)
    bound_port_.store(ntohs(bound.sin_port), std::memory_order_release);

  log::info("serve: listening on ", host, ":", bound_port(), " (workers=",
            options_.workers, " threads=", pool_->thread_count(),
            " queue_depth=", options_.queue_depth,
            " cache_bytes=", options_.cache_bytes, ")");

  return serve_listener(listen_fd, /*tcp=*/true);
}

}  // namespace otem::serve
