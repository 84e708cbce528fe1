// server.h — the OTEM evaluation daemon.
//
// A resident Server answers otem.serve.v1 frames (serve/protocol.h)
// so fleets of evaluation queries stop paying process launch, scenario
// parsing and cold caches per run. The pieces:
//
//   admission queue — at most queue_depth run requests may be queued or
//       executing at once; the rest are refused IMMEDIATELY with
//       {"error":"overloaded"} rather than buffered into unbounded
//       latency (clients retry with backoff). ping/metrics/stats/
//       methods are control-plane and never queue.
//   dispatch       — admitted runs execute on an exec::ThreadPool via
//       submit(); the session thread joins the handle, so slow clients
//       only ever block themselves.
//   result cache   — serve/cache.h keyed by the canonical resolved
//       scenario; repeat queries are O(1) and byte-identical.
//   deadlines      — a per-request exec::StopSource with the client's
//       deadline_ms; the simulator's per-step stop check turns an
//       expired deadline into {"error":"deadline_exceeded"} instead of
//       a stuck worker.
//   graceful drain — SIGINT/SIGTERM (or request_stop()) stops
//       accepting, answers queued frames with {"error":"draining"},
//       gives in-flight work drain_timeout_s to finish, cancels
//       stragglers through their stop tokens, flushes a final metrics
//       snapshot and returns 0.
//
// Transports: a Unix-domain socket (serve_unix), a TCP listener
// (serve_tcp, TCP_NODELAY on every accepted connection so one-line
// control frames are never Nagle-delayed) — both with one detached
// connection thread per client and per-connection read buffers reused
// across frames — and a stdio mode (serve_stdio) for tests and
// pipelines. handle_line() is the transport-free core — one request
// line in, one response line out — which is what the protocol tests
// drive directly.
//
// Multi-worker mode (workers=N) runs N acceptor loops over the shared
// listening socket; the result cache is consistently sharded N ways
// (serve/cache.h ShardedResultCache — single-flight and byte-identical
// replay guarantees hold per shard), and each worker keeps its own
// request-latency sketch, merged deterministically in worker order by
// the `stats` method (the same KLL merge the campaign fabric uses).
//
// Mission sessions (serve/session.h): session.open resolves a scenario
// and pins a resident controller + plant state; session.step executes
// ONE control step on the connection thread — no pool dispatch, no
// admission queue, warm starts carried across frames — and returns the
// decision; session.close returns the accumulated report. Idle
// sessions are evicted LRU-with-TTL; drain drops the whole table after
// cancelling in-flight work.
//
// Observability (registry(), all under serve.*): queue depth gauge,
// request latency and queue-wait histograms AND quantile sketches
// (latency covers every run completion path — success, cache hit and
// error — and therefore includes queue wait), request counters for
// the eight protocol methods (unknown ones count only as an error),
// per-code error counters, cache hit/miss/coalesced/eviction
// counters and byte/entry gauges, connection counter. The `stats`
// method returns the live latency/queue-wait quantiles plus per-name
// summaries of recently recorded trace spans; `trace_out` enables the
// span tracer for the daemon's lifetime and writes an otem.trace.v1
// Chrome trace on shutdown.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/config.h"
#include "exec/stop_token.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "serve/cache.h"
#include "serve/protocol.h"
#include "serve/session.h"
#include "sim/obs_sink.h"

namespace otem::serve {

struct ServerOptions {
  /// Maximum run requests queued or executing at once; further runs
  /// are refused with {"error":"overloaded"}.
  size_t queue_depth = 16;
  /// Worker pool width; 0 = exec::default_concurrency().
  size_t threads = 0;
  /// Result-cache budget in bytes; 0 disables caching.
  size_t cache_bytes = 64u << 20;
  /// How long drain waits for in-flight work before cancelling it.
  double drain_timeout_s = 5.0;
  /// Frames longer than this are refused (connection survives).
  size_t max_frame_bytes = 1u << 20;
  /// Acceptor workers over the shared listening socket; also the result
  /// cache's shard count. 1 = the single-worker daemon.
  size_t workers = 1;
  /// Resident mission-session ceiling; opening past it evicts the LRU
  /// session. 0 disables the session API (session.open refuses).
  size_t session_limit = 64;
  /// Idle time after which a session is evictable [s]; 0 disables the
  /// TTL sweep.
  double session_ttl_s = 300.0;
  /// When non-empty, the final metrics snapshot is written here on
  /// shutdown (schema otem.metrics.v1).
  std::string metrics_out;
  /// When non-empty, span tracing is enabled for the daemon's lifetime
  /// and a Chrome trace (schema otem.trace.v1) is written here on
  /// shutdown.
  std::string trace_out;
  /// Base key=value overrides applied under every request (the serve
  /// command line); request overrides win.
  Config base;
};

class Server {
 public:
  explicit Server(const ServerOptions& options);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The transport-free core: one request frame in, one response frame
  /// out (no trailing newline). Never throws — every failure becomes a
  /// structured error response. Safe to call from many threads.
  /// `worker` attributes the request to one worker's latency sketch
  /// (clamped to the worker count; transports pass their acceptor's
  /// index).
  std::string handle_line(const std::string& line, size_t worker = 0);

  /// The response for a frame the codec refused as oversized.
  std::string oversized_response();

  /// Serve newline-framed requests from in_fd to out_fd until EOF or a
  /// stop; drains and flushes. Returns the process exit code (0).
  int serve_stdio(int in_fd = 0, int out_fd = 1);

  /// Bind `socket_path`, accept connections (one session thread each)
  /// until SIGINT/SIGTERM or request_stop(); drains, flushes, removes
  /// the socket file. Returns the process exit code (0).
  int serve_unix(const std::string& socket_path);

  /// Bind "host:port" (IPv4; "localhost" accepted, port 0 picks an
  /// ephemeral port — read it back via bound_port()) and accept TCP
  /// connections with TCP_NODELAY until a stop. Returns the process
  /// exit code (0).
  int serve_tcp(const std::string& host_port);

  /// The TCP port actually bound (after serve_tcp enters its accept
  /// loop); 0 until then. Lets tests bind port 0 and discover the
  /// ephemeral port.
  int bound_port() const {
    return bound_port_.load(std::memory_order_acquire);
  }

  /// Programmatic stop (what the signal handlers trigger): stop
  /// admitting runs and wake the accept loop. Idempotent, thread-safe.
  void request_stop();

  bool stopping() const;

  /// Wait drain_timeout_s for in-flight runs, then cancel the rest via
  /// their stop tokens and wait for them to unwind. Called by the
  /// serve loops; exposed for tests.
  void drain();

  size_t active_requests() const;
  obs::MetricsRegistry& registry() { return registry_; }

 private:
  /// The private Config and output-free Scenario of a run or
  /// session.open request (one path, so a session streams exactly what
  /// `run` evaluates); returns the error response on refusal, else "".
  std::string resolve_scenario(const Request& request, Config& merged,
                               sim::Scenario& scenario);
  std::string handle_run(const Request& request);
  std::string handle_session_open(const Request& request);
  std::string handle_session_step(const Request& request);
  std::string handle_session_close(const Request& request);
  std::string error_response(const Json& id, ErrorCode code,
                             const std::string& message);
  void session_loop(int in_fd, int out_fd, size_t worker);
  /// Shared serving loop behind serve_unix/serve_tcp: runs
  /// options_.workers acceptor loops over `listen_fd`, then drains.
  int serve_listener(int listen_fd, bool tcp);
  void accept_loop(int listen_fd, bool tcp, size_t worker);
  void shutdown_flush();

  bool try_admit();
  void release_admission();

  std::uint64_t register_inflight(const exec::StopSource& source);
  void unregister_inflight(std::uint64_t id);

  ServerOptions options_;
  /// Base overrides as plain pairs: each request builds a private
  /// Config from them, so concurrent requests never share a consumed-
  /// key set (Config copies share theirs, which would race).
  std::vector<std::pair<std::string, std::string>> base_pairs_;

  obs::MetricsRegistry registry_;
  ShardedResultCache cache_;
  SessionManager sessions_;
  /// One pre-resolved sim/solver instrument bundle shared by every run
  /// request (sharded instruments make concurrent runs safe), so the
  /// metrics method surfaces solver.qp_warm_hits & co fleet-wide.
  sim::DiagnosticsSink::Instruments run_instruments_;
  std::unique_ptr<exec::ThreadPool> pool_;

  std::atomic<bool> stop_{false};
  std::atomic<size_t> admitted_{0};

  mutable std::mutex inflight_mutex_;
  std::map<std::uint64_t, exec::StopSource> inflight_;
  std::uint64_t next_inflight_id_ = 0;

  std::mutex connections_mutex_;
  std::condition_variable connections_done_;
  size_t open_connections_ = 0;

  std::mutex wake_mutex_;  ///< held by request_stop() and the pipe close
  int wake_write_fd_ = -1;  ///< self-pipe: request_stop -> accept loop
  int wake_read_fd_ = -1;   ///< polled by every acceptor worker
  std::atomic<int> bound_port_{0};

  /// Request latency (frame entry to reply) and pool queue wait: the
  /// p50/p95/p99 of the `stats` method and the otem.metrics.v1
  /// "sketches" section.
  obs::Sketch& latency_sketch_;
  obs::Sketch& queue_wait_sketch_;
  /// session.step handling time (the headline sub-millisecond tier).
  obs::Sketch& session_step_sketch_;
  /// Per-acceptor-worker request latency, merged in worker order by the
  /// `stats` method.
  std::vector<obs::Sketch*> worker_latency_;
  /// serve.requests.<method>, one per protocol method, resolved at
  /// construction so a frame pays no name concatenation or registry
  /// lookup (server.cpp's method table gives the order).
  std::vector<obs::Counter*> request_counters_;
  obs::Gauge& queue_depth_;
};

}  // namespace otem::serve
