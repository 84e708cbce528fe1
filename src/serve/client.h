// client.h — minimal synchronous client for the serve protocol.
//
// Connects to a daemon endpoint — a Unix-domain socket path or a TCP
// "host:port" (see is_tcp_endpoint for the disambiguation rule) — sends
// otem.serve.v1 request frames and waits for the matching response
// frame (the protocol is strictly one-response-per-request in order, so
// no correlation machinery is needed). This is what `otem_cli request`
// wraps; it is also handy for integration tests and scripting.
//
// Two shapes:
//   request_once / request_with_retry — one connection per request;
//       right for fire-and-forget `run` queries and the campaign
//       fabric, where the daemon's result cache makes reconnects cheap.
//   Connection — a persistent socket plus its reusable read buffer;
//       REQUIRED for mission sessions (session.open/step/close must all
//       ride one logical client) and what the loadtest harness drives,
//       since a sub-millisecond session.step would otherwise drown in
//       per-request connect cost.
//
// Every transport failure throws otem::SimError whose message carries
// the endpoint and strerror(errno), and connects are bounded by an
// explicit connect timeout (non-blocking connect + poll) instead of the
// kernel's multi-minute TCP default.
//
// The daemon sheds load by answering {"error":"overloaded"} instead of
// queueing unbounded work — a refusal the client is EXPECTED to absorb.
// request_with_retry() does exactly that: capped exponential backoff on
// overload refusals, every retry counted under "serve.client_retries"
// in the caller's otem.metrics.v2 registry. The campaign runner's
// serve-fabric dispatch and `otem_cli request` both route through it.
#pragma once

#include <functional>
#include <string>

#include "obs/metrics.h"
#include "serve/codec.h"

namespace otem::serve {

/// True when `endpoint` names a TCP listener rather than a Unix socket
/// path: it contains no '/' and ends in ":<digits>" (e.g.
/// "127.0.0.1:7600", "localhost:0"). Anything with a slash — including
/// "./sock:1" — is a filesystem path. Exposed for tests.
bool is_tcp_endpoint(const std::string& endpoint);

/// A persistent client connection: one socket, one frame buffer reused
/// across responses. Construct with a Unix socket path or TCP
/// "host:port"; the connect is bounded by `connect_timeout_s`. Not
/// thread-safe (the protocol is in-order per connection anyway) and not
/// copyable; movable so callers can keep one per worker in a vector.
class Connection {
 public:
  explicit Connection(const std::string& endpoint,
                      double connect_timeout_s = 5.0);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  Connection(Connection&& other) noexcept;
  Connection& operator=(Connection&& other) noexcept;

  /// Send one request frame and wait up to `timeout_s` for its response
  /// frame. Throws otem::SimError on send failure, a dropped
  /// connection, an oversized response, or timeout.
  std::string roundtrip(const std::string& request_line,
                        double timeout_s = 30.0);

  const std::string& endpoint() const { return endpoint_; }
  int fd() const { return fd_; }

 private:
  std::string endpoint_;
  int fd_ = -1;
  FrameReader reader_;
};

/// Send `request_line` (no trailing newline) to the daemon at
/// `endpoint` (Unix path or TCP host:port) and return the raw response
/// line. Throws otem::SimError on connect/send failure, a dropped
/// connection, or when no complete response arrives within `timeout_s`;
/// failure messages include strerror(errno).
std::string request_once(const std::string& endpoint,
                         const std::string& request_line,
                         double timeout_s = 30.0,
                         double connect_timeout_s = 5.0);

/// Backoff policy for overload refusals.
struct RetryOptions {
  /// Total attempts (first try included); 1 disables retrying.
  size_t max_attempts = 6;
  double initial_backoff_s = 0.05;
  /// Delay multiplier per retry, capped at max_backoff_s.
  double multiplier = 2.0;
  double max_backoff_s = 2.0;
};

/// The delay before retry number `retry` (0-based): initial * mult^retry,
/// capped. Exposed for tests.
double retry_backoff_s(const RetryOptions& options, size_t retry);

/// True when `response_line` is a well-formed otem.serve.v1 error frame
/// with code "overloaded" — the only refusal worth retrying (draining
/// and bad requests will not get better). Exposed for tests.
bool is_overloaded_response(const std::string& response_line);

/// request_once + retry on {"error":"overloaded"} with capped
/// exponential backoff. Other responses (success or error) return
/// as-is; transport failures still throw. When `metrics` is non-null
/// every retry increments its "serve.client_retries" counter.
std::string request_with_retry(const std::string& endpoint,
                               const std::string& request_line,
                               double timeout_s = 30.0,
                               const RetryOptions& options = {},
                               obs::MetricsRegistry* metrics = nullptr,
                               double connect_timeout_s = 5.0);

/// Transport-free core of request_with_retry, for tests and custom
/// transports: `transport` maps one request line to one response line;
/// `sleep_s` replaces the real clock when provided.
std::string request_with_retry(
    const std::function<std::string(const std::string&)>& transport,
    const std::string& request_line, const RetryOptions& options,
    obs::MetricsRegistry* metrics = nullptr,
    const std::function<void(double)>& sleep_s = {});

}  // namespace otem::serve
