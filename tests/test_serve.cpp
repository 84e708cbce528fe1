// Tests for the serve subsystem: otem.serve.v1 protocol golden
// transcripts, frame codec (oversized frames, pipelining, EOF), the
// single-flight result cache, canonical cache keys, admission
// backpressure, the run gate, deadlines, drain semantics and the stdio
// transport.
//
// Everything here drives Server::handle_line (the transport-free core)
// or real pipes — no Unix socket is needed; CI's smoke job covers the
// socket path end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/config.h"
#include "common/error.h"
#include "common/json.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/cache.h"
#include "serve/client.h"
#include "serve/codec.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "sim/scenario.h"

namespace otem::serve {
namespace {

/// A server sized for tests: tiny pool, small cache, instant drain.
ServerOptions test_options() {
  ServerOptions opts;
  opts.threads = 2;
  opts.queue_depth = 4;
  opts.cache_bytes = 1u << 20;
  opts.drain_timeout_s = 0.0;
  return opts;
}

/// A mission small enough to finish in milliseconds.
std::string short_run_request(const std::string& extra = "") {
  return std::string("{\"schema\":\"otem.serve.v1\",\"method\":\"run\","
                     "\"overrides\":{\"method\":\"parallel\","
                     "\"synthetic\":true,\"synthetic_duration_s\":30") +
         extra + "}}";
}

/// A mission long enough (hundreds of thousands of steps) that tests
/// can reliably observe it in flight before cancelling it.
std::string long_run_request() {
  return "{\"schema\":\"otem.serve.v1\",\"method\":\"run\",\"cache\":"
         "\"bypass\",\"overrides\":{\"method\":\"parallel\","
         "\"synthetic\":true,\"synthetic_duration_s\":900,"
         "\"repeats\":2000}}";
}

/// Spin until the server reports `n` requests in flight (or fail).
void wait_for_inflight(Server& server, size_t n) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.active_requests() != n) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "timed out waiting for " << n << " in-flight request(s)";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// Spin until `n` runs have stopped waiting for a run slot (or fail): a
/// run's queue wait is recorded the moment it takes its slot.
void wait_for_queue_waits(Server& server, size_t n) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.registry().sketch("serve.queue.wait_us").snapshot().count <
         n) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "timed out waiting for " << n << " run(s) to take a slot";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// --- golden transcripts -----------------------------------------------------

TEST(ServeProtocol, PingGoldenTranscript) {
  Server server(test_options());
  EXPECT_EQ(
      server.handle_line(
          "{\"schema\":\"otem.serve.v1\",\"method\":\"ping\",\"id\":\"t1\"}"),
      "{\"schema\":\"otem.serve.v1\",\"id\":\"t1\",\"ok\":true,"
      "\"cached\":false,\"result\":{\"pong\":true}}");
}

TEST(ServeProtocol, IdIsEchoedVerbatimWhateverItsType) {
  Server server(test_options());
  const std::string resp = server.handle_line(
      "{\"schema\":\"otem.serve.v1\",\"method\":\"ping\","
      "\"id\":{\"seq\":17,\"tag\":\"x\"}}");
  EXPECT_NE(resp.find("\"id\":{\"seq\":17,\"tag\":\"x\"}"),
            std::string::npos)
      << resp;
}

TEST(ServeProtocol, UnknownMethodGoldenTranscript) {
  Server server(test_options());
  EXPECT_EQ(
      server.handle_line(
          "{\"schema\":\"otem.serve.v1\",\"method\":\"frobnicate\"}"),
      "{\"schema\":\"otem.serve.v1\",\"id\":null,\"ok\":false,"
      "\"error\":\"unknown_method\",\"message\":"
      "\"unknown method 'frobnicate'\"}");
}

TEST(ServeProtocol, UnknownMethodsCreateNoCounters) {
  // Method names are client input: inventing them must not grow the
  // registry (nor every later metrics reply). They are counted once,
  // under serve.errors.unknown_method.
  Server server(test_options());
  const auto unknown = [&](const std::string& method) {
    return server.handle_line(
        "{\"schema\":\"otem.serve.v1\",\"method\":\"" + method + "\"}");
  };
  const auto names = [](const std::map<std::string, std::uint64_t>& m) {
    std::vector<std::string> keys;
    for (const auto& [name, value] : m) keys.push_back(name);
    return keys;
  };
  unknown("warm-up");
  const std::map<std::string, std::uint64_t> before =
      server.registry().snapshot().counters;
  for (int i = 0; i < 1000; ++i) unknown("no-such-method" + std::to_string(i));
  const std::map<std::string, std::uint64_t> after =
      server.registry().snapshot().counters;

  EXPECT_EQ(names(after), names(before));
  ASSERT_EQ(after.count("serve.errors.unknown_method"), 1u);
  EXPECT_EQ(after.at("serve.errors.unknown_method"),
            before.at("serve.errors.unknown_method") + 1000);
}

TEST(ServeProtocol, MethodsListsTheRegistry) {
  Server server(test_options());
  const std::string resp = server.handle_line(
      "{\"schema\":\"otem.serve.v1\",\"method\":\"methods\"}");
  EXPECT_NE(resp.find("\"ok\":true"), std::string::npos) << resp;
  EXPECT_NE(resp.find("\"parallel\""), std::string::npos) << resp;
  EXPECT_NE(resp.find("\"otem\""), std::string::npos) << resp;
}

TEST(ServeProtocol, MetricsReturnsASnapshot) {
  Server server(test_options());
  const std::string resp = server.handle_line(
      "{\"schema\":\"otem.serve.v1\",\"method\":\"metrics\"}");
  EXPECT_NE(resp.find("\"ok\":true"), std::string::npos) << resp;
  EXPECT_NE(resp.find("otem.metrics.v2"), std::string::npos) << resp;
  // The run diagnostics registered at startup are sketches, zeroed
  // until a run records into them; v2 has no histogram section.
  EXPECT_NE(resp.find("\"solver.qp_iterations\":{\"count\":0,\"sum\":0,"
                      "\"min\":0,\"max\":0,\"mean\":0,\"p50\":0,"
                      "\"p95\":0,\"p99\":0,\"p999\":0}"),
            std::string::npos)
      << resp;
  EXPECT_EQ(resp.find("\"histograms\""), std::string::npos) << resp;
}

// --- malformed frames (connection-level behaviour is the caller's; the
// --- contract here is: every bad frame gets a structured error) -------------

TEST(ServeProtocol, InvalidJsonIsAnsweredInProtocol) {
  Server server(test_options());
  const std::string resp = server.handle_line("{nope");
  EXPECT_NE(resp.find("\"error\":\"bad_request\""), std::string::npos)
      << resp;
  EXPECT_NE(resp.find("invalid JSON frame"), std::string::npos) << resp;
  // The server object survives and keeps answering.
  EXPECT_NE(server
                .handle_line("{\"schema\":\"otem.serve.v1\","
                             "\"method\":\"ping\"}")
                .find("\"pong\":true"),
            std::string::npos);
}

TEST(ServeProtocol, WrongOrMissingSchemaIsRejected) {
  Server server(test_options());
  EXPECT_NE(server.handle_line("{\"method\":\"ping\"}")
                .find("\"error\":\"bad_request\""),
            std::string::npos);
  EXPECT_NE(server
                .handle_line("{\"schema\":\"otem.serve.v2\","
                             "\"method\":\"ping\"}")
                .find("\"error\":\"bad_request\""),
            std::string::npos);
}

TEST(ServeProtocol, StructuredFieldValidation) {
  Server server(test_options());
  // deadline_ms must be a non-negative number.
  EXPECT_NE(server
                .handle_line("{\"schema\":\"otem.serve.v1\",\"method\":"
                             "\"run\",\"deadline_ms\":-5}")
                .find("\"error\":\"bad_request\""),
            std::string::npos);
  // cache only accepts "use" | "bypass".
  EXPECT_NE(server
                .handle_line("{\"schema\":\"otem.serve.v1\",\"method\":"
                             "\"run\",\"cache\":\"maybe\"}")
                .find("\"error\":\"bad_request\""),
            std::string::npos);
  // overrides must be an object of scalars.
  EXPECT_NE(server
                .handle_line("{\"schema\":\"otem.serve.v1\",\"method\":"
                             "\"run\",\"overrides\":[1,2]}")
                .find("\"error\":\"bad_request\""),
            std::string::npos);
  EXPECT_NE(server
                .handle_line("{\"schema\":\"otem.serve.v1\",\"method\":"
                             "\"run\",\"overrides\":{\"repeats\":[1]}}")
                .find("\"error\":\"bad_request\""),
            std::string::npos);
}

TEST(ServeProtocol, ServerSideOutputOverridesAreRefused) {
  Server server(test_options());
  const std::string resp = server.handle_line(
      "{\"schema\":\"otem.serve.v1\",\"method\":\"run\","
      "\"overrides\":{\"trace_csv\":\"/tmp/x.csv\"}}");
  EXPECT_NE(resp.find("\"error\":\"bad_request\""), std::string::npos)
      << resp;
  EXPECT_NE(resp.find("not allowed in serve mode"), std::string::npos)
      << resp;
}

// --- request builder / parser round-trip ------------------------------------

TEST(ServeProtocol, BuildThenParseRoundTripsARequest) {
  Request req;
  req.method = "run";
  req.id = Json("client-7");
  req.deadline_ms = 2500.0;
  req.cache_bypass = true;
  req.overrides.emplace_back("method", "parallel");
  req.overrides.emplace_back("repeats", "3");
  const Request back = parse_request(build_request(req));
  EXPECT_EQ(back.method, "run");
  EXPECT_EQ(back.id.as_string(), "client-7");
  EXPECT_DOUBLE_EQ(back.deadline_ms, 2500.0);
  EXPECT_TRUE(back.cache_bypass);
  EXPECT_EQ(back.overrides, req.overrides);
}

TEST(ServeProtocol, OverrideValuesCoerceToConfigStrings) {
  const Request req = parse_request(
      "{\"schema\":\"otem.serve.v1\",\"method\":\"run\",\"overrides\":"
      "{\"repeats\":2,\"soak\":true,\"ambient_k\":2.5,\"cycle\":\"US06\"}}");
  ASSERT_EQ(req.overrides.size(), 4u);
  // Integral numbers print WITHOUT a decimal point, so get_long keys
  // ("repeats", seeds, horizons) stay parseable downstream.
  EXPECT_EQ(req.overrides[0],
            (std::pair<std::string, std::string>{"repeats", "2"}));
  EXPECT_EQ(req.overrides[1],
            (std::pair<std::string, std::string>{"soak", "true"}));
  EXPECT_EQ(req.overrides[2],
            (std::pair<std::string, std::string>{"ambient_k", "2.5"}));
  EXPECT_EQ(req.overrides[3],
            (std::pair<std::string, std::string>{"cycle", "US06"}));
}

// --- run + cache ------------------------------------------------------------

TEST(ServeRun, RepeatRequestIsServedByteIdenticallyFromCache) {
  Server server(test_options());
  const std::string first = server.handle_line(short_run_request());
  const std::string second = server.handle_line(short_run_request());
  ASSERT_NE(first.find("\"ok\":true"), std::string::npos) << first;
  EXPECT_NE(first.find("\"cached\":false"), std::string::npos) << first;
  EXPECT_NE(second.find("\"cached\":true"), std::string::npos) << second;

  // Identical result document, byte for byte — the envelope differs
  // only in the cached flag.
  const std::string kMark = "\"result\":";
  const size_t a = first.find(kMark);
  const size_t b = second.find(kMark);
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  EXPECT_EQ(first.substr(a), second.substr(b));

  EXPECT_EQ(server.registry().counter("serve.cache.misses").value(), 1u);
  EXPECT_EQ(server.registry().counter("serve.cache.hits").value(), 1u);
}

TEST(ServeRun, CacheBypassAlwaysRecomputes) {
  Server server(test_options());
  const std::string bypass =
      "{\"schema\":\"otem.serve.v1\",\"method\":\"run\",\"cache\":"
      "\"bypass\",\"overrides\":{\"method\":\"parallel\","
      "\"synthetic\":true,\"synthetic_duration_s\":30}}";
  const std::string first = server.handle_line(bypass);
  const std::string second = server.handle_line(bypass);
  EXPECT_NE(first.find("\"cached\":false"), std::string::npos) << first;
  EXPECT_NE(second.find("\"cached\":false"), std::string::npos) << second;
  EXPECT_EQ(server.registry().counter("serve.cache.hits").value(), 0u);
}

TEST(ServeRun, ResultCarriesTheRunReport) {
  Server server(test_options());
  const std::string resp = server.handle_line(short_run_request());
  ASSERT_NE(resp.find("\"ok\":true"), std::string::npos) << resp;
  const Json doc = Json::parse(resp);
  const Json* result = doc.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->find("methodology")->as_string(), "parallel");
  EXPECT_GT(result->find("steps")->as_number(), 0.0);
  const Json* report = result->find("report");
  ASSERT_NE(report, nullptr);
  ASSERT_NE(report->find("qloss_percent"), nullptr);
  EXPECT_GT(report->find("qloss_percent")->as_number(), 0.0);
}

TEST(ServeRun, ConcurrentIdenticalRequestsComputeExactlyOnce) {
  Server server(test_options());
  constexpr size_t kClients = 8;
  std::vector<std::string> responses(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t i = 0; i < kClients; ++i)
    clients.emplace_back([&, i] {
      responses[i] = server.handle_line(short_run_request());
    });
  for (std::thread& t : clients) t.join();

  const std::string kMark = "\"result\":";
  size_t computed = 0;
  std::string canonical;
  for (const std::string& resp : responses) {
    ASSERT_NE(resp.find("\"ok\":true"), std::string::npos) << resp;
    if (resp.find("\"cached\":false") != std::string::npos) ++computed;
    const size_t at = resp.find(kMark);
    ASSERT_NE(at, std::string::npos);
    if (canonical.empty()) canonical = resp.substr(at);
    EXPECT_EQ(resp.substr(at), canonical);  // all byte-identical
  }
  // Single-flight: exactly one client computed, everyone else was
  // served the same bytes (coalesced on the pending entry or a plain
  // hit after it landed).
  EXPECT_EQ(computed, 1u);
  EXPECT_EQ(server.registry().counter("serve.cache.misses").value(), 1u);
  EXPECT_EQ(server.registry().counter("serve.cache.hits").value(),
            kClients - 1);
}

TEST(ServeRun, ExpiredDeadlineAnswersDeadlineExceeded) {
  Server server(test_options());
  const std::string resp = server.handle_line(
      "{\"schema\":\"otem.serve.v1\",\"method\":\"run\",\"cache\":"
      "\"bypass\",\"deadline_ms\":0.001,\"overrides\":{\"method\":"
      "\"parallel\",\"synthetic\":true,\"synthetic_duration_s\":900,"
      "\"repeats\":50}}");
  EXPECT_NE(resp.find("\"error\":\"deadline_exceeded\""),
            std::string::npos)
      << resp;
  EXPECT_EQ(server.active_requests(), 0u);
}

TEST(ServeRun, DeadlinesBeyondTheSteadyClockAreBadRequests) {
  // The steady clock spans about 292 years of nanoseconds: 1e13 ms is
  // past it, 1e300 ms far past, and 1e400 does not even parse as a
  // double. None may arm a stop source; 1e12 ms (~32 years) runs.
  Server server(test_options());
  for (const char* deadline : {"1e13", "1e300", "1e400"}) {
    const std::string resp = server.handle_line(
        std::string("{\"schema\":\"otem.serve.v1\",\"method\":\"run\","
                    "\"cache\":\"bypass\",\"deadline_ms\":") +
        deadline +
        ",\"overrides\":{\"method\":\"parallel\",\"synthetic\":true,"
        "\"synthetic_duration_s\":30}}");
    EXPECT_NE(resp.find("\"error\":\"bad_request\""), std::string::npos)
        << deadline << ": " << resp;
  }
  const std::string resp = server.handle_line(
      "{\"schema\":\"otem.serve.v1\",\"method\":\"run\",\"cache\":"
      "\"bypass\",\"deadline_ms\":1e12,\"overrides\":{\"method\":"
      "\"parallel\",\"synthetic\":true,\"synthetic_duration_s\":30}}");
  EXPECT_NE(resp.find("\"ok\":true"), std::string::npos) << resp;
  EXPECT_EQ(server.active_requests(), 0u);
}

TEST(ServeRun, UnknownMethodologyIsABadRequestNotACrash) {
  Server server(test_options());
  const std::string resp = server.handle_line(
      "{\"schema\":\"otem.serve.v1\",\"method\":\"run\","
      "\"overrides\":{\"method\":\"no_such_strategy\"}}");
  EXPECT_NE(resp.find("\"ok\":false"), std::string::npos) << resp;
  EXPECT_EQ(server.active_requests(), 0u);
}

// --- client retry -----------------------------------------------------------

std::string overloaded_line() {
  return build_error_response(Json(), ErrorCode::kOverloaded, "queue full");
}

TEST(ServeClientRetry, BackoffScheduleIsCappedExponential) {
  RetryOptions opt;
  opt.initial_backoff_s = 0.05;
  opt.multiplier = 2.0;
  opt.max_backoff_s = 0.3;
  EXPECT_DOUBLE_EQ(retry_backoff_s(opt, 0), 0.05);
  EXPECT_DOUBLE_EQ(retry_backoff_s(opt, 1), 0.1);
  EXPECT_DOUBLE_EQ(retry_backoff_s(opt, 2), 0.2);
  EXPECT_DOUBLE_EQ(retry_backoff_s(opt, 3), 0.3);  // capped
  EXPECT_DOUBLE_EQ(retry_backoff_s(opt, 9), 0.3);
}

TEST(ServeClientRetry, OnlyOverloadedFramesAreRetryable) {
  EXPECT_TRUE(is_overloaded_response(overloaded_line()));
  EXPECT_FALSE(is_overloaded_response(
      build_error_response(Json(), ErrorCode::kDraining, "going away")));
  EXPECT_FALSE(is_overloaded_response("{\"ok\":true}"));
  EXPECT_FALSE(is_overloaded_response("not json at all"));
}

TEST(ServeClientRetry, RetriesOverloadThenReturnsAndCounts) {
  obs::MetricsRegistry registry;
  std::vector<double> slept;
  int calls = 0;
  const std::string response = request_with_retry(
      [&](const std::string& line) {
        EXPECT_EQ(line, "req");
        return ++calls <= 2 ? overloaded_line() : std::string("{\"ok\":true}");
      },
      "req", RetryOptions{}, &registry,
      [&](double s) { slept.push_back(s); });
  EXPECT_EQ(response, "{\"ok\":true}");
  EXPECT_EQ(calls, 3);
  // One backoff per refusal, following the schedule.
  ASSERT_EQ(slept.size(), 2u);
  EXPECT_DOUBLE_EQ(slept[0], 0.05);
  EXPECT_DOUBLE_EQ(slept[1], 0.1);
  // Every retry is visible in the metrics snapshot.
  EXPECT_EQ(registry.counter("serve.client_retries").value(), 2u);
}

TEST(ServeClientRetry, GivesUpAfterMaxAttemptsWithTheLastResponse) {
  RetryOptions opt;
  opt.max_attempts = 3;
  int calls = 0;
  const std::string response = request_with_retry(
      [&](const std::string&) {
        ++calls;
        return overloaded_line();
      },
      "req", opt, nullptr, [](double) {});
  EXPECT_EQ(calls, 3);
  EXPECT_TRUE(is_overloaded_response(response));
}

TEST(ServeClientRetry, NonRetryableErrorsPassStraightThrough) {
  int calls = 0;
  const std::string bad =
      build_error_response(Json(), ErrorCode::kBadRequest, "nope");
  const std::string response = request_with_retry(
      [&](const std::string&) {
        ++calls;
        return bad;
      },
      "req", RetryOptions{}, nullptr, [](double) { FAIL() << "no backoff"; });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(response, bad);
}

// --- backpressure + drain ---------------------------------------------------

TEST(ServeAdmission, FullQueueRefusesWithOverloaded) {
  ServerOptions opts = test_options();
  opts.queue_depth = 1;
  Server server(opts);

  std::string occupant_response;
  std::thread occupant([&] {
    occupant_response = server.handle_line(long_run_request());
  });
  wait_for_inflight(server, 1);

  // Queue full: a second run is refused immediately, control-plane
  // methods still answer.
  const std::string refused = server.handle_line(
      "{\"schema\":\"otem.serve.v1\",\"method\":\"run\",\"cache\":"
      "\"bypass\",\"overrides\":{\"method\":\"parallel\",\"synthetic\":"
      "true,\"synthetic_duration_s\":30}}");
  EXPECT_NE(refused.find("\"error\":\"overloaded\""), std::string::npos)
      << refused;
  EXPECT_NE(server
                .handle_line("{\"schema\":\"otem.serve.v1\","
                             "\"method\":\"ping\"}")
                .find("\"pong\":true"),
            std::string::npos);

  server.request_stop();
  server.drain();
  occupant.join();
  EXPECT_NE(occupant_response.find("\"error\":\"cancelled\""),
            std::string::npos)
      << occupant_response;
}

TEST(ServeDrain, CancelsInFlightWorkThenRefusesNewWork) {
  Server server(test_options());  // drain_timeout_s = 0: cancel at once
  std::string inflight_response;
  std::thread client([&] {
    inflight_response = server.handle_line(long_run_request());
  });
  wait_for_inflight(server, 1);

  server.request_stop();
  server.drain();
  client.join();

  EXPECT_NE(inflight_response.find("\"error\":\"cancelled\""),
            std::string::npos)
      << inflight_response;
  EXPECT_EQ(server.active_requests(), 0u);
  // Post-drain, run requests are refused as draining.
  EXPECT_NE(server.handle_line(short_run_request())
                .find("\"error\":\"draining\""),
            std::string::npos);
}

// --- the run gate: `threads` runs execute at once ---------------------------

/// An uncached run of some tens of milliseconds (~20 ms in a Release
/// build): long enough that two of them executing at once overlap
/// unambiguously, whatever the skew between their clients.
const char* const kGatedRunRequest =
    "{\"schema\":\"otem.serve.v1\",\"method\":\"run\",\"cache\":"
    "\"bypass\",\"overrides\":{\"method\":\"parallel\","
    "\"synthetic\":true,\"synthetic_duration_s\":900,\"repeats\":100}}";

/// Tracing is process-global state: restore it however a test ends.
struct TraceGuard {
  TraceGuard() { obs::trace_reset(); }
  ~TraceGuard() {
    obs::set_trace_enabled(false);
    obs::trace_reset();
  }
};

/// The serve.run spans the tracer recorded, in start order.
std::vector<obs::SpanRecord> run_spans() {
  std::vector<obs::SpanRecord> runs;
  for (const obs::SpanRecord& span : obs::TraceCollector().collect())
    if (std::string(span.name) == "serve.run") runs.push_back(span);
  std::sort(runs.begin(), runs.end(),
            [](const obs::SpanRecord& a, const obs::SpanRecord& b) {
              return a.ts_us < b.ts_us;
            });
  return runs;
}

/// Sends `clients` copies of `request` to `server` at once; every reply
/// must be ok.
void run_concurrently(Server& server, size_t clients,
                      const std::string& request) {
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t i = 0; i < clients; ++i)
    threads.emplace_back([&] {
      const std::string resp = server.handle_line(request);
      EXPECT_NE(resp.find("\"ok\":true"), std::string::npos) << resp;
    });
  for (std::thread& t : threads) t.join();
}

ServerOptions traced_options(size_t threads) {
  ServerOptions opts = test_options();
  opts.threads = threads;
  opts.trace_out = "/dev/null";  // enables tracing for the lifetime
  return opts;
}

TEST(ServeRunGate, OneSlotNeverExecutesTwoRunsAtOnce) {
  const TraceGuard guard;
  Server server(traced_options(1));
  run_concurrently(server, 2, kGatedRunRequest);
  const std::vector<obs::SpanRecord> runs = run_spans();
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_LE(runs[0].ts_us + runs[0].dur_us, runs[1].ts_us)
      << "threads=1 ran two missions at once";
}

TEST(ServeRunGate, TwoSlotsExecuteTwoRunsAtOnce) {
  const TraceGuard guard;
  Server server(traced_options(2));
  run_concurrently(server, 2, kGatedRunRequest);
  const std::vector<obs::SpanRecord> runs = run_spans();
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_GT(runs[0].ts_us + runs[0].dur_us, runs[1].ts_us)
      << "threads=2 ran its two missions one at a time";
}

TEST(ServeRunGate, WaitersAreCancelledByDrainWithoutStepping) {
  // One slot, held by a long run: a second run waits for the slot. A
  // drain cancels both; the waiter answers without ever executing.
  const TraceGuard guard;
  Server server(traced_options(1));
  std::string holder, waiter;
  std::thread first([&] { holder = server.handle_line(long_run_request()); });
  wait_for_queue_waits(server, 1);
  std::thread second([&] { waiter = server.handle_line(long_run_request()); });
  wait_for_inflight(server, 2);
  server.request_stop();
  server.drain();
  first.join();
  second.join();
  EXPECT_NE(holder.find("\"error\":\"cancelled\""), std::string::npos)
      << holder;
  EXPECT_NE(waiter.find("\"error\":\"cancelled\""), std::string::npos)
      << waiter;
  EXPECT_EQ(run_spans().size(), 1u);
  EXPECT_EQ(server.registry().sketch("serve.queue.wait_us").snapshot().count,
            2u);
}

TEST(ServeRunGate, WaiterWhoseDeadlineExpiresAnswersDeadlineExceeded) {
  ServerOptions opts = test_options();
  opts.threads = 1;
  Server server(opts);
  std::thread holder([&] { (void)server.handle_line(long_run_request()); });
  wait_for_queue_waits(server, 1);
  const std::string waiter = server.handle_line(
      "{\"schema\":\"otem.serve.v1\",\"method\":\"run\",\"cache\":"
      "\"bypass\",\"deadline_ms\":20,\"overrides\":{\"method\":"
      "\"parallel\",\"synthetic\":true,\"synthetic_duration_s\":30}}");
  EXPECT_NE(waiter.find("\"error\":\"deadline_exceeded\""),
            std::string::npos)
      << waiter;
  server.request_stop();
  server.drain();
  holder.join();
}

// --- frame codec ------------------------------------------------------------

struct Pipe {
  int fds[2] = {-1, -1};
  Pipe() { EXPECT_EQ(::pipe(fds), 0); }
  ~Pipe() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
  void close_writer() {
    ::close(fds[1]);
    fds[1] = -1;
  }
};

TEST(FrameCodec, PipelinedFramesAreServedBackToBack) {
  Pipe p;
  ASSERT_TRUE(write_frame(p.fds[1], "one"));
  ASSERT_TRUE(write_frame(p.fds[1], "two"));
  FrameReader reader(p.fds[0], 1024);
  std::string line;
  EXPECT_EQ(reader.next(line, 1000), FrameReader::Status::kFrame);
  EXPECT_EQ(line, "one");
  EXPECT_EQ(reader.next(line, 1000), FrameReader::Status::kFrame);
  EXPECT_EQ(line, "two");
  EXPECT_EQ(reader.next(line, 0), FrameReader::Status::kNoData);
}

TEST(FrameCodec, PartialFrameWaitsForTheRest) {
  Pipe p;
  ASSERT_EQ(::write(p.fds[1], "par", 3), 3);
  FrameReader reader(p.fds[0], 1024);
  std::string line;
  EXPECT_EQ(reader.next(line, 50), FrameReader::Status::kNoData);
  ASSERT_EQ(::write(p.fds[1], "tial\n", 5), 5);
  EXPECT_EQ(reader.next(line, 1000), FrameReader::Status::kFrame);
  EXPECT_EQ(line, "partial");
}

TEST(FrameCodec, OversizedFrameIsSkippedAndTheConnectionSurvives) {
  Pipe p;
  const std::string huge(100, 'x');
  ASSERT_TRUE(write_frame(p.fds[1], huge));
  ASSERT_TRUE(write_frame(p.fds[1], "ok"));
  FrameReader reader(p.fds[0], 16);
  std::string line;
  EXPECT_EQ(reader.next(line, 1000), FrameReader::Status::kOversized);
  // The next frame parses normally — one structured error per huge
  // frame, no connection teardown.
  EXPECT_EQ(reader.next(line, 1000), FrameReader::Status::kFrame);
  EXPECT_EQ(line, "ok");
}

TEST(FrameCodec, EofAfterLastFrame) {
  Pipe p;
  ASSERT_TRUE(write_frame(p.fds[1], "last"));
  p.close_writer();
  FrameReader reader(p.fds[0], 1024);
  std::string line;
  EXPECT_EQ(reader.next(line, 1000), FrameReader::Status::kFrame);
  EXPECT_EQ(line, "last");
  EXPECT_EQ(reader.next(line, 1000), FrameReader::Status::kEof);
}

TEST(FrameCodec, WriteFrameAppendsExactlyOneNewline) {
  Pipe p;
  ASSERT_TRUE(write_frame(p.fds[1], "abc"));
  p.close_writer();
  char buf[16];
  const ssize_t n = ::read(p.fds[0], buf, sizeof(buf));
  ASSERT_EQ(n, 4);
  EXPECT_EQ(std::string(buf, 4), "abc\n");
}

// --- result cache -----------------------------------------------------------

TEST(ResultCacheTest, MissClaimFillHit) {
  obs::MetricsRegistry registry;
  ResultCache cache(1u << 20, registry);
  EXPECT_EQ(cache.lookup_or_begin("k"), std::nullopt);  // claimed
  cache.fill("k", "value-bytes");
  const std::optional<std::string> hit = cache.lookup_or_begin("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "value-bytes");
  EXPECT_EQ(registry.counter("serve.cache.misses").value(), 1u);
  EXPECT_EQ(registry.counter("serve.cache.hits").value(), 1u);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_GT(cache.bytes(), 0u);
}

TEST(ResultCacheTest, ZeroBudgetDisablesCaching) {
  obs::MetricsRegistry registry;
  ResultCache cache(0, registry);
  EXPECT_EQ(cache.lookup_or_begin("k"), std::nullopt);
  cache.fill("k", "value");
  EXPECT_EQ(cache.lookup_or_begin("k"), std::nullopt);  // still a miss
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(ResultCacheTest, LruEvictionPrefersTheColdestEntry) {
  obs::MetricsRegistry registry;
  // Room for two filled entries (64B overhead + key + value each), not
  // three.
  ResultCache cache(300, registry);
  EXPECT_EQ(cache.lookup_or_begin("a"), std::nullopt);
  cache.fill("a", std::string(40, 'A'));
  EXPECT_EQ(cache.lookup_or_begin("b"), std::nullopt);
  cache.fill("b", std::string(40, 'B'));
  // Touch "a" so "b" is the LRU victim.
  ASSERT_TRUE(cache.lookup_or_begin("a").has_value());
  EXPECT_EQ(cache.lookup_or_begin("c"), std::nullopt);
  cache.fill("c", std::string(40, 'C'));
  EXPECT_GE(registry.counter("serve.cache.evictions").value(), 1u);
  EXPECT_TRUE(cache.lookup_or_begin("a").has_value());   // survived
  EXPECT_EQ(cache.lookup_or_begin("b"), std::nullopt);   // evicted
}

TEST(ResultCacheTest, AbandonReleasesCoalescedWaiters) {
  obs::MetricsRegistry registry;
  ResultCache cache(1u << 20, registry);
  EXPECT_EQ(cache.lookup_or_begin("k"), std::nullopt);  // this claim fails

  std::atomic<bool> waiter_done{false};
  std::string waiter_value;
  std::thread waiter([&] {
    // Blocks on the pending entry; after abandon() it inherits the
    // claim (nullopt again), computes, and fills.
    std::optional<std::string> got = cache.lookup_or_begin("k");
    EXPECT_EQ(got, std::nullopt);
    cache.fill("k", "second-try");
    waiter_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(waiter_done.load());  // genuinely parked on the claim
  cache.abandon("k");
  waiter.join();
  EXPECT_TRUE(waiter_done.load());
  EXPECT_EQ(cache.lookup_or_begin("k").value(), "second-try");
}

TEST(ResultCacheTest, SingleFlightHoldsUnderContention) {
  obs::MetricsRegistry registry;
  ResultCache cache(1u << 20, registry);
  constexpr size_t kThreads = 8;
  std::atomic<size_t> computed{0};
  std::vector<std::string> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      if (std::optional<std::string> hit = cache.lookup_or_begin("hot")) {
        results[t] = *hit;
        return;
      }
      computed.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      cache.fill("hot", "the-bytes");
      results[t] = "the-bytes";
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(computed.load(), 1u);
  for (const std::string& r : results) EXPECT_EQ(r, "the-bytes");
}

// --- canonical cache key ----------------------------------------------------

TEST(CacheKey, ExplicitDefaultsHashLikeImpliedDefaults) {
  Config spelled;
  spelled.set_pair("cycle=UDDS");
  spelled.set_pair("method=otem");
  const Config implied;
  EXPECT_EQ(canonical_scenario_key(sim::Scenario::from_config(spelled),
                                   spelled),
            canonical_scenario_key(sim::Scenario::from_config(implied),
                                   implied));
}

TEST(CacheKey, ScenarioDifferencesChangeTheKey) {
  Config one;
  one.set_pair("repeats=1");
  Config two;
  two.set_pair("repeats=2");
  EXPECT_NE(canonical_scenario_key(sim::Scenario::from_config(one), one),
            canonical_scenario_key(sim::Scenario::from_config(two), two));
}

TEST(CacheKey, SpecOverridesLandInTheSortedTail) {
  Config cfg;
  cfg.set_pair("battery.cells=90");
  const std::string key =
      canonical_scenario_key(sim::Scenario::from_config(cfg), cfg);
  EXPECT_NE(key.find("battery.cells=90"), std::string::npos) << key;
  // Telemetry destinations never reach the key: the same mission with
  // a different trace path must hit the same entry.
  Config with_output;
  with_output.set_pair("battery.cells=90");
  with_output.set_pair("trace_csv=/tmp/somewhere.csv");
  EXPECT_EQ(key, canonical_scenario_key(
                     sim::Scenario::from_config(with_output), with_output));
}

// --- observability: queue wait, latency sketches, stats ---------------------

TEST(ServeObs, QueueWaitIsRecordedUnderLoad) {
  // One run slot and four concurrent uncached runs: they execute one at
  // a time, so the last to get the slot waited through at least one
  // whole run of another. That wait lands in the serve.queue.wait_us
  // sketch and (because latency is measured from frame entry) in the
  // serve.request.latency_us one.
  const TraceGuard guard;
  ServerOptions opts = traced_options(1);
  opts.queue_depth = 4;
  Server server(opts);
  constexpr size_t kClients = 4;
  run_concurrently(server, kClients, kGatedRunRequest);

  const obs::Sketch::Snapshot wait =
      server.registry().sketch("serve.queue.wait_us").snapshot();
  const obs::Sketch::Snapshot latency =
      server.registry().sketch("serve.request.latency_us").snapshot();
  EXPECT_EQ(wait.count, kClients);
  EXPECT_EQ(latency.count, kClients);
  const std::vector<obs::SpanRecord> runs = run_spans();
  ASSERT_EQ(runs.size(), kClients);
  double shortest_run_us = runs[0].dur_us;
  for (const obs::SpanRecord& run : runs)
    shortest_run_us = std::min(shortest_run_us, run.dur_us);
  EXPECT_GE(wait.max, shortest_run_us);
  // A request's end-to-end latency cannot be smaller than its own
  // queue wait.
  EXPECT_GE(latency.max, wait.max);
}

TEST(ServeObs, LatencyIsRecordedOnErrorPathsToo) {
  ServerOptions opts = test_options();
  Server server(opts);
  const std::string resp = server.handle_line(
      "{\"schema\":\"otem.serve.v1\",\"method\":\"run\","
      "\"overrides\":{\"method\":\"no_such_strategy\"}}");
  EXPECT_NE(resp.find("\"ok\":false"), std::string::npos) << resp;
  EXPECT_EQ(
      server.registry().sketch("serve.request.latency_us").snapshot().count,
      1u);
}

TEST(ServeObs, StatsReportsNonTrivialQuantiles) {
  Server server(test_options());
  for (int i = 0; i < 3; ++i) {
    const std::string resp = server.handle_line(short_run_request());
    ASSERT_NE(resp.find("\"ok\":true"), std::string::npos) << resp;
  }
  const std::string stats = server.handle_line(
      "{\"schema\":\"otem.serve.v1\",\"method\":\"stats\",\"id\":7}");
  ASSERT_NE(stats.find("\"ok\":true"), std::string::npos) << stats;
  const Json doc = Json::parse(stats);
  const Json* result = doc.find("result");
  ASSERT_NE(result, nullptr);
  const Json* latency = result->find("latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->find("count")->as_number(), 3.0);
  EXPECT_GT(latency->find("p50")->as_number(), 0.0);
  EXPECT_GE(latency->find("p99")->as_number(),
            latency->find("p50")->as_number());
  ASSERT_NE(result->find("queue_wait_us"), nullptr);
  ASSERT_NE(result->find("spans"), nullptr);
}

TEST(ServeObs, TraceOutEnablesSpansVisibleInStats) {
  const TraceGuard guard;
  Server server(traced_options(2));
  const std::string resp = server.handle_line(short_run_request());
  ASSERT_NE(resp.find("\"ok\":true"), std::string::npos) << resp;
  const std::string stats = server.handle_line(
      "{\"schema\":\"otem.serve.v1\",\"method\":\"stats\"}");
  const Json doc = Json::parse(stats);
  const Json* spans = doc.find("result")->find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_NE(spans->find("serve.request"), nullptr);
  ASSERT_NE(spans->find("serve.run"), nullptr);
  EXPECT_GT(spans->find("serve.request")->find("count")->as_number(), 0.0);
}

// --- stdio transport --------------------------------------------------------

TEST(ServeStdio, AnswersFramesUntilEofThenExitsZero) {
  Pipe in, out;
  ASSERT_TRUE(write_frame(
      in.fds[1], "{\"schema\":\"otem.serve.v1\",\"method\":\"ping\","
                 "\"id\":1}"));
  ASSERT_TRUE(write_frame(in.fds[1], short_run_request()));
  in.close_writer();

  Server server(test_options());
  EXPECT_EQ(server.serve_stdio(in.fds[0], out.fds[1]), 0);

  FrameReader reader(out.fds[0], 1u << 20);
  std::string line;
  ASSERT_EQ(reader.next(line, 1000), FrameReader::Status::kFrame);
  EXPECT_EQ(line,
            "{\"schema\":\"otem.serve.v1\",\"id\":1,\"ok\":true,"
            "\"cached\":false,\"result\":{\"pong\":true}}");
  ASSERT_EQ(reader.next(line, 1000), FrameReader::Status::kFrame);
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
  EXPECT_NE(line.find("\"report\":"), std::string::npos) << line;
}

// --- hex_doubles ------------------------------------------------------------

TEST(ServeHexDoubles, RunReplyCarriesABitExactHexReport) {
  Server server(test_options());
  const std::string reply = server.handle_line(
      "{\"schema\":\"otem.serve.v1\",\"method\":\"run\","
      "\"hex_doubles\":true,\"overrides\":{\"method\":\"parallel\","
      "\"synthetic\":true,\"synthetic_duration_s\":30}}");
  const Json doc = Json::parse(reply);
  const Json* result = doc.find("result");
  ASSERT_NE(result, nullptr);
  const Json* report = result->find("report");
  const Json* hex = result->find("report_hex");
  ASSERT_NE(report, nullptr);
  ASSERT_NE(hex, nullptr);
  // Hex values decode to doubles the %.12g numeric report only
  // approximates; they must agree to printing precision.
  for (const char* field : {"duration_s", "qloss_percent", "energy_hees_j",
                            "average_power_w", "max_t_battery_k"}) {
    const Json* numeric = report->find(field);
    const Json* bits = hex->find(field);
    ASSERT_NE(numeric, nullptr) << field;
    ASSERT_NE(bits, nullptr) << field;
    ASSERT_TRUE(bits->is_string()) << field;
    const double exact = strings::parse_hex_double(bits->as_string());
    EXPECT_NEAR(exact, numeric->as_number(),
                1e-9 * std::max(1.0, std::abs(exact)))
        << field;
  }
}

TEST(ServeHexDoubles, HexRepliesReplayByteIdenticallyFromTheCache) {
  Server server(test_options());
  const std::string request =
      "{\"schema\":\"otem.serve.v1\",\"method\":\"run\","
      "\"hex_doubles\":true,\"overrides\":{\"method\":\"parallel\","
      "\"synthetic\":true,\"synthetic_duration_s\":30}}";
  const std::string first = server.handle_line(request);
  const std::string second = server.handle_line(request);
  EXPECT_NE(first.find("\"report_hex\""), std::string::npos);
  EXPECT_NE(second.find("\"cached\":true"), std::string::npos);
  // cached:false vs cached:true differ by flag; result bytes must not.
  const size_t ra = first.find("\"result\":");
  const size_t rb = second.find("\"result\":");
  ASSERT_NE(ra, std::string::npos);
  ASSERT_NE(rb, std::string::npos);
  EXPECT_EQ(first.substr(ra), second.substr(rb));
}

TEST(ServeHexDoubles, HexAndPlainRequestsOccupyDistinctCacheEntries) {
  // The hex reply has different result bytes, so it must not alias the
  // plain entry (byte-identical replay would otherwise break one side).
  Server server(test_options());
  const std::string plain = server.handle_line(short_run_request());
  const std::string hexed = server.handle_line(
      "{\"schema\":\"otem.serve.v1\",\"method\":\"run\","
      "\"hex_doubles\":true,\"overrides\":{\"method\":\"parallel\","
      "\"synthetic\":true,\"synthetic_duration_s\":30}}");
  EXPECT_EQ(plain.find("\"report_hex\""), std::string::npos);
  EXPECT_NE(hexed.find("\"report_hex\""), std::string::npos);
  EXPECT_EQ(hexed.find("\"cached\":true"), std::string::npos)
      << "hex request aliased the plain request's cache entry";
}

// --- client endpoints -------------------------------------------------------

TEST(ServeClientEndpoint, TcpAndUnixEndpointsAreDistinguished) {
  EXPECT_TRUE(is_tcp_endpoint("127.0.0.1:7600"));
  EXPECT_TRUE(is_tcp_endpoint("localhost:0"));
  EXPECT_TRUE(is_tcp_endpoint(":7600"));
  EXPECT_FALSE(is_tcp_endpoint("/tmp/otem.sock"));
  EXPECT_FALSE(is_tcp_endpoint("./sock:1"));
  EXPECT_FALSE(is_tcp_endpoint("relative/path"));
  EXPECT_FALSE(is_tcp_endpoint("host:"));
  EXPECT_FALSE(is_tcp_endpoint("host:70a"));
  EXPECT_FALSE(is_tcp_endpoint("plainname"));
}

TEST(ServeClientEndpoint, ConnectFailuresCarryErrnoText) {
  try {
    request_once("/nonexistent/otem-test.sock", "{}", 1.0, 0.5);
    FAIL() << "connect to a missing socket path should throw";
  } catch (const SimError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("/nonexistent/otem-test.sock"), std::string::npos)
        << what;
    // The point of the satellite: the errno text, not just "failed".
    EXPECT_NE(what.find(std::strerror(ENOENT)), std::string::npos) << what;
  }
}

TEST(ServeClientEndpoint, TcpConnectionRefusedCarriesErrnoText) {
  // Port 1 on localhost: privileged and unbound, so connect fails fast
  // with ECONNREFUSED rather than timing out.
  try {
    request_once("127.0.0.1:1", "{}", 1.0, 2.0);
    FAIL() << "connect to an unbound port should throw";
  } catch (const SimError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("127.0.0.1:1"), std::string::npos) << what;
    EXPECT_NE(what.find(std::strerror(ECONNREFUSED)), std::string::npos)
        << what;
  }
}

}  // namespace
}  // namespace otem::serve
