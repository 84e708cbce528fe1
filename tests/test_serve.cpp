// Tests for the serve subsystem: otem.serve.v1 protocol golden
// transcripts, frame codec (oversized frames, pipelining, EOF), the
// single-flight result cache, canonical cache keys, admission
// backpressure, deadlines, drain semantics and the stdio transport.
//
// Everything here drives Server::handle_line (the transport-free core)
// or real pipes — no Unix socket is needed; CI's smoke job covers the
// socket path end to end.
#include <gtest/gtest.h>

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
  EXPECT_NE(resp.find("otem.metrics.v1"), std::string::npos) << resp;
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

#ifndef OTEM_OBS_DISABLED

TEST(ServeObs, QueueWaitIsRecordedUnderLoad) {
  // One pool thread + several concurrent admissions: all but the first
  // run MUST sit in the pool queue, and that wait has to land in the
  // serve.queue.wait_us sketch and (because latency is measured from
  // frame entry) in the serve.request.latency_us one.
  ServerOptions opts = test_options();
  opts.threads = 1;
  opts.queue_depth = 4;
  Server server(opts);

  constexpr size_t kClients = 4;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t i = 0; i < kClients; ++i)
    clients.emplace_back([&, i] {
      // Distinct durations + cache bypass: every request computes.
      const std::string req =
          "{\"schema\":\"otem.serve.v1\",\"method\":\"run\",\"cache\":"
          "\"bypass\",\"overrides\":{\"method\":\"parallel\","
          "\"synthetic\":true,\"synthetic_duration_s\":" +
          std::to_string(30 + i) + "}}";
      const std::string resp = server.handle_line(req);
      EXPECT_NE(resp.find("\"ok\":true"), std::string::npos) << resp;
    });
  for (std::thread& t : clients) t.join();

  const obs::Sketch::Snapshot wait =
      server.registry().sketch("serve.queue.wait_us").snapshot();
  const obs::Sketch::Snapshot latency =
      server.registry().sketch("serve.request.latency_us").snapshot();
  EXPECT_EQ(wait.count, kClients);
  EXPECT_EQ(latency.count, kClients);
  // Serialized on one thread, the slowest request queued behind the
  // others — its wait is non-trivial, and its end-to-end latency
  // cannot be smaller than its own queue wait.
  EXPECT_GT(wait.max, 0.0);
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
  // Tracing is process-global state: restore it however the test ends.
  struct TraceGuard {
    ~TraceGuard() {
      obs::set_trace_enabled(false);
      obs::trace_reset();
    }
  } guard;
  obs::trace_reset();
  ServerOptions opts = test_options();
  opts.trace_out = "/dev/null";  // enables tracing for the lifetime
  Server server(opts);
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

#endif  // OTEM_OBS_DISABLED

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

// --- sharded result cache ---------------------------------------------------

TEST(ShardedResultCacheTest, RoutingIsConsistentAndStable) {
  obs::MetricsRegistry registry;
  ShardedResultCache cache(1u << 20, 4, registry);
  EXPECT_EQ(cache.shards(), 4u);
  // Consistent: the same key always lands on the same shard.
  for (const std::string key : {"a", "mission-1", "mission-2", ""})
    EXPECT_EQ(cache.shard_of(key), cache.shard_of(std::string(key)));
  // Stable across processes and platforms: FNV-1a 64 of "abc" is
  // 0xe71fa2190541574b -> % 4 == 3. A changed hash silently reshuffles
  // every deployed multi-worker cache, so pin it.
  EXPECT_EQ(cache.shard_of("abc"), 3u);
}

TEST(ShardedResultCacheTest, SingleShardKeepsTheBareCacheGaugeNames) {
  obs::MetricsRegistry registry;
  ShardedResultCache cache(1u << 20, 1, registry);
  EXPECT_EQ(cache.lookup_or_begin("k"), std::nullopt);
  cache.fill("k", "v");
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_GT(snap.gauges.at("serve.cache.bytes"), 0.0);
  EXPECT_EQ(snap.gauges.at("serve.cache.entries"), 1.0);
  EXPECT_EQ(snap.gauges.count("serve.cache.bytes.shard0"), 0u);
}

TEST(ShardedResultCacheTest, MultiShardMaintainsAggregateAndPerShardGauges) {
  obs::MetricsRegistry registry;
  ShardedResultCache cache(1u << 20, 2, registry);
  // Find keys that land on different shards.
  std::string k0 = "key-a", k1 = "key-b";
  for (int i = 0; cache.shard_of(k1) == cache.shard_of(k0) && i < 64; ++i)
    k1 = "key-b" + std::to_string(i);
  ASSERT_NE(cache.shard_of(k0), cache.shard_of(k1));
  EXPECT_EQ(cache.lookup_or_begin(k0), std::nullopt);
  EXPECT_EQ(cache.lookup_or_begin(k1), std::nullopt);
  cache.fill(k0, "v0");
  cache.fill(k1, "v1");
  EXPECT_EQ(cache.entries(), 2u);
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.gauges.at("serve.cache.entries"), 2.0);
  EXPECT_EQ(snap.gauges.at("serve.cache.entries.shard0") +
                snap.gauges.at("serve.cache.entries.shard1"),
            2.0);
  // Counters aggregate by name across shards.
  EXPECT_EQ(registry.counter("serve.cache.misses").value(), 2u);
}

TEST(ShardedResultCacheTest, SingleFlightHoldsUnderCrossShardContention) {
  obs::MetricsRegistry registry;
  ShardedResultCache cache(1u << 20, 4, registry);
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
