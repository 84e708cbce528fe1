// Tests for the sessionful serving layer (serve/session.h) and the
// scale-out transports: session.open/step/close lifecycle and
// determinism, warm-start carryover across protocol frames, TTL and
// capacity eviction, drain semantics, the TCP transport (ephemeral
// port + bound_port discovery), multi-worker cache contention, one
// latency sketch per request and the fixed-order stats merge.
//
// Most tests drive Server::handle_line (the transport-free core); the
// TCP tests bind 127.0.0.1:0 and run real localhost sockets.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "core/methodology_registry.h"
#include "obs/metrics.h"
#include "obs/sketch.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"

namespace otem::serve {
namespace {

ServerOptions session_test_options() {
  ServerOptions opts;
  opts.threads = 2;
  opts.queue_depth = 4;
  opts.cache_bytes = 1u << 20;
  opts.drain_timeout_s = 0.0;
  return opts;
}

/// session.open for a mission small enough to finish in milliseconds.
std::string open_request(const std::string& extra = "") {
  return std::string(
             "{\"schema\":\"otem.serve.v1\",\"method\":\"session.open\","
             "\"overrides\":{\"method\":\"parallel\",\"synthetic\":true,"
             "\"synthetic_duration_s\":30") +
         extra + "}}";
}

std::string step_request(const std::string& sid,
                         const std::string& extra = "") {
  return "{\"schema\":\"otem.serve.v1\",\"method\":\"session.step\","
         "\"session\":\"" +
         sid + "\"" + extra + "}";
}

std::string close_request(const std::string& sid) {
  return "{\"schema\":\"otem.serve.v1\",\"method\":\"session.close\","
         "\"session\":\"" +
         sid + "\"}";
}

/// Parse a reply, assert ok:true, and return the result object.
Json ok_result(const std::string& line) {
  const Json doc = Json::parse(line);
  const Json* ok = doc.find("ok");
  EXPECT_TRUE(ok != nullptr && ok->is_bool() && ok->as_bool())
      << "not an ok reply: " << line;
  const Json* result = doc.find("result");
  EXPECT_NE(result, nullptr);
  return result != nullptr ? *result : Json();
}

std::string error_code_of(const std::string& line) {
  const Json doc = Json::parse(line);
  const Json* error = doc.find("error");
  return error != nullptr && error->is_string() ? error->as_string() : "";
}

std::string session_id_of(const Json& result) {
  const Json* sid = result.find("session");
  EXPECT_TRUE(sid != nullptr && sid->is_string());
  return sid != nullptr && sid->is_string() ? sid->as_string() : "";
}

// --- lifecycle --------------------------------------------------------------

TEST(ServeSession, OpenStepCloseLifecycle) {
  Server server(session_test_options());
  const Json open = ok_result(server.handle_line(open_request()));
  const std::string sid = session_id_of(open);
  EXPECT_EQ(sid, "s1");
  EXPECT_EQ(open.find("methodology")->as_string(), "parallel");
  EXPECT_GT(open.find("route_steps")->as_number(), 0.0);
  EXPECT_GT(open.find("dt_s")->as_number(), 0.0);

  for (int k = 0; k < 5; ++k) {
    const Json step = ok_result(server.handle_line(step_request(sid)));
    EXPECT_EQ(step.find("k")->as_number(), static_cast<double>(k));
    EXPECT_NE(step.find("decision"), nullptr);
    const Json* state = step.find("state");
    ASSERT_NE(state, nullptr);
    EXPECT_GT(state->find("t_battery_k")->as_number(), 250.0);
  }

  const Json closed = ok_result(server.handle_line(close_request(sid)));
  EXPECT_EQ(closed.find("steps")->as_number(), 5.0);
  const Json* report = closed.find("report");
  ASSERT_NE(report, nullptr);
  // 5 steps of the route accumulated, not the whole mission.
  EXPECT_NEAR(report->find("duration_s")->as_number(),
              5.0 * open.find("dt_s")->as_number(), 1e-9);

  // A closed id stops resolving.
  EXPECT_EQ(error_code_of(server.handle_line(step_request(sid))),
            "unknown_session");
  EXPECT_EQ(error_code_of(server.handle_line(close_request(sid))),
            "unknown_session");
}

TEST(ServeSession, TwoIdenticalSessionsStreamIdenticalDecisions) {
  // Determinism across resident sessions: the same mission streamed
  // twice yields byte-identical step replies once the session ids are
  // factored out (the replies embed the id).
  Server server(session_test_options());
  const std::string a = session_id_of(ok_result(
      server.handle_line(open_request())));
  const std::string b = session_id_of(ok_result(
      server.handle_line(open_request())));
  ASSERT_NE(a, b);
  for (int k = 0; k < 10; ++k) {
    std::string ra = server.handle_line(step_request(a));
    std::string rb = server.handle_line(step_request(b));
    // Splice out the session ids, then demand byte equality.
    const size_t pa = ra.find(a);
    const size_t pb = rb.find(b);
    ASSERT_NE(pa, std::string::npos);
    ASSERT_NE(pb, std::string::npos);
    ra.erase(pa, a.size());
    rb.erase(pb, b.size());
    EXPECT_EQ(ra, rb) << "diverged at step " << k;
  }
}

TEST(ServeSession, ExplicitPowerRequestOverridesTheRouteForecast) {
  Server server(session_test_options());
  const std::string sid = session_id_of(ok_result(
      server.handle_line(open_request())));
  const Json step = ok_result(server.handle_line(
      step_request(sid, ",\"p_request_w\":12345.5")));
  EXPECT_EQ(step.find("p_request_w")->as_number(), 12345.5);
}

TEST(ServeSession, StepGoldenTranscript) {
  // The exact reply bytes of a reactive session's first steps: route
  // and explicit (positive, negative) power requests, and request ids
  // of every kind, one of which needs escaping. Any change to how a
  // step reply is written must keep these bytes.
  Server server(session_test_options());
  EXPECT_EQ(server.handle_line(open_request()),
            "{\"schema\":\"otem.serve.v1\",\"id\":null,\"ok\":true,"
            "\"cached\":false,\"result\":{\"session\":\"s1\","
            "\"methodology\":\"parallel\",\"dt_s\":1,\"route_steps\":98}}");
  EXPECT_EQ(
      server.handle_line(
          step_request("s1", ",\"id\":\"k0 \\\"q\\\" \\\\ \\t\\u0001\"")),
      "{\"schema\":\"otem.serve.v1\",\"id\":\"k0 \\\"q\\\" \\\\ \\t\\u0001\","
      "\"ok\":true,\"cached\":false,\"result\":{\"session\":\"s1\",\"k\":0,"
      "\"p_request_w\":700,\"decision\":{\"p_cooler_w\":0,"
      "\"t_inlet_k\":298.012,\"p_cap_w\":177.200272669,"
      "\"i_bat_a\":1.32988020359,\"i_cap_a\":0.450203944856},"
      "\"state\":{\"t_battery_k\":298.000133261,"
      "\"t_coolant_k\":298.000465013,\"soc_percent\":99.9992552194,"
      "\"soe_percent\":99.9986156229},\"feasible\":true,\"unmet_w\":0,"
      "\"solve\":{\"present\":false,\"converged\":true,\"fallback\":false,"
      "\"iterations\":0,\"sqp_rounds\":0,\"qp_iterations\":0,"
      "\"qp_warm_hits\":0,\"kkt_refactorizations\":0,\"qp_polish_hits\":0,"
      "\"solve_time_us\":0}}}");
  EXPECT_EQ(
      server.handle_line(
          step_request("s1", ",\"id\":7,\"p_request_w\":12345.5")),
      "{\"schema\":\"otem.serve.v1\",\"id\":7,\"ok\":true,\"cached\":false,"
      "\"result\":{\"session\":\"s1\",\"k\":1,\"p_request_w\":12345.5,"
      "\"decision\":{\"p_cooler_w\":0,\"t_inlet_k\":298.012427812,"
      "\"p_cap_w\":3173.57103833,\"i_bat_a\":23.8254234066,"
      "\"i_cap_a\":8.06299036112},\"state\":{\"t_battery_k\":298.004837019,"
      "\"t_coolant_k\":298.000993169,\"soc_percent\":99.9859121284,"
      "\"soe_percent\":99.9738220991},\"feasible\":true,\"unmet_w\":0,"
      "\"solve\":{\"present\":false,\"converged\":true,\"fallback\":false,"
      "\"iterations\":0,\"sqp_rounds\":0,\"qp_iterations\":0,"
      "\"qp_warm_hits\":0,\"kkt_refactorizations\":0,\"qp_polish_hits\":0,"
      "\"solve_time_us\":0}}}");
  EXPECT_EQ(
      server.handle_line(step_request("s1", ",\"p_request_w\":-2500.25")),
      "{\"schema\":\"otem.serve.v1\",\"id\":null,\"ok\":true,"
      "\"cached\":false,\"result\":{\"session\":\"s1\",\"k\":2,"
      "\"p_request_w\":-2500.25,\"decision\":{\"p_cooler_w\":0,"
      "\"t_inlet_k\":298.012913715,\"p_cap_w\":-644.659315352,"
      "\"i_bat_a\":-4.69393982159,\"i_cap_a\":-1.63806837184},"
      "\"state\":{\"t_battery_k\":298.004464118,"
      "\"t_coolant_k\":298.00157382,\"soc_percent\":99.9885409029,"
      "\"soe_percent\":99.9788585},\"feasible\":true,\"unmet_w\":0,"
      "\"solve\":{\"present\":false,\"converged\":true,\"fallback\":false,"
      "\"iterations\":0,\"sqp_rounds\":0,\"qp_iterations\":0,"
      "\"qp_warm_hits\":0,\"kkt_refactorizations\":0,\"qp_polish_hits\":0,"
      "\"solve_time_us\":0}}}");
  EXPECT_EQ(
      server.handle_line(step_request("s1")),
      "{\"schema\":\"otem.serve.v1\",\"id\":null,\"ok\":true,"
      "\"cached\":false,\"result\":{\"session\":\"s1\",\"k\":3,"
      "\"p_request_w\":700,\"decision\":{\"p_cooler_w\":0,"
      "\"t_inlet_k\":298.013447915,\"p_cap_w\":165.523829773,"
      "\"i_bat_a\":1.35958258642,\"i_cap_a\":0.420582646553},"
      "\"state\":{\"t_battery_k\":298.004572833,"
      "\"t_coolant_k\":298.002129118,\"soc_percent\":99.9877794879,"
      "\"soe_percent\":99.9775653451},\"feasible\":true,\"unmet_w\":0,"
      "\"solve\":{\"present\":false,\"converged\":true,\"fallback\":false,"
      "\"iterations\":0,\"sqp_rounds\":0,\"qp_iterations\":0,"
      "\"qp_warm_hits\":0,\"kkt_refactorizations\":0,\"qp_polish_hits\":0,"
      "\"solve_time_us\":0}}}");
}

TEST(ServeSession, SteppingPastTheRouteWithoutARequestIsABadRequest) {
  Server server(session_test_options());
  const Json open = ok_result(
      server.handle_line(open_request(",\"synthetic_duration_s\":3")));
  const std::string sid = session_id_of(open);
  const auto route = static_cast<size_t>(
      open.find("route_steps")->as_number());
  for (size_t k = 0; k < route; ++k)
    ok_result(server.handle_line(step_request(sid)));
  EXPECT_EQ(error_code_of(server.handle_line(step_request(sid))),
            "bad_request");
  // An explicit power request keeps the mission going past its route.
  const Json step = ok_result(server.handle_line(
      step_request(sid, ",\"p_request_w\":5000")));
  EXPECT_EQ(step.find("k")->as_number(), static_cast<double>(route));
}

TEST(ServeSession, OutOfRangePowerRequestsAreRefusedAndLeaveTheSessionAsItWas) {
  // No step can draw more than both storages at their power caps
  // (hees.max_battery_power + ultracap.max_power_w, 240 kW by default),
  // and 1e400 overflows a double. Each such frame is a bad_request, and
  // the session it named streams on and reports exactly the bytes of a
  // twin session that never saw one.
  Server server(session_test_options());
  const std::string sid =
      session_id_of(ok_result(server.handle_line(open_request())));
  const std::string twin =
      session_id_of(ok_result(server.handle_line(open_request())));
  ok_result(server.handle_line(step_request(sid)));
  ok_result(server.handle_line(step_request(twin)));
  for (const char* p :
       {"1e300", "-1e300", "240000.5", "-240001", "1e400", "-1e400"}) {
    EXPECT_EQ(error_code_of(server.handle_line(
                  step_request(sid, std::string(",\"p_request_w\":") + p))),
              "bad_request")
        << p;
  }
  // The bound itself is served.
  for (const std::string& s : {sid, twin})
    ok_result(server.handle_line(step_request(s, ",\"p_request_w\":-240000")));
  const auto report_hex = [&server](const std::string& s) {
    const Json closed = ok_result(server.handle_line(
        R"({"schema":"otem.serve.v1","method":"session.close",)"
        R"("hex_doubles":true,"session":")" +
        s + "\"}"));
    EXPECT_EQ(closed.find("steps")->as_number(), 2.0);
    const Json* hex = closed.find("report_hex");
    return hex != nullptr ? hex->dump(0) : "";
  };
  EXPECT_EQ(report_hex(sid), report_hex(twin));
}

TEST(ServeSession, OutOfDomainOverridesAreRefusedAndOpenNoSession) {
  // A temperature outside -40...+85 C, a charge outside 0...100 % or a
  // number that parses non-finite never reaches a plant: session.open
  // and run each answer bad_request, and the session table is left as
  // it was.
  Server server(session_test_options());
  const std::string sid =
      session_id_of(ok_result(server.handle_line(open_request())));
  const auto run_request = [](const std::string& extra) {
    return std::string(
               "{\"schema\":\"otem.serve.v1\",\"method\":\"run\","
               "\"overrides\":{\"method\":\"parallel\",\"synthetic\":true,"
               "\"synthetic_duration_s\":30") +
           extra + "}}";
  };
  const auto sessions_active = [&server] {
    return ok_result(server.handle_line(
                         R"({"schema":"otem.serve.v1","method":"stats"})"))
        .find("sessions_active")
        ->as_number();
  };
  for (const char* extra :
       {R"(,"ambient_k":1e300)", R"(,"ambient_k":233.14)",
        R"(,"ambient_k":"nan")", R"(,"soe0":"nan")", R"(,"soe0":100.5)",
        R"(,"soc0":-1)", R"(,"t_battery0_k":"inf")",
        R"(,"t_coolant0_k":400)"}) {
    EXPECT_EQ(error_code_of(server.handle_line(open_request(extra))),
              "bad_request")
        << extra;
    EXPECT_EQ(error_code_of(server.handle_line(run_request(extra))),
              "bad_request")
        << extra;
  }
  EXPECT_EQ(sessions_active(), 1.0);
  ok_result(server.handle_line(step_request(sid)));
  // The domain's bounds are served.
  ok_result(server.handle_line(
      open_request(R"(,"ambient_k":233.15,"soe0":0,"soc0":100)")));
  EXPECT_EQ(sessions_active(), 2.0);
}

TEST(ServeSession, ARefusedPreconditionNamesItsSourceRelativeToTheTree) {
  // The message a client receives names src/...:line, never the absolute
  // path of the checkout the daemon was built from.
  Server server(session_test_options());
  const Json doc = Json::parse(server.handle_line(
      R"({"schema":"otem.serve.v1","method":"run","overrides":)"
      R"({"method":"parallel","repeats":"1e18"}})"));
  EXPECT_EQ(doc.find("error")->as_string(), "bad_request");
  const std::string message = doc.find("message")->as_string();
  EXPECT_NE(message.find(" at src/"), std::string::npos) << message;
}

TEST(ServeSession, UnknownAndMissingSessionIdsAreStructuredErrors) {
  Server server(session_test_options());
  EXPECT_EQ(error_code_of(server.handle_line(step_request("s999"))),
            "unknown_session");
  EXPECT_EQ(error_code_of(server.handle_line(
                "{\"schema\":\"otem.serve.v1\",\"method\":"
                "\"session.step\"}")),
            "bad_request");
}

// --- warm-start carryover ---------------------------------------------------

TEST(ServeSession, WarmStepsNeverExceedTheColdSolvesIterations) {
  // The point of resident sessions: the QP warm start and KKT
  // factorisation carried inside the controller survive across
  // protocol frames, so step N+1 never takes more ADMM iterations
  // than the cold k=0 solve.
  ServerOptions opts = session_test_options();
  Server server(opts);
  const Json open = ok_result(server.handle_line(
      "{\"schema\":\"otem.serve.v1\",\"method\":\"session.open\","
      "\"overrides\":{\"method\":\"otem-ltv\",\"synthetic\":true,"
      "\"synthetic_duration_s\":12,\"ltv.sqp_iterations\":1}}"));
  const std::string sid = session_id_of(open);

  double cold_iters = -1.0;
  for (int k = 0; k < 12; ++k) {
    const Json step = ok_result(server.handle_line(step_request(sid)));
    const Json* solve = step.find("solve");
    ASSERT_NE(solve, nullptr);
    const double iters = solve->find("qp_iterations")->as_number();
    if (k == 0) {
      cold_iters = iters;
      EXPECT_GT(cold_iters, 0.0);
    } else {
      EXPECT_LE(iters, cold_iters)
          << "warm step " << k << " took more QP iterations than the "
          << "cold solve — the warm start is not carrying across frames";
    }
  }
}

// --- eviction ---------------------------------------------------------------

TEST(ServeSession, IdleSessionsAreEvictedAfterTheirTtl) {
  ServerOptions opts = session_test_options();
  opts.session_ttl_s = 0.05;
  Server server(opts);
  const std::string sid = session_id_of(ok_result(
      server.handle_line(open_request())));
  ok_result(server.handle_line(step_request(sid)));
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_EQ(error_code_of(server.handle_line(step_request(sid))),
            "unknown_session");
  const obs::MetricsSnapshot snap = server.registry().snapshot();
  EXPECT_EQ(snap.counters.at("serve.sessions_evicted"), 1u);
  EXPECT_EQ(snap.gauges.at("serve.sessions_active"), 0.0);
}

TEST(ServeSession, CapacityEvictionDropsTheLeastRecentlyUsed) {
  ServerOptions opts = session_test_options();
  opts.session_limit = 2;
  Server server(opts);
  const std::string s1 = session_id_of(ok_result(
      server.handle_line(open_request())));
  const std::string s2 = session_id_of(ok_result(
      server.handle_line(open_request())));
  // Touch s1 so s2 is the LRU when the third session arrives.
  ok_result(server.handle_line(step_request(s1)));
  const std::string s3 = session_id_of(ok_result(
      server.handle_line(open_request())));
  EXPECT_EQ(error_code_of(server.handle_line(step_request(s2))),
            "unknown_session");
  ok_result(server.handle_line(step_request(s1)));
  ok_result(server.handle_line(step_request(s3)));
}

TEST(ServeSession, SessionLimitZeroDisablesTheSessionApi) {
  ServerOptions opts = session_test_options();
  opts.session_limit = 0;
  Server server(opts);
  EXPECT_EQ(error_code_of(server.handle_line(open_request())),
            "session_limit");
}

// --- drain ------------------------------------------------------------------

TEST(ServeSession, DrainDropsResidentSessionsAndRefusesNewWork) {
  Server server(session_test_options());
  const std::string sid = session_id_of(ok_result(
      server.handle_line(open_request())));
  ok_result(server.handle_line(step_request(sid)));

  server.request_stop();
  server.drain();

  EXPECT_EQ(error_code_of(server.handle_line(step_request(sid))),
            "draining");
  EXPECT_EQ(error_code_of(server.handle_line(open_request())), "draining");
  const obs::MetricsSnapshot snap = server.registry().snapshot();
  EXPECT_EQ(snap.gauges.at("serve.sessions_active"), 0.0);
}

// --- session vs run byte-identity -------------------------------------------

/// One scenario the session-vs-run property is checked on; `overrides`
/// is the body of the request's "overrides" object.
struct SessionRunCase {
  const char* name;
  const char* overrides;
};

std::ostream& operator<<(std::ostream& os, const SessionRunCase& c) {
  return os << c.name;
}

// Every registered methodology on three initial conditions: the paper's
// x0, a pack soaked at a hot ambient, and a half-empty bank. The slow
// controllers (shooting otem, otem-ltv at its shipped full-SQP point)
// run a short synthetic route; the reactive baselines and the RTI
// serving point run whole standard cycles.
const SessionRunCase kSessionRunCases[] = {
    {"parallel_udds", R"("method":"parallel","cycle":"UDDS")"},
    {"parallel_nycc_soaked",
     R"("method":"parallel","cycle":"NYCC","soak":true,"ambient_k":308.15)"},
    {"parallel_us06_soe60",
     R"("method":"parallel","cycle":"US06","soe0":60)"},
    {"active_cooling_udds", R"("method":"active_cooling","cycle":"UDDS")"},
    {"active_cooling_nycc_soaked",
     R"("method":"active_cooling","cycle":"NYCC","soak":true,)"
     R"("ambient_k":308.15)"},
    {"active_cooling_us06_soe60",
     R"("method":"active_cooling","cycle":"US06","soe0":60)"},
    {"dual_udds", R"("method":"dual","cycle":"UDDS")"},
    {"dual_nycc_soaked",
     R"("method":"dual","cycle":"NYCC","soak":true,"ambient_k":308.15)"},
    {"dual_us06_soe60", R"("method":"dual","cycle":"US06","soe0":60)"},
    {"otem_synthetic",
     R"("method":"otem","synthetic":true,"synthetic_duration_s":60)"},
    {"otem_synthetic_soaked",
     R"("method":"otem","synthetic":true,"synthetic_duration_s":60,)"
     R"("soak":true,"ambient_k":308.15)"},
    {"otem_synthetic_soe60",
     R"("method":"otem","synthetic":true,"synthetic_duration_s":60,)"
     R"("soe0":60)"},
    {"otem_ltv_synthetic",
     R"("method":"otem-ltv","synthetic":true,"synthetic_duration_s":60)"},
    {"otem_ltv_synthetic_soaked",
     R"("method":"otem-ltv","synthetic":true,"synthetic_duration_s":60,)"
     R"("soak":true,"ambient_k":308.15)"},
    {"otem_ltv_synthetic_soe60",
     R"("method":"otem-ltv","synthetic":true,"synthetic_duration_s":60,)"
     R"("soe0":60)"},
    {"otem_ltv_rti_udds",
     R"("method":"otem-ltv","cycle":"UDDS","ltv.sqp_iterations":1,)"
     R"("ltv.qp.eps":0.2)"},
    {"otem_ltv_rti_nycc_soaked",
     R"("method":"otem-ltv","cycle":"NYCC","ltv.sqp_iterations":1,)"
     R"("ltv.qp.eps":0.2,"soak":true,"ambient_k":308.15)"},
    {"otem_ltv_rti_us06_soe60",
     R"("method":"otem-ltv","cycle":"US06","ltv.sqp_iterations":1,)"
     R"("ltv.qp.eps":0.2,"soe0":60)"},
};

std::string report_hex_of(const Json& result) {
  const Json* hex = result.find("report_hex");
  EXPECT_NE(hex, nullptr);
  return hex != nullptr ? hex->dump(0) : "";
}

class SessionMatchesRun : public ::testing::TestWithParam<SessionRunCase> {};

TEST_P(SessionMatchesRun, SteppedRouteReportIsByteIdenticalToRun) {
  // A streamed mission must be the same computation as the offline
  // evaluation it is judged by: stepping a session through its whole
  // route reports exactly the bits a one-shot `run` of the same
  // scenario reports.
  const std::string overrides = GetParam().overrides;
  Server server(session_test_options());
  const Json run = ok_result(server.handle_line(
      R"({"schema":"otem.serve.v1","method":"run","hex_doubles":true,)"
      R"("overrides":{)" +
      overrides + "}}"));
  const Json open = ok_result(server.handle_line(
      R"({"schema":"otem.serve.v1","method":"session.open","overrides":{)" +
      overrides + "}}"));
  const std::string sid = session_id_of(open);
  const double route = open.find("route_steps")->as_number();
  ASSERT_EQ(route, run.find("steps")->as_number());
  for (double k = 0; k < route; ++k) {
    const std::string reply = server.handle_line(step_request(sid));
    ASSERT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
  }
  const Json closed = ok_result(server.handle_line(
      R"({"schema":"otem.serve.v1","method":"session.close",)"
      R"("hex_doubles":true,"session":")" +
      sid + "\"}"));
  EXPECT_EQ(closed.find("steps")->as_number(), route);
  EXPECT_EQ(report_hex_of(closed), report_hex_of(run));
}

std::string session_run_case_name(
    const ::testing::TestParamInfo<SessionRunCase>& param) {
  return param.param.name;
}

INSTANTIATE_TEST_SUITE_P(EveryMethodology, SessionMatchesRun,
                         ::testing::ValuesIn(kSessionRunCases),
                         session_run_case_name);

TEST(SessionMatchesRunCoverage, EveryRegisteredMethodologyHasACase) {
  for (const std::string& name :
       core::MethodologyRegistry::instance().names()) {
    const std::string needle = "\"method\":\"" + name + "\"";
    bool covered = false;
    for (const SessionRunCase& c : kSessionRunCases)
      covered = covered || std::string(c.overrides).find(needle) == 0;
    EXPECT_TRUE(covered) << "no session-vs-run case for '" << name << "'";
  }
}

// --- SessionManager unit behavior -------------------------------------------

TEST(ServeSessionManager, IdsStayUniqueAcrossFailedInserts) {
  obs::MetricsRegistry registry;
  SessionManager manager(SessionLimits{0, 0.0}, registry);
  const std::string a = manager.next_id();
  const std::string b = manager.next_id();
  EXPECT_NE(a, b);
  EXPECT_EQ(manager.active(), 0u);
  EXPECT_EQ(manager.find(a), nullptr);
}

// --- TCP transport ----------------------------------------------------------

/// Serve on an ephemeral localhost port in a background thread and
/// return once bound_port() is known.
struct TcpServerFixture {
  explicit TcpServerFixture(const ServerOptions& opts) : server(opts) {
    thread = std::thread([this] { (void)server.serve_tcp("127.0.0.1:0"); });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.bound_port() == 0) {
      if (std::chrono::steady_clock::now() >= deadline) {
        ADD_FAILURE() << "server never bound its TCP port";
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    endpoint = "127.0.0.1:" + std::to_string(server.bound_port());
  }
  ~TcpServerFixture() {
    server.request_stop();
    thread.join();
  }
  Server server;
  std::thread thread;
  std::string endpoint;
};

TEST(ServeTcp, PingOverARealLocalhostSocket) {
  TcpServerFixture fx(session_test_options());
  const std::string reply = request_once(
      fx.endpoint,
      "{\"schema\":\"otem.serve.v1\",\"method\":\"ping\",\"id\":\"t\"}");
  EXPECT_EQ(reply,
            "{\"schema\":\"otem.serve.v1\",\"id\":\"t\",\"ok\":true,"
            "\"cached\":false,\"result\":{\"pong\":true}}");
}

TEST(ServeTcp, LateStopsAndAClosingConnectionRaceShutdownSafely) {
  // Shutdown races: request_stop() keeps arriving from another thread
  // while serve_tcp() closes its wake pipe, the last client connection
  // hangs up while the listener waits for connections to finish, and
  // the server is destroyed the moment serve_tcp() returns. Under
  // ThreadSanitizer this fails if a stop writes to the wake descriptor
  // after its close, or a connection thread notifies the condition
  // variable ~Server destroys.
  for (int round = 0; round < 20; ++round) {
    auto server = std::make_unique<Server>(session_test_options());
    std::thread serving([&] { (void)server->serve_tcp("127.0.0.1:0"); });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server->bound_port() == 0 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (server->bound_port() == 0) {
      server->request_stop();
      serving.join();
      FAIL() << "server never bound its TCP port";
    }

    // Nothing may throw past here until `serving` is joined.
    std::unique_ptr<Connection> conn;
    try {
      conn = std::make_unique<Connection>(
          "127.0.0.1:" + std::to_string(server->bound_port()));
      ok_result(
          conn->roundtrip(R"({"schema":"otem.serve.v1","method":"ping"})"));
    } catch (const std::exception& e) {
      ADD_FAILURE() << "ping over TCP failed: " << e.what();
    }

    std::atomic<bool> returned{false};
    std::thread stopper([&] {
      while (!returned.load()) server->request_stop();
    });
    std::thread closer([&] { conn.reset(); });
    serving.join();
    returned.store(true);
    stopper.join();
    closer.join();
    server.reset();
  }
}

TEST(ServeTcp, SessionLifecycleOverOnePersistentConnection) {
  TcpServerFixture fx(session_test_options());
  Connection conn(fx.endpoint);
  const Json open = ok_result(conn.roundtrip(open_request()));
  const std::string sid = session_id_of(open);
  for (int k = 0; k < 3; ++k) {
    const Json step = ok_result(conn.roundtrip(step_request(sid)));
    EXPECT_EQ(step.find("k")->as_number(), static_cast<double>(k));
  }
  const Json closed = ok_result(conn.roundtrip(close_request(sid)));
  EXPECT_EQ(closed.find("steps")->as_number(), 3.0);
}

TEST(ServeTcp, MultiWorkerCachedRepliesAreByteIdenticalUnderContention) {
  // The shared-cache guarantee end to end: many concurrent clients
  // asking for the SAME mission over TCP against a multi-worker daemon
  // must all receive byte-identical response documents (modulo the id
  // they chose), with the computation done once.
  ServerOptions opts = session_test_options();
  opts.workers = 4;
  TcpServerFixture fx(opts);

  const std::string request =
      "{\"schema\":\"otem.serve.v1\",\"method\":\"run\",\"overrides\":"
      "{\"method\":\"parallel\",\"synthetic\":true,"
      "\"synthetic_duration_s\":30}}";
  constexpr size_t kClients = 8;
  std::vector<std::string> replies(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      replies[c] = request_once(fx.endpoint, request, 60.0);
    });
  }
  for (std::thread& t : threads) t.join();
  // The cached flag tells computed and replayed answers apart; the
  // RESULT bytes must be spliced verbatim from the same cache entry.
  const size_t r0 = replies[0].find("\"result\":");
  ASSERT_NE(r0, std::string::npos) << replies[0];
  for (size_t c = 1; c < kClients; ++c) {
    const size_t rc = replies[c].find("\"result\":");
    ASSERT_NE(rc, std::string::npos) << replies[c];
    EXPECT_EQ(replies[c].substr(rc), replies[0].substr(r0));
  }

  const obs::MetricsSnapshot snap = fx.server.registry().snapshot();
  // Every request was answered through the cache: ONE miss computed,
  // the rest were hits or coalesced waiters (coalesced counts wait-loop
  // wakeups, so it can exceed the waiter count — only its floor is
  // meaningful).
  EXPECT_EQ(snap.counters.at("serve.cache.misses"), 1u);
  EXPECT_GE(snap.counters.at("serve.cache.hits") +
                snap.counters.at("serve.cache.coalesced") + 1,
            kClients);
}

TEST(ServeTcp, ConcurrentSessionsSurviveAMultiWorkerDaemon) {
  ServerOptions opts = session_test_options();
  opts.workers = 2;
  TcpServerFixture fx(opts);
  constexpr size_t kClients = 4;
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      try {
        Connection conn(fx.endpoint);
        const Json open = Json::parse(conn.roundtrip(open_request()));
        const Json* result = open.find("result");
        const std::string sid = result->find("session")->as_string();
        for (int k = 0; k < 5; ++k)
          (void)conn.roundtrip(step_request(sid));
        (void)conn.roundtrip(close_request(sid));
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0u);
  const obs::MetricsSnapshot snap = fx.server.registry().snapshot();
  EXPECT_EQ(snap.counters.at("serve.sessions_opened"), kClients);
  EXPECT_EQ(snap.counters.at("serve.sessions_closed"), kClients);
}

// --- one latency sketch per request ---------------------------------------

/// A `run` small enough to finish in milliseconds.
const char* const kRunRequest =
    "{\"schema\":\"otem.serve.v1\",\"method\":\"run\",\"overrides\":"
    "{\"method\":\"parallel\",\"synthetic\":true,"
    "\"synthetic_duration_s\":30}}";

/// The count of every serve.* sketch but the pool's queue wait, which
/// times a part of a computed `run`, not a request.
std::map<std::string, std::uint64_t> request_sketch_counts(
    const obs::MetricsSnapshot& snap) {
  std::map<std::string, std::uint64_t> counts;
  for (const auto& [name, sketch] : snap.sketches)
    if (name.rfind("serve.", 0) == 0 && name != "serve.queue.wait_us")
      counts[name] = sketch.count;
  return counts;
}

TEST(ServeLatency, EachRequestRecordsInExactlyOneSketch) {
  Server server(session_test_options());
  // Sends `line` and checks that exactly one serve.* latency sketch,
  // `sketch`, gained exactly one sample; returns the reply.
  const auto one_sample = [&server](const std::string& line,
                                    const std::string& sketch) {
    const auto before = request_sketch_counts(server.registry().snapshot());
    const std::string reply = server.handle_line(line);
    const auto after = request_sketch_counts(server.registry().snapshot());
    size_t changed = 0;
    for (const auto& [name, count] : after) {
      const auto it = before.find(name);
      const std::uint64_t was = it == before.end() ? 0 : it->second;
      if (count == was) continue;
      ++changed;
      EXPECT_EQ(name, sketch) << line;
      EXPECT_EQ(count, was + 1) << name << " after " << line;
    }
    EXPECT_EQ(changed, 1u) << line;
    return reply;
  };

  ok_result(one_sample(kRunRequest, "serve.request.latency_us"));
  ok_result(one_sample(kRunRequest, "serve.request.latency_us"));  // cached
  const std::string sid = session_id_of(
      ok_result(one_sample(open_request(), "serve.session.open_us")));
  ok_result(one_sample(step_request(sid), "serve.session.step_us"));
  ok_result(one_sample(close_request(sid), "serve.session.close_us"));
  // Refusals are timed in their method's sketch too.
  EXPECT_EQ(error_code_of(one_sample(step_request(sid),
                                     "serve.session.step_us")),
            "unknown_session");
  EXPECT_EQ(error_code_of(one_sample(close_request(sid),
                                     "serve.session.close_us")),
            "unknown_session");
}

TEST(ServeLatency, MultiWorkerDaemonKeepsOneSetOfInstruments) {
  // workers=N is the number of acceptor loops and nothing else: the
  // latency sketches and the result cache's gauges are the same ones a
  // single-worker daemon keeps.
  ServerOptions opts = session_test_options();
  opts.workers = 3;
  TcpServerFixture fx(opts);
  Connection conn(fx.endpoint);
  ok_result(conn.roundtrip(kRunRequest));
  const std::string sid =
      session_id_of(ok_result(conn.roundtrip(open_request())));
  ok_result(conn.roundtrip(step_request(sid)));
  ok_result(conn.roundtrip(close_request(sid)));

  const obs::MetricsSnapshot snap = fx.server.registry().snapshot();
  const auto per_worker_or_shard = [](const std::string& name) {
    return name.rfind("serve.worker", 0) == 0 ||
           (name.rfind("serve.cache.", 0) == 0 &&
            name.find(".shard") != std::string::npos);
  };
  for (const auto& [name, value] : snap.counters)
    EXPECT_FALSE(per_worker_or_shard(name)) << name;
  for (const auto& [name, value] : snap.gauges)
    EXPECT_FALSE(per_worker_or_shard(name)) << name;
  for (const auto& [name, sketch] : snap.sketches)
    EXPECT_FALSE(per_worker_or_shard(name)) << name;

  const std::map<std::string, std::uint64_t> expected = {
      {"serve.request.latency_us", 1},
      {"serve.session.close_us", 1},
      {"serve.session.open_us", 1},
      {"serve.session.step_us", 1}};
  EXPECT_EQ(request_sketch_counts(snap), expected);
  ASSERT_EQ(snap.gauges.count("serve.cache.entries"), 1u);
  EXPECT_EQ(snap.gauges.at("serve.cache.entries"), 1.0);
  ASSERT_EQ(snap.gauges.count("serve.cache.bytes"), 1u);
  EXPECT_GT(snap.gauges.at("serve.cache.bytes"), 0.0);
}

TEST(ServeLatency, StatsMergesTheRequestSketchesInAFixedOrder) {
  ServerOptions opts = session_test_options();
  opts.workers = 3;
  Server server(opts);
  for (int i = 0; i < 3; ++i) ok_result(server.handle_line(kRunRequest));
  const std::string sid =
      session_id_of(ok_result(server.handle_line(open_request())));
  for (int k = 0; k < 4; ++k) ok_result(server.handle_line(step_request(sid)));
  ok_result(server.handle_line(close_request(sid)));

  const std::string stats_request =
      "{\"schema\":\"otem.serve.v1\",\"method\":\"stats\"}";
  const Json first = ok_result(server.handle_line(stats_request));
  const Json second = ok_result(server.handle_line(stats_request));
  const Json* wa = first.find("workers");
  const Json* wb = second.find("workers");
  ASSERT_NE(wa, nullptr);
  ASSERT_NE(wb, nullptr);
  EXPECT_EQ(wa->find("count")->as_number(), 3.0);
  const Json* merged_a = wa->find("request_latency_us");
  ASSERT_NE(merged_a, nullptr);
  // Consecutive calls over the same traffic agree byte for byte.
  EXPECT_EQ(merged_a->dump(0), wb->find("request_latency_us")->dump(0));

  // The all-method view is the four request sketches folded in a fixed
  // order: run, session.open, session.step, session.close.
  obs::QuantileSketch merged;
  for (const char* name :
       {"serve.request.latency_us", "serve.session.open_us",
        "serve.session.step_us", "serve.session.close_us"})
    merged.merge(server.registry().sketch(name).collect());
  EXPECT_EQ(merged.count(), 3u + 1u + 4u + 1u);
  const obs::Sketch::Snapshot want = obs::summarize(merged);
  EXPECT_EQ(merged_a->find("count")->as_number(),
            static_cast<double>(want.count));
  const std::pair<const char*, double> fields[] = {
      {"min", want.min}, {"max", want.max}, {"p50", want.p50},
      {"p95", want.p95}, {"p99", want.p99}, {"p999", want.p999}};
  for (const auto& [field, value] : fields)
    EXPECT_EQ(merged_a->find(field)->dump(0), Json(value).dump(0)) << field;
}

}  // namespace
}  // namespace otem::serve
