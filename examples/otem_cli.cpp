// otem_cli — command-line driver around the library: run any
// registered methodology on any cycle, stream full per-step telemetry
// to CSV, compare strategies, or inspect the drive-cycle catalogue. The
// Swiss army knife for exploring the system without writing code.
//
//   otem_cli cycles
//   otem_cli methods
//   otem_cli run US06 method=otem repeats=3 trace_csv=/tmp/run.csv
//   otem_cli run UDDS method=dual ambient_k=308.15
//   otem_cli compare LA92 repeats=2
//   otem_cli serve /tmp/otem.sock queue_depth=32 cache_mb=128
//   otem_cli serve 127.0.0.1:7600 workers=4 session_limit=256
//   otem_cli request /tmp/otem.sock cycle=UDDS method=otem repeats=2
//   otem_cli loadtest clients=8 steps=300 method=otem-ltv
//
// Any "key=value" pair is forwarded to the Config (battery.*, otem.*,
// thermal.*, ...) plus the scenario keys documented in sim/scenario.h.
// Overrides nothing consumed are reported at exit (typos fail loudly).
// `serve`/`request`/`loadtest` speak the otem.serve.v1 protocol
// (docs/SERVING.md); a serve/request/loadtest target containing
// "host:port" is TCP, anything else a Unix socket path.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <memory>

#include "campaign/grid.h"
#include "campaign/runner.h"
#include "common/error.h"
#include "common/logging.h"
#include "core/methodology_registry.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "sim/metrics.h"
#include "sim/obs_sink.h"
#include "sim/report.h"
#include "sim/scenario.h"
#include "vehicle/drive_cycle.h"

using namespace otem;

namespace {

void print_summary(const std::string& name, const sim::RunResult& r) {
  std::printf(
      "%-16s qloss=%.5f%%  avg=%.2f kW  cooling=%.2f kWh  max_Tb=%.1f C  "
      "violations=%.0f s  unserved=%.2f kWh\n",
      name.c_str(), r.qloss_percent, r.average_power_w / 1000.0,
      r.energy_cooling_j / 3.6e6, r.max_t_battery_k - 273.15,
      r.thermal_violation_s, r.unserved_energy_j / 3.6e6);
}

int cmd_cycles() {
  std::printf("%-7s %10s %10s %10s %10s %7s\n", "cycle", "dur_s", "km",
              "avg_kmh", "max_kmh", "stops");
  for (vehicle::CycleName c : vehicle::all_cycles()) {
    const vehicle::CycleStats s = vehicle::stats_of(vehicle::generate(c));
    std::printf("%-7s %10.0f %10.1f %10.0f %10.0f %7d\n",
                vehicle::to_string(c), s.duration_s, s.distance_m / 1000.0,
                s.avg_speed_mps * 3.6, s.max_speed_mps * 3.6, s.stop_count);
  }
  return 0;
}

int cmd_methods() {
  for (const std::string& name :
       core::MethodologyRegistry::instance().names())
    std::printf("%s\n", name.c_str());
  return 0;
}

int cmd_run(const std::string& cycle, const Config& cfg) {
  const core::SystemSpec spec = core::SystemSpec::from_config(cfg);
  sim::Scenario sc = sim::Scenario::from_config(cfg);
  sc.cycle = cycle;  // the positional argument wins over "cycle="
  // The summary needs no in-RAM trace; keep one only when the JSON
  // report embeds it. Streaming telemetry (trace_csv) is a sink.
  const bool report_trace = cfg.get_bool("report_trace", false);
  sc.record_trace = report_trace;

  const sim::ScenarioOutcome outcome = sim::run_scenario(sc, spec, cfg);
  std::printf("%s on %s: %zu steps, mean %.1f kW, peak %.1f kW\n",
              sc.methodology.c_str(), cycle.c_str(), outcome.power.size(),
              outcome.power.mean() / 1000.0,
              outcome.power.max() / 1000.0);
  print_summary(sc.methodology, outcome.result);

  const battery::CapacityFadeModel fade(spec.battery.cell);
  std::printf("battery lifetime at this mission: %.0f repetitions to 20%% "
              "loss\n",
              fade.missions_to_end_of_life(outcome.result.qloss_percent));
  if (!sc.trace_csv.empty())
    std::printf("trace written to %s (%zu rows)\n", sc.trace_csv.c_str(),
                outcome.power.size());
  if (!sc.metrics_out.empty())
    std::printf("metrics snapshot written to %s\n", sc.metrics_out.c_str());
  if (!sc.events_jsonl.empty())
    std::printf("events streamed to %s\n", sc.events_jsonl.c_str());
  if (!sc.trace_out.empty())
    std::printf("trace written to %s (otem.trace.v1; load in "
                "chrome://tracing or ui.perfetto.dev)\n",
                sc.trace_out.c_str());
  if (cfg.has("report_json")) {
    const std::string path = cfg.get_string("report_json", "");
    sim::write_run_report(path, spec, sc.methodology, outcome.result,
                          report_trace);
    std::printf("report written to %s\n", path.c_str());
  }
  return 0;
}

int cmd_compare(const std::string& cycle, const Config& cfg) {
  const core::SystemSpec spec = core::SystemSpec::from_config(cfg);
  const std::vector<std::string> methods = {"parallel", "active_cooling",
                                            "dual", "otem"};
  // One registry for the whole comparison: each method's diagnostics
  // land under its own name prefix, so `metrics_out=` yields a single
  // snapshot with all four strategies side by side.
  const std::string metrics_out = cfg.get_string("metrics_out", "");
  obs::MetricsRegistry registry;
  sim::RunResult base;
  for (const auto& name : methods) {
    sim::Scenario sc = sim::Scenario::from_config(cfg);
    sc.cycle = cycle;
    sc.methodology = name;
    sc.record_trace = false;
    sc.trace_csv.clear();  // per-method streaming would overwrite itself
    sc.metrics_out.clear();  // aggregated below instead
    sc.events_jsonl.clear();
    std::vector<sim::StepSink*> extra;
    std::unique_ptr<sim::DiagnosticsSink> diag;
    if (!metrics_out.empty()) {
      diag = std::make_unique<sim::DiagnosticsSink>(registry, name + ".");
      extra.push_back(diag.get());
    }
    const sim::RunResult r = sim::run_scenario(sc, spec, cfg, extra).result;
    if (name == "parallel") base = r;
    print_summary(name, r);
    if (name != "parallel" && base.qloss_percent > 0.0) {
      std::printf("%-16s   -> %.1f %% of parallel's capacity loss\n", "",
                  sim::relative_capacity_loss_percent(r, base));
    }
  }
  if (!metrics_out.empty()) {
    obs::write_metrics_json(metrics_out, registry);
    std::printf("metrics snapshot written to %s\n", metrics_out.c_str());
  }
  return 0;
}

/// Option keys the serve command consumes itself; everything else on
/// the command line becomes a base override applied under every
/// request.
bool is_serve_option(const std::string& key) {
  return key == "queue_depth" || key == "threads" || key == "cache_mb" ||
         key == "drain_timeout_s" || key == "max_frame_kb" ||
         key == "workers" || key == "session_limit" ||
         key == "session_ttl_s" || key == "metrics_out" ||
         key == "trace_out";
}

serve::ServerOptions serve_options_from_config(const Config& cfg) {
  serve::ServerOptions opts;
  const long queue_depth = cfg.get_long("queue_depth", 16);
  OTEM_REQUIRE(queue_depth >= 1, "queue_depth must be >= 1");
  opts.queue_depth = static_cast<size_t>(queue_depth);
  opts.threads = static_cast<size_t>(cfg.get_long("threads", 0));
  opts.cache_bytes = static_cast<size_t>(
      cfg.get_double("cache_mb", 64.0) * 1024.0 * 1024.0);
  opts.drain_timeout_s = cfg.get_double("drain_timeout_s", 5.0);
  opts.max_frame_bytes = static_cast<size_t>(
      cfg.get_double("max_frame_kb", 1024.0) * 1024.0);
  const long workers = cfg.get_long("workers", 1);
  OTEM_REQUIRE(workers >= 1, "workers must be >= 1");
  opts.workers = static_cast<size_t>(workers);
  opts.session_limit =
      static_cast<size_t>(cfg.get_long("session_limit", 64));
  opts.session_ttl_s = cfg.get_double("session_ttl_s", 300.0);
  opts.metrics_out = cfg.get_string("metrics_out", "");
  opts.trace_out = cfg.get_string("trace_out", "");
  for (const std::string& key : cfg.keys()) {
    if (!is_serve_option(key)) opts.base.set(key, cfg.get_string(key, ""));
  }
  return opts;
}

int cmd_serve(const std::string& target, const Config& cfg) {
  const serve::ServerOptions opts = serve_options_from_config(cfg);
  // A daemon should narrate its lifecycle (listening / drain / flush).
  if (log::level() > log::Level::kInfo) log::set_level(log::Level::kInfo);
  serve::Server server(opts);
  if (target == "--stdio") return server.serve_stdio();
  if (serve::is_tcp_endpoint(target)) return server.serve_tcp(target);
  return server.serve_unix(target);
}

int cmd_request(const std::string& socket, const Config& cfg) {
  serve::Request req;
  req.method = cfg.get_string("rpc", "run");
  const std::string id = cfg.get_string("id", "");
  if (!id.empty()) req.id = Json(id);
  req.deadline_ms = cfg.get_double("deadline_ms", 0.0);
  req.cache_bypass = cfg.get_string("cache", "use") == "bypass";
  const double timeout_s = cfg.get_double("timeout_s", 300.0);
  serve::RetryOptions retry;
  retry.max_attempts = static_cast<size_t>(cfg.get_long(
      "retries", static_cast<long>(retry.max_attempts)));
  for (const std::string& key : cfg.keys()) {
    if (key == "rpc" || key == "id" || key == "deadline_ms" ||
        key == "cache" || key == "timeout_s" || key == "retries")
      continue;
    req.overrides.emplace_back(key, cfg.get_string(key, ""));
  }

  // An overloaded daemon answers in-protocol and expects the client to
  // back off and retry; only a still-overloaded final answer surfaces.
  const std::string response = serve::request_with_retry(
      socket, serve::build_request(req), timeout_s, retry);
  const Json doc = Json::parse(response);
  const Json* ok = doc.find("ok");
  if (ok != nullptr && ok->is_bool() && ok->as_bool()) {
    // stdout carries ONLY the result document, so identical requests
    // print byte-identical reports whether computed or cached; the
    // cached flag goes to stderr for humans.
    const Json* result = doc.find("result");
    std::printf("%s\n", result ? result->dump(0).c_str() : "null");
    const Json* cached = doc.find("cached");
    if (cached != nullptr && cached->is_bool() && cached->as_bool())
      std::fprintf(stderr, "(served from cache)\n");
    return 0;
  }
  const Json* error = doc.find("error");
  const Json* message = doc.find("message");
  std::fprintf(stderr, "error: %s: %s\n",
               error != nullptr && error->is_string()
                   ? error->as_string().c_str()
                   : "unknown",
               message != nullptr && message->is_string()
                   ? message->as_string().c_str()
                   : response.c_str());
  return 2;
}

/// Nearest-rank percentile over an already-sorted sample vector.
double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size());
  size_t idx = static_cast<size_t>(rank);
  if (static_cast<double>(idx) < rank) ++idx;  // ceil
  if (idx > 0) --idx;                          // 1-based -> 0-based
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

/// Per-client loadtest tally, merged after the threads join.
struct LoadClientStats {
  std::vector<double> rtt_us;
  double cold_iters = 0.0;  ///< QP iterations on step k=0 (cold solve)
  size_t cold_n = 0;
  double warm_iters = 0.0;  ///< QP iterations on steps k>=1 (warm-started)
  size_t warm_n = 0;
  size_t steps_done = 0;
  size_t route_steps = 0;  ///< full mission length from session.open
  std::string error;       ///< non-empty = the client aborted
};

/// The serve-layer load harness behind docs/PERFORMANCE.md's serve tier
/// and CI's serve-load-smoke job: N concurrent clients each open one
/// mission session over TCP (or a Unix socket), stream M session.step
/// frames back to back, and close. Reports client-side RTT percentiles,
/// the daemon's own serve.session.step_us sketch, and the cold-vs-warm
/// QP iteration split (step k=0 pays the cold solve; k>=1 rides the
/// warm start) against a one-shot `run` of the same mission. With no
/// endpoint argument it hosts an in-process daemon on 127.0.0.1:<
/// ephemeral>, so the benchmark is a real localhost TCP roundtrip but
/// needs no second process. bench_json= stamps the whole result
/// document (otem.bench_serve.v1) for bench/check_serve.py to gate.
int cmd_loadtest(const std::string& endpoint_arg, const Config& cfg) {
  const long clients = cfg.get_long("clients", 4);
  const long steps = cfg.get_long("steps", 200);
  OTEM_REQUIRE(clients >= 1 && steps >= 1,
               "loadtest: clients and steps must be >= 1");
  const long workers = cfg.get_long("workers", 2);
  OTEM_REQUIRE(workers >= 1, "workers must be >= 1");
  const double timeout_s = cfg.get_double("timeout_s", 30.0);
  const std::string bench_json = cfg.get_string("bench_json", "");
  const bool oneshot = cfg.get_bool("oneshot", true);

  // Everything else rides to session.open (method=, cycle=, ltv.*, ...).
  auto is_loadtest_key = [](const std::string& key) {
    return key == "clients" || key == "steps" || key == "workers" ||
           key == "timeout_s" || key == "bench_json" || key == "oneshot";
  };
  std::vector<std::pair<std::string, std::string>> overrides;
  for (const std::string& key : cfg.keys()) {
    if (!is_loadtest_key(key))
      overrides.emplace_back(key, cfg.get_string(key, ""));
  }

  // Host the daemon in-process unless pointed at an external one; port
  // 0 picks an ephemeral port read back via bound_port().
  std::unique_ptr<serve::Server> server;
  std::thread server_thread;
  std::string endpoint = endpoint_arg;
  if (endpoint.empty()) {
    serve::ServerOptions opts;
    opts.workers = static_cast<size_t>(workers);
    opts.session_limit = static_cast<size_t>(clients) + 8;
    opts.cache_bytes = 8u << 20;
    server = std::make_unique<serve::Server>(opts);
    server_thread = std::thread([&server] {
      (void)server->serve_tcp("127.0.0.1:0");
    });
    while (server->bound_port() == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    endpoint = "127.0.0.1:" + std::to_string(server->bound_port());
  }

  const auto field = [](const Json* obj, const char* key) -> const Json* {
    return obj == nullptr ? nullptr : obj->find(key);
  };
  const auto num = [&field](const Json* obj, const char* key,
                            double fallback) {
    const Json* v = field(obj, key);
    return v != nullptr && v->is_number() ? v->as_number() : fallback;
  };

  std::printf("loadtest: %ld clients x %ld steps against %s\n", clients,
              steps, endpoint.c_str());

  std::vector<LoadClientStats> stats(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  threads.reserve(stats.size());
  for (size_t c = 0; c < stats.size(); ++c) {
    threads.emplace_back([&, c] {
      LoadClientStats& st = stats[c];
      try {
        serve::Connection conn(endpoint);
        serve::Request open;
        open.method = "session.open";
        open.overrides = overrides;
        const Json od =
            Json::parse(conn.roundtrip(serve::build_request(open), timeout_s));
        const Json* ok = od.find("ok");
        OTEM_REQUIRE(ok != nullptr && ok->is_bool() && ok->as_bool(),
                     "session.open refused: " + od.dump(0));
        const Json* oresult = od.find("result");
        const Json* sid = field(oresult, "session");
        OTEM_REQUIRE(sid != nullptr && sid->is_string(),
                     "session.open reply missing session id");
        const size_t route_steps =
            static_cast<size_t>(num(oresult, "route_steps", 0.0));
        st.route_steps = route_steps;
        const size_t todo =
            std::min(static_cast<size_t>(steps),
                     route_steps > 0 ? route_steps
                                     : static_cast<size_t>(steps));

        serve::Request step;
        step.method = "session.step";
        step.session = sid->as_string();
        const std::string step_line = serve::build_request(step);
        st.rtt_us.reserve(todo);
        for (size_t m = 0; m < todo; ++m) {
          const auto t0 = std::chrono::steady_clock::now();
          const std::string reply = conn.roundtrip(step_line, timeout_s);
          const auto t1 = std::chrono::steady_clock::now();
          st.rtt_us.push_back(
              std::chrono::duration<double, std::micro>(t1 - t0).count());
          const Json sd = Json::parse(reply);
          const Json* sok = sd.find("ok");
          OTEM_REQUIRE(sok != nullptr && sok->is_bool() && sok->as_bool(),
                       "session.step refused: " + sd.dump(0));
          const Json* sresult = sd.find("result");
          const double k = num(sresult, "k", -1.0);
          const double iters =
              num(field(sresult, "solve"), "qp_iterations", 0.0);
          if (k == 0.0) {
            st.cold_iters += iters;
            ++st.cold_n;
          } else if (k > 0.0) {
            st.warm_iters += iters;
            ++st.warm_n;
          }
          ++st.steps_done;
        }

        serve::Request close;
        close.method = "session.close";
        close.session = sid->as_string();
        const Json cd = Json::parse(
            conn.roundtrip(serve::build_request(close), timeout_s));
        const Json* cok = cd.find("ok");
        OTEM_REQUIRE(cok != nullptr && cok->is_bool() && cok->as_bool(),
                     "session.close refused: " + cd.dump(0));
      } catch (const std::exception& e) {
        st.error = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (size_t c = 0; c < stats.size(); ++c) {
    if (!stats[c].error.empty()) {
      std::fprintf(stderr, "loadtest: client %zu failed: %s\n", c,
                   stats[c].error.c_str());
      if (server) {
        server->request_stop();
        server_thread.join();
      }
      return 2;
    }
  }

  // Merge client tallies.
  std::vector<double> rtt;
  double cold_iters = 0.0, warm_iters = 0.0;
  size_t cold_n = 0, warm_n = 0, total_steps = 0;
  for (const LoadClientStats& st : stats) {
    rtt.insert(rtt.end(), st.rtt_us.begin(), st.rtt_us.end());
    cold_iters += st.cold_iters;
    cold_n += st.cold_n;
    warm_iters += st.warm_iters;
    warm_n += st.warm_n;
    total_steps += st.steps_done;
  }
  std::sort(rtt.begin(), rtt.end());
  const double rtt_mean =
      rtt.empty() ? 0.0
                  : std::accumulate(rtt.begin(), rtt.end(), 0.0) /
                        static_cast<double>(rtt.size());
  const double cold_mean =
      cold_n > 0 ? cold_iters / static_cast<double>(cold_n) : 0.0;
  const double warm_mean =
      warm_n > 0 ? warm_iters / static_cast<double>(warm_n) : 0.0;

  // The daemon's own view: server-side step handling time and the
  // all-method request latency, the four request sketches merged in a
  // fixed order.
  serve::Connection probe(endpoint);
  serve::Request streq;
  streq.method = "stats";
  const Json stats_doc =
      Json::parse(probe.roundtrip(serve::build_request(streq), timeout_s));
  const Json* server_stats = stats_doc.find("result");
  serve::Request mreq;
  mreq.method = "metrics";
  const Json metrics_doc =
      Json::parse(probe.roundtrip(serve::build_request(mreq), timeout_s));
  const Json* counters = field(metrics_doc.find("result"), "counters");

  // One-shot contrast: the same mission as a single `run` request
  // (cache bypassed), amortized per step. Sessions beat this because
  // the client sees a decision after ONE step's work, not the whole
  // mission's, and warm starts persist between frames either way.
  double oneshot_wall_us = 0.0;
  double oneshot_route_steps = 0.0;
  if (oneshot) {
    serve::Request run;
    run.method = "run";
    run.cache_bypass = true;
    run.overrides = overrides;
    const auto t0 = std::chrono::steady_clock::now();
    const Json rd = Json::parse(probe.roundtrip(
        serve::build_request(run), std::max(timeout_s, 300.0)));
    const auto t1 = std::chrono::steady_clock::now();
    const Json* rok = rd.find("ok");
    OTEM_REQUIRE(rok != nullptr && rok->is_bool() && rok->as_bool(),
                 "loadtest: one-shot run refused: " + rd.dump(0));
    oneshot_wall_us =
        std::chrono::duration<double, std::micro>(t1 - t0).count();
    oneshot_route_steps = static_cast<double>(stats.front().route_steps);
  }

  if (server) {
    server->request_stop();
    server_thread.join();
  }

  const double p50 = percentile_sorted(rtt, 0.50);
  const double p95 = percentile_sorted(rtt, 0.95);
  const double p99 = percentile_sorted(rtt, 0.99);
  std::printf("session.step RTT over %zu steps: mean %.0f us  p50 %.0f us  "
              "p95 %.0f us  p99 %.0f us  max %.0f us\n",
              total_steps, rtt_mean, p50, p95, p99,
              rtt.empty() ? 0.0 : rtt.back());
  std::printf("QP iterations per step: cold (k=0) %.1f  warm (k>=1) %.1f\n",
              cold_mean, warm_mean);
  if (oneshot && oneshot_route_steps > 0.0)
    std::printf("one-shot run: %.0f us wall for %.0f steps (%.0f us/step "
                "amortized, full-mission latency before the first "
                "decision)\n",
                oneshot_wall_us, oneshot_route_steps,
                oneshot_wall_us / oneshot_route_steps);

  if (!bench_json.empty()) {
    Json doc = Json::object();
    doc.set("schema", "otem.bench_serve.v1");
    Json ctx = Json::object();
#ifdef NDEBUG
    ctx.set("repo_build_type", "release");
#else
    ctx.set("repo_build_type", "debug");
#endif
    ctx.set("endpoint", endpoint);
    ctx.set("in_process_server", server != nullptr);
    ctx.set("workers", static_cast<double>(workers));
    ctx.set("clients", static_cast<double>(clients));
    ctx.set("steps_per_client", static_cast<double>(steps));
    Json ov = Json::object();
    for (const auto& [key, value] : overrides) ov.set(key, value);
    ctx.set("overrides", std::move(ov));
    doc.set("context", std::move(ctx));

    Json sess = Json::object();
    Json rj = Json::object();
    rj.set("count", static_cast<double>(rtt.size()));
    rj.set("mean", rtt_mean);
    rj.set("p50", p50);
    rj.set("p95", p95);
    rj.set("p99", p99);
    rj.set("max", rtt.empty() ? 0.0 : rtt.back());
    sess.set("rtt_us", std::move(rj));
    sess.set("cold_qp_iterations_mean", cold_mean);
    sess.set("warm_qp_iterations_mean", warm_mean);
    sess.set("cold_steps", static_cast<double>(cold_n));
    sess.set("warm_steps", static_cast<double>(warm_n));
    doc.set("session_step", std::move(sess));

    if (oneshot) {
      Json oj = Json::object();
      oj.set("wall_us", oneshot_wall_us);
      oj.set("route_steps", oneshot_route_steps);
      oj.set("per_step_us", oneshot_route_steps > 0.0
                                ? oneshot_wall_us / oneshot_route_steps
                                : 0.0);
      doc.set("oneshot_run", std::move(oj));
    }
    if (server_stats != nullptr) doc.set("server_stats", *server_stats);
    if (counters != nullptr) doc.set("counters", *counters);
    write_json_file(bench_json, doc);
    std::printf("bench document written to %s (otem.bench_serve.v1)\n",
                bench_json.c_str());
  }
  return 0;
}

/// The campaign verb: expand a campaign.* grid, stream it through the
/// runner (locally or across a serve fabric), print the per-group
/// headline table. All non-verb keys ride through to the methodology
/// factories (locally) or as request overrides (fabric mode).
int cmd_campaign(const Config& cfg) {
  const campaign::Grid grid = campaign::Grid::from_config(cfg);
  grid.validate();
  const core::SystemSpec spec = core::SystemSpec::from_config(cfg);

  campaign::CampaignOptions opts;
  opts.threads = static_cast<size_t>(cfg.get_long("threads", 0));
  opts.summary_out = cfg.get_string("summary_out", "");
  opts.checkpoint_path = cfg.get_string("checkpoint", "");
  opts.checkpoint_every =
      static_cast<size_t>(cfg.get_long("checkpoint_every", 1000));
  opts.resume_from = cfg.get_string("resume", "");
  opts.request_timeout_s = cfg.get_double("timeout_s", 120.0);
  opts.retry.max_attempts = static_cast<size_t>(cfg.get_long(
      "retries", static_cast<long>(opts.retry.max_attempts)));
  opts.halt_after_commits =
      static_cast<std::uint64_t>(cfg.get_long("halt_after", 0));
  opts.telemetry_csv_prefix = cfg.get_string("telemetry_csv_prefix", "");
  const std::string sockets = cfg.get_string("serve_sockets", "");
  for (size_t pos = 0; pos < sockets.size();) {
    const size_t comma = sockets.find(',', pos);
    const size_t end = comma == std::string::npos ? sockets.size() : comma;
    if (end > pos) opts.serve_sockets.push_back(sockets.substr(pos, end - pos));
    pos = end + 1;
  }
  const std::string metrics_out = cfg.get_string("metrics_out", "");
  obs::MetricsRegistry registry;
  if (!metrics_out.empty()) opts.metrics = &registry;
  opts.local_only_keys = {"threads",    "summary_out", "checkpoint",
                          "checkpoint_every", "resume", "timeout_s",
                          "retries",    "serve_sockets", "metrics_out",
                          "halt_after", "telemetry_csv_prefix"};

  std::printf("campaign: %zu scenarios (%zu routes x %zu ambients x %zu UC "
              "sizes x %zu methods), fingerprint %s\n",
              grid.size(), grid.routes(), grid.ambient_slots(),
              grid.uc_scales.size(), grid.methodologies.size(),
              grid.fingerprint().c_str());

  const campaign::CampaignOutcome outcome =
      campaign::run_campaign(grid, spec, cfg, opts);

  if (!metrics_out.empty()) {
    obs::write_metrics_json(metrics_out, registry);
    std::printf("metrics snapshot written to %s\n", metrics_out.c_str());
  }
  if (outcome.halted) {
    std::printf("campaign halted after %llu of %llu scenarios",
                static_cast<unsigned long long>(outcome.scenarios_restored +
                                                outcome.scenarios_run),
                static_cast<unsigned long long>(outcome.scenarios_total));
    if (!opts.checkpoint_path.empty())
      std::printf("; continue with resume=%s", opts.checkpoint_path.c_str());
    std::printf("\n");
    return 3;
  }

  const Json* groups = outcome.summary.find("groups");
  std::printf("%-16s %9s %12s %12s %12s %12s\n", "group", "runs",
              "qloss_mean%", "qloss_p95%", "avg_kW", "viol_s_mean");
  for (const auto& [name, group] : groups->members()) {
    const Json* qloss = group.find("metrics")->find("qloss_percent");
    const Json* power = group.find("metrics")->find("average_power_w");
    const Json* viol = group.find("metrics")->find("thermal_violation_s");
    std::printf("%-16s %9.0f %12.5f %12.5f %12.2f %12.1f\n", name.c_str(),
                group.find("scenarios")->as_number(),
                qloss->find("mean")->as_number(),
                qloss->find("p95")->as_number(),
                power->find("mean")->as_number() / 1000.0,
                viol->find("mean")->as_number());
  }
  if (!opts.summary_out.empty())
    std::printf("summary written to %s (otem.campaign.v1)\n",
                opts.summary_out.c_str());
  return 0;
}

void warn_unused(const Config& cfg) {
  for (const std::string& key : cfg.unused_keys())
    std::fprintf(stderr,
                 "warning: config override '%s' was never consumed "
                 "(misspelled key?)\n",
                 key.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Config cfg = Config::from_args(argc, argv);
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.find('=') == std::string::npos) positional.push_back(arg);
    }
    if (positional.empty()) {
      std::printf(
          "usage: otem_cli cycles\n"
          "       otem_cli methods\n"
          "       otem_cli run <cycle> [method=...] [repeats=N] "
          "[trace_csv=path] [report_json=path] [metrics_out=path] "
          "[events_jsonl=path] [trace_out=path] [key=value...]\n"
          "       otem_cli compare <cycle> [repeats=N] [metrics_out=path] "
          "[key=value...]\n"
          "       otem_cli serve <socket|host:port|--stdio> [queue_depth=N] "
          "[threads=N runs executing at once] [workers=N] [cache_mb=N] "
          "[session_limit=N] "
          "[session_ttl_s=S] [drain_timeout_s=S] [metrics_out=path] "
          "[trace_out=path] [key=value...]\n"
          "       otem_cli request <socket|host:port> "
          "[rpc=run|ping|metrics|stats|methods] "
          "[id=...] [deadline_ms=N] [cache=bypass] [retries=N] "
          "[key=value...]\n"
          "       otem_cli loadtest [socket|host:port] [clients=N] "
          "[steps=M] [workers=N] [bench_json=path] [oneshot=false] "
          "[key=value...]\n"
          "       otem_cli campaign [campaign.methods=a,b] "
          "[campaign.cycles=...] [campaign.synthetic_routes=N] "
          "[campaign.ambients_c=lo:hi:n] [campaign.uc_scales=...] "
          "[campaign.seed=N] [threads=N] [summary_out=path] "
          "[checkpoint=path] [checkpoint_every=N] [resume=path] "
          "[serve_sockets=s1,s2] [metrics_out=path] [key=value...]\n");
      return 1;
    }
    const std::string& cmd = positional[0];
    int rc = 1;
    if (cmd == "cycles") {
      rc = cmd_cycles();
    } else if (cmd == "methods") {
      rc = cmd_methods();
    } else if (cmd == "run" && positional.size() >= 2) {
      rc = cmd_run(positional[1], cfg);
    } else if (cmd == "compare" && positional.size() >= 2) {
      rc = cmd_compare(positional[1], cfg);
    } else if (cmd == "serve" && positional.size() >= 2) {
      rc = cmd_serve(positional[1], cfg);
    } else if (cmd == "request" && positional.size() >= 2) {
      rc = cmd_request(positional[1], cfg);
    } else if (cmd == "loadtest") {
      rc = cmd_loadtest(positional.size() >= 2 ? positional[1] : "", cfg);
    } else if (cmd == "campaign") {
      rc = cmd_campaign(cfg);
    } else {
      std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
      return 1;
    }
    warn_unused(cfg);
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
