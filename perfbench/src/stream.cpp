// stream.cpp — the two stream workloads.
//
// An in-process serve::Server listens on 127.0.0.1:<ephemeral>, as
// `otem_cli loadtest` hosts it. Two client threads, each with one
// persistent serve::Connection, step two resident mission sessions
// round-robin in a closed loop: a client sends the next session.step
// only when the previous reply is in, as a vehicle waits for its
// decision. Every frame carries an explicit p_request_w: the route
// forecast plus a seeded deviation. A session that reaches the end of
// its route is closed (its report is an output the run checks) and
// reopened on the next route of the seeded pool.
//
// Where the scheduler places the four busy threads moves a round trip
// by tens of percent on a shared virtual machine. So each client thread
// and the daemon's thread serving its connection are pinned to one CPU
// together, and the measured phase is cut into segments of kSegmentS
// seconds; each segment starts new client threads on new connections
// (the daemon starts new connection threads) that go on stepping the
// same resident sessions, on the next CPUs in turn.
//
//   ltv_stream    otem-ltv at the RTI serving point
//                 (ltv.sqp_iterations=1 ltv.qp.eps=0.2, H=30)
//   frame_stream  the reactive dual baseline: the decision costs well
//                 under a microsecond, so frame parse, session lookup,
//                 reply JSON and the socket do the work
#include <dirent.h>

#include <algorithm>
#include <barrier>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <unordered_set>

#include "common/config.h"
#include "core/system_spec.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/server.h"
#include "sim/scenario.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kConnections = 2;
constexpr size_t kSlotsPerConnection = 2;
constexpr size_t kSlots = kConnections * kSlotsPerConnection;
/// Nine generations of four routes. Set-up repetition r opens
/// generation (r + 1) % 9, so the set-up median covers every route's
/// cold decision three times and the measured phase starts on
/// generation 0.
constexpr size_t kGenerations = 9;
constexpr size_t kRoutePool = kGenerations * kSlots;
constexpr size_t kSetupReps = 3 * kGenerations;
constexpr double kSegmentS = 3.0;
constexpr double kFrameTimeoutS = 30.0;
/// Warm frames a client sends between two span drains in a traced
/// phase. A decision records ~7 spans, so 64 frames stay far below the
/// 2048-slot ring of the daemon's connection thread.
constexpr size_t kDrainEveryFrames = 64;
/// Relative standard deviation of the request around the forecast.
constexpr double kDeviation = 0.05;

struct Route {
  Pairs overrides;                 ///< session.open overrides
  std::vector<double> p_request_w; ///< explicit request per step
  double synth_us = 0.0;           ///< sim::scenario_power_trace time
};

/// The seeded route pool; the program receives only these inputs.
std::vector<Route> make_routes(const Options& opt, const std::string& method,
                               const Pairs& method_overrides) {
  std::vector<Route> routes(kRoutePool);
  for (size_t r = 0; r < kRoutePool; ++r) {
    Rng rng(derive_seed(opt.seed, 1000 + r));
    const std::uint64_t route_seed = 1 + rng.next() % 2000000000ull;
    const double duration_s = 600.0 + 300.0 * rng.uniform();
    const double ambient_k = 273.15 + 20.0 + 15.0 * rng.uniform();
    Route& route = routes[r];
    route.overrides = {{"method", method},
                       {"synthetic", "true"},
                       {"synthetic_seed", std::to_string(route_seed)},
                       {"synthetic_duration_s", fmt17(duration_s)},
                       {"ambient_k", fmt17(ambient_k)},
                       {"soak", "true"}};
    for (const auto& kv : method_overrides) route.overrides.push_back(kv);
    for (const auto& kv : opt.overrides) route.overrides.push_back(kv);

    otem::Config cfg;
    for (const auto& [key, value] : route.overrides) cfg.set(key, value);
    const otem::core::SystemSpec spec = otem::core::SystemSpec::from_config(cfg);
    const otem::sim::Scenario scenario = otem::sim::Scenario::from_config(cfg);
    const double t0 = now_s();
    const otem::TimeSeries forecast =
        otem::sim::scenario_power_trace(scenario, spec);
    route.synth_us = (now_s() - t0) * 1e6;
    route.p_request_w.resize(forecast.size());
    for (size_t k = 0; k < forecast.size(); ++k) {
      const double z = std::clamp(rng.normal(), -3.0, 3.0);
      route.p_request_w[k] = forecast[k] * (1.0 + kDeviation * z);
    }
  }
  return routes;
}

std::string open_frame(const Pairs& overrides) {
  std::string f =
      R"({"schema":"otem.serve.v1","method":"session.open","overrides":{)";
  for (size_t i = 0; i < overrides.size(); ++i) {
    if (i > 0) f += ',';
    f += jstr(overrides[i].first) + ':' + jstr(overrides[i].second);
  }
  return f + "}}";
}

std::string step_frame(const std::string& sid, double p_w) {
  return R"({"schema":"otem.serve.v1","method":"session.step","session":)" +
         jstr(sid) + R"(,"p_request_w":)" + fmt17(p_w) + "}";
}

std::string close_frame(const std::string& sid) {
  return R"({"schema":"otem.serve.v1","method":"session.close","session":)" +
         jstr(sid) + R"(,"hex_doubles":true})";
}

/// Thread ids of this process.
std::unordered_set<long> task_ids() {
  std::unordered_set<long> ids;
  if (DIR* dir = ::opendir("/proc/self/task")) {
    while (const dirent* e = ::readdir(dir))
      if (e->d_name[0] != '.') ids.insert(std::strtol(e->d_name, nullptr, 10));
    ::closedir(dir);
  }
  return ids;
}

/// The daemon, hosted in-process on an ephemeral localhost port.
class Daemon {
 public:
  Daemon() {
    otem::serve::ServerOptions o;
    o.workers = 2;
    o.session_limit = kSlots + 8;
    o.cache_bytes = 8u << 20;
    server_ = std::make_unique<otem::serve::Server>(o);
    thread_ = std::thread([this] {
      try {
        server_->serve_tcp("127.0.0.1:0");
      } catch (const std::exception& e) {
        error_ = e.what();
        failed_.store(true);
      }
    });
    const double give_up = now_s() + 10.0;
    while (server_->bound_port() == 0) {
      if (failed_.load() || now_s() > give_up) {
        server_->request_stop();
        thread_.join();
        throw std::runtime_error("daemon did not start: " + error_);
      }
      std::this_thread::yield();  // a sleep would add its own jitter
    }
    endpoint_ = "127.0.0.1:" + std::to_string(server_->bound_port());
  }
  ~Daemon() {
    server_->request_stop();
    thread_.join();
    // The server's detached connection threads signal its condition
    // variable after the connection count they report has reached zero,
    // so serve_tcp can return while one of them is still inside
    // notify_all. Give them time to leave before the Server is freed.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& endpoint() const { return endpoint_; }

 private:
  std::unique_ptr<otem::serve::Server> server_;
  std::thread thread_;
  std::atomic<bool> failed_{false};
  std::string error_;
  std::string endpoint_;
};

/// What clients saw; merged across clients and phases. Latencies go to
/// fixed-size histograms, so the benchmark's memory does not grow with
/// the number of decisions.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  Windows warm;              ///< k >= 1 session.step round trips [us]
  double warm_n = 0.0, warm_rtt_sum_us = 0.0;
  LogHistogram warm_solve;   ///< their solve.solve_time_us
  double warm_solve_sum_us = 0.0;
  std::vector<double> cold_solve_us;  ///< k == 0 solve.solve_time_us
  std::vector<double> open_ms;        ///< session.open round trips
  double warm_qp_iters = 0, cold_qp_iters = 0;
  double kkt = 0, sqp_rounds = 0, warm_hits = 0, polish_hits = 0;
  double fallbacks = 0;
  double reply_bytes = 0;

  /// Close reports: (route, complete, serialized report) -> count.
  std::map<std::tuple<size_t, bool, std::string>, size_t> reports;

  void fail(const std::string& message) {
    ++failed;
    if (errors.size() < 8) errors.push_back(message);
  }
  void merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    for (const auto& e : o.errors)
      if (errors.size() < 8) errors.push_back(e);
    warm.merge(o.warm);
    warm_n += o.warm_n;
    warm_rtt_sum_us += o.warm_rtt_sum_us;
    warm_solve.merge(o.warm_solve);
    warm_solve_sum_us += o.warm_solve_sum_us;
    cold_solve_us.insert(cold_solve_us.end(), o.cold_solve_us.begin(),
                         o.cold_solve_us.end());
    open_ms.insert(open_ms.end(), o.open_ms.begin(), o.open_ms.end());
    warm_qp_iters += o.warm_qp_iters;
    cold_qp_iters += o.cold_qp_iters;
    kkt += o.kkt;
    sqp_rounds += o.sqp_rounds;
    warm_hits += o.warm_hits;
    polish_hits += o.polish_hits;
    fallbacks += o.fallbacks;
    reply_bytes += o.reply_bytes;
    for (const auto& [key, n] : o.reports) reports[key] += n;
  }
};

/// One connection stepping its sessions round-robin.
class Client {
 public:
  /// `slots` are global slot indices; slot s, generation g uses route
  /// (s + g * slot_count) % pool.
  Client(const std::string& endpoint, const std::vector<Route>& routes,
         std::vector<size_t> slots, size_t slot_count, size_t generation)
      : endpoint_(endpoint), routes_(routes), slot_count_(slot_count) {
    connect();
    for (const size_t s : slots) {
      slots_.emplace_back();
      slots_.back().index = s;
      slots_.back().generation = generation;
    }
  }

  /// Open every slot's first session and take its cold decision.
  void open_all() {
    for (Slot& s : slots_)
      if (!broken_) open_slot(s);
  }

  /// Hang up and dial again; the sessions stay resident in the daemon.
  void reconnect() {
    if (broken_) return;
    conn_.reset();
    connect();
  }

  /// Warm decisions land in `windows` from now on.
  void start_phase(const Windows& windows) { tally_.warm = windows; }

  /// Closed-loop warm stepping until `deadline` (or until `max_routes`
  /// sessions completed, when non-zero). `drain` is a barrier the client
  /// waits at every kDrainEveryFrames warm frames, when non-null.
  template <typename Barrier>
  void run_until(double deadline, Barrier* drain, int cpu = -1,
                 size_t max_routes = 0) {
    if (cpu >= 0) {
      pin(0, cpu);
      if (server_tid_ != 0) pin(server_tid_, cpu);
    }
    size_t since_drain = 0;
    size_t next = 0;
    while (!broken_ && now_s() < deadline &&
           (max_routes == 0 || completed_ < max_routes)) {
      Slot& s = slots_[next];
      next = (next + 1) % slots_.size();
      if (s.k >= routes_[s.route].p_request_w.size()) {
        if (close_slot(s, true)) open_slot(s);
        continue;
      }
      step(s, true);
      if (drain != nullptr && ++since_drain == kDrainEveryFrames) {
        since_drain = 0;
        drain->arrive_and_wait();
      }
    }
    if (drain != nullptr) drain->arrive_and_drop();
  }

  /// Close every resident session; partial sessions report too.
  void close_all() {
    for (Slot& s : slots_)
      if (!broken_ && !s.sid.empty()) close_slot(s, false);
  }

  Tally take() { return std::exchange(tally_, Tally{}); }

 private:
  struct Slot {
    size_t index = 0;
    size_t generation = 0;
    size_t route = 0;
    std::string sid;
    size_t k = 0;
  };

  /// Dial the daemon and find the connection thread it starts for us
  /// (the one thread that appears meanwhile), so a measured phase can
  /// pin it next to this client's thread: every round trip then wakes a
  /// thread on the same CPU instead of crossing to another.
  void connect() {
    const std::unordered_set<long> before = task_ids();
    try {
      conn_ = std::make_unique<otem::serve::Connection>(endpoint_);
    } catch (const std::exception& e) {
      tally_.fail(std::string("connect: ") + e.what());
      broken_ = true;
      return;
    }
    std::string reply;
    if (!roundtrip(R"({"schema":"otem.serve.v1","method":"ping"})", reply,
                   nullptr))
      return;
    server_tid_ = 0;
    for (const long id : task_ids()) {
      if (before.count(id) != 0) continue;
      server_tid_ = server_tid_ == 0 ? id : -1;
    }
    if (server_tid_ < 0) server_tid_ = 0;  // ambiguous: leave unpinned
  }

  bool roundtrip(const std::string& frame, std::string& reply,
                 double* rtt_us) {
    ++tally_.attempted;
    try {
      const double t0 = now_s();
      reply = conn_->roundtrip(frame, kFrameTimeoutS);
      done_s_ = now_s();
      if (rtt_us != nullptr) *rtt_us = (done_s_ - t0) * 1e6;
    } catch (const std::exception& e) {
      tally_.fail(std::string("transport: ") + e.what());
      broken_ = true;
      return false;
    }
    if (!doc_.parse(reply) || !doc_.is_true("ok")) {
      tally_.fail("refused or malformed reply: " + reply.substr(0, 300));
      broken_ = true;
      return false;
    }
    return true;
  }

  void open_slot(Slot& s) {
    s.route = (s.index + s.generation * slot_count_) % routes_.size();
    s.k = 0;
    std::string reply;
    double rtt_us = 0.0;
    if (!roundtrip(open_frame(routes_[s.route].overrides), reply, &rtt_us))
      return;
    tally_.open_ms.push_back(rtt_us / 1000.0);
    const FlatJson::Value* sid = doc_.find("result.session");
    const double steps = doc_.number("result.route_steps");
    if (sid == nullptr || sid->kind != FlatJson::Kind::kString ||
        steps != static_cast<double>(routes_[s.route].p_request_w.size())) {
      tally_.fail("session.open reply disagrees with the route: " +
                  reply.substr(0, 300));
      broken_ = true;
      return;
    }
    s.sid = sid->text;
    step(s, false);  // the cold decision, k == 0
  }

  void step(Slot& s, bool warm) {
    const double p = routes_[s.route].p_request_w[s.k];
    std::string reply;
    double rtt_us = 0.0;
    if (!roundtrip(step_frame(s.sid, p), reply, &rtt_us)) return;
    const std::string bad = check_step(doc_, s.k, p);
    if (!bad.empty()) {
      tally_.fail("session " + s.sid + " k=" + std::to_string(s.k) + ": " +
                  bad);
      broken_ = true;
      return;
    }
    const double solve_us = doc_.number("result.solve.solve_time_us");
    const double iters = doc_.number("result.solve.qp_iterations");
    tally_.kkt += doc_.number("result.solve.kkt_refactorizations");
    tally_.sqp_rounds += doc_.number("result.solve.sqp_rounds");
    tally_.warm_hits += doc_.number("result.solve.qp_warm_hits");
    tally_.polish_hits += doc_.number("result.solve.qp_polish_hits");
    if (warm) {
      tally_.warm.add(done_s_, rtt_us);
      tally_.warm_n += 1.0;
      tally_.warm_rtt_sum_us += rtt_us;
      tally_.warm_solve.add(solve_us);
      tally_.warm_solve_sum_us += solve_us;
      tally_.warm_qp_iters += iters;
      tally_.reply_bytes += static_cast<double>(reply.size());
      if (doc_.is_true("result.solve.fallback")) tally_.fallbacks += 1.0;
    } else {
      tally_.cold_solve_us.push_back(solve_us);
      tally_.cold_qp_iters += iters;
    }
    ++s.k;
  }

  /// Output check of one session.step reply: the step index is the
  /// one sent, the request is echoed, and every decision, state and
  /// solver figure is a finite number in its physical range.
  static std::string check_step(const FlatJson& doc, size_t k, double p) {
    if (doc.number("result.k") != static_cast<double>(k))
      return "k out of sequence";
    const double echoed = doc.number("result.p_request_w");
    if (!(std::fabs(echoed - p) <= 1e-9 * std::max(1.0, std::fabs(p))))
      return "p_request_w not echoed";
    static const char* const kFinite[] = {
        "result.decision.p_cooler_w", "result.decision.t_inlet_k",
        "result.decision.p_cap_w",    "result.decision.i_bat_a",
        "result.decision.i_cap_a",    "result.unmet_w",
        "result.solve.solve_time_us", "result.solve.qp_iterations",
        "result.solve.sqp_rounds",    "result.solve.qp_warm_hits",
        "result.solve.kkt_refactorizations",
        "result.solve.qp_polish_hits"};
    for (const char* path : kFinite)
      if (!std::isfinite(doc.number(path)))
        return std::string(path) + " missing or not finite";
    const double tb = doc.number("result.state.t_battery_k");
    const double tc = doc.number("result.state.t_coolant_k");
    const double soc = doc.number("result.state.soc_percent");
    const double soe = doc.number("result.state.soe_percent");
    if (!(tb > 200.0 && tb < 400.0 && tc > 200.0 && tc < 400.0))
      return "temperature out of range";
    if (!(soc >= 0.0 && soc <= 100.0 && soe >= 0.0 && soe <= 100.0))
      return "state of charge out of range";
    const FlatJson::Value* feasible = doc.find("result.feasible");
    if (feasible == nullptr || feasible->kind != FlatJson::Kind::kBool)
      return "feasible flag missing";
    return "";
  }

  bool close_slot(Slot& s, bool complete) {
    std::string reply;
    if (!roundtrip(close_frame(s.sid), reply, nullptr)) return false;
    const double steps = doc_.number("result.steps");
    if (steps != static_cast<double>(s.k)) {
      tally_.fail("session.close step count " + fmt17(steps) + " != " +
                  std::to_string(s.k));
      broken_ = true;
      return false;
    }
    static const std::string kPrefix = "result.report_hex.";
    std::string report = "{";
    for (const auto& [path, v] : doc_.fields()) {
      if (path.compare(0, kPrefix.size(), kPrefix) != 0) continue;
      if (report.size() > 1) report += ',';
      report += jstr(path.substr(kPrefix.size())) + ':';
      report += v.kind == FlatJson::Kind::kString ? jstr(v.text)
                : v.kind == FlatJson::Kind::kNumber ? jnum(v.number)
                                                    : std::string("null");
    }
    report += "}";
    ++tally_.reports[{s.route, complete, report}];
    if (complete) ++completed_;
    s.sid.clear();
    ++s.generation;
    return true;
  }

  std::string endpoint_;
  std::unique_ptr<otem::serve::Connection> conn_;
  long server_tid_ = 0;  ///< the daemon's thread for conn_; 0 = unknown
  const std::vector<Route>& routes_;
  size_t slot_count_;
  std::vector<Slot> slots_;
  Tally tally_;
  FlatJson doc_;
  double done_s_ = 0.0;  ///< completion time of the last round trip
  bool broken_ = false;
  size_t completed_ = 0;
};

/// Span totals over the daemon's session.step frames (traced phase).
struct SpanTotals {
  double request_us = 0, parse_us = 0, step_us = 0, ltv_solve_us = 0;
  double qp_solve_us = 0, factorize_us = 0;
  double steps = 0;

  void absorb(const std::vector<otem::obs::SpanRecord>& spans) {
    std::unordered_set<std::uint64_t> step_requests;
    for (const auto& s : spans) {
      if (std::strcmp(s.name, "serve.session.step") != 0) continue;
      step_requests.insert(s.parent);
      step_us += s.dur_us;
      steps += 1.0;
    }
    for (const auto& s : spans) {
      if (std::strcmp(s.name, "serve.request") == 0) {
        if (step_requests.count(s.id) != 0) request_us += s.dur_us;
      } else if (std::strcmp(s.name, "serve.parse") == 0) {
        if (step_requests.count(s.parent) != 0) parse_us += s.dur_us;
      } else if (std::strcmp(s.name, "ltv.solve") == 0) {
        ltv_solve_us += s.dur_us;
      } else if (std::strcmp(s.name, "ltv_qp.solve") == 0) {
        qp_solve_us += s.dur_us;
      } else if (std::strcmp(s.name, "ltv_qp.factorize") == 0) {
        factorize_us += s.dur_us;
      }
    }
  }
};

/// Read the rings and empty them. Callers guarantee quiescence: every
/// client waits at the barrier, so no daemon thread is mid-frame.
void drain_spans(SpanTotals& totals) {
  totals.absorb(otem::obs::TraceCollector().collect());
  otem::obs::trace_reset();
}

/// Step every client in its own thread until `seconds` pass, in
/// segments that each start on fresh connections.
Tally run_phase(std::vector<std::unique_ptr<Client>>& clients, double seconds,
                SpanTotals* spans) {
  const double start = now_s();
  const Windows windows(start, 1.0, static_cast<size_t>(seconds));
  for (auto& client : clients) client->start_phase(windows);
  const size_t segments = std::max<size_t>(
      1, static_cast<size_t>(std::lround(seconds / kSegmentS)));
  const std::vector<int> cpus = allowed_cpus();
  for (size_t seg = 0; seg < segments; ++seg) {
    if (seg > 0)
      for (auto& client : clients) client->reconnect();
    auto on_drain = [spans]() noexcept {
      if (spans != nullptr) drain_spans(*spans);
    };
    std::barrier drain(static_cast<std::ptrdiff_t>(clients.size()), on_drain);
    const double deadline = start + seconds * static_cast<double>(seg + 1) /
                                        static_cast<double>(segments);
    // Segment s puts client c on CPU (s + 2c) % n: the pairs rotate
    // over every CPU, so no run rests on one vCPU's luck.
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients.size(); ++c) {
      const int cpu = cpus.empty() ? -1 : cpus[(seg + 2 * c) % cpus.size()];
      threads.emplace_back([&client = clients[c], deadline, spans, &drain,
                            cpu] {
        client->run_until(deadline, spans != nullptr ? &drain : nullptr, cpu);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  if (spans != nullptr) drain_spans(*spans);
  Tally phase;
  for (auto& client : clients) phase.merge(client->take());
  return phase;
}

/// The daemon's own view of session.step handling time.
struct DaemonStats {
  double handle_p50_us = 0.0, handle_p99_us = 0.0;
};

DaemonStats query_stats(const std::string& endpoint, Tally& tally) {
  DaemonStats out;
  ++tally.attempted;
  try {
    otem::serve::Connection conn(endpoint);
    const std::string reply = conn.roundtrip(
        R"({"schema":"otem.serve.v1","method":"stats"})", kFrameTimeoutS);
    FlatJson doc;
    if (!doc.parse(reply) || !doc.is_true("ok")) {
      tally.fail("stats refused: " + reply.substr(0, 300));
      return out;
    }
    out.handle_p50_us = doc.number("result.session_step_us.p50");
    out.handle_p99_us = doc.number("result.session_step_us.p99");
  } catch (const std::exception& e) {
    tally.fail(std::string("stats: ") + e.what());
  }
  return out;
}

std::string outputs_json(const std::string& method,
                         const std::vector<Route>& routes, const Tally& t) {
  std::string out = "{\"kind\":\"stream\",\"method\":" + jstr(method) +
                    ",\"route_steps\":[";
  for (size_t r = 0; r < routes.size(); ++r) {
    if (r > 0) out += ',';
    out += std::to_string(routes[r].p_request_w.size());
  }
  out += "],\"reports\":[";
  bool first = true;
  for (const auto& [key, count] : t.reports) {
    const auto& [route, complete, report] = key;
    if (!first) out += ',';
    first = false;
    out += "{\"route\":" + std::to_string(route) +
           ",\"complete\":" + (complete ? "true" : "false") +
           ",\"count\":" + std::to_string(count) + ",\"report\":" + report +
           "}";
  }
  return out + "]}";
}

}  // namespace

bool is_stream_workload(const std::string& name) {
  return name == "ltv_stream" || name == "frame_stream";
}

Report run_stream(const Options& opt) {
  const bool ltv = opt.workload == "ltv_stream";
  const std::string method = ltv ? "otem-ltv" : "dual";
  const Pairs method_overrides =
      ltv ? Pairs{{"ltv.sqp_iterations", "1"}, {"ltv.qp.eps", "0.2"}}
          : Pairs{};
  const std::vector<Route> routes = make_routes(opt, method, method_overrides);

  Report report;
  Tally all;
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<Client>> clients;
  const auto teardown = [&] {
    for (auto& c : clients) all.merge(c->take());
    clients.clear();  // hang up first, so connection threads see EOF
    daemon.reset();
  };

  if (opt.record) {
    // One session at a time through the whole pool, each to its end.
    daemon = std::make_unique<Daemon>();
    clients.push_back(std::make_unique<Client>(
        daemon->endpoint(), routes, std::vector<size_t>{0}, 1, 0));
    clients[0]->open_all();
    clients[0]->run_until<std::barrier<>>(1e300, nullptr, -1, routes.size());
    clients[0]->close_all();
    teardown();
    report.attempted = all.attempted;
    report.failed = all.failed;
    report.errors = all.errors;
    report.outputs = outputs_json(method, routes, all);
    return report;
  }

  // Set-up: daemon start through every session.open and each session's
  // cold first decision; repeated over the pool, the median reported.
  std::vector<double> setup_s;
  // Repetition r runs on CPU r % n (the daemon's threads inherit it),
  // for the same reason the measured phase pins its threads.
  const std::vector<int> cpus = allowed_cpus();
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    teardown();
    const size_t generation = (rep + 1) % kGenerations;
    if (!cpus.empty()) pin(0, cpus[rep % cpus.size()]);
    const double t0 = now_s();
    daemon = std::make_unique<Daemon>();
    for (size_t c = 0; c < kConnections; ++c) {
      std::vector<size_t> slots;
      for (size_t s = 0; s < kSlotsPerConnection; ++s)
        slots.push_back(c * kSlotsPerConnection + s);
      clients.push_back(std::make_unique<Client>(daemon->endpoint(), routes,
                                                 slots, kSlots, generation));
      clients.back()->open_all();
    }
    setup_s.push_back(now_s() - t0);
  }
  set_affinity(0, cpus);
  for (auto& c : clients) all.merge(c->take());

  Tally untraced;
  Tally traced;
  SpanTotals spans;
  DaemonStats stats;
  if (!opt.trace) {
    untraced = run_phase(clients, opt.seconds, nullptr);
  } else {
    untraced = run_phase(clients, opt.seconds / 2.0, nullptr);
    stats = query_stats(daemon->endpoint(), all);
    otem::obs::trace_reset();
    otem::obs::set_trace_enabled(true);
    traced = run_phase(clients, opt.seconds / 2.0, &spans);
    otem::obs::set_trace_enabled(false);
  }
  for (auto& c : clients) c->close_all();
  teardown();
  all.merge(untraced);
  all.merge(traced);

  const Tally& u = untraced;
  const double rtt_p50 = u.warm.median_quantile(0.50);
  size_t completed = 0;
  for (const auto& [key, count] : all.reports)
    if (std::get<1>(key)) completed += count;
  report.attempted = all.attempted;
  report.failed = all.failed;
  report.errors = all.errors;
  report.outputs = outputs_json(method, routes, all);
  report.detail = "{\"warm_decisions\":" + jnum(u.warm_n) +
                  ",\"windows\":" + std::to_string(u.warm.latency.size()) +
                  ",\"setup_samples\":" + std::to_string(setup_s.size()) +
                  ",\"routes_completed\":" + std::to_string(completed) + "}";
  if (u.warm_n == 0.0) report.fail("no warm decision completed");

  if (!opt.trace) {
    report.add("setup_s", median(setup_s), "s");
    report.add("latency_p50_us", rtt_p50, "us");
    report.add("latency_p99_us", u.warm.median_quantile(0.99), "us");
    report.add("throughput_per_s", u.warm.median_rate(), "1/s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    return report;
  }

  // Per-layer view. Daemon stats and reply diagnostics come from the
  // untraced phase; span times from the traced one.
  const double solve_p50 = u.warm_solve.quantile(0.50);
  report.add("serve.handle_p50_us", stats.handle_p50_us, "us");
  report.add("serve.handle_p99_us", stats.handle_p99_us, "us");
  report.add("serve.transport_p50_us", rtt_p50 - stats.handle_p50_us, "us");
  report.add("serve.frame_cost_p50_us", stats.handle_p50_us - solve_p50, "us");
  report.add("serve.reply_bytes", u.reply_bytes / u.warm_n, "bytes");
  report.add("serve.open_ms", median(all.open_ms), "ms");
  if (ltv) {
    const double decisions =
        u.warm_n + static_cast<double>(u.cold_solve_us.size());
    report.add("core.solve_p50_us", solve_p50, "us");
    report.add("core.solve_p99_us", u.warm_solve.quantile(0.99), "us");
    report.add("core.cold_solve_ms", median(all.cold_solve_us) / 1000.0, "ms");
    report.add("core.solve_share", u.warm_solve_sum_us / u.warm_rtt_sum_us,
               "ratio");
    report.add("optim.admm_iters_warm", u.warm_qp_iters / u.warm_n, "count");
    report.add("optim.admm_iters_cold",
               all.cold_qp_iters / static_cast<double>(all.cold_solve_us.size()),
               "count");
    report.add("optim.kkt_factorizations_per_decision", u.kkt / decisions,
               "count");
    report.add("optim.polish_hit_ratio", u.polish_hits / u.sqp_rounds, "ratio");
    report.add("optim.warm_hit_ratio", u.warm_hits / u.sqp_rounds, "ratio");
    report.add("optim.fallbacks", u.fallbacks, "count");
    const double n = spans.steps > 0 ? spans.steps : 1.0;
    report.add("core.sqp_outside_qp_us",
               (spans.ltv_solve_us - spans.qp_solve_us) / n, "us");
    report.add("optim.qp_solve_us", spans.qp_solve_us / n, "us");
    report.add("optim.factorize_us", spans.factorize_us / n, "us");
  }
  double synth_us = 0.0;
  for (const Route& r : routes) synth_us += r.synth_us;
  report.add("vehicle.route_us", synth_us / static_cast<double>(routes.size()),
             "us");
  // A decision's round trip, traced against untraced. (Throughput would
  // also count the pauses the benchmark takes to drain the rings.)
  report.add("obs.trace_overhead_pct",
             (traced.warm.median_quantile(0.50) / rtt_p50 - 1.0) * 100.0, "%");
  // Share of a traced decision's round trip inside the daemon's
  // serve.request span that no child span covers: session lookup,
  // reply envelope and counters.
  const double per = spans.steps > 0 ? 1.0 / spans.steps : 0.0;
  report.add("unattributed_pct",
             100.0 * (spans.request_us - spans.parse_us - spans.step_us) * per /
                 (traced.warm_rtt_sum_us / traced.warm_n),
             "%");
  return report;
}

}  // namespace perfbench
