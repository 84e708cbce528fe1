#include "campaign/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <map>
#include <mutex>
#include <unordered_set>
#include <utility>

#include "campaign/checkpoint.h"
#include "common/error.h"
#include "common/strings.h"
#include "exec/parallel_for.h"
#include "serve/protocol.h"
#include "sim/scenario.h"

namespace otem::campaign {

namespace {

/// 17 significant digits (append_g17): an exact strtod round-trip for
/// doubles forwarded as config strings to serve daemons.
std::string fmt17(double v) {
  std::string text;
  append_g17(text, v);
  return text;
}

/// The innermost grid axis — the group a scenario commits under,
/// without paying for a full Grid::at() expansion per fold.
const std::string& group_of(const Grid& grid, std::uint64_t index) {
  return grid.methodologies[index % grid.methodologies.size()];
}

/// Reorder-buffer committer: workers submit results in completion
/// order; the watermark folds them into the accumulator in INDEX order.
/// All state is guarded by one mutex — folds are serialized, so the
/// floating-point fold sequence is fixed regardless of which thread
/// happens to perform it.
class Committer {
 public:
  /// `width` is the campaign's resolved worker count (never 0).
  Committer(const Grid& grid, const CampaignOptions& options, size_t width,
            CampaignAccumulator acc, std::uint64_t watermark,
            std::map<std::uint64_t, ScenarioResult> pending,
            std::uint64_t total)
      : grid_(grid),
        options_(options),
        acc_(std::move(acc)),
        watermark_(watermark),
        pending_(std::move(pending)),
        total_(total),
        capacity_(4 * width + 16),
        last_checkpoint_(watermark) {
    // A restored checkpoint may carry a foldable prefix (defensively —
    // writers fold eagerly, so this is normally a no-op).
    std::unique_lock<std::mutex> lock(mutex_);
    fold_locked();
  }

  /// Backpressure before computing scenario `index`: wait until it is
  /// within the reorder window. The watermark index itself never waits.
  /// Returns false when the campaign is halting — drop the work.
  bool wait_turn(std::uint64_t index) {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      if (halted_) return false;
      if (options_.stop.stop_requested()) {
        halt_locked();
        return false;
      }
      if (index < watermark_ + capacity_) return true;
      cv_.wait_for(lock, std::chrono::milliseconds(50));
    }
  }

  void submit(std::uint64_t index, ScenarioResult result) {
    std::unique_lock<std::mutex> lock(mutex_);
    pending_.emplace(index, std::move(result));
    ++run_;
    fold_locked();
    if (!halted_ && !options_.checkpoint_path.empty() &&
        options_.checkpoint_every > 0 &&
        watermark_ - last_checkpoint_ >= options_.checkpoint_every)
      write_checkpoint_locked();
    cv_.notify_all();
  }

  void halt() {
    std::unique_lock<std::mutex> lock(mutex_);
    halt_locked();
  }

  /// After the workers join: write the final checkpoint (halt or
  /// completion) and report the terminal state.
  void finalize() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!options_.checkpoint_path.empty()) write_checkpoint_locked();
  }

  bool halted() const {
    std::unique_lock<std::mutex> lock(mutex_);
    return halted_;
  }
  bool complete() const {
    std::unique_lock<std::mutex> lock(mutex_);
    return watermark_ == total_;
  }
  std::uint64_t scenarios_run() const {
    std::unique_lock<std::mutex> lock(mutex_);
    return run_;
  }
  std::uint64_t checkpoints_written() const {
    std::unique_lock<std::mutex> lock(mutex_);
    return checkpoints_;
  }
  /// Callable only after the workers join.
  const CampaignAccumulator& accumulator() const { return acc_; }

 private:
  void fold_locked() {
    while (!halted_) {
      auto it = pending_.begin();
      if (it == pending_.end() || it->first != watermark_) break;
      acc_.commit(group_of(grid_, watermark_), it->second);
      pending_.erase(it);
      ++watermark_;
      if (options_.halt_after_commits > 0 &&
          watermark_ >= options_.halt_after_commits && watermark_ < total_)
        halt_locked();
    }
  }

  void halt_locked() {
    halted_ = true;
    cv_.notify_all();
  }

  void write_checkpoint_locked() {
    Checkpoint ck;
    ck.grid_fingerprint = grid_.fingerprint();
    ck.watermark = watermark_;
    ck.pending = pending_;
    ck.accumulator = acc_.to_json();
    write_checkpoint_file(options_.checkpoint_path, ck);
    last_checkpoint_ = watermark_;
    ++checkpoints_;
  }

  const Grid& grid_;
  const CampaignOptions& options_;
  CampaignAccumulator acc_;
  std::uint64_t watermark_;
  std::map<std::uint64_t, ScenarioResult> pending_;
  const std::uint64_t total_;
  const size_t capacity_;  ///< reorder-buffer bound
  std::uint64_t last_checkpoint_;
  std::uint64_t run_ = 0;
  std::uint64_t checkpoints_ = 0;
  bool halted_ = false;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
};

/// Config key/value pairs extracted once up front, so each scenario can
/// build a PRIVATE Config: Config copies share a consumed-key set and
/// concurrent reads through copies would race on it (the serve server
/// takes the same precaution per session).
std::vector<std::pair<std::string, std::string>> extract_pairs(
    const Config& cfg) {
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const std::string& key : cfg.keys())
    pairs.emplace_back(key, cfg.get_string(key, ""));
  return pairs;
}

Config make_private_config(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  Config cfg;
  for (const auto& [key, value] : pairs) cfg.set(key, value);
  return cfg;
}

ScenarioResult run_local(
    const ScenarioSpec& s, const core::SystemSpec& base_spec,
    const std::vector<std::pair<std::string, std::string>>& base_pairs,
    const CampaignOptions& options) {
  core::SystemSpec spec = base_spec.with_ultracap_size(
      base_spec.ultracap.capacitance_f * s.uc_scale);
  spec.ambient_k = s.ambient_k;

  sim::Scenario scenario;
  scenario.methodology = s.methodology;
  if (s.synthetic()) {
    scenario.synthetic = true;
    scenario.synthetic_seed = s.route_seed;
    scenario.synthetic_duration_s = s.duration_s;
    scenario.synthetic_max_speed_mps = s.max_speed_mps;
  } else {
    scenario.cycle = s.route;
  }
  scenario.ambient_k = s.ambient_k;
  scenario.soak = true;
  scenario.initial.soe_percent = s.soe0;
  scenario.record_trace = false;
  if (!options.telemetry_csv_prefix.empty())
    scenario.trace_csv = options.telemetry_csv_prefix + s.id + ".csv";

  const Config cfg = make_private_config(base_pairs);
  const sim::ScenarioOutcome outcome =
      sim::run_scenario(scenario, spec, cfg, {}, options.stop);
  return ScenarioResult::from_run(outcome.result);
}

/// Assemble the otem.serve.v1 run request for one scenario. Base config
/// pairs forward first (methodology parameters the daemons need), the
/// scenario's own resolved values last so they win.
std::string build_run_request(
    const ScenarioSpec& s, const core::SystemSpec& base_spec,
    const std::vector<std::pair<std::string, std::string>>& base_pairs) {
  serve::Request req;
  req.method = "run";
  req.id = Json(s.id);
  // Bit-exact report doubles: the daemon's %.12g JSON numbers lose the
  // low mantissa bits, which would make fabric and local campaign
  // summaries drift. report_hex carries IEEE-754 bit patterns instead.
  req.hex_doubles = true;
  for (const auto& [key, value] : base_pairs) {
    // campaign.* is the grid's vocabulary, not the daemons'.
    if (key.rfind("campaign.", 0) == 0) continue;
    req.overrides.emplace_back(key, value);
  }
  req.overrides.emplace_back("method", s.methodology);
  if (s.synthetic()) {
    req.overrides.emplace_back("synthetic", "true");
    req.overrides.emplace_back("synthetic_seed",
                               std::to_string(s.route_seed));
    req.overrides.emplace_back("synthetic_duration_s", fmt17(s.duration_s));
    req.overrides.emplace_back("synthetic_max_speed_mps",
                               fmt17(s.max_speed_mps));
  } else {
    req.overrides.emplace_back("cycle", s.route);
  }
  req.overrides.emplace_back("ambient_k", fmt17(s.ambient_k));
  req.overrides.emplace_back("soak", "true");
  req.overrides.emplace_back("soe0", fmt17(s.soe0));
  req.overrides.emplace_back(
      "ultracap.capacitance_f",
      fmt17(base_spec.ultracap.capacitance_f * s.uc_scale));
  // No record_trace/telemetry overrides: the daemon refuses server-side
  // output keys and forces tracing off itself.
  return serve::build_request(req);
}

ScenarioResult parse_run_response(const std::string& line,
                                  const ScenarioSpec& s) {
  const Json doc = Json::parse(line);
  const Json* ok = doc.find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
    const Json* message = doc.find("message");
    const Json* error = doc.find("error");
    OTEM_REQUIRE(false,
                 "campaign: fabric rejected scenario " + s.id + ": " +
                     (error != nullptr && error->is_string()
                          ? error->as_string()
                          : std::string("malformed response")) +
                     (message != nullptr && message->is_string()
                          ? " (" + message->as_string() + ")"
                          : ""));
  }
  const Json* result = doc.find("result");
  OTEM_REQUIRE(result != nullptr, "campaign: fabric response missing result");
  // build_run_request always asks for hex_doubles, and every daemon
  // answers with the bit-exact report_hex, cached replies included.
  const Json* hex = result->find("report_hex");
  OTEM_REQUIRE(hex != nullptr && hex->is_object(),
               "campaign: fabric reply for scenario " + s.id +
                   " carries no report_hex");
  ScenarioResult out;
  for (size_t d = 0; d < ScenarioResult::kDims; ++d) {
    const Json* v = hex->find(ScenarioResult::dim_name(d));
    if (v != nullptr && v->is_number()) {
      out.set_dim(d, v->as_number());  // e.g. infeasible_steps
      continue;
    }
    OTEM_REQUIRE(v != nullptr && v->is_string(),
                 std::string("campaign: fabric hex report missing ") +
                     ScenarioResult::dim_name(d));
    out.set_dim(d, strings::parse_hex_double(v->as_string()));
  }
  return out;
}

ScenarioResult run_remote(
    const ScenarioSpec& s, const core::SystemSpec& base_spec,
    const std::vector<std::pair<std::string, std::string>>& base_pairs,
    const CampaignOptions& options) {
  const std::string request = build_run_request(s, base_spec, base_pairs);
  // Spread load by scenario index; on transport failure or timeout
  // (stragglers, dead daemons) re-dispatch to the next socket. Overload
  // refusals are retried with backoff by the client before a socket is
  // given up on.
  std::string last_error;
  for (size_t attempt = 0; attempt < options.serve_sockets.size(); ++attempt) {
    const std::string& socket =
        options.serve_sockets[(s.index + attempt) %
                              options.serve_sockets.size()];
    try {
      const std::string response = serve::request_with_retry(
          socket, request, options.request_timeout_s, options.retry,
          options.metrics);
      return parse_run_response(response, s);
    } catch (const SimError& e) {
      last_error = e.what();
      if (options.metrics != nullptr)
        options.metrics->counter("campaign.fabric_redispatch").add(1);
    }
  }
  OTEM_REQUIRE(false, "campaign: every fabric socket failed for scenario " +
                          s.id + "; last error: " + last_error);
}

}  // namespace

CampaignOutcome run_campaign(const Grid& grid,
                             const core::SystemSpec& base_spec,
                             const Config& cfg,
                             const CampaignOptions& options) {
  grid.validate();
  const std::uint64_t total = grid.size();

  CampaignAccumulator acc;
  std::uint64_t watermark = 0;
  std::map<std::uint64_t, ScenarioResult> restored_pending;
  if (!options.resume_from.empty()) {
    const Checkpoint ck = read_checkpoint_file(options.resume_from);
    OTEM_REQUIRE(ck.grid_fingerprint == grid.fingerprint(),
                 "campaign: checkpoint grid fingerprint " +
                     ck.grid_fingerprint + " does not match this grid (" +
                     grid.fingerprint() +
                     ") — refusing to merge incompatible streams");
    acc = CampaignAccumulator::from_json(ck.accumulator);
    watermark = ck.watermark;
    restored_pending = ck.pending;
    OTEM_REQUIRE(watermark <= total, "campaign: checkpoint beyond the grid");
  }

  CampaignOutcome outcome;
  outcome.scenarios_total = total;
  outcome.scenarios_restored = watermark + restored_pending.size();

  // Restored results must not be recomputed — the committer already
  // holds them.
  std::unordered_set<std::uint64_t> restored_indices;
  for (const auto& [index, result] : restored_pending) {
    (void)result;
    restored_indices.insert(index);
  }
  const std::uint64_t restored_watermark = watermark;

  // The one width rule (docs/THREADING.md): explicit value, then
  // OTEM_THREADS, then hardware concurrency.
  const size_t width =
      options.threads > 0 ? options.threads : exec::default_concurrency();
  Committer committer(grid, options, width, std::move(acc), watermark,
                      std::move(restored_pending), total);

  std::vector<std::pair<std::string, std::string>> base_pairs =
      extract_pairs(cfg);
  const bool fabric = !options.serve_sockets.empty();
  if (fabric && !options.local_only_keys.empty()) {
    // Front-end orchestration keys (threads=, summary_out=, ...) steer
    // THIS process; forwarding them would poison daemon cache keys or
    // be refused outright (metrics_out and friends are server-side
    // output overrides).
    base_pairs.erase(
        std::remove_if(base_pairs.begin(), base_pairs.end(),
                       [&](const std::pair<std::string, std::string>& kv) {
                         return std::find(options.local_only_keys.begin(),
                                          options.local_only_keys.end(),
                                          kv.first) !=
                                options.local_only_keys.end();
                       }),
        base_pairs.end());
  }

  // min(width, total) copies of one worker loop, each claiming indices
  // from one counter; a per-index fan-out would still visit every
  // remaining index after a halt. A failing copy halts the committer, so
  // the others stop at their next wait_turn, and parallel_for rethrows.
  std::atomic<std::uint64_t> next{restored_watermark};
  const auto worker = [&](size_t) {
    for (;;) {
      const std::uint64_t index = next.fetch_add(1);
      if (index >= total) return;
      if (restored_indices.count(index) != 0) continue;
      if (!committer.wait_turn(index)) return;
      const ScenarioSpec s = grid.at(index);
      try {
        committer.submit(index,
                         fabric ? run_remote(s, base_spec, base_pairs, options)
                                : run_local(s, base_spec, base_pairs, options));
      } catch (const SimCancelled&) {
        return;  // stop token fired mid-mission; wait_turn halts next trip
      } catch (...) {
        committer.halt();
        throw;
      }
    }
  };
  exec::parallel_for(static_cast<size_t>(std::min<std::uint64_t>(width, total)),
                     worker, width);

  committer.finalize();
  outcome.scenarios_run = committer.scenarios_run();
  outcome.halted = committer.halted() && !committer.complete();

  if (options.metrics != nullptr) {
    options.metrics->counter("campaign.scenarios_run")
        .add(outcome.scenarios_run);
    options.metrics->counter("campaign.checkpoints_written")
        .add(committer.checkpoints_written());
  }

  if (committer.complete()) {
    Json summary = Json::object();
    summary.set("schema", kSummarySchema);
    summary.set("grid", grid.to_json());
    summary.set("scenarios", static_cast<double>(total));
    summary.set("groups", committer.accumulator().groups_json());
    outcome.summary_text = summary.dump() + "\n";
    outcome.summary = std::move(summary);
    if (!options.summary_out.empty()) {
      std::ofstream f(options.summary_out);
      OTEM_REQUIRE(f.good(),
                   "campaign: cannot open summary file: " + options.summary_out);
      f << outcome.summary_text;
      f.flush();
      OTEM_REQUIRE(f.good(),
                   "campaign: short write to summary file: " +
                       options.summary_out);
    }
  }
  return outcome;
}

}  // namespace otem::campaign
