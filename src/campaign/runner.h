// runner.h — the campaign orchestrator.
//
// run_campaign() drives a Grid's scenario stream to completion:
//
//   * workers pull scenario indices from one atomic counter and execute
//     them — locally through sim::run_scenario, or remotely by
//     dispatching otem.serve.v1 run requests across a serve fabric;
//   * finished results enter a reorder buffer; a commit watermark
//     advances whenever the next index in stream order is present,
//     folding that result into the CampaignAccumulator. Commits
//     therefore happen in EXACTLY index order at any thread count, so
//     the accumulator state — and the rendered otem.campaign.v1
//     summary — is byte-identical whether the campaign ran on one
//     thread, sixteen, or was kill -9'd and resumed;
//   * backpressure bounds the buffer: a worker whose index is 4 x width
//     + 16 or more ahead of the watermark waits, so memory stays
//     O(threads) regardless of campaign size. The worker holding the
//     watermark index never waits — no deadlock;
//   * every checkpoint_every commits (and once more on exit) the merged
//     state is written atomically to checkpoint_path; resume_from
//     restores it bit-exactly and the campaign continues as if never
//     interrupted.
//
// The otem.campaign.v1 summary document:
//
//   {"schema": "otem.campaign.v1",
//    "grid": {...},            // Grid::to_json()
//    "scenarios": N,
//    "groups": {"<methodology>": {"scenarios": n, "metrics": {
//        "<dim>": {count, mean, stddev, min, max, sum,
//                  p50, p95, p99}, ...}}, ...}}
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/grid.h"
#include "common/config.h"
#include "common/json.h"
#include "core/system_spec.h"
#include "exec/stop_token.h"
#include "obs/metrics.h"
#include "serve/client.h"

namespace otem::campaign {

inline constexpr const char* kSummarySchema = "otem.campaign.v1";

struct CampaignOptions {
  /// Worker threads; 0 = exec::default_concurrency() (OTEM_THREADS,
  /// else hardware concurrency).
  size_t threads = 0;

  /// When non-empty, write the summary line here on completion.
  std::string summary_out;

  /// When non-empty, write checkpoints here (atomic write-rename) every
  /// `checkpoint_every` commits and once more on halt/completion.
  std::string checkpoint_path;
  size_t checkpoint_every = 1000;

  /// When non-empty, restore this checkpoint and continue. The
  /// checkpoint's grid fingerprint must match `grid` exactly.
  std::string resume_from;

  /// Non-empty = serve-fabric mode: scenarios are dispatched as
  /// otem.serve.v1 run requests across these daemon sockets instead of
  /// simulated in-process. Overload refusals retry with backoff
  /// (`retry`); transport failures and timeouts re-dispatch the
  /// scenario to the next socket.
  std::vector<std::string> serve_sockets;
  double request_timeout_s = 120.0;
  serve::RetryOptions retry;

  /// Config keys that steer this process (a front-end's threads=,
  /// summary_out=, ...) and must never be forwarded as fabric request
  /// overrides — the daemon refuses output keys and unknown keys would
  /// pollute its cache keying.
  std::vector<std::string> local_only_keys;

  /// Optional diagnostics registry: campaign.* counters plus the serve
  /// client's retry counter accumulate here.
  obs::MetricsRegistry* metrics = nullptr;

  /// Cooperative cancel: checked between scenarios and passed into the
  /// step loop. A fired token halts the campaign gracefully (final
  /// checkpoint written, outcome.halted = true).
  exec::StopToken stop;

  /// Testing hook: halt once the watermark reaches this commit count —
  /// the in-process stand-in for kill -9 (same checkpoint state, minus
  /// the torn process). 0 = run to completion.
  std::uint64_t halt_after_commits = 0;

  /// When non-empty, stream per-step telemetry of every scenario to
  /// "<prefix><scenario-id>.csv" (local execution only).
  std::string telemetry_csv_prefix;
};

struct CampaignOutcome {
  /// Populated when the campaign committed every scenario.
  Json summary;
  /// The summary document's exact bytes (dump() + '\n') — what
  /// summary_out receives and what determinism tests compare.
  std::string summary_text;

  std::uint64_t scenarios_total = 0;
  std::uint64_t scenarios_run = 0;       ///< executed this invocation
  std::uint64_t scenarios_restored = 0;  ///< carried in from the checkpoint
  bool halted = false;  ///< stopped early (stop token / halt_after_commits)
};

/// Run `grid` against `base_spec` (per-scenario specs derive from it:
/// ultracap scaled by uc_scale, ambient overridden). `cfg` feeds the
/// methodology factories; in fabric mode its non-campaign.* keys are
/// forwarded as request overrides so remote daemons build the same
/// controllers. Throws otem::SimError on scenario failure, checkpoint
/// mismatch, or an unreachable fabric.
CampaignOutcome run_campaign(const Grid& grid,
                             const core::SystemSpec& base_spec,
                             const Config& cfg,
                             const CampaignOptions& options = {});

}  // namespace otem::campaign
