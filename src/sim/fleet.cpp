#include "sim/fleet.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "obs/trace.h"
#include "sim/obs_sink.h"
#include "sim/plant_batch.h"
#include "sim/step_sink.h"
#include "vehicle/drive_cycle.h"
#include "vehicle/powertrain.h"

namespace otem::sim {

namespace {
// One-pass Welford mean/variance: numerically stable against the
// catastrophic cancellation a naive sum-of-squares suffers when the
// spread is small relative to the mean (qloss values cluster tightly),
// and constant memory — values stream through, nothing is retained.
class StreamingStats {
 public:
  void add(double v) {
    if (count_ == 0) {
      min_ = v;
      max_ = v;
    } else {
      min_ = std::min(min_, v);
      max_ = std::max(max_, v);
    }
    ++count_;
    const double delta = v - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (v - mean_);
  }

  FleetStats stats() const {
    OTEM_ENSURE(count_ > 0, "fleet stats over empty sample");
    FleetStats s;
    s.mean = mean_;
    // Population stddev, matching the previous two-pass definition; a
    // single sample has zero spread by construction.
    s.stddev =
        count_ > 1 ? std::sqrt(m2_ / static_cast<double>(count_)) : 0.0;
    s.min = min_;
    s.max = max_;
    return s;
  }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Per-mission conditions, drawn serially before dispatch so the draw
/// sequence (and therefore every result) is independent of the
/// execution width. The draw ORDER here must stay exactly route_seed,
/// ambient, duration, soe0 per mission — it defines the fleet for a
/// given seed and existing results depend on it.
struct MissionDraw {
  std::uint64_t route_seed = 0;
  double ambient_k = 0.0;
  double duration_s = 0.0;
  double soe0 = 0.0;
};

std::vector<MissionDraw> draw_missions(const FleetOptions& options) {
  OTEM_REQUIRE(options.missions >= 1, "fleet needs at least one mission");
  OTEM_REQUIRE(options.ambient_min_k <= options.ambient_max_k,
               "fleet ambient range is inverted");
  Rng rng(options.seed);
  std::vector<MissionDraw> draws(options.missions);
  for (MissionDraw& d : draws) {
    d.route_seed = rng.next_u64();
    d.ambient_k = rng.uniform(options.ambient_min_k, options.ambient_max_k);
    d.duration_s = rng.uniform(options.min_duration_s, options.max_duration_s);
    d.soe0 = rng.uniform(options.soe0_min, options.soe0_max);
  }
  return draws;
}

/// One mission, prepared the same way on the scalar and batched paths:
/// spec at the drawn ambient, the synthetic route's power trace, the
/// soaked initial state and the sink chain — metrics always, plus an
/// optional constant-memory telemetry stream (never an in-RAM trace, so
/// peak memory is independent of mission length), the fleet-aggregate
/// diagnostics and a mission-local registry. The sinks borrow the slot,
/// so it must stay put while the mission runs.
struct MissionSlot {
  BatchMission mission;
  MetricsAccumulator metrics;
  std::unique_ptr<CsvStreamSink> telemetry;
  std::unique_ptr<DiagnosticsSink> fleet_diag;
  std::unique_ptr<obs::MetricsRegistry> local;
  std::unique_ptr<DiagnosticsSink> local_diag;

  /// Build mission `m` from its draw; its route conditions land in
  /// `outcome`. `shared` is the fleet-aggregate bundle (or null).
  BatchMission& prepare(const core::SystemSpec& base_spec,
                        const FleetOptions& options,
                        const DiagnosticsSink::Instruments* shared,
                        const MissionDraw& d, size_t m,
                        MissionOutcome& outcome) {
    mission.spec = base_spec;
    mission.spec.ambient_k = d.ambient_k;
    const TimeSeries speed = vehicle::generate_synthetic(
        d.route_seed, d.duration_s, options.max_speed_mps);
    mission.load =
        vehicle::Powertrain(mission.spec.vehicle).power_trace(speed);
    mission.initial.t_battery_k = d.ambient_k;  // soaked
    mission.initial.t_coolant_k = d.ambient_k;
    mission.initial.soe_percent = d.soe0;
    outcome.route_seed = d.route_seed;
    outcome.ambient_k = d.ambient_k;
    outcome.duration_s = mission.load.duration();
    outcome.distance_m = vehicle::stats_of(speed).distance_m;

    mission.sinks = {&metrics};
    if (!options.telemetry_csv_prefix.empty()) {
      telemetry = std::make_unique<CsvStreamSink>(
          options.telemetry_csv_prefix + "mission_" + std::to_string(m) +
          ".csv");
      mission.sinks.push_back(telemetry.get());
    }
    // All missions write into the one shared registry concurrently
    // (sharded instruments make that safe); the per-mission registry
    // captures a local view.
    if (shared) {
      fleet_diag = std::make_unique<DiagnosticsSink>(*shared);
      mission.sinks.push_back(fleet_diag.get());
    }
    if (!options.metrics_json_prefix.empty()) {
      local = std::make_unique<obs::MetricsRegistry>();
      local_diag = std::make_unique<DiagnosticsSink>(*local);
      mission.sinks.push_back(local_diag.get());
    }
    return mission;
  }

  /// The finished RunResult; writes the mission-local metrics file when
  /// one was asked for.
  RunResult finish(const FleetOptions& options, size_t m) {
    if (local)
      obs::write_metrics_json(options.metrics_json_prefix + "mission_" +
                                  std::to_string(m) + ".metrics.json",
                              *local);
    return metrics.take();
  }
};

/// Resolve the shared-registry instruments ONCE; every mission's sink
/// reuses the bundle instead of paying 20 registry lookups each.
std::unique_ptr<DiagnosticsSink::Instruments> shared_instruments(
    const FleetOptions& options) {
  if (!options.metrics) return nullptr;
  return std::make_unique<DiagnosticsSink::Instruments>(
      *options.metrics, options.metrics_prefix);
}

// Serial, mission-order reduction shared by the scalar and batched
// paths, so accumulation is bit-identical regardless of which thread
// (or lane) finished first. Streams in one pass — no per-metric
// staging vectors.
void reduce_fleet(FleetResult& out) {
  StreamingStats qloss, power, tb;
  for (const MissionOutcome& mission : out.missions) {
    qloss.add(mission.result.qloss_percent);
    power.add(mission.result.average_power_w);
    tb.add(mission.result.max_t_battery_k);
    out.total_violation_s += mission.result.thermal_violation_s;
    out.total_unserved_j += mission.result.unserved_energy_j;
  }
  out.qloss_percent = qloss.stats();
  out.average_power_w = power.stats();
  out.max_t_battery_k = tb.stats();
}
}  // namespace

FleetResult evaluate_fleet(
    const core::SystemSpec& base_spec,
    const std::function<std::unique_ptr<core::Methodology>(
        const core::SystemSpec&)>& factory,
    const FleetOptions& options) {
  const std::vector<MissionDraw> draws = draw_missions(options);
  const auto instruments = shared_instruments(options);

  FleetResult out;
  out.missions.resize(options.missions);

  // Missions are independent given their draw: each builds its own
  // spec, methodology and simulator, and writes only its own slot.
  exec::parallel_for(
      options.missions,
      [&](size_t m) {
        const obs::TraceSpan mission_span("fleet.mission");
        MissionSlot slot;
        const BatchMission& mission = slot.prepare(
            base_spec, options, instruments.get(), draws[m], m,
            out.missions[m]);
        RunOptions ropt;
        ropt.record_trace = false;
        ropt.initial = mission.initial;
        Simulator(mission.spec)
            .run_with_sinks(*factory(mission.spec), mission.load, ropt,
                            mission.sinks);
        out.missions[m].result = slot.finish(options, m);
      },
      options.threads);

  reduce_fleet(out);
  return out;
}

FleetResult evaluate_fleet_batched(
    const core::SystemSpec& base_spec,
    const std::function<std::unique_ptr<core::BatchMethodology>(
        const core::SystemSpec&, size_t lanes)>& batch_factory,
    const FleetOptions& options) {
  OTEM_REQUIRE(options.batch_lanes >= 1, "fleet needs >= 1 batch lane");
  const std::vector<MissionDraw> draws = draw_missions(options);
  const auto instruments = shared_instruments(options);

  FleetResult out;
  out.missions.resize(options.missions);

  // One slot per mission, pre-sized so addresses stay stable while a
  // PlantBatch borrows them. A slot is prepared (route, load, sinks)
  // by the worker that claims it, just before its lane activates.
  std::vector<MissionSlot> slots(options.missions);
  auto prepare = [&](size_t m) -> BatchMission* {
    // Lane packing/backfill: called whenever a worker's PlantBatch
    // claims the next mission off the shared cursor.
    const obs::TraceSpan prepare_span("fleet.batch.prepare");
    return &slots[m].prepare(base_spec, options, instruments.get(), draws[m],
                             m, out.missions[m]);
  };

  // One PlantBatch per worker; workers claim missions from a shared
  // cursor. Lane packing therefore depends on thread timing, but each
  // mission's arithmetic touches only its own lane, so results are
  // independent of the packing (and of the thread count).
  size_t workers =
      options.threads ? options.threads : exec::default_concurrency();
  workers = std::max<size_t>(1, std::min(workers, options.missions));

  std::atomic<size_t> cursor{0};
  std::vector<PlantBatchCounters> counters(workers);
  exec::parallel_for(
      workers,
      [&](size_t w) {
        const obs::TraceSpan worker_span("fleet.batch.worker");
        PlantBatch batch(batch_factory(base_spec, options.batch_lanes));
        batch.run([&]() -> BatchMission* {
          const size_t m = cursor.fetch_add(1, std::memory_order_relaxed);
          return m < options.missions ? prepare(m) : nullptr;
        });
        counters[w] = batch.counters();
      },
      workers);

  for (size_t m = 0; m < options.missions; ++m)
    out.missions[m].result = slots[m].finish(options, m);

  if (options.metrics) {
    PlantBatchCounters total;
    for (const PlantBatchCounters& c : counters) {
      total.batch_steps += c.batch_steps;
      total.lane_steps += c.lane_steps;
      total.backfills += c.backfills;
      total.missions += c.missions;
    }
    options.metrics->counter(options.metrics_prefix + "batch_lanes_active")
        .add(total.lane_steps);
    options.metrics->counter(options.metrics_prefix + "batch_backfills")
        .add(total.backfills);
    options.metrics->counter(options.metrics_prefix + "batch_steps")
        .add(total.batch_steps);
  }

  reduce_fleet(out);
  return out;
}

}  // namespace otem::sim
