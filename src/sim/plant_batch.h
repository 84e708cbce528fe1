// plant_batch.h — lockstep lane scheduler over a BatchMethodology.
//
// A PlantBatch owns a core::PlantLanes arena and steps up to `lanes`
// missions in lockstep: every sweep advances all live lanes one plant
// step through the batch methodology's flat SoA kernels. When a lane's
// mission finishes it is retired (sinks finalized) and immediately
// backfilled from the mission source, so lanes stay occupied until the
// queue drains. The arena and scratch are reused across missions and
// across run() calls — steady-state stepping allocates nothing.
//
// Sink protocol: each lane holds a sim::Stepper (sim/stepper.h), the
// step accounting Simulator::run_with_sinks uses, so every mission's
// StepSinks see the scalar path's begin / record / end sequence and
// eventful split, and RunResults are bit-identical to the scalar
// oracle. Two deliberate differences: lanes are never wall-clock timed
// (step_time_us is always 0 — per-lane timing inside a lockstep sweep
// is meaningless), and stop tokens are not consulted (fleet batches are
// short-lived). The Stepper is re-armed at every lane activation,
// backfills included, so accumulators seeded from the initial state
// (e.g. RunResult::max_t_battery_k) never inherit a previous
// occupant's extrema.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/timeseries.h"
#include "core/batch_methodology.h"
#include "sim/step_sink.h"
#include "sim/stepper.h"

namespace otem::sim {

/// One mission queued into a PlantBatch. `spec` must match the batch
/// methodology's construction spec in every parameter except ambient_k
/// (the fleet's per-mission draw) — lanes share one model instance, so
/// a divergent spec would silently evaluate the wrong physics. All
/// loads in one batch must share the same dt (lockstep sweeps advance
/// one shared dt); mission lengths may differ freely.
struct BatchMission {
  core::SystemSpec spec;
  TimeSeries load;
  core::PlantState initial;
  std::vector<StepSink*> sinks;
};

/// Utilization counters for one PlantBatch (monotonic across run()s).
struct PlantBatchCounters {
  std::uint64_t batch_steps = 0;  ///< lockstep sweeps executed
  std::uint64_t lane_steps = 0;   ///< mission steps served (sum over sweeps)
  std::uint64_t backfills = 0;    ///< lane re-activations after initial fill
  std::uint64_t missions = 0;     ///< missions completed
};

class PlantBatch {
 public:
  /// Pull-model mission feed: return the next mission to run, or
  /// nullptr when the queue is drained. Returned missions must stay
  /// alive (stable address) until run() returns — RunContext and the
  /// step loop borrow spec and load.
  using MissionSource = std::function<BatchMission*()>;

  explicit PlantBatch(std::unique_ptr<core::BatchMethodology> methodology);

  size_t lanes() const { return state_.lanes(); }
  const core::BatchMethodology& methodology() const { return *methodology_; }
  const PlantBatchCounters& counters() const { return counters_; }

  /// Run every mission `source` yields to completion.
  void run(const MissionSource& source);

  /// Convenience: run a pre-built mission vector (in order).
  void run(std::vector<BatchMission>& missions);

 private:
  struct Lane {
    BatchMission* mission = nullptr;
    Stepper stepper;  ///< steps() is the lane's next step index
  };

  /// Arm `lane` with `mission`: validates dt, resets per-lane
  /// controller state, scatters the initial plant state and arms the
  /// lane's Stepper (every sink's begin()). Returns false when
  /// mission == nullptr.
  bool activate(size_t lane, BatchMission* mission);
  void retire(size_t lane);

  std::unique_ptr<core::BatchMethodology> methodology_;
  core::PlantLanes state_;
  std::vector<Lane> lane_;
  std::vector<unsigned char> active_;
  std::vector<double> p_;  ///< per-lane power request this sweep
  std::vector<core::StepRecord> rec_;
  double dt_ = 0.0;        ///< shared step period (from the first mission)
  size_t live_ = 0;        ///< currently active lane count
  PlantBatchCounters counters_;
};

}  // namespace otem::sim
