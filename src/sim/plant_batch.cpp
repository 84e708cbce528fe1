#include "sim/plant_batch.h"

#include "common/error.h"

namespace otem::sim {

PlantBatch::PlantBatch(std::unique_ptr<core::BatchMethodology> methodology)
    : methodology_(std::move(methodology)),
      state_(methodology_ ? methodology_->lanes() : 0) {
  OTEM_REQUIRE(methodology_ != nullptr,
               "PlantBatch needs a batch methodology");
  const size_t n = methodology_->lanes();
  OTEM_REQUIRE(n >= 1, "PlantBatch needs >= 1 lane");
  lane_.resize(n);
  active_.assign(n, 0);
  p_.assign(n, 0.0);
  rec_.resize(n);
}

bool PlantBatch::activate(size_t lane, BatchMission* mission) {
  if (!mission) return false;
  OTEM_REQUIRE(!mission->load.empty(), "empty power request trace");
  const double dt = mission->load.dt();
  if (dt_ == 0.0) dt_ = dt;
  OTEM_REQUIRE(dt == dt_, "batch missions must share one step period");

  methodology_->reset_lane(lane, mission->spec.ambient_k);
  state_.scatter(lane, mission->initial);
  Lane& ln = lane_[lane];
  ln.mission = mission;
  ln.stepper.begin(
      RunContext{mission->spec, dt_, mission->load.size(), mission->initial},
      mission->sinks);

  active_[lane] = 1;
  ++live_;
  return true;
}

void PlantBatch::retire(size_t lane) {
  Lane& ln = lane_[lane];
  ln.stepper.end(state_.gather(lane));
  ln.mission = nullptr;
  active_[lane] = 0;
  --live_;
  ++counters_.missions;
}

void PlantBatch::run(const MissionSource& source) {
  OTEM_REQUIRE(source, "PlantBatch needs a mission source");
  OTEM_REQUIRE(live_ == 0, "PlantBatch::run is not reentrant");
  const size_t n = lanes();
  dt_ = 0.0;  // each run() may use a fresh (but internally uniform) dt

  // Initial fill, lane 0 upward.
  for (size_t l = 0; l < n && activate(l, source()); ++l) {
  }

  while (live_ > 0) {
    // Gather this sweep's power requests; parked lanes draw 0 W.
    for (size_t l = 0; l < n; ++l)
      p_[l] = active_[l] ? lane_[l].mission->load[lane_[l].stepper.steps()]
                         : 0.0;

    methodology_->step_lanes(state_, p_.data(), active_.data(), dt_,
                             rec_.data());
    ++counters_.batch_steps;
    counters_.lane_steps += live_;

    for (size_t l = 0; l < n; ++l) {
      if (!active_[l]) continue;
      Lane& ln = lane_[l];
      // rec.state_after carries the post-step state — the same values
      // the scalar loop hands its Stepper.
      ln.stepper.record(rec_[l], rec_[l].state_after);
      if (ln.stepper.steps() == ln.mission->load.size()) {
        retire(l);
        if (activate(l, source())) ++counters_.backfills;
      }
    }
  }
}

void PlantBatch::run(std::vector<BatchMission>& missions) {
  size_t next = 0;
  run([&]() -> BatchMission* {
    return next < missions.size() ? &missions[next++] : nullptr;
  });
}

}  // namespace otem::sim
