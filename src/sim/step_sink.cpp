#include "sim/step_sink.h"

#include <algorithm>

#include "common/error.h"
#include "common/strings.h"

namespace otem::sim {

// --- MetricsAccumulator -------------------------------------------------

void MetricsAccumulator::begin(const RunContext& ctx) {
  result_ = RunResult{};
  dt_ = ctx.dt;
  steps_ = 0;
  t_max_k_ = ctx.spec.thermal.max_battery_temp_k;
  // Seed from the initial state: a pack that starts hot and only cools
  // still peaked at its starting temperature.
  result_.max_t_battery_k = ctx.initial.t_battery_k;
}

void MetricsAccumulator::record(const StepSample& sample) {
  const core::StepRecord& rec = sample.rec;
  result_.qloss_percent += rec.qloss_percent;
  result_.energy_battery_j += rec.e_bat_j;
  result_.energy_cap_j += rec.e_cap_j;
  result_.energy_cooling_j += rec.e_cooling_j;
  result_.energy_loss_j += rec.e_loss_j;
  if (!rec.feasible) ++result_.infeasible_steps;
  result_.unserved_energy_j += rec.unmet_w * dt_;
  result_.max_t_battery_k =
      std::max(result_.max_t_battery_k, sample.state.t_battery_k);
  if (sample.state.t_battery_k > t_max_k_)
    result_.thermal_violation_s += dt_;
}

void MetricsAccumulator::end(const core::PlantState& final_state) {
  result_.duration_s = static_cast<double>(steps_) * dt_;
  result_.energy_hees_j = result_.energy_battery_j + result_.energy_cap_j;
  result_.average_power_w = steps_ > 0
                                ? result_.energy_hees_j / result_.duration_s
                                : 0.0;
  result_.final_state = final_state;
}

// --- TraceRecorder ------------------------------------------------------

void TraceRecorder::begin(const RunContext& ctx) {
  dt_ = ctx.dt;
  auto reserve = [&](TimeSeries& ts) {
    ts = TimeSeries(ctx.dt, {});
    ts.reserve(ctx.steps);
  };
  reserve(trace_.t_battery_k);
  reserve(trace_.t_coolant_k);
  reserve(trace_.soc_percent);
  reserve(trace_.soe_percent);
  reserve(trace_.p_load_w);
  reserve(trace_.p_cooler_w);
  reserve(trace_.p_cap_w);
  reserve(trace_.q_bat_w);
  reserve(trace_.t_inlet_k);
  reserve(trace_.i_bat_a);
  reserve(trace_.qloss_percent);
  reserve(trace_.teb);
}

void TraceRecorder::record(const StepSample& sample) {
  const core::StepRecord& rec = sample.rec;
  trace_.t_battery_k.push_back(sample.state.t_battery_k);
  trace_.t_coolant_k.push_back(sample.state.t_coolant_k);
  trace_.soc_percent.push_back(sample.state.soc_percent);
  trace_.soe_percent.push_back(sample.state.soe_percent);
  trace_.p_load_w.push_back(rec.p_load_w);
  trace_.p_cooler_w.push_back(rec.p_cooler_w);
  trace_.p_cap_w.push_back(rec.e_cap_j / dt_);
  trace_.q_bat_w.push_back(rec.q_bat_w);
  trace_.t_inlet_k.push_back(rec.t_inlet_k);
  trace_.i_bat_a.push_back(rec.i_bat_a);
  trace_.qloss_percent.push_back(sample.qloss_cum_percent);
  trace_.teb.push_back(sample.teb);
}

// --- CsvStreamSink ------------------------------------------------------

CsvStreamSink::CsvStreamSink(const std::string& path, int precision)
    : path_(path), out_(path), precision_(precision) {
  OTEM_REQUIRE(out_.good(), "cannot open CSV stream output: " + path);
}

void CsvStreamSink::begin(const RunContext& ctx) {
  dt_ = ctx.dt;
  rows_ = 0;
  out_ << "t_s,p_load_w,p_cooler_w,p_cap_w,i_bat_a,tb_c,tc_c,"
          "soc_percent,soe_percent,qloss_percent,teb,q_bat_w,t_inlet_c\n";
}

void CsvStreamSink::record(const StepSample& sample) {
  const core::StepRecord& rec = sample.rec;
  const double cells[] = {
      static_cast<double>(sample.k) * dt_,
      rec.p_load_w,
      rec.p_cooler_w,
      rec.e_cap_j / dt_,
      rec.i_bat_a,
      sample.state.t_battery_k - 273.15,
      sample.state.t_coolant_k - 273.15,
      sample.state.soc_percent,
      sample.state.soe_percent,
      sample.qloss_cum_percent,
      sample.teb,
      rec.q_bat_w,
      rec.t_inlet_k - 273.15,
  };
  for (size_t i = 0; i < std::size(cells); ++i) {
    if (i) out_ << ',';
    out_ << strings::format_double(cells[i], precision_);
  }
  out_ << '\n';
  // A full disk surfaces here as soon as the stream's buffer flushes;
  // fail the run loudly instead of silently truncating telemetry.
  if (out_.fail())
    throw SimError("CSV stream write failed (disk full?): " + path_);
  ++rows_;
}

void CsvStreamSink::end(const core::PlantState&) {
  out_.flush();
  if (out_.fail())
    throw SimError("CSV stream write failed (disk full?): " + path_);
}

}  // namespace otem::sim
