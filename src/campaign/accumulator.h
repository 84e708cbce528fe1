// accumulator.h — constant-memory streaming campaign aggregation.
//
// A campaign never retains per-run results: every scenario reduces to a
// fixed ScenarioResult record that is folded — IN SCENARIO INDEX ORDER
// — into one CampaignAccumulator. Per result dimension and per group
// (methodology) the accumulator keeps a Welford moment tracker (exact
// count/sum, numerically stable mean/variance, extrema) and a
// mergeable obs::QuantileSketch, so memory is O(groups × dims ×
// k log n) however many scenarios stream through.
//
// Because commits happen in a single fixed order, the accumulator state
// after N commits — and therefore the rendered otem.campaign.v1
// summary — is BYTE-IDENTICAL at any thread count. The runner's
// committer (runner.cpp) provides the ordering; this type just demands
// it.
//
// to_json()/from_json() round-trip the complete internal state with
// IEEE-754 hex doubles, so a checkpoint restored mid-campaign continues
// the exact floating-point fold a never-interrupted run performs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "obs/sketch.h"
#include "sim/simulator.h"

namespace otem::campaign {

/// The constant-size record one scenario reduces to.
struct ScenarioResult {
  double qloss_percent = 0.0;
  double average_power_w = 0.0;
  double max_t_battery_k = 0.0;
  double thermal_violation_s = 0.0;
  double unserved_energy_j = 0.0;
  double energy_cooling_j = 0.0;

  static constexpr size_t kDims = 6;
  static const char* dim_name(size_t d);
  double dim(size_t d) const;
  void set_dim(size_t d, double v);

  static ScenarioResult from_run(const sim::RunResult& r);

  /// Bit-exact (hex-double) encoding for checkpoint pending records.
  Json to_json() const;
  static ScenarioResult from_json(const Json& doc);
};

/// One-pass Welford mean/variance with exact running sum and extrema.
/// Deterministic for a fixed fold order; stddev is the population form.
class Welford {
 public:
  void add(double v);

  std::uint64_t count() const { return n_; }
  double mean() const { return mean_; }
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  Json to_json() const;  ///< bit-exact hex-double state
  static Welford from_json(const Json& doc);

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

class CampaignAccumulator {
 public:
  explicit CampaignAccumulator(size_t sketch_k = obs::kDefaultSketchK);

  /// Fold one scenario's record into `group`. MUST be called in
  /// scenario index order — the committer enforces that.
  void commit(const std::string& group, const ScenarioResult& r);

  std::uint64_t committed() const { return committed_; }

  /// The "groups" block of otem.campaign.v1: per group, per dimension,
  /// {count, mean, stddev, min, max, sum, p50, p95, p99}. Groups and
  /// dimensions render in sorted/declared order — byte-stable.
  Json groups_json() const;

  /// Complete internal state (hex doubles + full sketch levels) for
  /// checkpoints; from_json(to_json()) continues bit-identically.
  Json to_json() const;
  static CampaignAccumulator from_json(const Json& doc);

 private:
  struct Dim {
    explicit Dim(size_t k) : sketch(k) {}
    Welford welford;
    obs::QuantileSketch sketch;
  };
  struct Group {
    std::uint64_t scenarios = 0;
    std::vector<Dim> dims;  ///< ScenarioResult::kDims entries
  };

  size_t k_;
  std::uint64_t committed_ = 0;
  std::map<std::string, Group> groups_;
};

}  // namespace otem::campaign
