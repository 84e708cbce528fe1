// bench_common.h — shared scaffolding for the figure/table benches.
//
// Every bench binary accepts "key=value" overrides on the command line
// (same keys as otem::Config) so experiments can be re-parameterised,
// e.g.  ./fig8_battery_lifetime ambient_k=313.15 otem.w2=5e9
// Each bench prints a human-readable table to stdout and, when
// "csv=<path-prefix>" is given, writes the raw series as CSV.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/csv.h"
#include "core/methodology.h"
#include "core/methodology_registry.h"
#include "core/system_spec.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "vehicle/drive_cycle.h"

namespace otem::bench {

/// The paper's four compared strategies plus "otem-ltv", the LTV-QP
/// transcription of OTEM that the serve daemon streams; the figure
/// benches sweep exactly these, so the served controller is judged
/// against the same claims as the paper's.
inline const std::vector<std::string>& methodology_names() {
  static const std::vector<std::string> names = {
      "parallel", "active_cooling", "dual", "otem", "otem-ltv"};
  return names;
}

/// Instantiate a methodology by name through the registry
/// (core::MethodologyRegistry), honouring each strategy's config
/// namespace ("otem.*", "dual.*", "cooling.*", "forecast").
std::unique_ptr<core::Methodology> make_methodology(
    const std::string& name, const core::SystemSpec& spec,
    const Config& cfg);

/// Power-request trace for a named cycle under the spec's vehicle,
/// repeated `repeats` times.
TimeSeries cycle_power(const core::SystemSpec& spec,
                       vehicle::CycleName cycle, size_t repeats);

/// Parse the bench command line. Also arms an at-exit check that warns
/// about overrides nothing consumed (typo'd keys fail loudly).
Config bench_defaults(int argc, char** argv);

/// Fixed-width table printing helpers.
void print_header(const std::string& title);
void print_row(const std::vector<std::string>& cells,
               const std::vector<int>& widths);

/// Format helpers.
std::string fmt(double v, int precision = 1);

/// Write `table` to "<prefix><name>.csv" when cfg has "csv".
void maybe_write_csv(const Config& cfg, const std::string& name,
                     const CsvTable& table);

/// One methodology on one cycle, summarised (used by Figs. 8-9).
struct ComparisonCell {
  vehicle::CycleName cycle;
  std::string methodology;
  sim::RunResult result;
};

/// Run every listed methodology on every listed cycle (each repeated
/// `repeats` times) under one spec. Rows come back grouped by cycle in
/// methodology order.
std::vector<ComparisonCell> run_comparison(
    const core::SystemSpec& spec, const Config& cfg,
    const std::vector<vehicle::CycleName>& cycles,
    const std::vector<std::string>& methods, size_t repeats);

}  // namespace otem::bench
