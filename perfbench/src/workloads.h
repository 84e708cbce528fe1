// workloads.h — the four benchmark workloads and what each returns.
//
//   ltv_stream, frame_stream        stream.cpp: closed-loop session.step
//                                   traffic into an in-process serve
//                                   daemon over localhost TCP
//   paper_campaign, reactive_campaign
//                                   campaign.cpp: campaign::run_campaign
//                                   in-process on two threads
//
// A run measures with tracing off. A traced run (--trace 1) measures
// once untraced and once traced, then times each layer's public entry
// points; it reports the per-layer metrics instead of the end-to-end
// ones.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Reference mode: run every input of the seed's pool once and emit
  /// the outputs (run.py --record stores them as references).
  bool record = false;
  /// Extra key=value overrides for every session/scenario (self-test).
  Pairs overrides;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure messages
  std::vector<Metric> metrics;
  std::string outputs = "null";  ///< JSON value checked by run.py
  std::string detail = "{}";     ///< JSON object: sample counts etc.

  void fail(const std::string& message) {
    ++failed;
    if (errors.size() < 8) errors.push_back(message);
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

bool is_stream_workload(const std::string& name);
bool is_campaign_workload(const std::string& name);

Report run_stream(const Options& options);
Report run_campaign_workload(const Options& options);

}  // namespace perfbench
