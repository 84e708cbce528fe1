// main.cpp — otem_perfbench: one benchmark run, one JSON line.
//
//   otem_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--record] [--override key=value ...]
//
// Prints one JSON object: the run's correctness counts, its metrics
// (end-to-end with --trace 0, per layer with --trace 1; layers the
// workload does not exercise are left out and run.py reports them as
// 0), the outputs run.py checks against the references, and a stamp of
// the build. perfbench/run.py builds this program and is the entry
// point.
#include <sys/utsname.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/logging.h"
#include "workloads.h"

namespace perfbench {

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "otem_perfbench: %s\nusage: otem_perfbench --workload "
               "<ltv_stream|frame_stream|paper_campaign|reactive_campaign> "
               "--seed <n> --seconds <s> --trace <0|1> [--record] "
               "[--override key=value ...]\n",
               why);
  return 2;
}

std::string stamp_json() {
  struct utsname u;
  const bool have_uname = ::uname(&u) == 0;
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  return std::string("{\"benchmark_ndebug\":") + (ndebug ? "true" : "false") +
         ",\"compiler\":" + jstr(__VERSION__) +
         ",\"kernel\":" + jstr(have_uname ? u.release : "unknown") + "}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#ifndef NDEBUG
  std::fprintf(stderr, "otem_perfbench: refusing to measure a build without "
                       "NDEBUG (configure with -DCMAKE_BUILD_TYPE=Release)\n");
  return 2;
#endif
  Options opt;
  bool have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
        have_seconds = true;
      } else if (arg == "--trace") {
        opt.trace = std::stoi(value()) != 0;
        have_trace = true;
      } else if (arg == "--record") {
        opt.record = true;
      } else if (arg == "--override") {
        const std::string kv = value();
        const size_t eq = kv.find('=');
        if (eq == std::string::npos || eq == 0) return usage("bad --override");
        opt.overrides.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }
  if (!is_stream_workload(opt.workload) && !is_campaign_workload(opt.workload))
    return usage("unknown workload");
  if (!opt.record && (!have_seconds || !have_trace || !(opt.seconds > 0.0)))
    return usage("--seconds and --trace are required");

  otem::log::set_level(otem::log::Level::kWarn);
  Report report;
  try {
    report = is_stream_workload(opt.workload) ? run_stream(opt)
                                              : run_campaign_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "otem_perfbench: %s\n", e.what());
    return 1;
  }

  std::string line = "{\"attempted\":" + std::to_string(report.attempted) +
                     ",\"failed\":" + std::to_string(report.failed) +
                     ",\"errors\":[";
  for (size_t i = 0; i < report.errors.size(); ++i) {
    if (i > 0) line += ',';
    line += jstr(report.errors[i]);
  }
  line += "],\"metrics\":{";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    if (i > 0) line += ',';
    line += jstr(m.name) + ":{\"value\":" + jnum(m.value) +
            ",\"unit\":" + jstr(m.unit) + "}";
  }
  line += "},\"detail\":" + report.detail + ",\"stamp\":" + stamp_json() +
          ",\"outputs\":" + report.outputs + "}\n";
  std::fputs(line.c_str(), stdout);
  return std::fflush(stdout) == 0 ? 0 : 1;
}
