#!/usr/bin/env python3
"""OTEM benchmark entry point.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the repository's libraries with the repository's own CMake
project in Release, builds the benchmark program (perfbench/src) against
them, runs one measurement, checks the program's outputs and prints one
JSON line as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
A line before it, starting "perfbench:", stamps the run (build type,
compiler, nproc, load average, seed) and carries sample counts.

Two modes the measurement never uses:
    --record      rerun the default seed's inputs and rewrite
                  perfbench/references/<workload>.json
    --self-test   show the output check rejects ltv.kkt=dense at the RTI
                  serving point and accepts the shipped setting
Everything is built under .bench_build/ in the checkout.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import struct
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
OTEM_BUILD = os.path.join(BUILD, "otem")
BENCH_BUILD = os.path.join(BUILD, "perfbench")
BINARY = os.path.join(BENCH_BUILD, "otem_perfbench")
REFERENCES = os.path.join(HERE, "references")

WORKLOADS = ("ltv_stream", "frame_stream", "paper_campaign", "reactive_campaign")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170
LIBRARIES = ("campaign", "serve", "sim", "core", "hees", "battery", "ultracap",
             "thermal", "vehicle", "optim", "exec", "obs", "common")

# Tolerances for results of the otem-ltv controller, per report field:
# (relative, absolute). Reactive results must match bit for bit.
LTV_TOLERANCE = {
    "duration_s": (0.0, 0.0),
    "qloss_percent": (2e-2, 1e-9),
    "energy_hees_j": (1e-2, 1e4),
    "energy_battery_j": (1e-2, 1e4),
    "energy_cap_j": (1e-2, 1e4),
    "energy_cooling_j": (2e-2, 1e4),
    "energy_loss_j": (1e-2, 1e4),
    "average_power_w": (5e-3, 1.0),
    "max_t_battery_k": (0.0, 0.25),
    "thermal_violation_s": (0.0, 5.0),
    "infeasible_steps": (0.0, 2.0),
    "unserved_energy_j": (2e-2, 1e4),
    "final_state.soc_percent": (0.0, 0.2),
    "final_state.soe_percent": (0.0, 2.0),
    "final_state.t_battery_k": (0.0, 0.25),
    "final_state.t_coolant_k": (0.0, 0.25),
}
# Campaign summary statistics compared under tolerance (the spread
# statistics stddev/sum follow from these).
LTV_STATS = ("mean", "min", "max", "p50", "p95", "p99")


def die(message, code=2):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(code)


def run_logged(cmd, log):
    log.write("$ %s\n" % " ".join(cmd))
    log.flush()
    return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode


def build():
    """Build the repository libraries (Release) and the benchmark."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "serve", "server.h"))):
        die("run from the root of an OTEM source checkout (no CMakeLists.txt "
            "and src/ here)", 3)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, "lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(OTEM_BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", ROOT, "-B", OTEM_BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", OTEM_BUILD, "-j", jobs, "--target",
                      "otem_campaign", "otem_serve"])
        for cmd in steps:
            if run_logged(cmd, log) != 0:
                die("building the OTEM libraries failed; see %s" % log_path)
        check_release_build()
        steps = []
        if not os.path.isfile(os.path.join(BENCH_BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BENCH_BUILD,
                          "-DCMAKE_BUILD_TYPE=Release",
                          "-DOTEM_SOURCE_DIR=" + ROOT,
                          "-DOTEM_BUILD_DIR=" + OTEM_BUILD])
        steps.append(["cmake", "--build", BENCH_BUILD, "-j", jobs])
        for cmd in steps:
            if run_logged(cmd, log) != 0:
                die("building the benchmark failed; see %s" % log_path)


def check_release_build():
    """Refuse libraries not compiled as the Release build (-O3 -DNDEBUG)."""
    for lib in LIBRARIES:
        flags = os.path.join(OTEM_BUILD, "src", lib, "CMakeFiles",
                             "otem_%s.dir" % lib, "flags.make")
        try:
            with open(flags) as f:
                text = f.read()
        except OSError:
            die("cannot read the compile flags of otem_%s" % lib)
        if "-DNDEBUG" not in text or "-O3" not in text:
            die("otem_%s is not a Release build (no -O3 -DNDEBUG); refusing "
                "to measure it" % lib)


def build_type():
    try:
        with open(os.path.join(OTEM_BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cpu_times():
    """Aggregate CPU jiffies from /proc/stat (empty when unavailable)."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_share(before, after):
    """Share of CPU time the hypervisor took from this machine meanwhile;
    interference the run's figures cannot see otherwise."""
    if len(before) < 8 or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return round(delta[7] / total, 4) if total > 0 else None


def run_binary(args):
    cmd = [BINARY] + args
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("the benchmark program did not finish within %d s" % RUN_TIMEOUT_S, 1)
    if proc.returncode != 0:
        die("the benchmark program failed (exit %d)" % proc.returncode, 1)
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        die("the benchmark program printed nothing", 1)
    return json.loads(lines[-1])


# --- output checks ---------------------------------------------------------

def hex_to_float(value):
    if isinstance(value, (int, float)):
        return float(value)
    return struct.unpack(">d", bytes.fromhex(value))[0]


def within(actual, expected, rel, abs_tol):
    return abs(actual - expected) <= abs_tol + rel * abs(expected)


def compare_report(got, want, exact):
    """Mismatching fields of one report against its reference."""
    bad = []
    for key, ref in want.items():
        if key not in got:
            bad.append(key + " missing")
        elif exact:
            if got[key] != ref:
                bad.append(key)
        else:
            rel, abs_tol = LTV_TOLERANCE.get(key, (1e-2, 0.0))
            a, e = hex_to_float(got[key]), hex_to_float(ref)
            if not within(a, e, rel, abs_tol):
                bad.append("%s %.6g vs %.6g" % (key, a, e))
    return bad


def check_stream(outputs, reference, errors):
    """Invariants for every report; references on the default seed."""
    failed = 0
    exact = outputs["method"] != "otem-ltv"
    route_steps = outputs["route_steps"]
    if reference is not None and route_steps != reference["route_steps"]:
        errors.append("route pool differs from the reference inputs")
        failed += 1
        reference = None
    complete = 0
    for entry in outputs["reports"]:
        report = entry["report"]
        values = {k: hex_to_float(v) for k, v in report.items()}
        problem = None
        if not all(math.isfinite(v) for v in values.values()):
            problem = "non-finite report field"
        elif not (values.get("duration_s", 0) > 0
                  and values.get("qloss_percent", -1) >= 0
                  and 200 < values.get("max_t_battery_k", 0) < 400
                  and 0 <= values.get("final_state.soc_percent", -1) <= 100
                  and 0 <= values.get("final_state.soe_percent", -1) <= 100
                  and values.get("unserved_energy_j", -1) >= 0):
            problem = "report out of physical range"
        elif entry["complete"]:
            complete += entry["count"]
            steps = route_steps[entry["route"]]
            if values["duration_s"] <= 0 or values["infeasible_steps"] > steps:
                problem = "report inconsistent with the route length"
            elif reference is not None:
                want = reference["reports"].get(str(entry["route"]))
                if want is None:
                    problem = "no reference for route %d" % entry["route"]
                else:
                    bad = compare_report(report, want, exact)
                    if bad:
                        problem = "differs from reference: " + ", ".join(bad[:6])
        if problem:
            errors.append("route %d: %s" % (entry["route"], problem))
            failed += entry["count"]
    return failed, complete


def check_campaign(outputs, reference, errors):
    failed = 0
    methods = outputs["methods"]
    paper = outputs["workload"] == "paper_campaign"
    if reference is not None and outputs["grid_sizes"] != reference["grid_sizes"]:
        errors.append("campaign grids differ from the reference inputs")
        failed += 1
        reference = None
    for entry in outputs["passes"]:
        index = entry["seed_index"]
        groups = entry["groups"]
        per_group = outputs["grid_sizes"][index] / len(methods)
        problems = []
        if sorted(groups) != sorted(methods):
            problems.append("groups %s != methods" % sorted(groups))
        for name, group in groups.items():
            if group["scenarios"] != per_group:
                problems.append("%s ran %s scenarios" % (name, group["scenarios"]))
            for dim, stats in group["metrics"].items():
                s = {k: hex_to_float(v) for k, v in stats.items()}
                if not all(math.isfinite(v) for v in s.values()):
                    problems.append("%s.%s not finite" % (name, dim))
                elif s["count"] != per_group or not (
                        s["min"] <= s["mean"] * (1 + 1e-12) + 1e-300
                        and s["mean"] <= s["max"] * (1 + 1e-12) + 1e-300):
                    problems.append("%s.%s inconsistent" % (name, dim))
        if paper and not problems:
            mean = lambda g, d: hex_to_float(groups[g]["metrics"][d]["mean"])
            if not mean("otem-ltv", "qloss_percent") < mean("parallel", "qloss_percent"):
                problems.append("otem-ltv capacity loss not below parallel")
            if not (mean("otem-ltv", "average_power_w")
                    < mean("active_cooling", "average_power_w")):
                problems.append("otem-ltv power not below active_cooling")
        if not problems and reference is not None:
            want = reference["passes"].get(str(index))
            if want is None:
                problems.append("no reference for pass %d" % index)
            elif "sha256" in want:
                if digest(groups) != want["sha256"]:
                    problems.append("summary differs from reference")
            else:
                for name, group in want.items():
                    exact = name != "otem-ltv"
                    for dim, stats in group["metrics"].items():
                        got = groups[name]["metrics"][dim]
                        for stat, ref in stats.items():
                            if exact:
                                ok = got[stat] == ref
                            elif stat in LTV_STATS:
                                rel, abs_tol = LTV_TOLERANCE[dim]
                                ok = within(hex_to_float(got[stat]),
                                            hex_to_float(ref), rel, abs_tol)
                            else:
                                continue
                            if not ok:
                                problems.append("%s.%s.%s differs from reference"
                                                % (name, dim, stat))
        if problems:
            errors.append("pass %d: %s" % (index, "; ".join(problems[:6])))
            failed += entry["count"] * outputs["grid_sizes"][index]
    return failed


def digest(groups):
    """Content hash of a summary whose results must match bit for bit."""
    text = json.dumps(groups, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    path = os.path.join(REFERENCES, workload + ".json")
    try:
        with open(path) as f:
            return json.load(f)
    except OSError:
        die("missing reference file %s" % path)


def check(result, workload, seed):
    """Apply the output check; returns (failed, errors, notes)."""
    errors = list(result.get("errors", []))
    reference = load_reference(workload, seed)
    outputs = result["outputs"]
    notes = {}
    if outputs["kind"] == "stream":
        failed, complete = check_stream(outputs, reference, errors)
        notes["routes_checked"] = complete
    else:
        failed = check_campaign(outputs, reference, errors)
        notes["passes_checked"] = sum(p["count"] for p in outputs["passes"])
    notes["reference_checked"] = reference is not None
    return failed, errors, notes


# --- modes -----------------------------------------------------------------

def record(workload):
    result = run_binary(["--workload", workload, "--seed", str(DEFAULT_SEED),
                         "--record"])
    if result["failed"]:
        die("record run failed: %s" % result["errors"], 1)
    outputs = result["outputs"]
    doc = {"workload": workload, "seed": DEFAULT_SEED}
    if outputs["kind"] == "stream":
        doc["method"] = outputs["method"]
        doc["route_steps"] = outputs["route_steps"]
        doc["reports"] = {str(e["route"]): e["report"]
                          for e in outputs["reports"] if e["complete"]}
        if len(doc["reports"]) != len(outputs["route_steps"]):
            die("record run did not complete every route", 1)
    else:
        doc["grid_sizes"] = outputs["grid_sizes"]
        # Reactive-only summaries must match exactly, so a hash suffices;
        # otem-ltv results are kept whole for the tolerance comparison.
        exact = "otem-ltv" not in outputs["methods"]
        doc["passes"] = {str(p["seed_index"]):
                         {"sha256": digest(p["groups"])} if exact else p["groups"]
                         for p in outputs["passes"]}
    os.makedirs(REFERENCES, exist_ok=True)
    path = os.path.join(REFERENCES, workload + ".json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print("perfbench: wrote %s" % os.path.relpath(path, ROOT))


def self_test():
    """The check must reject the dense KKT backend at the RTI point."""
    verdicts = {}
    for label, extra in (("banded (shipped)", []),
                         ("dense", ["--override", "ltv.kkt=dense"])):
        result = run_binary(["--workload", "ltv_stream", "--seed",
                             str(DEFAULT_SEED), "--seconds", "12", "--trace",
                             "0"] + extra)
        failed, errors, notes = check(result, "ltv_stream", DEFAULT_SEED)
        failed += result["failed"]
        verdicts[label] = failed == 0 and notes["routes_checked"] > 0
        print("perfbench self-test: %-16s routes checked %d, failed %d%s"
              % (label, notes["routes_checked"], failed,
                 "" if not errors else "; first error: " + errors[0]))
    if verdicts["banded (shipped)"] and not verdicts["dense"]:
        print("perfbench self-test: passed (dense rejected, banded accepted)")
        return 0
    print("perfbench self-test: FAILED")
    return 1


def declared_metrics(trace):
    """The metrics BENCHMARK.json declares for this kind of run."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    return bench["per_layer" if trace else "end_to_end"]


def select_metrics(measured, trace):
    """Every declared metric in declared order. A traced run leaves out
    the layers its workload does not exercise; they read 0."""
    declared = declared_metrics(trace)
    names = {m["name"] for m in declared}
    stray = sorted(set(measured) - names)
    if stray:
        die("metrics missing from BENCHMARK.json: %s" % ", ".join(stray), 1)
    out = {}
    for m in declared:
        if m["name"] in measured:
            out[m["name"]] = measured[m["name"]]
        elif trace:
            out[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            die("the run did not report %s" % m["name"], 1)
    return out


def stamp(workload, seed, seconds, trace, load):
    ncpu = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "program_build_type": build_type(),
            "program_ndebug": True, "nproc": ncpu,
            "loadavg_at_start": [round(x, 2) for x in load]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    load = os.getloadavg()

    if args.self_test:
        build()
        sys.exit(self_test())
    if args.record:
        if not args.workload:
            die("--record needs --workload")
        build()
        record(args.workload)
        return
    if not args.workload or args.seconds is None or args.trace is None:
        die("--workload, --seconds and --trace are required")
    if args.seed < 0:
        die("--seed must be non-negative")

    build()
    before = cpu_times()
    result = run_binary(["--workload", args.workload, "--seed", str(args.seed),
                         "--seconds", repr(args.seconds), "--trace",
                         str(args.trace)])
    steal = steal_share(before, cpu_times())
    metrics = select_metrics(result["metrics"], args.trace)
    failed, errors, notes = check(result, args.workload, args.seed)
    failed = min(result["failed"] + failed, result["attempted"])
    info = stamp(args.workload, args.seed, args.seconds, args.trace, load)
    info.update(result["stamp"])
    info.update(result["detail"])
    info.update(notes)
    info["cpu_steal_share"] = steal
    if errors:
        info["errors"] = errors[:8]
    print("perfbench: " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and result["attempted"] > 0,
                      "attempted": result["attempted"], "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
