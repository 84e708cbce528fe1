"""Shared helpers for the bench/check_*.py CI gates.

Lives next to the check scripts; `python3 bench/check_foo.py` puts this
directory on sys.path, so the scripts just `import checklib`. Every
gate funnels its error reporting, JSON loading, schema pinning and
google-benchmark row filtering through here so the policies (Release
stamps, aggregate-row skipping, error formatting) exist exactly once.
"""

import json
import sys


def fail(msg):
    """Print a gate failure and return 1, so `return fail(...)` works."""
    print(f"error: {msg}", file=sys.stderr)
    return 1


def load_json(path):
    """Load a JSON document, exiting 1 with a reason when it can't be."""
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit(fail(f"cannot load {path}: {e}"))


def require_schema(doc, schema, path):
    """Exit 1 unless doc carries the exact top-level schema string."""
    if not isinstance(doc, dict) or doc.get("schema") != schema:
        raise SystemExit(fail(
            f"{path} does not carry schema '{schema}' "
            f"(got {doc.get('schema') if isinstance(doc, dict) else type(doc).__name__!r})"))


def iteration_rows(benchmarks):
    """Yield real iteration rows, skipping mean/median/stddev aggregates
    produced by --benchmark_repetitions."""
    for b in benchmarks:
        if b.get("run_type", "iteration") == "iteration":
            yield b


NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def real_time_ns(row):
    """A row's real_time in nanoseconds, whatever its time_unit."""
    return float(row["real_time"]) * NS_PER_UNIT[row.get("time_unit", "ns")]


def bench_rows(benchmarks, name_re):
    """(match, row) per benchmark run whose name matches name_re.

    A file recorded with --benchmark_repetitions holds every repetition
    plus mean / median / stddev / cv aggregates. Each run is then
    represented by its median aggregate (renamed to the run name; user
    counters are medians too), and the run's coefficient of variation
    of real time is printed, so a gate reads the stable statistic and
    its reader sees the spread behind it. A single-repetition file
    yields its iteration rows unchanged.
    """
    medians = [b for b in benchmarks
               if b.get("run_type") == "aggregate"
               and b.get("aggregate_name") == "median"]
    if not medians:
        for b in iteration_rows(benchmarks):
            m = name_re.match(b["name"])
            if m:
                yield m, b
        return
    cv = {b["run_name"]: float(b["real_time"]) for b in benchmarks
          if b.get("run_type") == "aggregate"
          and b.get("aggregate_name") == "cv"}
    for b in medians:
        name = b["run_name"]
        m = name_re.match(name)
        if not m:
            continue
        spread = (f"CV {100.0 * cv[name]:.1f} %" if name in cv
                  else "CV not recorded")
        print(f"{name}: median of {b.get('repetitions', '?')} "
              f"repetitions, {spread}")
        yield m, dict(b, name=name)


def load_release_bench(path):
    """Load a google-benchmark JSON file, refusing non-Release builds.

    perf_solver / perf_fleet stamp context.repo_build_type with how the
    repo's own code was compiled ("release" iff NDEBUG). The stock
    context.library_build_type key only reports how the google-benchmark
    LIBRARY was built (debug on many distros), which is why a debug
    artifact once slipped into the committed baselines. Any JSON without
    a "release" stamp — including pre-stamp artifacts — is rejected, so
    a stale or unoptimised file can never pass a perf gate again.
    """
    with open(path) as f:
        data = json.load(f)
    build = data.get("context", {}).get("repo_build_type")
    if build != "release":
        print(
            f"error: {path} was measured from a "
            f"'{build or 'unknown (pre-stamp artifact)'}' build of this "
            "repo, not 'release'.\nRegenerate it from a Release tree "
            "(bench/run_benchmarks.sh enforces this).",
            file=sys.stderr,
        )
        raise SystemExit(1)
    lib_build = data.get("context", {}).get("library_build_type")
    if lib_build is not None and lib_build != "release":
        # Advisory only: the timed code is the repo's (gated above); a
        # debug benchmark LIBRARY mostly inflates harness overhead. Fix
        # by configuring with -DOTEM_BENCHMARK_SOURCE_DIR=<checkout>,
        # which vendors a Release build of google/benchmark.
        print(
            f"warning: {path} links a '{lib_build}' build of the "
            "google-benchmark library (repo code itself is release). "
            "Configure with -DOTEM_BENCHMARK_SOURCE_DIR=<benchmark "
            "checkout> for a Release harness.",
            file=sys.stderr,
        )
    return data
