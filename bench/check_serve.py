#!/usr/bin/env python3
"""Gate the serve-layer loadtest results (otem.bench_serve.v1).

Reads the BENCH_serve.json stamped by `otem_cli loadtest bench_json=`
and fails when the sessionful serving path regresses:

  latency   — client-observed session.step RTT p50/p99 must stay under
              --max-p50-us / --max-p99-us. The shipped defaults encode
              the headline claim (sub-millisecond p50 at H=30 over
              localhost TCP); CI passes machine-appropriate values
              because shared runners are not the 1-core reference box.
  warm start — the mean QP iterations of warm steps (k>=1, riding the
              receding-horizon warm start carried across protocol
              frames) must be below --max-warm-cold-ratio of the cold
              k=0 solve's. If warm stops being cheaper than cold, the
              session layer lost the one thing it exists to preserve.
  accounting — every streamed step must be visible to the daemon's own
              serve.session.step_us sketch (client count == server
              count), stats must report the context's worker count,
              sessions opened == closed (none leaked or evicted
              mid-test), and the result cache's hit/miss counters must
              be present so multi-worker serving keeps reporting.

Usage: check_serve.py BENCH_serve.json [--max-p50-us 1000]
       [--max-p99-us 20000] [--max-warm-cold-ratio 0.75]

Exit code 1 on any violated bound, a missing section (a renamed field
can't silently disable the gate), or a non-Release build stamp.
"""

import argparse
import sys

import checklib

SCHEMA = "otem.bench_serve.v1"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("bench_json")
    ap.add_argument("--max-p50-us", type=float, default=1000.0)
    ap.add_argument("--max-p99-us", type=float, default=20000.0)
    ap.add_argument("--max-warm-cold-ratio", type=float, default=0.75)
    args = ap.parse_args()

    doc = checklib.load_json(args.bench_json)
    checklib.require_schema(doc, SCHEMA, args.bench_json)

    ctx = doc.get("context", {})
    if ctx.get("repo_build_type") != "release":
        return checklib.fail(
            f"{args.bench_json} was measured from a "
            f"'{ctx.get('repo_build_type', 'unknown')}' build, not "
            "'release'; regenerate from a Release tree")

    sess = doc.get("session_step")
    if not isinstance(sess, dict):
        return checklib.fail("document has no session_step section")
    rtt = sess.get("rtt_us")
    if not isinstance(rtt, dict) or rtt.get("count", 0) <= 0:
        return checklib.fail("session_step.rtt_us is missing or empty")

    failures = []

    p50, p99 = rtt.get("p50"), rtt.get("p99")
    if p50 is None or p50 > args.max_p50_us:
        failures.append(
            f"session.step RTT p50 {p50} us exceeds bound "
            f"{args.max_p50_us} us")
    if p99 is None or p99 > args.max_p99_us:
        failures.append(
            f"session.step RTT p99 {p99} us exceeds bound "
            f"{args.max_p99_us} us")

    cold = sess.get("cold_qp_iterations_mean")
    warm = sess.get("warm_qp_iterations_mean")
    if not sess.get("cold_steps") or not sess.get("warm_steps"):
        failures.append("loadtest recorded no cold or no warm steps; "
                        "cannot certify the warm-start carryover")
    elif cold is None or warm is None or cold <= 0:
        failures.append("cold/warm QP iteration means missing")
    elif warm > args.max_warm_cold_ratio * cold:
        failures.append(
            f"warm steps average {warm:.1f} QP iterations vs cold "
            f"{cold:.1f} — ratio {warm / cold:.2f} exceeds "
            f"{args.max_warm_cold_ratio} (warm start not carrying "
            "across session frames?)")

    stats = doc.get("server_stats", {})
    server_step = stats.get("session_step_us", {})
    if server_step.get("count") != rtt.get("count"):
        failures.append(
            f"daemon's serve.session.step_us sketch saw "
            f"{server_step.get('count')} steps but clients measured "
            f"{rtt.get('count')} — instrumentation is dropping steps")
    workers = stats.get("workers", {})
    if workers.get("count") != ctx.get("workers"):
        failures.append(
            f"stats reports {workers.get('count')} workers, context "
            f"says {ctx.get('workers')}")

    counters = doc.get("counters", {})
    clients = ctx.get("clients")
    for name in ("serve.sessions_opened", "serve.sessions_closed"):
        if counters.get(name) != clients:
            failures.append(
                f"{name} = {counters.get(name)}, expected {clients} "
                "(a session leaked, failed, or was evicted mid-test)")
    for name in ("serve.cache.hits", "serve.cache.misses"):
        if name not in counters:
            failures.append(f"counter {name} missing — the result "
                            "cache stopped reporting")

    if failures:
        for f in failures:
            checklib.fail(f)
        return 1

    print(f"check_serve: OK — p50 {p50:.0f} us (bound "
          f"{args.max_p50_us:.0f}), p99 {p99:.0f} us (bound "
          f"{args.max_p99_us:.0f}), warm/cold QP iterations "
          f"{warm:.1f}/{cold:.1f} over {int(rtt['count'])} steps, "
          f"{workers.get('count')} workers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
