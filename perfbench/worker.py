"""The process that runs one workload against msl.

It reads a JSON request on stdin, imports msl from the checkout's
``src`` directory, sets up a session, runs the items, and writes one
JSON object on stdout.  ``run.py`` starts it; it is not meant to be run
by hand.

Modes:

* ``setup`` -- set up only and report the time it took;
* ``run``   -- set up, then run whole passes over the items until
  they have taken ``seconds``, timing each item, and then time the
  set-up of ``probes - 1`` fresh worker processes;
* ``trace`` -- set up, then alternate untraced and traced passes until
  ``seconds`` have passed, run one counting pass, and time the interval
  operations captured in it.

The worker only times and records; ``run.py`` checks the answers.

The host's speed drifts by as much as half within a minute, so a ``run``
reports times at a fixed reference speed.  Before an item, once
``GAUGE_EVERY_S`` seconds have passed since the last gauge, it times
``gauge_loop``, a fixed loop of rational arithmetic that uses the
standard library only.
Each item's time is scaled by ``GAUGE_REF_S`` over the mean of the
gauges just before and after it, so a reported time is what the item
would take on a host where the loop takes ``GAUGE_REF_S``.  A set-up
time is scaled by the median of gauges taken just before and after.
"""

from __future__ import annotations

import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PROBE_TIMEOUT_S = 30
GAUGE_REF_S = 0.001
GAUGE_EVERY_S = 0.05
SETUP_GAUGES = 5      # gauge samples before and after a set-up

# x^3 - 2x/3 on [1, 2], bisected for the point where it crosses 1/3.
GAUGE_POLY = ("+", ("*", ("x",), ("*", ("x",), ("x",))),
              ("*", ("c", Fraction(-2, 3)), ("x",)))


def _gauge_eval(e, x):
    if e[0] == "x":
        return x
    if e[0] == "c":
        return e[1]
    a, b = _gauge_eval(e[1], x), _gauge_eval(e[2], x)
    return a + b if e[0] == "+" else a * b


def gauge_loop(rounds=1, depth=40, objects=200):
    """The kind of work msl does, without msl: a tree-walking bisection
    on growing Fractions, then building and sorting small objects."""
    target = Fraction(1, 3)
    for _ in range(rounds):
        lo, hi = Fraction(1), Fraction(2)
        for _ in range(depth):
            mid = (lo + hi) / 2
            if _gauge_eval(GAUGE_POLY, mid) < target:
                lo = mid
            else:
                hi = mid
    pairs = [(Fraction(i, 7), {"i": i}) for i in range(objects)]
    pairs.sort(key=lambda p: -p[0])
    return lo, pairs[0][1]


def gauge():
    """Seconds ``gauge_loop`` takes now, timed on the second of two runs
    so that it runs warm.  The collector is paused so that the heap msl
    leaves behind does not slow the gauge."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gauge_loop()
        t0 = time.perf_counter()
        gauge_loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def import_msl():
    """Import msl from this checkout, never from anywhere else."""
    sys.path.insert(0, SRC)
    import msl
    import msl.cli
    if not os.path.abspath(msl.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"msl imported from {msl.__file__}, not {SRC}")


def set_up(setup_src):
    """Fresh session with the workload's definitions; (state, seconds
    at the reference speed)."""
    before = [gauge() for _ in range(SETUP_GAUGES)]
    t0 = time.perf_counter()
    import_msl()
    from msl.cli import SessionState, execute_source
    state = SessionState(fmt="interval")
    err = io.StringIO()
    execute_source(state, setup_src, out=io.StringIO(), err=err)
    elapsed = time.perf_counter() - t0
    if err.getvalue():
        raise SystemExit("setup failed: " + err.getvalue())
    after = [gauge() for _ in range(SETUP_GAUGES)]
    return state, elapsed * GAUGE_REF_S / statistics.median(before + after)


def run_item(state, item, on_item=None):
    """Execute one item; (seconds, text printed to out then err, crash or
    None)."""
    from msl.cli import execute_source
    state.precision = Fraction(item["precision"])
    state.step_budget = item["max_steps"]
    out, err = io.StringIO(), io.StringIO()
    if on_item is not None:
        on_item(item["id"])
    crash = None
    t0 = time.perf_counter()
    try:
        execute_source(state, item["src"], out=out, err=err)
    except Exception as exc:  # one crashing item must not end the run
        crash = f"{type(exc).__name__}: {exc}"[:200]
    elapsed = time.perf_counter() - t0
    return elapsed, out.getvalue() + err.getvalue(), crash


def run_pass(state, items, on_item=None):
    """One pass over the items: (wall seconds, [(id, s, out, crash)])."""
    results = []
    t0 = time.perf_counter()
    for item in items:
        results.append((item["id"], *run_item(state, item, on_item)))
    return time.perf_counter() - t0, results


def run_gauged(state, items, seconds):
    """Whole passes over the items until ``seconds`` of item time have
    passed, gauging the host between items.  ([[(id, seconds at the
    reference speed, out, crash)] per pass], item seconds, gauge
    samples)."""
    gauges, passes, spent = [gauge()], [], 0.0
    last = time.perf_counter()
    while not passes or spent < seconds:
        results = []
        for item in items:
            if time.perf_counter() - last >= GAUGE_EVERY_S:
                gauges.append(gauge())
                last = time.perf_counter()
            dt, out, crash = run_item(state, item)
            spent += dt
            results.append([item["id"], dt, out, crash, len(gauges) - 1])
        passes.append(results)
    gauges.append(gauge())
    for results in passes:
        for r in results:
            # The item ran between gauges j and j + 1.
            j = r.pop()
            r[1] *= 2 * GAUGE_REF_S / (gauges[j] + gauges[j + 1])
    return passes, spent, gauges


def probe_setup(req):
    """Set-up time of a fresh worker process, at the reference speed."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        input=json.dumps(dict(req, mode="setup")),
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(proc.stdout)["setup_s"]


def main():
    req = json.load(sys.stdin)
    state, setup_s = set_up(req["setup"])
    reply = {"setup_s": setup_s}
    items, seconds = req["items"], req["seconds"]
    if req["mode"] == "run":
        passes, spent, gauges = run_gauged(state, items, seconds)
        probes = [setup_s] + [probe_setup(req)
                              for _ in range(req["probes"] - 1)]
        reply.update(item_s=spent, passes=passes, gauges=gauges,
                     setup_probes=probes)
    elif req["mode"] == "trace":
        import tracing
        reply.update(tracing.traced_run(state, items, seconds, req))
    reply["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    sys.stdout.write(json.dumps(reply) + "\n")


if __name__ == "__main__":
    main()
