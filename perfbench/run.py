"""The msl benchmark: one workload, one seed, every metric.

    python3 perfbench/run.py --workload {cuts,quantifiers,session} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports msl from ``src/`` there
and nowhere else, and exits with status 2 when that is missing.

The items of a workload are generated from the seed (``workloads.py``)
and run in a worker process (``worker.py``) through msl's public API,
one ``execute_source`` call per item, in whole passes until ``--seconds``
have passed.  Every answer of every pass is checked here by an exact
oracle that shares no code with msl (``oracles.py``).

With ``--trace 0`` the last line of output carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a
separate traced run (``tracing.py``), whose spans are written under
``.perfbench_out/``.  All load comes from one single-threaded process.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from oracles import check
from worker import GAUGE_REF_S, PROBE_TIMEOUT_S
from workloads import KNOWN_FAILURES, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 11
WORKER_SLACK_S = 110


def metric_units(root):
    """({end-to-end metric: unit}, {per-layer metric: unit}) as
    BENCHMARK.json declares them."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return [{m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")]


def call_worker(request, timeout):
    """Run one worker process to completion; its JSON reply."""
    # A fixed hash seed keeps set and dict layouts the same in every run.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, WORKER], input=json.dumps(request), cwd=ROOT,
        env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: "
                           + proc.stderr.strip()[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_passes(items, passes):
    """(attempted, failed, unexpected failures, failures by item)."""
    by_id = {item["id"]: item for item in items}
    verdicts = {}
    attempted = failed = 0
    unexpected, failures = [], {}
    for results in passes:
        for iid, _, out, crash in results:
            key = (iid, out, crash)
            if key not in verdicts:
                verdicts[key] = check(by_id[iid], out, crash)
            why = verdicts[key]
            attempted += 1
            if why is None:
                continue
            failed += 1
            failures[iid] = why
            if not by_id[iid]["known"] or why.startswith("unsound"):
                unexpected.append(f"{iid}: {why}")
    return attempted, failed, unexpected, failures


def end_to_end(reply, attempted, failed):
    """The end-to-end metrics.  Times are at the reference speed of
    ``worker.gauge``; the ``#`` lines also give the measured ones."""
    probes = reply["setup_probes"]
    latencies = [r[1] for results in reply["passes"] for r in results]
    gauges = reply["gauges"]
    print(f"# {len(reply['passes'])} passes, {len(latencies)} item samples, "
          f"{len(latencies) - int(0.9 * len(latencies))} beyond p90; "
          f"setup median of {len(probes)} fresh processes", flush=True)
    print(f"# measured: {len(latencies) / reply['item_s']:.6g} items/s; "
          f"gauge {statistics.median(gauges) * 1e3:.4g} ms median of "
          f"{len(gauges)}, reference {GAUGE_REF_S * 1e3:.4g} ms")
    return {
        "setup_s": statistics.median(probes),
        "items_per_s": len(latencies) / sum(latencies),
        "item_ms_p50": statistics.median(latencies) * 1e3,
        "item_ms_p90": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "peak_rss_mb": reply["peak_rss_mb"],
        "failed_frac": failed / attempted,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "msl", "__init__.py")):
        print(f"error: no msl sources under {ROOT}/src", file=sys.stderr)
        return 2

    end_to_end_units, per_layer_units = metric_units(ROOT)
    setup, items = WORKLOADS[args.workload](args.seed)
    request = {"workload": args.workload, "seed": args.seed,
               "setup": setup, "items": items, "seconds": args.seconds,
               "mode": "trace" if args.trace else "run", "out_dir": OUT_DIR,
               "probes": SETUP_PROBES}
    # Warm the bytecode cache so no timed set-up compiles msl.
    call_worker(dict(request, mode="setup"), PROBE_TIMEOUT_S)
    reply = call_worker(request, args.seconds + WORKER_SLACK_S)

    attempted, failed, unexpected, failures = check_passes(
        items, reply["passes"])
    for iid, why in sorted(failures.items()):
        tag = "known" if iid in KNOWN_FAILURES else "UNEXPECTED"
        print(f"# failed ({tag}) {iid}: {why}")
    print(f"# failed {failed} of {attempted} attempted")
    if args.trace:
        values, units = reply["metrics"], per_layer_units
        unexpected += [f"{iid}: answer changed under tracing"
                       for iid in reply["changed"]]
        print(f"# {reply['trace_passes']} traced passes; spans in "
              f"{os.path.relpath(OUT_DIR, ROOT)}/")
    else:
        values = end_to_end(reply, attempted, failed)
        units = end_to_end_units
    for name, unit in units.items():
        print(f"# {name} = {values[name]:.6g} {unit}")
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    for line in unexpected:
        print(f"# UNEXPECTED {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
