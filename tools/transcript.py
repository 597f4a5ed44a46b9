"""Print what msl answers to every benchmark item, with a digest.

    python3 tools/transcript.py [--seeds N ...] [--out FILE] [--check]

For each seed and each workload of ``perfbench/workloads.py`` (cuts,
quantifiers, session), it sets up one session as the benchmark's worker
does and runs every item twice in it: the worker's timed loop runs pass
after pass in one session, so the second pass sees what the first left
behind.  It prints the md5 of each workload's text and of the whole
text; ``--out`` writes the text itself.  Two checkouts that print the
same digests answer every item with the same bytes.  With ``--check`` it
also runs the benchmark's exact oracle (``perfbench/oracles.py``,
``check``) on every output, prints each failure and exits with status 1
if there is one: a change that moves answers on purpose is checked this
way, not by its digest.  Run it from the root of a checkout: msl is
imported from ``src/`` there.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from oracles import check  # noqa: E402
from worker import run_item, set_up  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Two passes: the second sees the cut ranges and caches the first left.
PASSES = 2


def transcript(workload, seed, checked=False):
    """The text of ``PASSES`` passes over the items of one workload, the
    number of outputs in it and, when ``checked``, the oracle's reason
    for each output it fails."""
    setup, items = WORKLOADS[workload](seed)
    state, _ = set_up(setup)
    lines, failures = [], []
    for p in range(PASSES):
        for item in items:
            _, out, crash = run_item(state, item)
            head = f"{workload} seed {seed} pass {p} {item['id']}"
            why = check(item, out, crash) if checked else None
            if why is not None:
                failures.append(f"{head}: {why}")
            if crash is not None:
                out += crash + "\n"
            lines.append(f"## {head}\n{out}")
    return "".join(lines), len(lines), failures


def md5(text):
    return hashlib.md5(text.encode("utf-8")).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[101])
    parser.add_argument("--out", help="write the whole text to this file")
    parser.add_argument("--check", action="store_true",
                        help="check every output with the benchmark's "
                             "oracle; exit 1 on a failure")
    args = parser.parse_args(argv)
    texts, failures, total = [], [], 0
    for seed in args.seeds:
        for workload in WORKLOADS:
            text, outputs, failed = transcript(workload, seed, args.check)
            print(f"{md5(text)}  seed {seed} {workload} ({outputs} outputs)")
            texts.append(text)
            failures += failed
            total += outputs
    whole = "".join(texts)
    print(f"{md5(whole)}  total")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(whole)
    if args.check:
        for line in failures:
            print(f"FAILED {line}")
        print(f"check: {len(failures)} of {total} outputs fail the oracle")
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
