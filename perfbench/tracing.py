"""Per-layer measurement of msl from outside the package.

msl's modules import each other's functions by name, so a call from
``cli`` to ``run`` goes through the global ``msl.cli.run``.  The traced
pass replaces those globals with wrappers that record a span per call
and restores them afterwards; the counting pass does the same with
wrappers that walk the trees going in and out.  Spans and counts are
kept in memory.  The walks never run in a timed pass.

Layers and the names patched for them:

==============  =====================================================
syntax          msl.cli.parse_program
typecheck       msl.cli / msl.evaluator / msl.normalize .infer_type
normalize       msl.evaluator.normalize
evaluator       msl.cli.run, msl.evaluator.{refine_step, evaluate_step,
                prop_approx, real_approx} (outermost approx call only)
cli             the item's execute_source call, msl.cli.render
interval        GInterval.__add__/__mul__, XRat.__lt__ (capture only)
prelude         msl.prelude.load_prelude (timed directly)
==============  =====================================================
"""

from __future__ import annotations

import dataclasses
import os
import random
import statistics
import sys
import time

from worker import run_pass

# (module, global name, span name)
SPAN_POINTS = (
    ("msl.cli", "parse_program", "syntax.parse"),
    ("msl.cli", "infer_type", "typecheck.infer"),
    ("msl.cli", "render", "cli.render"),
    ("msl.cli", "run", "evaluator.run"),
    ("msl.evaluator", "infer_type", "typecheck.infer"),
    ("msl.evaluator", "normalize", "normalize"),
    ("msl.evaluator", "refine_step", "evaluator.refine"),
    ("msl.evaluator", "evaluate_step", "evaluator.evaluate"),
    ("msl.normalize", "infer_type", "typecheck.infer"),
)
APPROX_POINTS = ("prop_approx", "real_approx")
ITEM_SPAN = "cli"
CAPTURE_CAP = 1000


class Patches:
    """Replace module globals or class attributes; undo in reverse."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


# ---------------------------------------------------------------------------
# Spans


class Tracer:
    """Spans as [name, start, end, parent index, item id] in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = None
        self.in_approx = False

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return traced

    def wrap_approx(self, fn):
        """Span only the outermost of the mutually recursive approx calls."""
        spanned = self.wrap("evaluator.approx", fn)

        def traced(e, env, mode):
            if self.in_approx:
                return fn(e, env, mode)
            self.in_approx = True
            try:
                return spanned(e, env, mode)
            finally:
                self.in_approx = False
        return traced

    def on_item(self, item_id):
        self.item = item_id

    def install(self, patches):
        for module, name, span in SPAN_POINTS:
            mod = sys.modules[module]
            patches.set(mod, name, self.wrap(span, getattr(mod, name)))
        ev = sys.modules["msl.evaluator"]
        for name in APPROX_POINTS:
            patches.set(ev, name, self.wrap_approx(getattr(ev, name)))
        cli = sys.modules["msl.cli"]
        patches.set(cli, "execute_source",
                    self.wrap(ITEM_SPAN, cli.execute_source))

    def self_times(self):
        """{span name: (calls, total self seconds)}."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for (name, t0, t1, _, _), inner in zip(self.spans, child):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (t1 - t0) - inner)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("item\tname\tstart_s\tend_s\tparent\n")
            for name, t0, t1, parent, item in self.spans:
                fh.write(f"{item}\t{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\n")


# ---------------------------------------------------------------------------
# Counting pass: tree shapes, run structure and interval operands


class Counter:
    def __init__(self, seed):
        import msl.evaluator
        from msl.syntax import Expr, Range
        self.Expr, self.Range = Expr, Range
        self.cap = msl.evaluator.SWEEP_VISIT_CAP
        self.pruned_marker = msl.evaluator.PRUNED
        self.fields = {}
        self.rng = random.Random(seed)
        self.c = dict(steps=0, refine_calls=0, pruned=0, tree_nodes_max=0,
                      sweeps_over_cap=0, evaluate_calls=0, evaluate_hits=0,
                      disjuncts_out=0, nodes_out=0, max_bits=0, tokens=0)
        self.rounds = None
        self.samples = {"add": [], "mul": [], "lt": []}
        self.seen = {"add": 0, "mul": 0, "lt": 0}

    def _children(self, e):
        names = self.fields.get(type(e))
        if names is None:
            names = tuple(f.name for f in dataclasses.fields(e)
                          if f.name != "loc")
            self.fields[type(e)] = names
        for name in names:
            yield getattr(e, name)

    def walk(self, e):
        """Node count of a tree; tracks cut/quantifier endpoint bits."""
        Expr, Range = self.Expr, self.Range
        nodes, stack = 0, [e]
        while stack:
            x = stack.pop()
            nodes += 1
            for v in self._children(x):
                if isinstance(v, Expr):
                    stack.append(v)
                elif isinstance(v, tuple):
                    stack.extend(i for i in v if isinstance(i, Expr))
                elif isinstance(v, Range):
                    self._bits(v)
        return nodes

    def _bits(self, r):
        for end in (r.lo, r.hi):
            if end.is_finite:
                q = end.q
                self.c["max_bits"] = max(self.c["max_bits"],
                                         abs(q.numerator).bit_length(),
                                         q.denominator.bit_length())

    def _sample(self, op, a, b):
        """Reservoir sample of operand pairs."""
        self.seen[op] += 1
        bucket = self.samples[op]
        if len(bucket) < CAPTURE_CAP:
            bucket.append((a, b))
        else:
            j = self.rng.randrange(self.seen[op])
            if j < CAPTURE_CAP:
                bucket[j] = (a, b)

    def install(self, patches):
        import msl.cli
        import msl.evaluator
        import msl.syntax
        from msl.interval import GInterval, XRat
        c = self.c
        ev, cli = msl.evaluator, msl.cli

        def run(*args, **kwargs):
            outer, self.rounds = self.rounds, set()
            try:
                return orig_run(*args, **kwargs)
            finally:
                c["steps"] += len(self.rounds)
                self.rounds = outer

        def normalize(e):
            nf = orig_normalize(e)
            c["disjuncts_out"] += len(nf)
            c["nodes_out"] += sum(self.walk(d) for d in nf)
            return nf

        def refine_step(e, round_index=0, witness_log=None):
            c["refine_calls"] += 1
            self.rounds.add(round_index)
            if self.walk(e) > self.cap:
                c["sweeps_over_cap"] += 1
            out = orig_refine(e, round_index, witness_log)
            if out is self.pruned_marker:
                c["pruned"] += 1
            else:
                c["tree_nodes_max"] = max(c["tree_nodes_max"],
                                          self.walk(out))
            return out

        def evaluate_step(e, precision, ty):
            out = orig_evaluate(e, precision, ty)
            c["evaluate_calls"] += 1
            c["evaluate_hits"] += out is not None
            return out

        def parse_program(source):
            c["tokens"] += len(msl.syntax.tokenize(source))
            return orig_parse(source)

        def add(a, b):
            self._sample("add", a, b)
            return orig_add(a, b)

        def mul(a, b):
            self._sample("mul", a, b)
            return orig_mul(a, b)

        def lt(a, b):
            self._sample("lt", a, b)
            return orig_lt(a, b)

        orig_run, orig_normalize = cli.run, ev.normalize
        orig_refine, orig_evaluate = ev.refine_step, ev.evaluate_step
        orig_parse = cli.parse_program
        orig_add, orig_mul = GInterval.__add__, GInterval.__mul__
        orig_lt = XRat.__lt__
        patches.set(cli, "run", run)
        patches.set(ev, "normalize", normalize)
        patches.set(ev, "refine_step", refine_step)
        patches.set(ev, "evaluate_step", evaluate_step)
        patches.set(cli, "parse_program", parse_program)
        patches.set(GInterval, "__add__", add)
        patches.set(GInterval, "__mul__", mul)
        patches.set(XRat, "__lt__", lt)


def time_interval_ops(samples, budget_s=1.5):
    """Median microseconds per op over the captured operand pairs.  The
    ops take turns, so each is timed across the same stretch of time."""
    loops = {
        "add": lambda pairs: [a + b for a, b in pairs],
        "mul": lambda pairs: [a * b for a, b in pairs],
        "lt": lambda pairs: [a < b for a, b in pairs],
    }
    reps = {op: [] for op, pairs in samples.items() if pairs}
    deadline = time.perf_counter() + budget_s
    while min(map(len, reps.values()), default=5) < 5 \
            or time.perf_counter() < deadline:
        for op, times in reps.items():
            pairs = samples[op]
            t0 = time.perf_counter()
            loops[op](pairs)
            times.append((time.perf_counter() - t0) / len(pairs))
    return {op: statistics.median(times) * 1e6
            for op, times in reps.items()}


# ---------------------------------------------------------------------------
# The traced run


def _layer_metrics(times, wall):
    def ms(name):
        return times.get(name, (0, 0.0))[1] * 1e3

    def calls(name):
        return times.get(name, (0, 0.0))[0]

    return {
        "syntax.parse_ms": ms("syntax.parse"),
        "typecheck.infer_ms": ms("typecheck.infer"),
        "typecheck.calls": calls("typecheck.infer"),
        "normalize.ms": ms("normalize"),
        "normalize.calls": calls("normalize"),
        "evaluator.run_self_ms": ms("evaluator.run"),
        "evaluator.refine_ms": ms("evaluator.refine"),
        "evaluator.approx_ms": ms("evaluator.approx"),
        "evaluator.approx_calls": calls("evaluator.approx"),
        "evaluator.evaluate_ms": ms("evaluator.evaluate"),
        "cli.self_ms": ms(ITEM_SPAN),
        "cli.render_ms": ms("cli.render"),
        "trace.traced_pass_ms": wall * 1e3,
    }


def traced_run(state, items, seconds, req):
    """Alternate untraced and traced passes, then count and capture."""
    untraced, traced, first, changed = [], [], None, set()
    elapsed = 0.0
    while len(traced) < 1 or elapsed < seconds:
        dt, results = run_pass(state, items)
        untraced.append(dt)
        if first is None:
            first = results
        tracer = Tracer()
        patches = Patches()
        tracer.install(patches)
        try:
            tdt, results = run_pass(state, items, tracer.on_item)
        finally:
            patches.restore()
        changed.update(r[0] for r, f in zip(results, first)
                       if r[2:] != f[2:])
        traced.append(_layer_metrics(tracer.self_times(), tdt))
        if len(traced) == 1:
            spans_tracer = tracer
        elapsed += dt + tdt

    counter = Counter(req["seed"])
    patches = Patches()
    counter.install(patches)
    try:
        run_pass(state, items)
    finally:
        patches.restore()

    import msl
    load = []
    for _ in range(5):
        t0 = time.perf_counter()
        msl.load_prelude()
        load.append(time.perf_counter() - t0)

    # Times are medians over the traced passes; call counts are the same
    # in every pass.
    metrics = {k: v if isinstance(v, int) else
               statistics.median(m[k] for m in traced)
               for k, v in traced[0].items()}
    c = counter.c
    ops = time_interval_ops(counter.samples)
    untraced_ms = statistics.median(untraced) * 1e3
    parse_s = metrics["syntax.parse_ms"] / 1e3
    metrics.update({
        "syntax.tokens_per_s": c["tokens"] / parse_s,
        "normalize.disjuncts_out": c["disjuncts_out"],
        "normalize.nodes_out": c["nodes_out"],
        "evaluator.steps": c["steps"],
        "evaluator.evaluate_hit_ratio":
            c["evaluate_hits"] / max(c["evaluate_calls"], 1),
        "evaluator.live_disjuncts_mean":
            c["refine_calls"] / max(c["steps"], 1),
        "evaluator.pruned_ratio": c["pruned"] / max(c["refine_calls"], 1),
        "evaluator.tree_nodes_max": c["tree_nodes_max"],
        "evaluator.sweeps_over_cap": c["sweeps_over_cap"],
        "interval.max_endpoint_bits": c["max_bits"],
        "interval.add_us": ops.get("add", 0.0),
        "interval.mul_us": ops.get("mul", 0.0),
        "interval.lt_us": ops.get("lt", 0.0),
        "prelude.load_ms": statistics.median(load) * 1e3,
        "trace.untraced_pass_ms": untraced_ms,
        "trace.overhead_ratio": metrics["trace.traced_pass_ms"] / untraced_ms,
    })
    os.makedirs(req["out_dir"], exist_ok=True)
    spans_tracer.write(os.path.join(
        req["out_dir"], f"{req['workload']}-seed{req['seed']}-spans.tsv"))
    return {"metrics": metrics, "passes": [first],
            "trace_passes": len(traced), "changed": sorted(changed)}
