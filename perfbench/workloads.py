"""Seeded item sets for the three workloads.

A workload is a ``setup`` source (run once, before timing, in the same
session) and a list of items.  Each item is one ``;;``-terminated chunk
passed to ``execute_source`` with its own precision and step budget,
plus the parameters its oracle needs.  The same seed gives the same
items.  Every seed gives the same mix of kinds, targets and margins, so
runs with different seeds do comparable work; only the numbers vary.

Items marked ``known`` carry a defect the benchmark keeps on purpose:
they are expected to fail today and are counted in ``failed_frac``.
"""

from __future__ import annotations

import random
from fractions import Fraction

from oracles import (A_MAX, A_MIN, car_branches, min_abs_quad,
                     quad_extrema)

DEFAULT_STEPS = 100_000

KNOWN_FAILURES = {
    "cuts.pow2_300": "unbounded cut for 2^300: probes stop growing at "
                     "2^256, so it diverges within its 1000-step budget",
    "quantifiers.cap_exists2_1e-3": "two-variable exists at margin 1e-3 is "
                                    "false but stays undecided within its "
                                    "8-step budget once the sweep cap binds",
    "session.deep_parens": "80 nested parentheses: RecursionError escapes "
                           "execute_source",
}


def _rat(q):
    """Source text of an exact rational, parenthesised when needed."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator) if q >= 0 else f"({q.numerator})"
    return f"({q.numerator}/{q.denominator})"


def _item(iid, src, check, oracle=None, precision=Fraction(1, 1000),
          max_steps=DEFAULT_STEPS):
    return {"id": iid, "src": src, "check": check, "oracle": oracle or {},
            "precision": str(precision), "max_steps": max_steps,
            "known": iid in KNOWN_FAILURES}


# ---------------------------------------------------------------------------
# cuts: trisection refinement on big-Fraction endpoints

CUTS_SETUP = """#use "prelude.msl";;
let sqrt = fun a : real =>
  cut y : [0, 64] left (y < 0 \\/ y * y < a) right (y > 0 /\\ y * y > a);;
let cbrt = fun a : real =>
  cut y : [0, 16] left (y ^ 3 < a) right (y ^ 3 > a);;
let golden = fun a : real =>
  cut y : [0, 64] left (y < 0 \\/ y * y + y < a)
                  right (y > 0 /\\ y * y + y > a);;
let sqrt_of = fun a : real =>
  cut r : [0, 64] left (r < 0 \\/ r * r < a) right (r > 0 /\\ r * r > a);;
"""

# Each kind: name, items per precision target, source, and for each
# radicand k the polynomial P (coefficients from the constant term up)
# whose nonnegative root of P(y) = k the item computes.  ``golden`` is
# the one kind that adds intervals.  sqrt_of binds a different name from
# sqrt: a cut nested in a cut that binds the same name is never probed,
# so sqrt (sqrt k) does not converge.
SQUARE, CUBE, GOLDEN, FOURTH = [0, 0, 1], [0, 0, 0, 1], [0, 1, 1], \
    [0, 0, 0, 0, 1]
CUT_KINDS = (
    ("sqrt", 24, "sqrt {0}", [SQUARE]),
    ("golden", 16, "golden {0}", [GOLDEN]),
    ("cbrt", 20, "cbrt {0}", [CUBE]),
    ("sqrt4", 16, "sqrt_of (sqrt {0})", [FOURTH]),
    ("max", 12, "max (sqrt {0}) (cbrt {1})", [SQUARE, CUBE]),
    ("min", 12, "min (sqrt {0}) (cbrt {1})", [SQUARE, CUBE]),
)
MIN_DIGITS, MAX_DIGITS = 6, 48


def cuts(seed):
    """Each kind's items spread their targets evenly from 1e-6 to 1e-48,
    so item latencies form a continuum without gaps."""
    rng = random.Random(f"cuts-{seed}")
    items = []
    for kind, count, template, polys in CUT_KINDS:
        for j in range(count):
            digits = MIN_DIGITS + (MAX_DIGITS - MIN_DIGITS) * j // (count - 1)
            ks = [rng.randrange(2, 1000) for _ in polys]
            roots = [[poly, str(k)] for poly, k in zip(polys, ks)]
            oracle = ({"kind": "root", "root": roots[0]} if len(roots) == 1
                      else {"kind": kind, "roots": roots})
            items.append(_item(f"cuts.{kind}_1e-{digits}_{j}",
                               template.format(*ks) + ";;", "cut", oracle,
                               Fraction(1, 10 ** digits)))
    items.append(_item(
        "cuts.pow2_300",
        "cut x : (-inf, inf) left (x < 2 ^ 300) right (x > 2 ^ 300);;",
        "cut", {"kind": "value", "value": str(2 ** 300)},
        Fraction(1, 10 ** 6), max_steps=1000))
    return CUTS_SETUP, items


# ---------------------------------------------------------------------------
# quantifiers: splitting and approximant re-evaluation on small dyadics

QUANT_SETUP = '#use "prelude.msl";;\n'

# (quantifier, comparison, sign of the margin against the extremum the
# comparison probes): true, refuted and witness-found items.
QUANT_FORMS = (
    ("forall", "<", +1),   # sup < max + d: true
    ("forall", "<", -1),   # sup < max - d: refuted
    ("exists", ">", -1),   # witness with q > max - d
    ("exists", ">", +1),   # sup > max + d: refuted
    ("forall", ">", -1),   # inf > min - d: true
    ("exists", "<", +1),   # witness with q < min + d
)
MARGIN_LEVELS = 4  # margins per (form, vertex placement)

# Shapes of the one-variable quadratics, one per form: curvature |p| and
# vertex position in [0, 1].  Every seed uses the same shapes, so every
# seed splits to about the same depth; the seed moves the vertex by less
# than the finest split and picks the constant term.
SHAPES = ((1, Fraction(1, 3)), (Fraction(3, 2), Fraction(2, 5)),
          (2, Fraction(3, 7)), (1, Fraction(4, 7)),
          (Fraction(3, 2), Fraction(3, 5)), (2, Fraction(2, 3)))


def _quadratic(rng, shape, concave, interior):
    """p*x^2 + r*x + s on [0, 1].  Its vertex lies inside (0, 1) when
    ``interior``, else beyond 1; a concave one has its maximum there."""
    curvature, c = shape
    p = -Fraction(curvature) if concave else Fraction(curvature)
    c += Fraction(rng.randrange(-8, 9), 8192)
    if not interior:
        c += 1
    s = Fraction(rng.randrange(-20, 21), 8)
    return p, -2 * p * c, s


def _quad_src(var, p, r, s):
    return f"{_rat(p)} * {var} * {var} + {_rat(r)} * {var} + {_rat(s)}"


def _lit(q):
    """A rational as a range limit (no parentheses allowed there)."""
    return str(Fraction(q))


def _quant_item(iid, quads, quant, op, bound):
    binders = "".join(f"{quant} {v} : [{_lit(a)}, {_lit(b)}], "
                      for v, (_, _, _, a, b) in zip("xy", quads))
    body = " + ".join(_quad_src(v, p, r, s)
                      for v, (p, r, s, _, _) in zip("xy", quads))
    src = f"{binders}{body} {op} {_rat(bound)};;"
    oracle = {"quant": quant, "op": op, "bound": str(bound),
              "quads": [[str(v) for v in q] for q in quads]}
    return _item(iid, src, "prop", oracle)


def quantifiers(seed):
    rng = random.Random(f"quantifiers-{seed}")
    items = []
    zero, one = Fraction(0), Fraction(1)
    combos = [(n, form, interior) for n, form in enumerate(QUANT_FORMS)
              for interior in (True, False)]
    total = len(combos) * MARGIN_LEVELS
    for level in range(MARGIN_LEVELS):
        for c, (n, (quant, op, sign), interior) in enumerate(combos):
            # Margins 10^-e with e spread evenly over [2, 5] across all
            # items, so item latencies form a continuum without gaps.
            k = level * len(combos) + c
            d = Fraction(1, round(10 ** (2 + 3 * k / (total - 1))))
            # forall <, exists > probe the maximum; the others the minimum
            probes_max = (quant == "forall") == (op == "<")
            p, r, s = _quadratic(rng, SHAPES[n], probes_max, interior)
            lo, hi = quad_extrema(p, r, s, zero, one)
            iid = (f"quantifiers.{quant}{op}{'+' if sign > 0 else '-'}"
                   f"_{'in' if interior else 'end'}_m{k}")
            items.append(_quant_item(iid, [(p, r, s, zero, one)], quant, op,
                                     (hi if probes_max else lo) + sign * d))
    # Two-variable witnesses at margin 1e-2, each maximum at an interior
    # vertex: a witness is probed at the left end of a subrange, so a
    # maximum at a right endpoint is only reached after deep splitting.
    for j in range(4):
        quads = [(*_quadratic(rng, SHAPES[(2 * j + k) % len(SHAPES)], True,
                              True), zero, one) for k in range(2)]
        best = sum(quad_extrema(*q)[1] for q in quads)
        items.append(_quant_item(f"quantifiers.exists2_1e-2_{j}", quads,
                                 "exists", ">", best - Fraction(1, 100)))
    # The cap-bound regime, at fixed explicit budgets: a boundary-
    # degenerate universal (may stay undecided, must not answer True)
    # and a decidable two-variable existential that the cap keeps open.
    half = (Fraction(-1), Fraction(1), Fraction(0), Fraction(0), Fraction(1))
    items.append(_item(
        "quantifiers.cap_forall_degenerate",
        "forall x : [0, 1], x * (1 - x) < 1/4;;", "prop",
        {"quant": "forall", "op": "<", "bound": "1/4",
         "quads": [[str(v) for v in half]]}, max_steps=20))
    items.append(_item(
        "quantifiers.cap_exists2_1e-3",
        "exists x : [0, 1], exists y : [0, 1], "
        "x * (1 - x) + y * (1 - y) > 1/2 + 1/1000;;", "prop",
        {"quant": "exists", "op": ">", "bound": "501/1000",
         "quads": [[str(v) for v in half]] * 2}, max_steps=8))
    return QUANT_SETUP, items


# ---------------------------------------------------------------------------
# session: a REPL batch dominated by normalization of big definitions

SESSION_SETUP = '#use "car.msl";;\n#use "roots.msl";;\n'
ROOTS_EPS = Fraction(1, 10)
GUARD_MARGIN = Fraction(1, 10)
# Items per guard class and per root class: enough that item latencies
# have no large gap near p50 or p90.
SESSION_PER_CLASS = 16


def _car_states(rng, per_class):
    """States (x, v) in equal numbers where only the go guard, only the
    stop guard, or both hold, each holding guard with margin."""
    quota = {(True, False): per_class, (False, True): per_class,
             (True, True): per_class}
    states = []
    while len(states) < 3 * per_class:
        x = Fraction(-rng.randrange(8, 240), 4)
        v = Fraction(rng.randrange(0, 64), 4)
        (_, a_go), (_, a_stop) = car_branches(x, v)
        key = (a_go < A_MAX - GUARD_MARGIN, a_stop > A_MIN + GUARD_MARGIN)
        if quota.get(key):
            quota[key] -= 1
            states.append((x, v))
    return states


def _roots_quadratics(rng, per_class):
    """Quadratics in equal numbers with a root in [0, 1] (only tt is
    right), with min |f| >= 2 eps (only ff), and with 0 < min |f| < eps
    (both are right)."""
    quota = {"root": per_class, "far": per_class, "near": per_class}
    quads = []
    while len(quads) < 3 * per_class:
        p = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))
        r = Fraction(rng.randrange(-12, 13), 4)
        s = Fraction(rng.randrange(-8, 9), 8)
        m = min_abs_quad(p, r, s)
        key = ("root" if m == 0 else "far" if m >= 2 * ROOTS_EPS
               else "near" if m < ROOTS_EPS else None)
        if quota.get(key):
            quota[key] -= 1
            quads.append((p, r, s))
    return quads


def session(seed):
    """Car and roots evaluations interleaved, a third of them through
    fresh definitions, plus one over-deep expression.  Every seed has the
    same number of items of each guard and root class."""
    rng = random.Random(f"session-{seed}")
    cars = _car_states(rng, SESSION_PER_CLASS)
    quads = _roots_quadratics(rng, SESSION_PER_CLASS)
    rng.shuffle(cars)
    rng.shuffle(quads)
    items = [_item("session.use_prelude", '#use "prelude.msl";;', "silent")]
    for j, ((x, v), (p, r, s)) in enumerate(zip(cars, quads)):
        car = f"accel {_rat(x)} {_rat(v)};;"
        if j % 3 == 0:
            items.append(_item(f"session.car_def_{j}",
                               f"let x{j} = {_rat(x)};;", "silent"))
            car = f"accel x{j} {_rat(v)};;"
        items.append(_item(f"session.car_{j}", car, "car",
                           {"x": str(x), "v": str(v)}))

        fn = f"(fun x : real => {_quad_src('x', p, r, s)})"
        if j % 3 == 1:
            items.append(_item(f"session.roots_def_{j}",
                               f"let f{j} = {fn};;", "silent"))
            fn = f"f{j}"
        items.append(_item(f"session.roots_{j}", f"roots_interval {fn};;",
                           "roots", {"coeffs": [str(p), str(r), str(s)],
                                     "eps": str(ROOTS_EPS)}))
        if j == 12:
            deep = "(" * 80 + "1/2" + ")" * 80
            items.append(_item("session.deep_parens", f"{deep};;", "deep",
                               {"kind": "value", "value": "1/2"}))
    return SESSION_SETUP, items


WORKLOADS = {"cuts": cuts, "quantifiers": quantifiers, "session": session}
