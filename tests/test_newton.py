"""Cut probes at the dyadic points of interval Newton steps.

An endpoint of a finite cut moves only where a lower-mode probe of
``left``/``right`` holds, wherever the probe point comes from.  These
tests check with exact ``Fraction`` arithmetic that every endpoint still
brackets the cut's value, that the points a Newton step picks are
dyadic, that no cut needs more sweeps than trisection would, and that
the precision ceiling bounds the bits of the endpoints.
"""

import contextlib
import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import msl.evaluator
from msl.evaluator import (
    Diverged, LOWER, PROBE_BITS_PER_SWEEP, PropTrue, RealBall, _DEMAND_BITS,
    _narrow, _newton_points, _read, _sides, _slopes, compile_term,
    evaluate_step, refine_step, run,
)
from msl.interval import DivisionIndeterminate, XRat, box
from msl.normalize import normalize
from msl.prelude import load_prelude
from msl.syntax import (
    Arith, Cut, Def, Expr, Let, REAL, parse_expression, parse_program,
)
from oracles import (
    GInterval, reference, reference_demand_bits, reference_narrow,
    reference_newton_points, reference_slope,
)

CUT_DEFS = """
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

SOURCES = {
    "sqrt": "sqrt {0}",
    "cbrt": "cbrt {0}",
    "golden": "golden {0}",
    "sqrt4": "sqrt_of (sqrt {0})",
    "max": "max (sqrt {0}) (cbrt {1})",
    "min": "min (sqrt {0}) (cbrt {1})",
}

# Each cut computes the nonnegative root of P(y) = k for one of these P,
# which all increase on y >= 0 from P(0) = 0.
POLYS = {"sqrt": lambda y: y * y, "cbrt": lambda y: y ** 3,
         "golden": lambda y: y * y + y, "sqrt4": lambda y: y ** 4}


def below(x, p, k):
    """Is x at most the nonnegative root of p(y) = k?"""
    return x <= 0 or p(x) <= k


def above(x, p, k):
    """Is x at least the nonnegative root of p(y) = k?"""
    return x >= 0 and p(x) >= k


def sole_disjunct(source):
    e = parse_expression(source)
    defs = list(load_prelude()) + list(parse_program(CUT_DEFS))
    for item in reversed(defs):
        assert isinstance(item, Def)
        e = Let(item.name, item.body, e)
    (d,) = normalize(e)
    return d


def cuts_with_oracles(kind, d, a, b):
    """Each cut of the sole disjunct ``d`` with a test of its endpoints:
    (cut, brackets(lo, hi)).  Infinite endpoints bracket everything."""
    square, cube = POLYS["sqrt"], POLYS["cbrt"]

    def root(p, k):
        return lambda lo, hi: ((lo is None or below(lo, p, k))
                               and (hi is None or above(hi, p, k)))

    if kind in ("sqrt", "cbrt", "golden"):
        return [(d, root(POLYS[kind], a))]
    if kind == "sqrt4":
        inner = d.left.items[1].rhs  # r < 0 \/ r * r < sqrt a
        return [(d, root(POLYS["sqrt4"], a)), (inner, root(square, a))]
    sq, cb = (less.rhs for less in d.left.items)  # z < sqrt a, z < cbrt b
    if kind == "max":
        def outer(lo, hi):
            return ((lo is None or below(lo, square, a) or below(lo, cube, b))
                    and (hi is None
                         or (above(hi, square, a) and above(hi, cube, b))))
    else:
        def outer(lo, hi):
            return ((lo is None or (below(lo, square, a)
                                    and below(lo, cube, b)))
                    and (hi is None
                         or above(hi, square, a) or above(hi, cube, b)))
    return [(d, outer), (sq, root(square, a)), (cb, root(cube, b))]


def endpoints(cut):
    r = cut.range
    return (r.lo.q if r.lo.is_finite else None,
            r.hi.q if r.hi.is_finite else None)


def is_dyadic(q):
    den = q.denominator
    return den & (den - 1) == 0


def max_bits(e):
    """The largest bit-length of a numerator or denominator of a cut
    endpoint anywhere in ``e``."""
    out = 0
    if isinstance(e, Cut):
        for q in endpoints(e):
            if q is not None:
                out = max(out, abs(q.numerator).bit_length(),
                          q.denominator.bit_length())
    for f in dataclasses.fields(e):
        value = getattr(e, f.name)
        for child in value if isinstance(value, tuple) else (value,):
            if isinstance(child, Expr):
                out = max(out, max_bits(child))
    return out


@contextlib.contextmanager
def demand(precision):
    """Sweeps inside paced for a run at ``precision``, as ``run`` paces
    its own (``test_run_passes_its_precision_to_the_sweeps``)."""
    token = _DEMAND_BITS.set(reference_demand_bits(precision))
    try:
        yield
    finally:
        _DEMAND_BITS.reset(token)


def sweeps_to(d, precision, limit=2000):
    """The number of sweeps after which ``d`` evaluates at ``precision``."""
    with demand(precision):
        for n in range(limit):
            if evaluate_step(d, precision, REAL) is not None:
                return n
            d = refine_step(d, n)
    raise AssertionError(f"no answer within {limit} sweeps")


KINDS = st.sampled_from(sorted(SOURCES))
RADICANDS = st.integers(min_value=2, max_value=999)
SWEEPS = 26


@settings(max_examples=40, deadline=None)
@given(KINDS, RADICANDS, RADICANDS)
def test_every_endpoint_brackets_the_root_and_newton_points_are_dyadic(
        kind, a, b):
    d = sole_disjunct(SOURCES[kind].format(a, b))
    newton_moves = 0
    for n in range(SWEEPS):
        before = [endpoints(c) for c, _ in cuts_with_oracles(kind, d, a, b)]
        d = refine_step(d, n)
        pairs = cuts_with_oracles(kind, d, a, b)
        for (cut, brackets), (lo0, hi0) in zip(pairs, before):
            lo, hi = endpoints(cut)
            assert brackets(lo, hi), (kind, a, b, n, lo, hi)
            if lo0 is None or hi0 is None:
                continue
            # An endpoint that moved anywhere but to its trisection
            # point moved to a Newton point, which lies on a dyadic grid.
            for new, old, third in ((lo, lo0, (2 * lo0 + hi0) / 3),
                                    (hi, hi0, (lo0 + 2 * hi0) / 3)):
                if new not in (old, third):
                    assert is_dyadic(new), (kind, a, b, n, new)
                    newton_moves += 1
    assert newton_moves  # the property above is not vacuous
    if kind in ("sqrt", "cbrt", "golden"):
        # Near the root both sides take their Newton points.
        assert all(map(is_dyadic, endpoints(d)))


@settings(max_examples=30, deadline=None)
@given(KINDS, RADICANDS, RADICANDS, st.integers(min_value=1, max_value=24))
def test_no_cut_needs_more_sweeps_than_trisection(kind, a, b, digits):
    source = SOURCES[kind].format(a, b)
    precision = Fraction(1, 10 ** digits)
    newton = sweeps_to(sole_disjunct(source), precision)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(msl.evaluator, "_newton_points", lambda *args: ())
        trisection = sweeps_to(sole_disjunct(source), precision)
    assert newton <= trisection + 2, (source, digits, newton, trisection)


def test_endpoint_bits_stay_under_the_sweep_ceiling():
    # The grid of sweep n is no finer than 2^-max(D, 8 (n + 1)).  Without
    # a ceiling the inner cuts double their endpoint bits every sweep
    # while the outer max is still trisecting.
    d = sole_disjunct(SOURCES["max"].format(713, 500))
    precision = Fraction(1, 10 ** 32)
    ceiling = reference_demand_bits(precision)
    with demand(precision):
        for n in range(60):
            if evaluate_step(d, precision, REAL) is not None:
                break
            d = refine_step(d, n)
            assert max_bits(d) <= max(ceiling, PROBE_BITS_PER_SWEEP
                                      * (n + 1)) + 16, n
        else:
            pytest.fail("no answer within 60 sweeps")
    assert n <= 10  # trisection needs about 120


def test_newton_points_straddle_the_root_on_a_dyadic_grid():
    d = sole_disjunct("sqrt 2")
    a, b = Fraction(7, 5), Fraction(3, 2)
    points = [Fraction(*p) for p in _newton_points(d, (7, 5), (3, 2), 0)]
    assert len(points) == 2 and all(a < p < b and is_dyadic(p)
                                    for p in points)
    lo, hi = points
    assert lo * lo < 2 < hi * hi
    assert hi - lo < (b - a) / 3  # narrower than trisection can get
    # Where the slope enclosure meets 0 the step is skipped in favour of
    # trisection: y^3 - 2 has slope [0, 768] over [0, 16].
    assert _newton_points(sole_disjunct("cbrt 2"), (0, 1), (16, 1), 0) == []


def test_an_exact_dyadic_root_is_bracketed_strictly():
    # golden 552 is 23: at convergence N is the point 23, and its ends
    # are rounded strictly outward, so both probes hold.
    assert run(sole_disjunct("golden 552"), Fraction(1, 10 ** 45),
               max_steps=9) == RealBall(Fraction(23), Fraction(1, 2 ** 158))


@pytest.mark.parametrize("source, digits, sweeps", [
    ("1000000 * sqrt 2", 6, 12),
    ("golden 552", 45, 8),
    ("sqrt 2", 100, 16),
    ("max (sqrt 713) (cbrt 500)", 48, 12),
])
def test_interval_newton_answers_within_its_sweeps(source, digits, sweeps):
    # Quadratic convergence up to the precision's bits, then 8 bits per
    # sweep.  Sweep-paced Newton probes took 17, 19, 42 and 23 sweeps.
    out = run(sole_disjunct(source), Fraction(1, 10 ** digits),
              max_steps=sweeps + 1)
    assert isinstance(out, RealBall), out


def test_a_comparison_past_the_precision_still_decides():
    # The prop needs about 44 bits of sqrt 2 at precision 1/1000 (18):
    # past D the cut keeps gaining 8 bits per sweep (18 sweeps before).
    source = "sqrt 2 < 14142135623731/10000000000000"
    assert run(sole_disjunct(source), max_steps=13) == PropTrue()


def test_run_passes_its_precision_to_the_sweeps(monkeypatch):
    seen = []
    refine = msl.evaluator.refine_step

    def refine_step(e, round_index=0, witness_log=None):
        seen.append(_DEMAND_BITS.get())
        return refine(e, round_index, witness_log)

    monkeypatch.setattr(msl.evaluator, "refine_step", refine_step)
    for precision in (Fraction(1, 1000), Fraction(1, 10 ** 48), Fraction(3)):
        seen.clear()
        run(sole_disjunct("sqrt 2"), precision)
        assert seen and set(seen) == {reference_demand_bits(precision)}
        assert _DEMAND_BITS.get() == 0  # reset when the run ends


@settings(max_examples=60, deadline=None)
@given(RADICANDS, st.integers(min_value=-1, max_value=1),
       st.integers(min_value=1, max_value=60), st.booleans())
def test_each_endpoint_moves_only_where_its_own_probe_holds(k, shift, gap,
                                                             gap_above):
    # A cut whose predicates leave a gap next to sqrt k: points the Newton
    # step of one side picks may lie in the gap, where the other side's
    # probe fails.  Each endpoint must still move only to a point where
    # its own predicate holds, checked exactly.
    s = Fraction(round(k ** 0.5 * 64) + shift, 64)
    t = s + Fraction(gap, 1024) if gap_above else s - Fraction(gap, 1024)
    a, b = s - Fraction(1, 16), s + Fraction(1, 16)
    if gap_above:  # left: y < sqrt k; right: y > t, about sqrt k or more
        source = (f"cut y : [{a}, {b}] left (y < 0 \\/ y * y < {k}) "
                  f"right (({t}) < y)")

        def left(x):
            return x < 0 or x * x < k

        def right(x):
            return x > t
    else:  # left: y < t, about sqrt k or less; right: y > sqrt k
        source = (f"cut y : [{a}, {b}] left (y < ({t})) "
                  f"right (0 < y /\\ {k} < y * y)")

        def left(x):
            return x < t

        def right(x):
            return x > 0 and x * x > k
    d = parse_expression(source)
    for n in range(4, 10):
        lo0, hi0 = endpoints(d)
        d = refine_step(d, n)
        lo, hi = endpoints(d)
        assert lo == lo0 or left(lo), (source, n, lo)
        assert hi == hi0 or right(hi), (source, n, hi)


# --- the integer narrowing against the Fraction reference -------------------

# Cuts whose narrowing the reference must agree with, each with a value
# near its root (a bracket is drawn around it).  The workload's kinds
# take two radicands; sqrt4, max and min carry closed cuts, which enter
# the Newton step as their ranges.  Two predicates go through a
# division, one by a negative divisor; one has a quantifier in its left
# predicate, so only its right one gives a Newton step; and two
# comparisons of the last one step to the same points, probed once.
REFERENCE_CUTS = {
    "sqrt": lambda a, b: a ** (1 / 2),
    "cbrt": lambda a, b: a ** (1 / 3),
    "golden": lambda a, b: ((1 + 4 * a) ** (1 / 2) - 1) / 2,
    "sqrt4": lambda a, b: a ** (1 / 4),
    "max": lambda a, b: max(a ** (1 / 2), b ** (1 / 3)),
    "min": lambda a, b: min(a ** (1 / 2), b ** (1 / 3)),
    "cut y : [0, 4] left (y / (y + 1) < 2/3) "
    "right (y / (y + 1) > 2/3)": lambda a, b: 2,
    "cut y : [0, 5/2] left (1 / (y - 3) > (-1)) "
    "right (1 / (y - 3) < (-1))": lambda a, b: 2,
    "cut y : [0, 4] left (exists t : [0, 1], y < 1 + t) "
    "right (y > 2)": lambda a, b: 2,
    "cut y : [0, 4] left (y < 0 \\/ y * y < 2 /\\ 2 * y * y < 4) "
    "right (y > 0 /\\ y * y > 2)": lambda a, b: 2 ** (1 / 2),
}

# Precisions of the run the sweep belongs to: None outside a run.
PRECISIONS = st.one_of(st.none(), st.integers(min_value=0, max_value=60))


def reference_cut(name, a, b, warm):
    """The sole disjunct of a cut of ``REFERENCE_CUTS``; a workload kind's
    after ``warm`` sweeps, which narrow the closed cuts inside it."""
    if name not in SOURCES:
        return sole_disjunct(name)
    d = sole_disjunct(SOURCES[name].format(a, b))
    for n in range(warm):
        d = refine_step(d, n)
    return d


@settings(derandomize=True, max_examples=250, deadline=None)
@given(st.sampled_from(sorted(REFERENCE_CUTS)), RADICANDS, RADICANDS,
       st.integers(min_value=0, max_value=20),
       st.integers(min_value=0, max_value=60),
       st.integers(min_value=0, max_value=8),
       st.integers(min_value=-2, max_value=3),
       st.integers(min_value=-2, max_value=3),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=30),
       PRECISIONS)
def test_integer_narrowing_matches_the_fraction_reference(
        name, a, b, warm, twos, threes, below_root, above_root, scale, n,
        digits):
    # A bracket on the grid 2^-twos 3^-threes (trisection makes the
    # powers of 3) around the root, or just beside it, handed in
    # reduced or with a common factor: the integer narrowing gives the
    # values the Fraction one does, in a run at 10^-digits or outside one.
    d = reference_cut(name, a, b, warm)
    den = 2 ** twos * 3 ** threes
    at = int(Fraction(REFERENCE_CUTS[name](a, b)) * den)
    lo, hi = Fraction(at - below_root, den), Fraction(at + above_root, den)
    if lo >= hi:
        lo, hi = hi - Fraction(1, den), lo
    pairs = [(q.numerator * scale, q.denominator * scale) for q in (lo, hi)]
    bits = 0
    if digits is not None:
        bits = reference_demand_bits(Fraction(1, 10 ** digits))
    token = _DEMAND_BITS.set(bits)
    try:
        points = _newton_points(d, *pairs, n)
        new = _narrow(d, *pairs, n)
    finally:
        _DEMAND_BITS.reset(token)
    assert [Fraction(*p) for p in points] == \
        reference_newton_points(d, lo, hi, n, bits)
    assert tuple(Fraction(*p) for p in new) == \
        reference_narrow(d, lo, hi, n, bits)
    # The slope enclosure of each comparison that steps over the bracket,
    # or the divisor that meets 0 there.
    over = {d.var: box(XRat(lo), XRat(hi))}
    for less in _sides(d):
        code = compile_term(less)
        slope = ref = DivisionIndeterminate
        with contextlib.suppress(DivisionIndeterminate):
            slope = _slopes(code, _read(code, len(code) - 1, over, LOWER),
                            (d.var,))
            slope = slope and reference(slope[0])
        with contextlib.suppress(DivisionIndeterminate):
            ref = reference_slope(Arith("-", less.lhs, less.rhs), d.var,
                                  GInterval(lo, hi))
        assert slope == ref


@pytest.mark.parametrize("name", sorted(REFERENCE_CUTS))
def test_every_reference_cut_takes_newton_points(name):
    # The comparison above is not vacuous: each cut steps to Newton
    # points once its bracket and its closed cuts are narrow.
    d = reference_cut(name, 713, 500, 16)
    root, gap = Fraction(REFERENCE_CUTS[name](713, 500)), Fraction(1, 1 << 20)
    lo, hi = root - gap, root + gap
    pairs = [(q.numerator, q.denominator) for q in (lo, hi)]
    for digits in (None, 6, 48):
        bits = 0 if digits is None else \
            reference_demand_bits(Fraction(1, 10 ** digits))
        token = _DEMAND_BITS.set(bits)
        try:
            points = [Fraction(*p) for p in _newton_points(d, *pairs, 16)]
        finally:
            _DEMAND_BITS.reset(token)
        assert points
        assert points == reference_newton_points(d, lo, hi, 16, bits)


@pytest.mark.parametrize("lower", [
    # ``y ^ 0`` leaves the read of y in the program but folds to 1: the
    # comparison is constant in y, its slope 0.
    "y * y < 2) /\\ y ^ 0 < 2",
    # The divisor's range holds 0 in every sweep, so the quotient reads
    # as no information, though it is constant in y.
    "y * y < 2 + 0 * (1 / ((cut z : [0, 2] left z < 1 right z > 1) - 1)))",
])
def test_a_comparison_without_a_slope_gives_no_step(lower):
    # The cut answers as it does without the comparison.
    plain = "cut y : [0, 4] left (y < 0 \\/ y * y < 2) right " \
        "(y > 0 /\\ y * y > 2)"
    extra = plain.replace("y * y < 2)", lower)
    assert run(parse_expression(extra)) == run(parse_expression(plain))


def test_a_probe_tuple_reaches_a_quantifier_inside_the_predicate():
    # The probe's point tuple is copied into the environment of the
    # exists' body; the answers are those of the Fraction probes.
    source = "cut y : [0, 4] left (exists t : [0, 1], y < 1 + t) right (y > 2)"
    assert run(parse_expression(source), max_steps=10) == Diverged(10)
    (d,) = normalize(parse_expression(source))
    for n in range(10):
        expected = reference_narrow(d, *endpoints(d), n)
        d = refine_step(d, n)
        assert endpoints(d) == expected, n
    assert endpoints(d) == (Fraction(93086395, 47775744),
                            Fraction(131073, 65536))
