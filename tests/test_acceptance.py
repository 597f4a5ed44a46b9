"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is fixed here; the oracles (bisection, exact quadratic
extrema, grids, closed-form kinematics) share no code with the
interpreter's evaluation path.
"""

import random
from fractions import Fraction

from msl.evaluator import (
    BoolFF, BoolTT, PropFalseProven, PropTrue, RealBall, run,
)
from msl.interval import GInterval, XRat
from msl.normalize import normalize
from msl.prelude import asset_source, load_prelude
from msl.syntax import (
    Arith, Exists, Forall, Less, Let, Range, RatLit, Var, parse_expression,
)

from oracles import (
    a_go, a_stop, bisect_sqrt2, car_guards, contains, eval_outcome,
    grid_min_abs, pos_at_red, session_from,
)

F = Fraction
I = GInterval


def _report(name):
    print(f"PASS: {name}")


# -----------------------------------------------------------------------------
# 1. sqrt(2) by cut at precision 10^-6


def test_criterion_1_sqrt2_cut():
    p = F(1, 10 ** 6)
    e = parse_expression(
        "cut x : [0,2] left (x < 0 \\/ x*x < 2) right (x > 0 /\\ x*x > 2)")
    out = run(e, precision=p)
    assert isinstance(out, RealBall), out
    assert out.radius < p, out.radius
    oracle = bisect_sqrt2(F(1, 10 ** 8))
    assert abs(out.center - oracle) <= 2 * p, (out.center, oracle)
    _report("criterion 1: sqrt(2) cut at 1e-6 matches bisection oracle")


# -----------------------------------------------------------------------------
# 2. Root finding at eps = 1/10


def test_criterion_2_root_finding():
    state = session_from(asset_source("roots.msl"))
    eps = F(1, 10)
    battery = [
        ("fun x : real => x - 1/2", lambda x: x - F(1, 2)),
        ("fun x : real => x + 1", lambda x: x + 1),
        ("fun x : real => x * x", lambda x: x * x),
    ]
    for source, fn in battery:
        expected = (BoolTT() if grid_min_abs(fn, 0, 1, 128) < eps
                    else BoolFF())
        out = eval_outcome(state, f"roots_interval ({source})",
                           max_steps=100_000)
        assert out == expected, (source, out)
    _report("criterion 2: roots_interval agrees with the 1/128-grid oracle")


# -----------------------------------------------------------------------------
# 3. Car controller safety on 25 sampled states


def test_criterion_3_car_controller_safety():
    state = session_from(asset_source("car.msl"))
    eps_half = F(1, 2)
    xs = [F(-80), F(-50), F(-30), F(-15), F(-3)]
    vs = [F(1), F(5), F(10), F(15), F(20)]
    states = [(x, v) for x in xs for v in vs]
    assert len(states) == 25
    for x, v in states:
        go_ok, stop_ok = car_guards(x, v)
        assert go_ok or stop_ok, f"guards fail to cover ({x}, {v})"
        out = eval_outcome(state, f"accel ({x}) ({v})",
                           precision=F(1, 1000), max_steps=100_000)
        assert isinstance(out, RealBall), (x, v, out)
        # the returned center must itself drive to a safe position
        pos = pos_at_red(x, v, out.center)
        assert pos <= -eps_half or pos >= F(10) + eps_half, \
            (x, v, out.center, pos)
        # and must match a branch whose guard the oracle says applies
        candidates = ([a_go(x, v)] if go_ok else []) + \
            ([a_stop(x, v)] if stop_ok else [])
        assert any(abs(out.center - a) <= out.radius + F(1, 500)
                   for a in candidates), (x, v, out.center)
    _report("criterion 3: 25 car states return safe accelerations "
            "(margin >= eps/2, exact rationals)")


# -----------------------------------------------------------------------------
# 4. Approximate comparison with error tolerance 1/2


def test_criterion_4_approximate_comparison():
    def cmp_at(x):
        e = parse_expression(f"mkbool (({x}) > -1/2) (({x}) < 1/2)")
        return run(e, max_steps=10_000)

    assert cmp_at("1") == BoolTT()
    assert cmp_at("-1") == BoolFF()
    for x in ("0", "1/4", "-1/4"):
        assert cmp_at(x) in (BoolTT(), BoolFF()), x
    _report("criterion 4: approximate comparison is exact at +-1 and "
            "total near 0")


# -----------------------------------------------------------------------------
# 5. Interval property suite, 10^4 instances per property


def _random_interval(rng):
    def xr():
        return F(rng.randint(-60, 60), rng.randint(1, 12))
    return I(xr(), xr())


def test_criterion_5_interval_properties():
    rng = random.Random(50_501)
    trials = 10_000

    for _ in range(trials):  # proper product == min/max endpoint oracle
        x, y = _random_interval(rng), _random_interval(rng)
        x = x if x.is_proper else x.dual()
        y = y if y.is_proper else y.dual()
        products = [x.lo.q * y.lo.q, x.lo.q * y.hi.q,
                    x.hi.q * y.lo.q, x.hi.q * y.hi.q]
        assert x * y == I(min(products), max(products))

    for _ in range(trials):  # dual homomorphism for +, -, *, ^
        x, y = _random_interval(rng), _random_interval(rng)
        k = rng.randint(0, 4)
        assert (x + y).dual() == x.dual() + y.dual()
        assert (x - y).dual() == x.dual() - y.dual()
        assert (x * y).dual() == x.dual() * y.dual()
        assert (x ** k).dual() == x.dual() ** k

    for _ in range(trials):  # soundness of sampled products
        x, y = _random_interval(rng), _random_interval(rng)
        x = x if x.is_proper else x.dual()
        y = y if y.is_proper else y.dual()

        def sample(i):
            t = F(rng.randint(0, 16), 16)
            return i.lo.q + (i.hi.q - i.lo.q) * t

        r, s = sample(x), sample(y)
        assert contains(x * y, r * s)

    _report("criterion 5: 10^4-instance interval property suite "
            "(oracle product, dual homomorphism, sampled soundness)")


# -----------------------------------------------------------------------------
# 6. Quasi-Boolean laws


def _with_prelude(expr_source):
    e = parse_expression(expr_source)
    for item in reversed(load_prelude()):
        e = Let(item.name, item.body, e)
    return e


_TOTAL_BOOLS = [
    "tt", "ff",
    "mkbool (0 < 1) (1 < 0)",
    "mkbool (1 < 0) (0 < 1)",
    "band tt ff", "bor tt ff", "bneg tt",
    "band (mkbool (0 < 1) (1 < 0)) tt",
    "bor (mkbool (1 < 0) (0 < 1)) ff",
    "band (bor tt ff) (bneg ff)",
    "mkbool (1/2 < 1) (1 < 1/2)",
    "bneg (mkbool (1/2 < 1) (1 < 1/2))",
    "band (mkbool (0 < 1/4) (1/4 < 0)) (mkbool (3 < 4) (4 < 3))",
    "bor (mkbool (2 < 1) (1 < 2)) (mkbool (5 < 6) (6 < 5))",
    "bneg (band tt (bneg ff))",
    "bor (band tt tt) ff",
    "band (bneg (mkbool (0 < 1) (1 < 0))) tt",
    "mkbool (0 < 1 /\\ 1 < 2) (2 < 1 \\/ 1 < 0)",
    "bor ff (band tt (mkbool (1 < 3) (3 < 1)))",
    "bneg (bor ff (bneg tt))",
]


def test_criterion_6_quasi_boolean_laws():
    bools = ["tt", "ff", "mkbool (0 < 1) (1 < 0)",
             "mkbool (1 < 2) (2 < 1)", "band tt ff"]
    for b in bools:  # double negation, syntactic
        assert normalize(_with_prelude(f"is_true (bneg (bneg ({b})))")) == \
            normalize(_with_prelude(f"is_true ({b})")), b
        assert normalize(_with_prelude(f"is_false (bneg (bneg ({b})))")) == \
            normalize(_with_prelude(f"is_false ({b})")), b
    for a in bools:  # both De Morgan laws, syntactic
        for b in bools:
            lhs = normalize(_with_prelude(
                f"is_true (bneg (band ({a}) ({b})))"))
            rhs = normalize(_with_prelude(
                f"is_true (bor (bneg ({a})) (bneg ({b})))"))
            assert lhs == rhs, (a, b)
            lhs = normalize(_with_prelude(
                f"is_true (bneg (bor ({a}) ({b})))"))
            rhs = normalize(_with_prelude(
                f"is_true (band (bneg ({a})) (bneg ({b})))"))
            assert lhs == rhs, (a, b)

    assert len(_TOTAL_BOOLS) == 20
    for b in _TOTAL_BOOLS:  # evaluation agreement on 20 total booleans
        direct = run(_with_prelude(b), max_steps=10_000)
        doubled = run(_with_prelude(f"bneg (bneg ({b}))"), max_steps=10_000)
        assert direct in (BoolTT(), BoolFF()), b
        assert direct == doubled, b
    _report("criterion 6: quasi-Boolean identities hold syntactically and "
            "under evaluation")


# -----------------------------------------------------------------------------
# 7. Adequacy on 100 certified quantified polynomial props


def _quad_extrema(A, B, C, lo, hi):
    """Exact min and max of A v^2 + B v + C on [lo, hi]."""
    def q(v):
        return A * v * v + B * v + C
    values = [q(lo), q(hi)]
    if A != 0:
        vertex = -B / (2 * A)
        if lo <= vertex <= hi:
            values.append(q(vertex))
    return min(values), max(values)


class _SeparableProp:
    """Q1 x in [ax,bx]. Q2 y in [ay,by].  fx(x) + fy(y) + c < 0 shape.

    Separable polynomials make the quantified truth value exactly
    computable: each quantifier takes the min (forall) or max (exists)
    of a univariate quadratic, in closed form.
    """

    def __init__(self, rng, nesting):
        self.nesting = nesting
        self.quants = [rng.choice(("forall", "exists"))
                       for _ in range(nesting)]
        self.ranges = []
        for _ in range(nesting):
            lo = F(rng.randint(-4, 2), 2)
            self.ranges.append((lo, lo + F(rng.randint(2, 4), 2)))
        self.coeffs = [(F(rng.randint(-2, 2)), F(rng.randint(-3, 3)))
                       for _ in range(nesting)]  # (quadratic, linear) per var
        self.constant = F(rng.randint(-6, 6), 2)

    def margin(self):
        """Signed distance of the quantified value of lhs below 0."""
        total = self.constant
        for (A, B), (lo, hi), quant in zip(self.coeffs, self.ranges,
                                           self.quants):
            mn, mx = _quad_extrema(A, B, F(0), lo, hi)
            # forall needs the worst case (max of lhs), exists the best
            total += mx if quant == "forall" else mn
        return -total  # > 0 means the comparison holds as required

    def to_expr(self):
        names = ["x", "y"]
        lhs = RatLit(self.constant)
        for (A, B), name in zip(self.coeffs, names):
            v = Var(name)
            term = Arith("+", Arith("*", RatLit(A), Arith("*", v, v)),
                         Arith("*", RatLit(B), v))
            lhs = Arith("+", lhs, term)
        e = Less(lhs, RatLit(F(0)))
        for quant, (lo, hi), name in reversed(
                list(zip(self.quants, self.ranges, names))):
            node = Forall if quant == "forall" else Exists
            e = node(name, Range(XRat(lo), XRat(hi)), e)
        return e


def test_criterion_7_adequacy():
    rng = random.Random(770_077)
    budget = 100_000
    want = 50
    min_margin = F(1, 4)
    true_props, false_props = [], []
    while len(true_props) < want or len(false_props) < want:
        prop = _SeparableProp(rng, nesting=rng.choice((1, 1, 2)))
        margin = prop.margin()
        if margin >= min_margin and len(true_props) < want:
            true_props.append(prop)
        elif margin <= -min_margin and len(false_props) < want:
            false_props.append(prop)
    for prop in true_props:
        out = run(prop.to_expr(), max_steps=budget)
        assert out == PropTrue(), (prop.quants, prop.coeffs, prop.ranges,
                                   prop.constant, out)
    for prop in false_props:
        out = run(prop.to_expr(), max_steps=budget)
        assert out == PropFalseProven(), (prop.quants, prop.coeffs,
                                          prop.ranges, prop.constant, out)
    _report("criterion 7: 50 certified-true and 50 certified-false "
            "quantified props all decided, none diverged")


# -----------------------------------------------------------------------------
# 8. Refinement preserves meaning across precisions


_CUT_TARGETS = [2, 3, 5, 6, 7, 10]


def _expr_with_one_cut(rng):
    k = rng.choice(_CUT_TARGETS)
    cut = parse_expression(
        f"cut x : [0,{k}] left (x < 0 \\/ x*x < {k}) "
        f"right (x > 0 /\\ x*x > {k})")
    e = cut
    for _ in range(rng.randint(1, 3)):
        c = F(rng.randint(-5, 5), rng.randint(1, 4))
        op = rng.choice("+-*")
        if rng.random() < 0.5:
            e = Arith(op, e, RatLit(c))
        else:
            e = Arith(op, RatLit(c), e)
    return e


def test_criterion_8_precision_refinement_consistency():
    rng = random.Random(880_088)
    p = F(1, 50)
    for _ in range(100):
        e = _expr_with_one_cut(rng)
        coarse = run(e, precision=p)
        fine = run(e, precision=p / 10)
        assert isinstance(coarse, RealBall) and isinstance(fine, RealBall)
        c_lo, c_hi = coarse.center - coarse.radius, coarse.center + coarse.radius
        f_lo, f_hi = fine.center - fine.radius, fine.center + fine.radius
        assert max(c_lo, f_lo) <= min(c_hi, f_hi), e  # balls intersect
        assert c_lo - p <= f_lo and f_hi <= c_hi + p, e  # fine within widened
    _report("criterion 8: balls at p and p/10 intersect and nest within "
            "the widened coarse ball")
