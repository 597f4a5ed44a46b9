"""Differential tests against mpmath: real results at 1e-30 and 1e-100.

They complement the exact rational oracles with irrational targets that
nest cuts: a root of a root, ``max``/``min`` of two cuts, and a car
acceleration computed through the prelude's ``max``.  At 1e-100 a cut
needs about 350 sweeps of trisection, but about 40 with Newton-chosen
probe points.
"""

from fractions import Fraction

import pytest

from msl.evaluator import RealBall, run
from msl.prelude import asset_source, load_prelude
from msl.syntax import Def, Let, parse_expression, parse_program

mpmath = pytest.importorskip("mpmath")

PRECISION = Fraction(1, 10 ** 30)
FINE = Fraction(1, 10 ** 100)

CUT_DEFS = """
let sqrt = fun a : real =>
  cut y : [0, 64] left (y < 0 \\/ y * y < a) right (y > 0 /\\ y * y > a);;
let cbrt = fun a : real =>
  cut y : [0, 16] left (y ^ 3 < a) right (y ^ 3 > a);;
let sqrt_of = fun a : real =>
  cut r : [0, 64] left (r < 0 \\/ r * r < a) right (r > 0 /\\ r * r > a);;
"""


def definitions(source):
    return [item for item in parse_program(source) if isinstance(item, Def)]


def evaluate(expr, *sources, precision=PRECISION):
    """Run ``expr`` under the prelude and the definitions of ``sources``."""
    e = parse_expression(expr)
    defs = list(load_prelude())
    for source in sources:
        defs += definitions(source)
    for item in reversed(defs):
        e = Let(item.name, item.body, e)
    return run(e, precision=precision)


def mp(q):
    return mpmath.mpf(q.numerator) / q.denominator


def assert_ball_holds(outcome, truth, precision=PRECISION):
    """The ball is within the precision and contains ``truth``."""
    assert isinstance(outcome, RealBall)
    assert 2 * outcome.radius < precision
    digits = len(str(precision.denominator)) - 1
    with mpmath.workdps(2 * digits):
        assert abs(mp(outcome.center) - truth()) <= mp(outcome.radius)


@pytest.mark.parametrize("k", [2, 7, 350])
def test_root_of_a_root(k):
    outcome = evaluate(f"sqrt_of (sqrt {k})", CUT_DEFS)
    assert_ball_holds(outcome, lambda: mpmath.root(k, 4))


@pytest.mark.parametrize("a,b", [(2, 3), (10, 20)])
def test_max_and_min_of_two_cuts(a, b):
    def sqrt_a():
        return mpmath.sqrt(a)

    def cbrt_b():
        return mpmath.cbrt(b)

    assert_ball_holds(evaluate(f"max (sqrt {a}) (cbrt {b})", CUT_DEFS),
                      lambda: max(sqrt_a(), cbrt_b()))
    assert_ball_holds(evaluate(f"min (sqrt {a}) (cbrt {b})", CUT_DEFS),
                      lambda: min(sqrt_a(), cbrt_b()))


def test_car_acceleration_through_max():
    # At x = -2, v = sqrt 10 only the go branch applies (stopping would
    # need -5 < a_min = -3): a_go = max 0 ((13 - 4 sqrt 10) / 8).
    outcome = evaluate("accel (-2) (sqrt 10)", CUT_DEFS,
                       asset_source("car.msl"))
    assert_ball_holds(outcome, lambda: (13 - 4 * mpmath.sqrt(10)) / 8)


FINE_CASES = [
    ("sqrt 2", lambda: mpmath.sqrt(2)),
    ("cbrt 7", lambda: mpmath.cbrt(7)),
    ("sqrt_of (sqrt 5)", lambda: mpmath.root(5, 4)),
    ("max (sqrt 2) (cbrt 3)", lambda: max(mpmath.sqrt(2), mpmath.cbrt(3))),
    ("min (sqrt 2) (cbrt 3)", lambda: min(mpmath.sqrt(2), mpmath.cbrt(3))),
    ("max (sqrt 713) (cbrt 500)",
     lambda: max(mpmath.sqrt(713), mpmath.cbrt(500))),
    ("min (sqrt 713) (cbrt 500)",
     lambda: min(mpmath.sqrt(713), mpmath.cbrt(500))),
]


@pytest.mark.parametrize("expr,truth", FINE_CASES,
                         ids=[expr for expr, _ in FINE_CASES])
def test_cuts_at_1e_100(expr, truth):
    outcome = evaluate(expr, CUT_DEFS, precision=FINE)
    assert_ball_holds(outcome, truth, FINE)
