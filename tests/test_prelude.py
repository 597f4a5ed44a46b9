"""Shipped library and case-study programs as integration tests."""

import random
from fractions import Fraction

from msl.evaluator import BoolFF, BoolTT, PropTrue, RealBall
from msl.prelude import asset_source, load_prelude
from msl.syntax import Def

from oracles import (
    CAR_A_MAX, CAR_A_MIN, a_go, a_stop, car_guards, car_is_safe, eval_outcome,
    grid_min_abs, session_from,
)

F = Fraction

PRELUDE_SRC = asset_source("prelude.msl")


def test_load_prelude_definitions():
    items = load_prelude()
    names = [item.name for item in items if isinstance(item, Def)]
    assert names == ["tt", "ff", "bneg", "band", "bor", "max", "min"]


def test_prelude_boolean_algebra_evaluates():
    state = session_from(PRELUDE_SRC)
    assert eval_outcome(state, "is_true (band tt tt)") == PropTrue()
    assert eval_outcome(state, "bneg tt") == BoolFF()
    assert eval_outcome(state, "band tt ff") == BoolFF()
    assert eval_outcome(state, "bor ff tt") == BoolTT()
    assert eval_outcome(state, "bneg (bneg ff)") == BoolFF()


def test_prelude_max_min():
    state = session_from(PRELUDE_SRC)
    out = eval_outcome(state, "max 2 3", precision=F(1, 1000))
    assert isinstance(out, RealBall)
    assert abs(out.center - 3) <= out.radius + F(1, 1000)
    out = eval_outcome(state, "min 2 (0 - 5)", precision=F(1, 1000))
    assert abs(out.center + 5) <= out.radius + F(1, 1000)


# --- car controller ---------------------------------------------------------------

def _car_session():
    return session_from(asset_source("car.msl"))


def test_car_asset_expected_outcomes():
    # The yellow-light controller with w=10, eps=1, T=4, a_max=2,
    # a_min=-3.  At (-5, 10) only the go branch applies and its
    # acceleration is 0; at (-100, 5) only the stop branch applies,
    # giving exactly -25/198.
    state = _car_session()
    for source, value in [("accel (-5) 10", 0),
                          ("accel (-100) 5", F(-25, 198))]:
        out = eval_outcome(state, source)
        assert isinstance(out, RealBall), (source, out)
        assert abs(out.center - value) <= out.radius + F(1, 100), (source, out)


def test_car_go_branch_matches_kinematics_oracle():
    state = _car_session()
    out = eval_outcome(state, "accel (-5) 10", precision=F(1, 1000))
    assert isinstance(out, RealBall)
    assert abs(out.center - a_go(F(-5), F(10))) <= out.radius + F(1, 1000)
    # the stop branch is indeed inapplicable here
    assert a_stop(F(-5), F(10)) <= CAR_A_MIN


def test_car_stop_branch_matches_kinematics_oracle():
    state = _car_session()
    out = eval_outcome(state, "accel (-100) 5", precision=F(1, 1000))
    assert isinstance(out, RealBall)
    assert abs(out.center - a_stop(F(-100), F(5))) <= out.radius + F(1, 1000)
    assert a_go(F(-100), F(5)) >= CAR_A_MAX


def test_car_sampled_states_are_safe():
    state = _car_session()
    rng = random.Random(4242)
    for _ in range(6):
        x = F(rng.randint(-300, -9), rng.randint(1, 4))
        v = F(rng.randint(1, 95), 4)
        go_ok, stop_ok = car_guards(x, v)
        assert go_ok or stop_ok, (x, v)  # guards cover the sampled region
        out = eval_outcome(state, f"accel ({x}) ({v})", precision=F(1, 1000))
        assert isinstance(out, RealBall), (x, v, out)
        candidates = []
        if go_ok:
            candidates.append(a_go(x, v))
        if stop_ok:
            candidates.append(a_stop(x, v))
        matched = [a for a in candidates
                   if abs(out.center - a) <= out.radius + F(1, 500)]
        assert matched, (x, v, out)
        assert car_is_safe(x, v, matched[0], margin=F(1, 2))


# --- roots -------------------------------------------------------------------------

def _roots_session():
    return session_from(asset_source("roots.msl"))


def test_roots_asset_expected_outcomes():
    # Root detection at eps = 1/10: x - 1/2 has a root, x + 1 stays above
    # 1, and x*x touches 0.
    state = _roots_session()
    for source, expected in [("fun x : real => x - 1/2", BoolTT()),
                             ("fun x : real => x + 1", BoolFF()),
                             ("fun x : real => x * x", BoolTT())]:
        out = eval_outcome(state, f"roots_interval ({source})")
        assert out == expected, (source, out)


def test_roots_against_grid_oracle():
    state = _roots_session()
    eps = F(1, 10)
    battery = [
        ("fun x : real => x - 1/2", lambda x: x - F(1, 2)),
        ("fun x : real => x + 1", lambda x: x + 1),
        ("fun x : real => x * x", lambda x: x * x),
        ("fun x : real => x * x - 1/4", lambda x: x * x - F(1, 4)),
        ("fun x : real => x + 1/2", lambda x: x + F(1, 2)),
        ("fun x : real => 3 * x - 2", lambda x: 3 * x - 2),
    ]
    for source, fn in battery:
        near_root = grid_min_abs(fn, 0, 1, 128) < eps
        out = eval_outcome(state, f"roots_interval ({source})",
                           max_steps=100_000)
        expected = BoolTT() if near_root else BoolFF()
        assert out == expected, (source, out)
