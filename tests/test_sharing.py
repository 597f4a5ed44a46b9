"""One refinement sweep does each distinct piece of work once: equal
closed cuts are one object, refined once per sweep, and settled subtrees
come back by identity."""

import gc
import io
import weakref
from fractions import Fraction

import pytest

import msl.evaluator
from msl.cli import SessionState, _wrap_definitions, execute_source
from msl.evaluator import PRUNED, RealBall, refine_step, run
from msl.normalize import _CUTS, normalize
from msl.prelude import load_prelude
from msl.syntax import (
    And, Cut, Def, Forall, Lambda, Let, Or, REAL, RatLit, parse_expression,
    parse_program, pretty_print,
)

CUT_DEFS = """
let sqrt = fun a : real =>
  cut y : [0, 64] left (y < 0 \\/ y * y < a) right (y > 0 /\\ y * y > a);;
let cbrt = fun a : real =>
  cut y : [0, 16] left (y ^ 3 < a) right (y ^ 3 > a);;
let half = cut r : [0, 2]
  left (r < 1 /\\ exists y : [0, 1], 1/3 < y /\\ y < 1/2)
  right (1 < r \\/ forall y : [0, 1], y < 2/3);;
"""


def closed(source):
    """``source`` under the prelude and ``CUT_DEFS``, let-bound."""
    e = parse_expression(source)
    defs = list(load_prelude()) + list(parse_program(CUT_DEFS))
    for item in reversed(defs):
        assert isinstance(item, Def)
        e = Let(item.name, item.body, e)
    return e


def sole_disjunct(source):
    (d,) = normalize(closed(source))
    return d


def unshared(e):
    """An equal tree in which no two positions hold the same object."""
    return parse_expression(pretty_print(e))


def inner_cuts(outer):
    """The argument cuts of a prelude max/min: (left's, right's)."""
    return ([less.rhs for less in outer.left.items],
            [less.lhs for less in outer.right.items])


def test_normalize_makes_equal_closed_cuts_one_object():
    d = sole_disjunct("max (sqrt 2) (cbrt 3)")
    (a, b), (a2, b2) = inner_cuts(d)
    assert isinstance(a, Cut) and isinstance(b, Cut) and a != b
    assert a is a2 and b is b2
    out = refine_step(d)
    (a, b), (a2, b2) = inner_cuts(out)
    assert a is a2 and b is b2
    assert a.range.hi.q - a.range.lo.q < 64  # refined, not left alone


def test_normalize_returns_a_normal_closed_cut_itself():
    # A closed cut that normalize built is normal: normalizing it again,
    # as happens to every cut in a kept function's body at each of its
    # applications, gives back the same object.
    d = sole_disjunct("max (sqrt 2) (cbrt 3)")
    (again,) = normalize(d)
    assert again is d
    (a, b), _ = inner_cuts(d)
    copy = unshared(d)
    assert hash(copy) == hash(d) and hash(unshared(a)) == hash(a)
    (renormalized,) = normalize(copy)
    assert renormalized == d


def test_separate_calls_share_a_live_closed_cut():
    # ``closed`` parses afresh, so the two calls share no node of input.
    first = sole_disjunct("sqrt (sqrt 7)")
    second = sole_disjunct("sqrt (sqrt 7)")
    assert first is second
    inner = sole_disjunct("sqrt 7")
    assert inner is first.left.items[1].rhs


def test_the_cut_table_keeps_no_cut_alive():
    # A target no other test uses, so no live cut is equal to it.
    cut = sole_disjunct("sqrt (sqrt (1234567/89))")
    inner = weakref.ref(cut.left.items[1].rhs)
    first = weakref.ref(cut)
    del cut
    gc.collect()
    assert first() is None and inner() is None
    again = sole_disjunct("sqrt (sqrt (1234567/89))")
    assert again._nform == ()  # entered anew: its own normal form
    assert sole_disjunct("sqrt (sqrt (1234567/89))") is again


def test_a_dropped_closed_cut_is_freed_by_reference_counting():
    # No node refers to itself: neither the normal form kept on an
    # interned cut or on a disjunct nor a program kept on a node that
    # holds the cut.  So the cut leaves the table as soon as the run that
    # built it returns, with the cyclic collector off.
    source = ("let s = cut y : [0, 2] left y * y < 2 right y * y > 2 "
              "in s * s + s")
    gc.collect()
    before = len(_CUTS)
    gc.disable()
    try:
        assert isinstance(run(parse_expression(source)), RealBall)
        assert len(_CUTS) == before
    finally:
        gc.enable()


def test_normalize_returns_values_and_unreduced_subtrees_by_identity():
    # A let-bound value is the same object at each of its uses, and a
    # subtree with nothing to reduce comes back as itself.
    one = RatLit(Fraction(1))
    body = parse_expression("x + y * 2 + x")
    (out,) = normalize(Lambda("y", REAL, Let("x", one, body)))
    assert out.body.lhs.lhs is one and out.body.rhs is one
    assert out.body.lhs.rhs is body.lhs.rhs


def test_sweep_refines_each_shared_cut_once(monkeypatch):
    calls = []
    refine_cut = msl.evaluator._refine_cut

    def counting(e, st):
        calls.append(e)
        return refine_cut(e, st)

    monkeypatch.setattr(msl.evaluator, "_refine_cut", counting)
    refine_step(sole_disjunct("max (sqrt 2) (cbrt 3)"))
    assert len(calls) == 3  # the outer cut and its two arguments
    calls.clear()
    refine_step(sole_disjunct("sqrt (sqrt 7)"))
    assert len(calls) == 2


def test_refine_returns_settled_quantifier_body_by_identity():
    e = parse_expression(
        "forall x : [0, 1], x * (1 - x) < 1/4 /\\ (0 < x + 1 \\/ x < 2)")
    halves = refine_step(e)
    assert isinstance(halves, And) and len(halves.items) == 2
    assert isinstance(e.body, And)
    assert all(half.body is e.body for half in halves.items)


def test_refine_still_folds_connectives_that_are_not_settled():
    # A one-item or nested connective is not settled: refinement folds
    # it as mk_and/mk_or would.  Neither mode decides the body over [0,
    # 1], and it holds at both ends, so the universal splits.
    degenerate = parse_expression("forall x : [0, 1], x * (1 - x) < 1/4")
    less = degenerate.body
    for body, folded in ((And((less,)), less), (Or((less,)), less),
                         (And((less, And((less, less)))),
                          And((less, less, less)))):
        halves = refine_step(Forall("x", degenerate.range, body))
        assert [half.body for half in halves.items] == [folded, folded]


@pytest.mark.parametrize("source", [
    "max (sqrt 2) (cbrt 3)",
    "min (sqrt 5) (sqrt 5 + half)",
    "max half (half + sqrt 2)",
])
def test_sharing_never_changes_a_sweep(monkeypatch, source):
    # Wherever the sweep cap falls, a shared tree refines to the same
    # tree and logs the same witnesses as a copy with no sharing.
    d = sole_disjunct(source)
    for cap in list(range(1, 60)) + [10_000]:
        monkeypatch.setattr(msl.evaluator, "SWEEP_VISIT_CAP", cap)
        shared, plain = d, unshared(d)
        for step in range(6):
            log_shared, log_plain = [], []
            shared = refine_step(shared, step, log_shared)
            plain = refine_step(plain, step, log_plain)
            assert shared == plain, (cap, step)
            assert log_shared == log_plain, (cap, step)
            if shared is PRUNED:
                break


@pytest.mark.parametrize("source", [
    "forall x : [0, 1], x * (1 - x) < 1/4 /\\ (0 < x + 1 \\/ x < 2)",
    "exists x : [0, 1], exists y : [0, 1], "
    "x * (1 - x) + y * (1 - y) > 1/2 + 1/1000",
    "forall x : [0, 1], x * x < x + (cut r : [0, 2] left r * r < 2 "
    "right 2 < r * r) /\\ (x < 3 \\/ 2 < x * x)",
])
def test_settled_subtrees_never_change_a_sweep(monkeypatch, source):
    # Skipping a settled subtree counts its nodes as visits, so the sweep
    # cap binds where a full walk would make it bind.
    e = parse_expression(source)
    for cap in range(1, 80):
        monkeypatch.setattr(msl.evaluator, "SWEEP_VISIT_CAP", cap)
        fast = walked = e
        for step in range(4):
            fast = refine_step(fast, step)
            with monkeypatch.context() as m:
                m.setattr(msl.evaluator, "_settled_size", lambda e: 0)
                walked = refine_step(walked, step)
            assert fast == walked, (cap, step)


def test_a_kept_definition_shares_its_cut_with_equal_ones(monkeypatch):
    # ``s2`` was normalized and kept by an earlier evaluation.  In this
    # one its cut is still one object with the equal cut that ``sqrt 2``
    # builds, and a sweep refines it once, as when nothing was kept.
    state = SessionState()
    execute_source(state, '#use "prelude.msl";;' + CUT_DEFS
                   + "let s2 = sqrt 2;; s2;;", out=io.StringIO())
    assert state.definitions["s2"][0]._nform is not None
    wrapped = _wrap_definitions(state, parse_expression("max s2 (sqrt 2)"))
    calls = []
    refine_cut = msl.evaluator._refine_cut

    def counting(e, st):
        calls.append(e)
        return refine_cut(e, st)

    monkeypatch.setattr(msl.evaluator, "_refine_cut", counting)
    for e in (wrapped, unshared(wrapped)):  # kept values, and none
        (d,) = normalize(e)
        (a, b), (a2, b2) = inner_cuts(d)
        assert a == b and a is b is a2 is b2
        calls.clear()
        refine_step(d)
        assert len(calls) == 2  # the outer cut and its one argument
