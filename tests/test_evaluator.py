"""Approximation, refinement, and run-loop behavior."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import msl.evaluator
from msl.evaluator import (
    BoolFF, BoolTT, ClosedEnv, Diverged, FunctionValue, LOWER, PRUNED,
    PropFalseProven, PropTrue, RealBall, TupleOf, UPPER, evaluate_step,
    prop_approx, real_approx, refine_step, run,
)
from msl.interval import ENTIRE, GInterval, XRat
from msl.syntax import (
    And, Arith, BOOL, Exists, FalseLit, Forall, Less, Or, PROP,
    ProductTy, Range, RatLit, REAL, TrueLit, Var, parse_expression,
)

F = Fraction
I = GInterval


def pe(source):
    return parse_expression(source)


SQRT2_CUT = "cut x : [0,2] left (x < 0 \\/ x*x < 2) right (x > 0 /\\ x*x > 2)"


# --- real_approx ----------------------------------------------------------------

def test_real_approx_point_literal():
    assert real_approx(pe("3/2"), {}, LOWER) == I(F(3, 2), F(3, 2))


def test_real_approx_cut_uses_its_range():
    e = pe(SQRT2_CUT)
    assert real_approx(e, {}, LOWER) == I(0, 2)
    assert real_approx(e, {}, UPPER) == I(2, 0)


def test_real_approx_variables_and_arith():
    e = pe("x + x")
    assert real_approx(e, {"x": I(1, 2)}, LOWER) == I(2, 4)
    assert real_approx(pe("x * x"), {"x": I(-1, 2)}, LOWER) == I(-2, 4)
    assert real_approx(pe("x ^ 2"), {"x": I(-1, 2)}, LOWER) == I(0, 4)


def test_real_approx_division_indeterminate_gives_no_information():
    e = pe("1 / x")
    assert real_approx(e, {"x": I(-1, 1)}, LOWER) == ENTIRE
    assert real_approx(e, {"x": I(-1, 1)}, UPPER) == ENTIRE.dual()


def test_real_approx_restriction():
    assert real_approx(pe("(1 < 2) ~> 5"), {}, LOWER) == I(5, 5)
    assert real_approx(pe("(2 < 1) ~> 5"), {}, LOWER) == ENTIRE
    assert real_approx(pe("(2 < 1) ~> 5"), {}, UPPER) == ENTIRE.dual()


# --- prop_approx ----------------------------------------------------------------

def test_prop_approx_point_comparison():
    assert prop_approx(pe("1 < 2"), {}, LOWER) is True
    assert prop_approx(pe("2 < 1"), {}, LOWER) is False


def test_prop_approx_forall_spec_example():
    e = pe("forall x : [0,2], x < 3")
    assert prop_approx(e, {}, LOWER) is True
    # independent check on a 1/16 grid
    assert all(F(k, 16) < 3 for k in range(0, 33))


def test_prop_approx_exists_witness():
    e = pe("exists x : [0,2], x < 1")
    assert prop_approx(e, {}, LOWER) is True   # witness at the left end
    assert prop_approx(e, {}, UPPER) is True


def test_prop_approx_exists_upper_refutes_over_whole_range():
    e = pe("exists x : [0,1], x + 1 < 1/10")
    assert prop_approx(e, {}, LOWER) is False
    assert prop_approx(e, {}, UPPER) is False  # min over [0,1] is 1


def test_prop_approx_repeated_variable_is_not_overclaimed():
    # min of x*x - x on [0,2] is -1/4, so this existential is false.
    e = pe("exists x : [0,2], x*x - x < -9/10")
    assert prop_approx(e, {}, LOWER) is False


def test_prop_approx_connectives():
    assert prop_approx(pe("True /\\ 1 < 2"), {}, LOWER) is True
    assert prop_approx(pe("False \\/ 1 < 2"), {}, LOWER) is True
    assert prop_approx(pe("False \\/ 2 < 1"), {}, LOWER) is False


def _random_quantified_prop(rng, depth=2):
    vars_in_scope = []

    def poly(scope):
        # small polynomial over the scoped variables
        terms = []
        for _ in range(rng.randint(1, 3)):
            coef = RatLit(F(rng.randint(-3, 3)))
            term = coef
            if scope and rng.random() < 0.8:
                v = Var(rng.choice(scope))
                term = Arith("*", coef, v if rng.random() < 0.5
                             else Arith("*", v, v))
            terms.append(term)
        e = terms[0]
        for t in terms[1:]:
            e = Arith(rng.choice("+-"), e, t)
        return e

    def build(depth, scope):
        if depth == 0 or rng.random() < 0.3:
            lhs, rhs = poly(scope), poly(scope)
            return Less(lhs, rhs)
        roll = rng.random()
        if roll < 0.4:
            name = f"q{len(scope)}"
            a = F(rng.randint(-2, 1))
            rng_hi = a + F(rng.randint(1, 3))
            from msl.syntax import Range
            node = Exists if rng.random() < 0.5 else Forall
            return node(name, Range(XRat(a), XRat(rng_hi)),
                        build(depth - 1, scope + [name]))
        items = tuple(build(depth - 1, scope) for _ in range(2))
        return And(items) if roll < 0.7 else Or(items)

    return build(depth, vars_in_scope)


def test_approximant_ordering_lower_implies_upper():
    rng = random.Random(1130)
    for _ in range(300):
        e = _random_quantified_prop(rng)
        lower = prop_approx(e, {}, LOWER)
        upper = prop_approx(e, {}, UPPER)
        assert not (lower and not upper), e


# --- refine_step -----------------------------------------------------------------

def test_refine_unwraps_proven_guard():
    got = refine_step(pe("True ~> (1 + 1)"))
    assert got == pe("1 + 1")


def test_refine_prunes_refuted_guard():
    assert refine_step(pe("(2 < 1) ~> (1 + 1)")) is PRUNED


def test_refine_exists_proves_immediately_with_left_witness():
    got = refine_step(pe("exists x : [0,2], x < 1"))
    assert got == TrueLit()


def test_refine_forall_refutes_after_one_split():
    e = pe("forall x : [0,2], x < 1")
    first = refine_step(e)
    assert isinstance(first, And)
    second = refine_step(first)
    assert second == FalseLit()


def test_refine_cut_trisection_narrows_toward_sqrt2():
    e = pe(SQRT2_CUT)
    widths = []
    for step in range(40):
        rng = e.range
        widths.append(rng.hi.q - rng.lo.q)
        nxt = refine_step(e, step)
        # monotone: the new range is contained in the old one
        assert rng.lo <= nxt.range.lo and nxt.range.hi <= rng.hi
        e = nxt
    assert widths[0] == 2
    assert e.range.hi.q - e.range.lo.q < F(1, 1000)
    assert e.range.lo.q ** 2 < 2 < e.range.hi.q ** 2


def test_refine_cut_unbounded_range_finds_finite_bounds():
    e = pe("cut z : (-inf, inf) left (z < 1 \\/ z < 5) right (z > 1 /\\ z > 5)")
    for step in range(16):
        e = refine_step(e, step)
    assert e.range.lo.is_finite and e.range.hi.is_finite
    assert e.range.lo.q <= 5 <= e.range.hi.q


UNDECIDED = f"({SQRT2_CUT}) < 3/2"  # needs cut narrowing before it decides


def test_refine_keeps_and_or_simplification():
    # proven conjuncts are dropped; the undecided one is refined in place
    got = refine_step(pe(f"(1 < 2) /\\ ({UNDECIDED})"))
    assert isinstance(got, Less)
    assert got.lhs.range.hi.q - got.lhs.range.lo.q < 2
    # refuted disjuncts are dropped
    got = refine_step(pe(f"(2 < 1) \\/ ({UNDECIDED})"))
    assert isinstance(got, Less)


def test_refine_mkbool_componentwise():
    got = refine_step(pe(f"mkbool (1 < 2) ({UNDECIDED})"))
    assert got.if_true == TrueLit()
    assert isinstance(got.if_false, Less)
    got = refine_step(pe("mkbool (2 < 1) (1 < 2)"))
    assert got.if_false == TrueLit()
    assert refine_step(pe("mkbool (2 < 1) (3 < 2)")) is PRUNED


def test_refine_witness_log():
    log = []
    refine_step(pe("exists x : [0,2], x < 1"), 0, log)
    assert log == [("x", F(0), F(2))]


# --- the per-sweep memo of closed approximants -------------------------------------

SMALL = st.fractions(min_value=F(-3), max_value=F(3), max_denominator=4)


def closed_props(data, names=(), depth=3):
    """A prop over the quantified ``names``; And/Or items may share one
    subtree object, so a memo sees the same node twice."""
    def real(d):
        kind = data.draw(st.sampled_from(
            ("lit", "var", "arith") if d > 0 else ("lit", "var")))
        if kind == "var" and names:
            return Var(data.draw(st.sampled_from(names)))
        if kind == "arith":
            return Arith(data.draw(st.sampled_from("+-*")), real(d - 1),
                         real(d - 1))
        return RatLit(data.draw(SMALL))

    kind = data.draw(st.sampled_from(
        ("less", "and", "or", "forall", "exists") if depth > 0 else ("less",)))
    if kind == "less":
        return Less(real(2), real(2))
    if kind in ("and", "or"):
        first = closed_props(data, names, depth - 1)
        second = first if data.draw(st.booleans()) \
            else closed_props(data, names, depth - 1)
        return (And if kind == "and" else Or)((first, second, first))
    lo = data.draw(SMALL)
    hi = lo + data.draw(SMALL.map(abs))
    var = f"x{len(names)}"
    node = Forall if kind == "forall" else Exists
    return node(var, Range(XRat(lo), XRat(hi)),
                closed_props(data, names + (var,), depth - 1))


@given(st.data())
def test_memoized_approximants_match_plain_ones(data):
    e = closed_props(data)
    env = ClosedEnv()
    for mode in (LOWER, UPPER, LOWER, UPPER):  # the second round hits
        assert prop_approx(e, env, mode) == prop_approx(e, {}, mode)
    assert env.memo


def test_sweep_decides_each_closed_node_once(monkeypatch):
    seen = []
    plain = msl.evaluator._prop_approx

    def counting(e, env, mode):
        if type(env) is ClosedEnv:
            seen.append((id(e), mode))
        return plain(e, env, mode)

    monkeypatch.setattr(msl.evaluator, "_prop_approx", counting)
    e = pe(f"((1 < 2) /\\ ({UNDECIDED})) /\\ ((3 < 2) \\/ ({UNDECIDED}))")
    refine_step(e)
    assert seen and len(seen) == len(set(seen))


def test_approximants_keep_their_three_argument_shape(monkeypatch):
    # Callers that wrap prop_approx/real_approx as (e, env, mode), such
    # as perfbench's tracer, see every internal call go through them.
    source = (f"(exists x : [0,2], x * x < 1) /\\ ({SQRT2_CUT}) < 3/2 "
              "/\\ (forall y : [0,1], y < 2)")
    expected_log, log = [], []
    expected = run(pe(source), witness_log=expected_log)
    for name in ("prop_approx", "real_approx"):
        fn = getattr(msl.evaluator, name)
        monkeypatch.setattr(msl.evaluator, name,
                            lambda e, env, mode, fn=fn: fn(e, env, mode))
    assert run(pe(source), witness_log=log) == expected == PropTrue()
    assert log == expected_log


# --- evaluate_step ----------------------------------------------------------------

def test_evaluate_step_spec_examples():
    assert evaluate_step(TrueLit(), F(1), PROP) == PropTrue()
    assert evaluate_step(pe("mkbool True False"), F(1), BOOL) == BoolTT()
    assert evaluate_step(pe("mkbool False True"), F(1), BOOL) == BoolFF()
    assert evaluate_step(pe("1 + 1"), F(1, 100), REAL) == RealBall(F(2), F(0))


def test_evaluate_step_not_yet():
    assert evaluate_step(pe(SQRT2_CUT), F(1, 100), REAL) is None
    assert evaluate_step(pe("mkbool (1 < 2) False"), F(1), BOOL) is None


def test_evaluate_step_tuple():
    ty = ProductTy((REAL, PROP))
    got = evaluate_step(pe("(1 + 1, True)"), F(1, 10), ty)
    assert got == TupleOf((RealBall(F(2), F(0)), PropTrue()))
    assert evaluate_step(pe(f"(1 + 1, 2 < 1)"), F(1, 10), ty) is None


# --- run --------------------------------------------------------------------------

def test_run_sqrt2_cut():
    out = run(pe(SQRT2_CUT), precision=F(1, 1000))
    assert isinstance(out, RealBall)
    assert out.radius < F(1, 1000)
    lo, hi = out.center - out.radius, out.center + out.radius
    assert lo * lo < 2 < hi * hi


def test_run_nondeterministic_join_answers_first_disjunct():
    out = run(pe("0 || 1"), precision=F(1, 100))
    assert out == RealBall(F(0), F(0))
    # determinism: same expression, same answer
    assert run(pe("0 || 1"), precision=F(1, 100)) == out


def test_run_approximate_comparison():
    eps = F(1, 2)
    def cmp_at(x):
        return run(pe(f"mkbool (({x}) > -1/2) (({x}) < 1/2)"),
                   precision=F(1, 100), max_steps=10_000)
    assert cmp_at(1) == BoolTT()
    assert cmp_at(-1) == BoolFF()
    assert cmp_at(0) in (BoolTT(), BoolFF())
    assert cmp_at(F(1, 4)) in (BoolTT(), BoolFF())
    assert cmp_at(F(-1, 4)) in (BoolTT(), BoolFF())


def test_run_props():
    assert run(pe("1 < 2")) == PropTrue()
    assert run(pe("2 < 1")) == PropFalseProven()
    assert run(pe("exists x : [0,2], x < 1")) == PropTrue()
    assert run(pe("forall x : [0,2], x < 1")) == PropFalseProven()
    assert run(pe("forall x : [0,2], x < 3")) == PropTrue()


def test_run_divergence_is_a_normal_outcome():
    out = run(pe("cut x : (-inf, inf) left False right False"), max_steps=40)
    assert out == Diverged(40)
    out = run(pe("(2 < 1) ~> 1"), max_steps=40)
    assert isinstance(out, Diverged)
    assert out.steps == 1  # pruned immediately; the join is empty


SQRT_FN = ("fun a : real => cut y : [0, 64] left (y < 0 \\/ y * y < a) "
           "right (y > 0 /\\ y * y > a)")


def test_run_nested_cuts_binding_the_same_name():
    # The inner cut binds y while the outer one's y is in scope.
    out = run(pe(f"let sqrt = {SQRT_FN} in sqrt (sqrt 16)"),
              precision=F(1, 1000), max_steps=300)
    assert isinstance(out, RealBall)
    assert out.radius < F(1, 1000)
    assert out.center - out.radius <= 2 <= out.center + out.radius


@pytest.mark.parametrize("target", ["2 ^ 300", "-(2 ^ 300)"])
def test_run_unbounded_cut_beyond_two_to_the_256(target):
    value = 2 ** 300 if target.startswith("2") else -2 ** 300
    out = run(pe(f"cut x : (-inf, inf) left (x < {target}) "
                 f"right (x > {target})"),
              precision=F(1, 10 ** 6), max_steps=1000)
    assert isinstance(out, RealBall)
    assert out.radius < F(1, 10 ** 6)
    assert out.center - out.radius <= value <= out.center + out.radius


def test_run_join_prefers_defined_branch():
    out = run(pe("((2 < 1) ~> 1) || 5"), precision=F(1, 100))
    assert out == RealBall(F(5), F(0))


def test_run_function_value():
    assert run(pe("fun x : real => x")) == FunctionValue()


def test_run_tuple_outcome():
    out = run(pe("(1 + 1, 1 < 2)"), precision=F(1, 100))
    assert out == TupleOf((RealBall(F(2), F(0)), PropTrue()))


def test_run_tuple_with_proven_false_component_is_reported():
    out = run(pe("(1, 2 < 1)"), precision=F(1, 100), max_steps=200)
    assert out == TupleOf((RealBall(F(1), F(0)), PropFalseProven()))


def test_run_soundness_against_rational_oracle():
    rng = random.Random(77)

    def arith(depth):
        if depth == 0:
            return RatLit(F(rng.randint(-9, 9), rng.randint(1, 9)))
        op = rng.choice("+-*/")
        return Arith(op, arith(depth - 1), arith(depth - 1))

    def oracle(e):
        if isinstance(e, RatLit):
            return e.value
        lhs, rhs = oracle(e.lhs), oracle(e.rhs)
        return {"+": lhs + rhs, "-": lhs - rhs,
                "*": lhs * rhs, "/": lhs / rhs if rhs else None}[e.op]

    checked = 0
    while checked < 60:
        e = arith(3)
        try:
            value = oracle(e)
        except (ZeroDivisionError, TypeError):
            continue
        if value is None:
            continue
        out = run(e, precision=F(1, 1000))
        assert isinstance(out, RealBall)
        assert out.center - out.radius <= value <= out.center + out.radius
        checked += 1


def test_run_refinement_preserves_meaning_across_precisions():
    e = pe(SQRT2_CUT)
    coarse = run(e, precision=F(1, 10))
    fine = run(e, precision=F(1, 1000))
    # both contain sqrt(2), so they intersect
    assert max(coarse.center - coarse.radius, fine.center - fine.radius) <= \
        min(coarse.center + coarse.radius, fine.center + fine.radius)


def test_run_rejects_bad_precision():
    with pytest.raises(ValueError):
        run(pe("1"), precision=F(0))
