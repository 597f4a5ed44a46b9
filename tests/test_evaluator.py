"""Approximation, refinement, and run-loop behavior."""

import importlib
import io
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import msl.cli
import msl.evaluator
from msl.evaluator import (
    BoolFF, BoolTT, Diverged, FunctionValue, LOWER, PRUNED, PropFalseProven,
    PropTrue, RealBall, TupleOf, UPPER, _at_point, _read, _slopes,
    compile_term, evaluate_step, prop_approx, real_approx, refine_step, run,
)
from msl.interval import ENTIRE, GInterval, POS_INF, XRat
from msl.syntax import (
    And, Arith, BOOL, Exists, FalseLit, Forall, Less, Or, PROP, Pow,
    ProductTy, Range, RatLit, REAL, Restrict, TrueLit, Var, parse_expression,
)
from oracles import (
    corner_range, point_gradient, reference, reference_exists,
    reference_forall, reference_real_approx,
)
from test_interval import any_intervals, polynomial_terms, rationals

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


def test_a_division_of_two_constants_folds_unless_the_divisor_is_0():
    # 1/10^6 is the constant 1/1000000, so the comparison stays a
    # polynomial: the centred and corner tests decide it in one sweep.
    code = compile_term(pe("x * (1 - x) < 1/4 + 1/10^6"))
    assert [op for op, _, _ in code if op == "/"] == []
    e = pe("forall x : [0, 1], x * (1 - x) < 1/4 + 1/10^6")
    assert run(e, max_steps=3) == PropTrue()
    # A constant divisor 0 still reads as no information.
    e = pe("1 / (1 - 1)")
    assert [op for op, _, _ in compile_term(e)][-1] == "/"
    assert real_approx(e, {}, LOWER) == ENTIRE
    assert real_approx(e, {}, UPPER) == ENTIRE.dual()


def test_real_approx_restriction():
    assert real_approx(pe("(1 < 2) ~> 5"), {}, LOWER) == I(5, 5)
    assert real_approx(pe("(2 < 1) ~> 5"), {}, LOWER) == ENTIRE
    assert real_approx(pe("(2 < 1) ~> 5"), {}, UPPER) == ENTIRE.dual()


def test_one_instruction_programs_return_a_ginterval():
    # A variable bound to a GInterval or to an integer tuple, reduced or
    # not, and a literal all come back as a GInterval of their value.
    box = I(F(1, 3), F(1, 2))
    for mode in (LOWER, UPPER):
        for binding in (box, (1, 3, 1, 2), (2, 6, 3, 6)):
            got = real_approx(Var("x"), {"x": binding}, mode)
            assert type(got) is GInterval and got == box
        got = real_approx(pe("3/2"), {}, mode)
        assert type(got) is GInterval and got == I(F(3, 2), F(3, 2))


def arithmetic_terms():
    """Terms over ``+ - * / ^`` (``*`` the most often), literals, the
    variables x and y, three cuts (one unbounded) and restrictions under
    a literal guard."""
    cuts = st.sampled_from((pe(SQRT2_CUT), pe("cut z : [-1, 1/2] left "
                                              "z < 0 right 0 < z"),
                            pe("cut z : (-inf, 1] left z < 1 right 1 < z")))
    leaves = st.one_of(st.sampled_from((Var("x"), Var("y"))), cuts,
                       rationals().map(RatLit))
    return st.recursive(leaves, lambda kids: st.one_of(
        st.builds(Arith, st.sampled_from("+-*/"), kids, kids),
        st.builds(Arith, st.just("*"), kids, kids),
        st.builds(Pow, kids, st.integers(min_value=0, max_value=3)),
        st.builds(Restrict, st.sampled_from((TrueLit(), FalseLit())),
                  kids)), max_leaves=10)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(arithmetic_terms(), any_intervals(), any_intervals())
def test_real_approx_matches_recursive_reference(t, x, y):
    # x and y are drawn proper, dual, points and unbounded alike.
    env = {"x": x, "y": y}
    for mode in (LOWER, UPPER):
        assert reference(real_approx(t, env, mode)) == \
            reference_real_approx(t, env, mode)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(arithmetic_terms(), arithmetic_terms(), any_intervals(),
       any_intervals())
def test_naive_comparison_test_is_lhs_hi_below_rhs_lo(lhs, rhs, x, y):
    # It reads the operands of the final subtraction of lhs - rhs.
    env = {"x": x, "y": y}
    for mode in (LOWER, UPPER):
        expected = reference_real_approx(lhs, env, mode).hi < \
            reference_real_approx(rhs, env, mode).lo
        assert prop_approx(Less(lhs, rhs), env, mode) is expected


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


# Props with y free, read by each reader of a binding: the naive and the
# centred test of comparisons (one through ``/``), a restriction guard,
# and quantifiers that copy the environment into their body's, one of
# them the left predicate of a cut.
TUPLE_PROPS = tuple(pe(source) for source in (
    "y * y < 2",
    "y / (y + 1) < 2/3 \\/ (y - 1) ^ 3 > 1/8",
    "(y > 1 ~> y * y) < 3",
    "forall t : [0, 1], y * t < 1 /\\ t < y + 1",
)) + (pe("cut y : [0, 4] left (exists t : [0, 1], y < 1 + t) "
         "right (y > 2)").left,)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(TUPLE_PROPS), rationals(), rationals(), st.booleans(),
       st.integers(min_value=1, max_value=4), st.sampled_from((LOWER, UPPER)))
def test_a_tuple_binding_decides_as_its_ginterval(prop, p, q, point, k, mode):
    # A cut probe binds its variable to (n, d, n, d) and a quantifier to
    # its box's integer tuple: every answer is that of the GInterval.
    if point:
        q = p
    binding = (p.numerator * k, p.denominator * k, q.numerator, q.denominator)
    assert prop_approx(prop, {"y": binding}, mode) is \
        prop_approx(prop, {"y": I(p, q)}, mode)


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
    # The body holds at both ends and fails at the midpoint 1 alone, so
    # the left half refutes it there, in the sweep after the split.
    e = pe("forall x : [0,2], (x - 1) * (x - 1) > 0")
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


def test_refine_cut_half_bounded_ranges_find_the_missing_bound():
    # The first candidates for the missing bound lie past the finite one,
    # so they step out from it.
    for source, root in (("cut y : (-inf, -10) left y < -20 right y > -20",
                          -20),
                         ("cut y : (10, inf) left y < 20 right y > 20", 20)):
        assert run(pe(source)) == RealBall(F(root), F(1, 262144))


def test_a_pruned_subterm_makes_its_enclosing_node_bottom():
    # A refuted guard inside the body of a restriction whose own guard is
    # undecided, inside a mkbool component, a quantifier body and a cut
    # predicate.  A prop whose every disjunct is pruned is proven false;
    # any other value is undefined.
    dead = "((2 < 1) ~> 5)"
    for source, outcome in (
            (f"({UNDECIDED}) ~> {dead}", Diverged(1)),
            (f"mkbool ({dead} < 6) (1 < 0)", Diverged(1)),
            ("exists x : [0,1], ((2 < 1) ~> x) < 1", PropFalseProven()),
            ("cut y : [0, 2] left ((2 < 1) ~> y) < 1 right y > 1",
             Diverged(1))):
        assert refine_step(pe(source)) is PRUNED, source
        assert run(pe(source), max_steps=20) == outcome, source


def test_run_drops_a_refuted_disjunct_from_a_prop_join():
    # Kept, the refuted 2 < 1 would hold the join back from the proof of
    # falsity that the other disjunct, left alone, supplies.
    source = f"(2 < 1) || ({SQRT2_CUT}) > 3/2"
    assert run(pe(source), max_steps=100) == PropFalseProven()


def test_a_cut_with_a_free_variable_is_refined_but_never_narrowed():
    # The cut reads the quantified x, so no probe binds its y alone: each
    # sweep splits the forall and keeps every copy of the cut at [0, 3],
    # where sqrt x < 2 is never decided.  Narrowing open cuts would
    # change this outcome.
    source = ("forall x : [1, 2], "
              "(cut y : [0, 3] left y * y < x right y * y > x) < 2")
    assert run(pe(source), max_steps=12) == Diverged(12)


SUPREMUM = ("cut y : [0, 1] left (exists x : [0, 1], y < x * (1 - x)) "
            "right (forall x : [0, 1], x * (1 - x) < y)")


def test_a_cut_over_quantified_predicates_finds_a_supremum():
    # sup x (1 - x) over [0, 1] is 1/4.  A probe binds y to a point and
    # the forall's x to boxes, where only the centred test decides a
    # comparison near the maximum; without it no answer came in 160
    # steps.
    out = run(pe(SUPREMUM), precision=F(1, 100000), max_steps=20)
    assert out == RealBall(F(3587254, 14348907), F(256, 129140163))
    assert abs(out.center - F(1, 4)) <= out.radius


def test_a_closed_guard_that_evaluation_reads_is_kept():
    e = pe(f"({UNDECIDED}) ~> 1")
    assert evaluate_step(e, F(1, 1000), REAL) is None
    assert e.guard._lower is False
    e = pe("1 < 2 /\\ 2 < 3 ~> 1")
    assert evaluate_step(e, F(1, 1000), REAL) == RealBall(F(1), F(0))
    assert e.guard._lower is True


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


def test_a_refuted_guard_ends_the_sweep_of_its_disjunct():
    # The disjunct is undefined once its first component is: the
    # existential after it is not refined, and logs no witness.
    log = []
    e = pe("mkbool (((2 < 1) ~> 5) < 6) (exists x : [0, 1], x < 1)")
    assert refine_step(e, 0, log) is PRUNED
    assert log == []


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
    # An environment that binds a name the prop does not read keeps
    # nothing on the nodes, as a quantifier body's does.
    e = closed_props(data)
    for mode in (LOWER, UPPER, LOWER, UPPER):  # the second round hits
        memoized = prop_approx(e, {}, mode)
        assert memoized == prop_approx(e, {"_": ENTIRE}, mode)
    assert e._lower is not None and e._upper is not None


def test_sweep_decides_each_closed_node_once(monkeypatch):
    seen = []
    plain = msl.evaluator._prop_approx

    def counting(e, env, mode):
        if not env:
            seen.append((id(e), mode))
        return plain(e, env, mode)

    monkeypatch.setattr(msl.evaluator, "_prop_approx", counting)
    e = pe(f"((1 < 2) /\\ ({UNDECIDED})) /\\ ((3 < 2) \\/ ({UNDECIDED}))")
    refine_step(e)
    assert seen and len(seen) == len(set(seen))


def count_compilations(monkeypatch):
    """The reprs of the comparisons whose programs are compiled from now
    on, one entry per compilation.  A repr keeps no node alive, so no
    closed cut outlives its run to be interned in the next."""
    compiled = []
    emit = msl.evaluator._emit

    def counting(t, code):
        if isinstance(t, Less):
            compiled.append(repr(t))
        return emit(t, code)

    monkeypatch.setattr(msl.evaluator, "_emit", counting)
    return compiled


def test_approximants_keep_their_three_argument_shape(monkeypatch):
    # Callers that wrap prop_approx/real_approx as (e, env, mode) and
    # refine_step/evaluate_step as below, such as perfbench's tracer, see
    # every call of them go through the wrappers; inside a program an
    # opaque leaf is read by the internal ``_value`` instead.  A compiled
    # comparison is kept on its node, so each is compiled once, wrapped
    # or not.
    source = (f"(exists x : [0,2], x * x < 1) /\\ ({SQRT2_CUT}) < 3/2 "
              "/\\ (forall y : [0,1], y < 2) "
              "/\\ (forall z : [0,1], z * (1 - z) < 1/4 + 1/1000000)")
    compiled = count_compilations(monkeypatch)
    expected_log, log = [], []
    expected = run(pe(source), max_steps=60, witness_log=expected_log)
    expected_compiled, compiled[:] = list(compiled), []
    for name in ("prop_approx", "real_approx"):
        fn = getattr(msl.evaluator, name)
        monkeypatch.setattr(msl.evaluator, name,
                            lambda e, env, mode, fn=fn: fn(e, env, mode))
    refine, evaluate = msl.evaluator.refine_step, msl.evaluator.evaluate_step

    def refine_step(e, round_index=0, witness_log=None):
        return refine(e, round_index, witness_log)

    def evaluate_step(e, precision, ty):
        return evaluate(e, precision, ty)

    monkeypatch.setattr(msl.evaluator, "refine_step", refine_step)
    monkeypatch.setattr(msl.evaluator, "evaluate_step", evaluate_step)
    out = run(pe(source), max_steps=60, witness_log=log)
    assert out == expected == PropTrue()
    assert log == expected_log
    assert compiled == expected_compiled
    assert len(compiled) == len(set(compiled))  # each comparison once
    assert repr(pe("z * (1 - z) < 1/4 + 1/1000000")) in compiled


def test_the_globals_perfbench_patches_exist(monkeypatch):
    # perfbench's tracer replaces these module globals by name, and its
    # counting pass (``--trace 1``) patches or reads a few more.  Without
    # this check a refactor that drops one breaks only the traced run.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    from tracing import APPROX_POINTS, SPAN_POINTS, Counter, Patches
    points = [(module, name) for module, name, _ in SPAN_POINTS]
    points += [("msl.evaluator", name) for name in APPROX_POINTS]
    for module, name in points:
        fn = getattr(importlib.import_module(module), name, None)
        assert callable(fn), f"{module}.{name}"
    # Installed, the counting pass counts an item run as the benchmark
    # runs it; restored, it leaves every global as it found it.
    owners = (msl.cli, msl.evaluator, GInterval, XRat)
    before = [dict(vars(owner)) for owner in owners]
    counter, patches = Counter(0), Patches()
    counter.install(patches)
    try:
        out, err = io.StringIO(), io.StringIO()
        msl.cli.execute_source(msl.cli.SessionState(), f"{SQRT2_CUT};;",
                               out=out, err=err)
    finally:
        patches.restore()
    assert out.getvalue().startswith("real = ") and not err.getvalue()
    assert counter.c["steps"] and counter.c["tokens"]
    assert counter.c["refine_calls"] and counter.c["evaluate_hits"] == 1
    assert counter.c["disjuncts_out"] == 1
    assert [dict(vars(owner)) for owner in owners] == before


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


UNBOUNDED_CUT = "cut z : (-inf, 1] left z < 1 right 1 < z"


def narrowed_cuts(source, sweeps):
    """The closed cut of ``source`` and what each of ``sweeps`` refinement
    sweeps narrows it to."""
    cuts = [pe(source)]
    for step in range(sweeps):
        cuts.append(refine_step(cuts[-1], step))
    return cuts


def closed_real_terms():
    """Sums, differences and products of closed cuts (the square root of
    2 and the cube root of 5, each as refinement narrows it, and an
    unbounded cut), literals and restrictions, the refuted ones
    included."""
    cuts = (narrowed_cuts(SQRT2_CUT, 12)
            + narrowed_cuts("cut x : [1,2] left (x < 0 \\/ x^3 < 5) "
                            "right (x > 0 /\\ x^3 > 5)", 12)
            + [pe(UNBOUNDED_CUT)])
    leaves = st.one_of(st.sampled_from(cuts), st.sampled_from(cuts),
                       rationals().map(RatLit))
    return st.recursive(leaves, lambda kids: st.one_of(
        st.builds(Arith, st.sampled_from("+-*"), kids, kids),
        st.builds(Restrict, st.sampled_from((TrueLit(), FalseLit())),
                  kids)), max_leaves=6)


def reference_answer(t, precision):
    """The ball of ``t``'s reference interval when that is finite, proper
    and narrower than ``precision``, else None."""
    box = reference_real_approx(t, {}, LOWER)
    if not (box.is_finite and box.is_proper):
        return None
    lo, hi = box.lo.q, box.hi.q
    return RealBall((lo + hi) / 2, (hi - lo) / 2) if hi - lo < precision \
        else None


@settings(derandomize=True, max_examples=300, deadline=None)
@given(closed_real_terms(), st.integers(min_value=0, max_value=120),
       st.fractions(min_value=F(1, 2), max_value=F(1)))
def test_evaluate_step_answers_a_real_as_its_reference_interval(t, k, m):
    precision = m / 2 ** k
    assert evaluate_step(t, precision, REAL) == \
        reference_answer(t, precision)


@pytest.mark.parametrize("source", [
    "cut x : [1/3, 1/2] left x < 0 right x > 1",
    "(cut x : [1/3, 1/2] left x < 0 right x > 1) * 3 - 1/7",
    f"({SQRT2_CUT}) + ({SQRT2_CUT})",
    f"0 * ({UNBOUNDED_CUT})",  # a finite value of an unbounded cut
])
def test_evaluate_step_answers_only_below_the_precision(source):
    # The width must be strictly below the precision: equal gives None.
    box = reference_real_approx(pe(source), {}, LOWER)
    width = box.hi.q - box.lo.q
    ball = RealBall((box.lo.q + box.hi.q) / 2, width / 2)
    tiny = F(1, 10 ** 40)
    for precision, expected in ((width, None), (width + tiny, ball)):
        if precision > 0:
            assert evaluate_step(pe(source), precision, REAL) == expected


def test_evaluate_step_gives_no_answer_without_a_finite_interval():
    for source in (UNBOUNDED_CUT, "(2 < 1) ~> 5", f"1 + ({UNBOUNDED_CUT})",
                   "1 / (cut x : [-1, 1] left x < 0 right x > 0)"):
        assert evaluate_step(pe(source), F(10 ** 9), REAL) is None


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


def test_run_restricted_tuple():
    # The one disjunct is a restriction until its guard is refined away,
    # so ``evaluate_step`` first sees a product-typed disjunct that is
    # not yet a ``Tuple``.
    out = run(pe("(0 < 1 ~> (1, 2))"))
    assert out == TupleOf((RealBall(F(1), F(0)), RealBall(F(2), F(0))))


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


# --- the centred form of polynomial comparisons ---------------------------------

def poly_less_and_boxes(data, names=None):
    """A polynomial comparison over ``names`` (one or two variables when
    None), proper boxes for them, and a point of the boxes where the
    left side is stationary, or None.

    Half the time a point s is drawn first, the left side is made
    stationary there by subtracting its gradient at s times the
    variables, the boxes are drawn around s, and the right side is the
    left side's value at s, or just above or below it, so that f = lhs
    - rhs may have an extremum near 0 inside them.  Otherwise the right
    side is a free polynomial or a constant between the naive and the
    centred bound of the left side's range, so that the centred test
    has a decision to add."""
    if names is None:
        names = data.draw(st.sampled_from((("x",), ("x", "y"))))
    lhs = data.draw(polynomial_terms(names))
    for v in names:  # every variable occurs, most often more than once
        lhs = Arith(data.draw(st.sampled_from("+-*")), lhs,
                    Arith("*", Var(v), data.draw(polynomial_terms(names))))
    stationary = None
    if data.draw(st.booleans()):
        stationary = {v: data.draw(st.fractions(
            min_value=-2, max_value=2, max_denominator=8)) for v in names}
        _, grad = point_gradient(lhs, stationary)
        for v in names:
            slope = RatLit(grad.get(v, F(0)))
            lhs = Arith("-", lhs, Arith("*", slope, Var(v)))
    boxes = {}
    for v in names:
        width = data.draw(st.sampled_from((F(1, 64), F(1, 8), F(1, 2))))
        if stationary is None:
            lo = data.draw(st.fractions(min_value=-2, max_value=2,
                                        max_denominator=8))
        else:  # s inside, seldom at the midpoint
            lo = stationary[v] - width * data.draw(st.fractions(
                min_value=F(1, 16), max_value=F(15, 16), max_denominator=16))
        boxes[v] = I(lo, lo + width)
    if stationary is not None:  # f(s) is 0, or just below or above it
        value, _ = point_gradient(lhs, stationary)
        c = value + data.draw(st.sampled_from((-1, 0, 1))) * F(1, 2 ** 40)
        return Less(lhs, RatLit(c)), boxes, stationary
    rhs = data.draw(st.sampled_from(("free", "above", "below")))
    if rhs == "free":
        return Less(lhs, data.draw(polynomial_terms(names))), boxes, None
    naive = real_approx(lhs, boxes, LOWER)
    lo, hi = centred_enclosure(Less(lhs, RatLit(F(0))), boxes)
    t = data.draw(st.fractions(min_value=F(1, 16), max_value=1,
                               max_denominator=16))
    if rhs == "above":  # above the maximum: a proof to find
        c = hi + t * (naive.hi.q - hi)
    else:  # below the minimum: a refutation to find
        c = naive.lo.q + t * (lo - naive.lo.q)
    return Less(lhs, RatLit(c)), boxes, None


def centred_enclosure(less, boxes):
    """The centred form f(m) + sum_i d_i f(X) * (X_i - m_i) of lhs - rhs
    as a (lo, hi) pair, read from its program as the centred test reads
    it: it contains f at every point of the boxes."""
    code = compile_term(less)
    vals = _read(code, len(code) - 1, boxes, LOWER)
    point = {v: ((box.lo.q + box.hi.q) / 2).as_integer_ratio()
             for v, box in boxes.items()}
    mid = F(*_at_point(code, point))
    spread = F(0)
    for v, slope in zip(point, _slopes(code, vals, tuple(point)) or ()):
        slope = I(F(*slope[:2]), F(*slope[2:]))
        spread += (boxes[v].hi.q - boxes[v].lo.q) / 2 * \
            max(-slope.lo.q, slope.hi.q)
    return mid - spread, mid + spread


def difference(less, point):
    """lhs - rhs at an exact point, by the naive evaluator on points."""
    env = {v: I(q, q) for v, q in point.items()}
    lhs = real_approx(less.lhs, env, LOWER)
    rhs = real_approx(less.rhs, env, LOWER)
    return lhs.lo.q - rhs.lo.q


def sample_points(data, boxes, stationary):
    """Every combination of each box's endpoints, midpoint, one drawn
    point and the coordinate of ``stationary``, a point of the boxes or
    None."""
    points = [{}]
    for v, box in boxes.items():
        a, b = box.lo.q, box.hi.q
        drawn = a + (b - a) * data.draw(st.fractions(
            min_value=0, max_value=1, max_denominator=256))
        extra = () if stationary is None else (stationary[v],)
        points = [dict(p, **{v: q}) for p in points
                  for q in (a, b, (a + b) / 2, drawn, *extra)]
    return points


def naive_test(less, env, mode):
    """The naive test of ``less`` under ``env``, by the reference interval
    arithmetic: the second endpoint of lhs below the first of rhs."""
    return reference_real_approx(less.lhs, env, mode).hi < \
        reference_real_approx(less.rhs, env, mode).lo


@given(st.data())
def test_centred_enclosure_contains_the_difference(data):
    less, boxes, stationary = poly_less_and_boxes(data)
    lo, hi = centred_enclosure(less, boxes)
    for point in sample_points(data, boxes, stationary):
        assert lo <= difference(less, point) <= hi


@given(st.data())
def test_centred_test_only_adds_sound_decisions(data):
    # Around a stationary point the samples meet an interior extremum,
    # where a slope of both signs must not be read as monotone.
    less, boxes, stationary = poly_less_and_boxes(data)
    values = [difference(less, p)
              for p in sample_points(data, boxes, stationary)]
    duals = {v: box.dual() for v, box in boxes.items()}
    for mode, bound in ((LOWER, boxes), (UPPER, duals)):
        naive = naive_test(less, bound, mode)
        centred = prop_approx(less, bound, mode)
        decided = mode is LOWER  # a proof in lower mode, else a refutation
        if naive is decided:
            assert centred is decided
        if centred is decided:
            assert all((v < 0) is decided for v in values)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_monotone_boxes_decide_exactly_at_the_corners(data):
    # Where every slope has one sign, the test reads f's exact range at
    # a corner: it proves the comparison iff f's maximum over the boxes
    # is < 0, and refutes it iff f's minimum is >= 0.
    less, boxes, _ = poly_less_and_boxes(data)
    extremes = corner_range(less, boxes)
    if extremes is None:
        return
    low, high = extremes
    duals = {v: box.dual() for v, box in boxes.items()}
    assert prop_approx(less, boxes, LOWER) is (high < 0)
    assert prop_approx(less, duals, UPPER) is not (low >= 0)


def test_a_slope_of_both_signs_decides_at_no_corner():
    # Over [0, 1] the slope 2 (x - 1/4) of (x - 1/4)^2 has both signs,
    # and its minimum at 1/4 lies below its value at either end and at
    # the midpoint: neither corner may prove or refute.  Upper mode
    # reads the slope over the dual box <1, 0>, so it must swap it back
    # before it looks at its signs.
    holds = pe("exists x : [0, 1], (x - 1/4) ^ 2 < 1/100")
    fails = pe("forall x : [0, 1], (x - 1/4) ^ 2 > 1/100")
    assert prop_approx(holds, {}, UPPER) is True
    assert prop_approx(fails, {}, LOWER) is False
    assert run(holds) == PropTrue()
    assert run(fails) == PropFalseProven()


def test_a_read_under_no_bindings_is_kept_and_one_under_bindings_is_not():
    # Under no bindings a node is closed, so its approximant depends on
    # the node alone and is kept on it, per mode: undecided is lower
    # False, upper True, whichever mode is read first.
    for modes in ((LOWER, UPPER), (UPPER, LOWER)):
        e = pe(UNDECIDED)
        for mode in modes + modes:
            assert prop_approx(e, {}, mode) is (mode is UPPER)
        assert (e._lower, e._upper) == (False, True)
    # A quantifier body's value depends on its boxes: nothing is kept.
    e = pe("forall x : [0, 1], x < 2")
    assert prop_approx(e, {}, LOWER) is True
    assert e._lower is True and e.body._lower is None
    body = pe("x < 1")
    assert prop_approx(body, {"x": I(0, 0)}, LOWER) is True
    assert prop_approx(body, {"x": I(2, 2)}, LOWER) is False
    assert body._lower is None and body._upper is None


def test_the_centred_test_reads_proper_boxes_and_leaves_points_alone(
        monkeypatch):
    # Only the centred test proves the first; a division or a cut, even
    # one that adds nothing to the naive reading, keeps the naive test.
    # A quantifier in a cut probe, which binds the cut's variable to a
    # point, gets the test as one in a sweep does.
    box = {"x": I(F(9, 20), F(11, 20))}
    probe = {"y": I(F(26, 100), F(26, 100))}
    for body, proved in (("x * (1 - x)", True), ("x * (1 - x) / 1", False),
                         (f"x * (1 - x) + 0 * ({SQRT2_CUT})", False)):
        e = pe(f"forall x : [9/20, 11/20], {body} < 1/4 + 1/100")
        assert prop_approx(e, {}, LOWER) is proved
        assert naive_test(e.body, box, LOWER) is False
        e = pe(f"forall x : [9/20, 11/20], {body} < y")
        assert prop_approx(e, probe, LOWER) is proved
    # A box with an infinite end keeps the naive test.
    body = pe("x * (1 - x) < 1/4")
    assert prop_approx(body, {"x": I(F(1, 4), POS_INF)}, LOWER) is False
    # On points the naive test is exact, so the centred one is not tried:
    # 1/4 < 1/4 fails in lower mode, 2/9 < 1/4 holds in upper mode.
    calls = []
    centred = msl.evaluator._centred_decides
    monkeypatch.setattr(msl.evaluator, "_centred_decides",
                        lambda *args: calls.append(args) or centred(*args))
    for x, mode in ((F(1, 2), LOWER), (F(1, 3), UPPER)):
        assert prop_approx(body, {"x": I(x, x)}, mode) is (mode is UPPER)
    assert calls == []
    assert prop_approx(body, box, LOWER) is False
    assert len(calls) == 1 and body._polynomial is True
    # A cut or a division operand: the comparison keeps that its program
    # is no polynomial, and the test returns before it reads a box, as
    # it does here under no bindings at all.
    for source in ("x * (1 - x) / 1 < 1/4",
                   f"x * (1 - x) + 0 * ({SQRT2_CUT}) < 1/4"):
        less = pe(source)
        assert prop_approx(less, box, LOWER) is False
        assert less._polynomial is False
        assert centred(less, None, {}, LOWER) is False
    assert len(calls) == 3


def test_a_power_zero_leaves_no_code_for_its_base():
    # (1 / y) ^ 0 is the constant 1 before its base is read, so the
    # division inside it neither stays in the program nor turns the
    # centred test off; splitting proves the prop either way.
    code = compile_term(pe("(1 / y) ^ 0 + y * y < 2"))
    assert [op for op, _, _ in code if op == "/"] == []
    e = pe("forall x : [9/20, 11/20], "
           "x * (1 - x) + (1 / x) ^ 0 < 5/4 + 1/100")
    assert prop_approx(e, {}, LOWER) is True
    assert run(e) == PropTrue()


def test_refine_returns_unchanged_nodes_by_identity():
    e = pe("forall x : [0, 1], x * (1 - x) < 1/4")
    halves = refine_step(e)
    assert isinstance(halves, And) and len(halves.items) == 2
    assert all(half.body is e.body for half in halves.items)


def test_run_compiles_each_comparison_once(monkeypatch):
    compiled = count_compilations(monkeypatch)
    e = pe("forall x : [0, 1], x * (1 - x) < 1/4 + 1/1000000")
    assert run(e) == PropTrue()
    assert len(compiled) == 1


def test_run_decides_two_variable_cap_bound_existential():
    e = pe("exists x : [0, 1], exists y : [0, 1], "
           "x * (1 - x) + y * (1 - y) > 1/2 + 1/1000")
    assert run(e, max_steps=3) == PropFalseProven()


@pytest.mark.parametrize("delta", ["1/100", "1/1000000", "1/1000000000000"])
def test_run_decides_margin_near_extremum_in_few_visits(monkeypatch, delta):
    # Naive interval evaluation overestimates x * (1 - x) by about the
    # box width, so visits grew like delta^-1/2 (186 at 1/100, 22 505 at
    # 1/1000000).  The centred form overestimates by its square (22, 64
    # and 134 visits).  On each half of [0, 1] the slope 1 - 2x has one
    # sign, so the exact maximum 1/4 at x = 1/2 decides both halves.
    count = [0]
    refine = msl.evaluator._refine

    def counting(e, st):
        count[0] += 1
        return refine(e, st)

    monkeypatch.setattr(msl.evaluator, "_refine", counting)
    e = pe(f"forall x : [0, 1], x * (1 - x) < 1/4 + {delta}")
    assert run(e, max_steps=400) == PropTrue()
    assert count[0] <= 3


def test_run_boundary_degenerate_forall_never_answers_true():
    # The prop fails at x = 1/2 alone, where x * (1 - x) is 1/4: no
    # subrange fails everywhere, but the first midpoint is a
    # counterexample.
    e = pe("forall x : [0, 1], x * (1 - x) < 1/4")
    assert run(e, max_steps=20) == PropFalseProven()


# --- the ends of a closed universal as counterexamples ----------------------

@pytest.mark.parametrize("source", [
    "forall x : [0, 1], x > 0",
    "forall x : [0, 1], x < 1",
    "forall x : [0, 2], (x - 1) * (x - 1) > 0",
    "forall x : [0, 1], exists y : [0, 1], x < y",
])
def test_a_universal_is_refuted_at_one_point_of_its_range(source):
    # Each fails at one point only, an end or the first midpoint, so no
    # subrange fails everywhere: splitting alone gave no result in 40
    # steps.
    assert run(pe(source), max_steps=3) == PropFalseProven()


def forall_leaves(e):
    """The ``Forall`` nodes of a refined tree of ``And``s."""
    if isinstance(e, Forall):
        yield e
    elif isinstance(e, And):
        for item in e.items:
            yield from forall_leaves(item)


def record_point_reads(monkeypatch, mode):
    """The list of points, in order, at which ``prop_approx`` is read in
    ``mode`` under ``x`` bound to a point, from now on."""
    reads = []
    approx = msl.evaluator.prop_approx

    def recording(e, env, read_mode):
        x = env.get("x")
        if read_mode is mode and x is not None and x[:2] == x[2:]:
            reads.append(F(*x[:2]))
        return approx(e, env, read_mode)

    monkeypatch.setattr(msl.evaluator, "prop_approx", recording)
    return reads


def test_a_universal_reads_each_point_of_its_range_once(monkeypatch):
    # The root reads both ends, and each split after that only its new
    # midpoint, in its left half, in the sweep after the split.  The
    # minimum 0 of the body's right side lies at the irrational
    # 1/sqrt(2), so the prop takes 16 sweeps to prove.
    reads = record_point_reads(monkeypatch, UPPER)
    tree = pe("forall x : [0, 1], "
              "(x * x - 1/2) * (x * x - 1/2) > -1/1000000000")
    for n in range(6):
        ends = {q for leaf in forall_leaves(tree)
                for q in (leaf.range.lo.q, leaf.range.hi.q)}
        start = len(reads)
        tree = refine_step(tree, n)
        assert set(reads[start:]) <= ends
    # A left half proven as a whole, such as [0, 1/2], reads nothing.
    assert reads == [0, 1, F(3, 4), F(23, 32)]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_a_universal_is_refuted_only_at_reference_counterexamples(data):
    # Once as drawn, and once with the right side the left side's value
    # at an end p of the range or at its midpoint, just above, at or
    # just below it: f(p) is -2^-40, 0 or 2^-40.  Where f(p) >= 0, p is
    # a counterexample, refuted in the sweep that reads it.
    less, boxes, _ = poly_less_and_boxes(data, ("x",))
    a, b = boxes["x"].lo.q, boxes["x"].hi.q
    check_universal_counterexamples(less, a, b)
    p = data.draw(st.sampled_from((a, b, (a + b) / 2)))
    at_p, _ = point_gradient(less.lhs, {"x": p})
    k = data.draw(st.sampled_from((-1, 0, 1))) * F(1, 2 ** 40)
    tree = check_universal_counterexamples(Less(less.lhs, RatLit(at_p + k)),
                                           a, b)
    if k <= 0:
        assert tree == FalseLit()


def check_universal_counterexamples(less, a, b, sweeps=8):
    """Refine ``forall x : [a, b], less`` sweep by sweep and return the
    tree.  A leaf keeps as read (``_ends``) an end where f = lhs - rhs
    < 0 in Fractions, or the lower end of a right half, which its left
    sibling reads in the next sweep: where f >= 0 there, that sweep
    refutes the tree.  No answer contradicts the reference's."""

    def f(q):
        return (point_gradient(less.lhs, {"x": q})[0]
                - point_gradient(less.rhs, {"x": q})[0])

    e = Forall("x", Range(XRat(a), XRat(b)), less)
    tree, pending = e, False
    for n in range(sweeps):
        if isinstance(tree, (TrueLit, FalseLit)):
            break
        tree = refine_step(tree, n)
        assert not pending or tree == FalseLit()
        for leaf in forall_leaves(tree):
            lo, hi = leaf.range.lo.q, leaf.range.hi.q
            read_lo, read_hi = leaf._ends or (False, False)
            assert not read_hi or f(hi) < 0
            pending = pending or (read_lo and f(lo) >= 0)
    holds = reference_forall(less, "x", a, b)
    if isinstance(tree, TrueLit):
        assert holds is not False
    if isinstance(tree, FalseLit):
        assert holds is not True
    if holds is True:
        assert run(e, max_steps=sweeps) != PropFalseProven()
    return tree


# --- a quadratic universal splits at its stationary point --------------------

def split_points(e):
    """The ends of the ranges of every quantifier in the tree ``e``."""
    if isinstance(e, (Forall, Exists)):
        yield e.var, e.range.lo.q, e.range.hi.q
        yield from split_points(e.body)
    elif isinstance(e, (And, Or)):
        for item in e.items:
            yield from split_points(item)


def ends_after_one_sweep(source):
    return sorted(set(split_points(refine_step(pe(source)))))


@pytest.mark.parametrize("delta", ["1/100", "1/10^12", "1/10^30"])
def test_a_quadratic_universal_splits_at_its_vertex(delta):
    # f = x * (2/3 - x) - 1/9 -+ delta has its maximum +-delta at x = 1/3.
    # Split there, f is monotone on both halves, and the next sweep
    # decides each by its value at 1/3.  At the midpoint it took more
    # than 40 sweeps at 1/10^30.
    for sign, answer in (("+", TrueLit()), ("-", FalseLit())):
        e = pe(f"forall x : [0, 1], x * (2/3 - x) < 1/9 {sign} {delta}")
        halves = refine_step(e, 0)
        assert sorted(set(split_points(halves))) == [
            ("x", 0, F(1, 3)), ("x", F(1, 3), 1)]
        assert refine_step(halves, 1) == answer


def test_a_quadratic_universal_reads_its_ends_then_its_vertex(monkeypatch):
    # The root reads both ends, the left half its upper end 1/3, where
    # f = 1/10^30 >= 0 refutes it.
    reads = record_point_reads(monkeypatch, UPPER)
    e = pe("forall x : [0, 1], x * (2/3 - x) < 1/9 - 1/10^30")
    assert refine_step(refine_step(e, 0), 1) == FalseLit()
    assert reads == [0, 1, F(1, 3)]


@pytest.mark.parametrize("source", [
    # Degree 3 and 4: the parabola through f at 0, 1/2 and 1 has its
    # vertex at 2/3 and at 11/14, but f is no parabola.
    "forall x : [0, 1], 3/2 * x - x ^ 3 < 1",
    "forall x : [0, 1], 2 * x - x ^ 4 < 3/2",
    # The vertex at an end (x = 0), and outside the range (x = -1).
    "forall x : [0, 1], x * x - x * x + x * x < 2",
    "forall x : [0, 1], 3 * x * x - 3 * x * x + (x + 1) * (x + 1) "
    "< 4 + 1/100",
    # Not one comparison.
    "forall x : [0, 1], x * (2/3 - x) < 1/9 + 1/10^6 /\\ x < 2",
    "forall x : [0, 1], x * (2/3 - x) < 1/9 + 1/10^6 \\/ 2 < x",
    # An existential.
    "exists x : [0, 1], x * (2/3 - x) > 1/9 - 1/10^6",
])
def test_other_quantifiers_split_at_the_midpoint(source):
    assert ends_after_one_sweep(source) == [("x", 0, F(1, 2)),
                                            ("x", F(1, 2), 1)]


def test_a_universal_under_another_binder_splits_at_the_midpoint():
    # The inner universal reads y, so it is not closed.
    assert ends_after_one_sweep(
        "forall y : [1, 2], forall x : [0, 1], "
        "x * (2/3 - x) < 1/9 * y + 1/10^6") == [
        ("x", 0, F(1, 2)), ("x", F(1, 2), 1),
        ("y", 1, F(3, 2)), ("y", F(3, 2), 2)]


# --- the upper end of a closed existential as a witness ---------------------

def exists_leaves(e):
    """The ``Exists`` nodes of a refined tree of ``Or``s."""
    if isinstance(e, Exists):
        yield e
    elif isinstance(e, Or):
        for item in e.items:
            yield from exists_leaves(item)


def test_a_closed_existential_tries_its_upper_end_as_a_witness():
    # Reading lower ends alone took 31 sweeps, to a witness interval of
    # width 2^-30.
    source = "exists x : [0, 1], x > 1 - 1/1000000000"
    e = pe(source)
    assert run(e, max_steps=1) == Diverged(1)
    assert run(e, max_steps=2) == PropTrue()  # one sweep
    out = io.StringIO()
    msl.cli.execute_source(msl.cli.SessionState(),
                           f"#trace on;; {source};;", out=out)
    assert out.getvalue() == "(witness x in [1, 1])\nprop = True\n"


def test_an_upper_end_witness_logs_the_witnesses_under_it():
    wlog = []
    e = pe("exists x : [0, 1], exists y : [1, 2], x * y > 1 - 1/1000")
    assert refine_step(e, 0, wlog) == TrueLit()
    assert wlog == [("x", F(1), F(1)), ("y", F(1), F(2))]


def test_a_left_half_keeps_the_failed_lower_end_of_an_unchanged_body():
    e = pe("exists x : [0, 1], x * (1 - x) > 1/4 - 1/100")
    left, right = refine_step(e).items
    assert left.body is e.body and left._lower is False
    assert right._lower is None
    fresh = Exists(left.var, left.range, left.body)
    assert prop_approx(fresh, {}, LOWER) is False
    # Refined again, the left half tries the midpoint, its upper end.
    wlog = []
    assert refine_step(left, 1, wlog) == TrueLit()
    assert wlog == [("x", F(1, 2), F(1, 2))]


def test_a_body_that_refinement_changed_is_read_again():
    # The first sweep narrows the cut to [1/256, 2], so at x = 0 the body
    # fails before it and holds after it: the left half may not keep
    # its parent's failed reading.
    e = pe(f"exists x : [0, 1], ({SQRT2_CUT}) - x > 1/300")
    left, right = refine_step(e).items
    assert left.body is not e.body and left._lower is None
    fresh = Exists(left.var, left.range, left.body)
    assert prop_approx(fresh, {}, LOWER) is True
    assert run(e) == PropTrue()


def test_a_right_half_keeps_the_failed_upper_end_of_an_unchanged_body(
        monkeypatch):
    # The body fails at 0, 1/2 and 1 and holds at 3/4.  The right half
    # [1/2, 1] shares its upper end with its parent, which read it.
    reads = record_point_reads(monkeypatch, LOWER)
    tree, wlog = pe("exists x : [0, 1], (x - 3/4) * (x - 3/4) < 1/1000"), []
    for n in range(3):
        tree = refine_step(tree, n, wlog)
    assert tree == TrueLit() and wlog == [("x", F(3, 4), F(1))]
    assert reads.count(1) == 1


def test_a_right_half_reads_the_upper_end_of_a_changed_body_again():
    # At x = 1 the body holds once the cut's range lies below 3/2.  Each
    # sweep narrows the cut, so the rightmost half, whose body changed,
    # reads x = 1 again until it is the witness.
    source = f"exists x : [0, 1], x - ({SQRT2_CUT}) > -1/2"
    out = io.StringIO()
    msl.cli.execute_source(msl.cli.SessionState(),
                           f"#trace on;; {source};;", out=out)
    assert out.getvalue() == "(witness x in [1, 1])\nprop = True\n"


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_an_existential_is_affirmed_only_at_reference_witnesses(data):
    # Once as drawn, and once with the right side the left side's value
    # at the upper end b, just above, at or just below it: f(b) is
    # -2^-40, 0 or 2^-40, and f(a) >= 0 when f(b) < 0 unless the left
    # side is constant at the ends, so that b decides.
    less, boxes, _ = poly_less_and_boxes(data, ("x",))
    a, b = boxes["x"].lo.q, boxes["x"].hi.q
    check_existential_witnesses(less, a, b)
    (at_a, _), (at_b, _) = (point_gradient(less.lhs, {"x": q}) for q in (a, b))
    k = data.draw(st.sampled_from((-1, 0, 1))) * F(1, 2 ** 40)
    check_existential_witnesses(
        Less(less.lhs, RatLit(at_b + k)) if at_a > at_b
        else Less(RatLit(at_b - k), less.lhs), a, b)


def check_existential_witnesses(less, a, b):
    """Refine ``exists x : [a, b], less`` sweep by sweep.  Every witness
    a sweep logs, a range whose lower end the lower approximant read or
    the upper end b as [b, b], starts at a point where f = lhs - rhs < 0
    in Fractions; every kept lower approximant is that of an equal fresh
    node; and no answer contradicts the reference's."""
    e = Exists("x", Range(XRat(a), XRat(b)), less)
    tree, wlog = e, []
    for n in range(12):
        if isinstance(tree, (TrueLit, FalseLit)):
            break
        tree = refine_step(tree, n, wlog)
        for leaf in exists_leaves(tree):
            if leaf._lower is not None:
                fresh = Exists(leaf.var, leaf.range, leaf.body)
                assert leaf._lower is prop_approx(fresh, {}, LOWER)
    for _, lo, _ in wlog:
        assert point_gradient(less.lhs, {"x": lo})[0] < \
            point_gradient(less.rhs, {"x": lo})[0]
    holds = reference_exists(less, "x", a, b)
    if isinstance(tree, TrueLit):
        assert holds is not False
    if isinstance(tree, FalseLit):
        assert holds is not True
    if holds is False:
        assert run(e, max_steps=12) != PropTrue()
