"""Normalization: bound names, reduction, join hoisting, prop fusing."""

import dataclasses
import importlib
import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from msl.cli import SessionState, _wrap_definitions, execute_source
from msl.evaluator import run
from msl.normalize import mk_and, mk_or, normalize
from msl.prelude import load_prelude
from msl.syntax import (
    And, App, Arith, Cut, Exists, Expr, FalseLit, Forall, Join, Lambda, Less,
    Let, Or, Pow, RatLit, REAL, Restrict, Tuple, TrueLit, Var, free_vars,
    parse_expression, pretty_print,
)
from msl.typecheck import infer_type

F = Fraction
# The module, not the function that ``msl`` exports under its name.
NORMALIZE = importlib.import_module("msl.normalize")


def nf(source, prelude=()):
    e = parse_expression(source)
    for item in reversed(prelude):
        e = Let(item.name, item.body, e)
    return list(normalize(e))


PRELUDE = tuple(load_prelude())


# --- bound names --------------------------------------------------------------

def printed(source):
    return " | ".join(pretty_print(d) for d in nf(source))


@pytest.mark.parametrize("source, expected", [
    # A value with y free enters a binder of y: the binder is renamed.
    pytest.param(
        "forall y : [0,1], (fun x : real => exists y : [0,1], y < x) y",
        "forall y : [0, 1], exists y' : [0, 1], y' < y", id="capture"),
    pytest.param(
        "fun y : real => (fun x : real => fun y : real => x) y",
        "fun y : real => fun y' : real => y", id="lambda_binder"),
    pytest.param(
        "forall y : [0,1], let a = y in "
        "(cut y : [0, 2] left y < a right a < y) < 1",
        "forall y : [0, 1], (cut y' : [0, 2] left y' < y right y < y') < 1",
        id="cut_binder"),
    # Two values, with y and y' free: the new name avoids both.
    pytest.param(
        "forall y : [0,1], forall y' : [0,1], "
        "(fun x : real => fun w : real => exists y : [0,1], y < x + w) y y'",
        "forall y : [0, 1], forall y' : [0, 1], "
        "exists y'' : [0, 1], y'' < y + y'", id="two_values_lambdas"),
    pytest.param(
        "forall y : [0,1], forall y' : [0,1], "
        "let a = y in let b = y' in exists y : [0,1], y < a + b",
        "forall y : [0, 1], forall y' : [0, 1], "
        "exists y'' : [0, 1], y'' < y + y'", id="two_values_lets"),
    # A function-valued argument, read again at its application under a
    # binder of the name it has free.
    pytest.param(
        "forall x : [0,1], (fun f : real -> real => exists x : [0,1], "
        "f x < x) (fun z : real => z + x)",
        "forall x : [0, 1], exists x' : [0, 1], x' + x < x'",
        id="function_argument"),
    # The renamed v is a prop and the captured one a real: the kept
    # function's restriction is typed by the real, so it stays one.
    pytest.param(
        "forall v : [0,1], (fun f : prop -> prop => f (0 < 1)) "
        "((fun h : real -> real => fun v : prop => 0 < h 0 /\\ v) "
        "(fun z : real => 0 < z ~> v))",
        "forall v : [0, 1], 0 < (0 < 0 ~> v) /\\ 0 < 1", id="typed_capture"),
    # Shadowing, by a beta step, a let and a binder.
    pytest.param("(fun x : real => (fun x : real => x + 1) (x * 2)) 3 < 7",
                 "3 * 2 + 1 < 7", id="shadow_beta"),
    pytest.param("let x = 1 in let x = x + 1 in x < 3", "1 + 1 < 3",
                 id="shadow_let"),
    pytest.param("let x = 7 in fun x : real => x", "fun x : real => x",
                 id="shadow_binder"),
    # Application spines: every argument is bound at once.
    pytest.param(
        "forall w : [0,1], forall y : [0,1], "
        "(fun x : real => fun w : real => exists y : [0,1], y < x + w) w y",
        "forall w : [0, 1], forall y : [0, 1], "
        "exists y' : [0, 1], y' < w + y", id="spine_capture"),
    pytest.param("(fun x : real => fun x : real => x) 1 2 < 3", "2 < 3",
                 id="spine_shadow"),
    pytest.param("(fun f : real -> real => f) (fun x : real => x + 1) 2 < 4",
                 "2 + 1 < 4", id="spine_returns_function"),
    # Each choice of the arguments reads the body's join once more, and a
    # disjunct seen before is dropped.
    pytest.param(
        "(fun x : real => fun y : real => (x || y)) (1 || 2) (3 || 4) < 5",
        "1 < 5 | 3 < 5 | 4 < 5 | 2 < 5", id="spine_joins"),
])
def test_bound_names_are_read_without_capture(source, expected):
    assert printed(source) == expected


# --- application spines ----------------------------------------------------------

NAMES = ("x", "y", "w")
CONNECTIVES = ("/\\", "\\/", "||")


def _spine_real(rng, scope, depth, redexes):
    """A real term over ``scope`` with binders named from ``NAMES``."""
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        if scope and rng.random() < 0.7:
            return rng.choice(scope)
        return str(rng.randint(0, 4))
    lhs = _spine_real(rng, scope, depth - 1, redexes)
    if roll < 0.5:
        rhs = _spine_real(rng, scope, depth - 1, redexes)
        return f"({lhs} {rng.choice('+*')} {rhs})"
    if roll < 0.62:
        return f"({lhs} || {_spine_real(rng, scope, depth - 1, redexes)})"
    v = rng.choice(NAMES)
    if roll < 0.8 or not redexes:
        left = _spine_prop(rng, scope + [v], depth - 1, redexes)
        right = _spine_prop(rng, scope + [v], depth - 1, redexes)
        return f"(cut {v} : [0, 2] left {left} right {right})"
    body = _spine_real(rng, scope + [v], depth - 1, redexes)
    return f"((fun {v} : real => {body}) {lhs})"


def _spine_prop(rng, scope, depth, redexes):
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        lhs = _spine_real(rng, scope, depth - 1, redexes)
        return f"({lhs} < {_spine_real(rng, scope, depth - 1, redexes)})"
    if roll < 0.55:
        lhs = _spine_prop(rng, scope, depth - 1, redexes)
        rhs = _spine_prop(rng, scope, depth - 1, redexes)
        return f"({lhs} {rng.choice(CONNECTIVES)} {rhs})"
    v = rng.choice(NAMES)
    body = _spine_prop(rng, scope + [v], depth - 1, redexes)
    return f"({rng.choice(('exists', 'forall'))} {v} : [0, 1], {body})"


def spine_case(rng):
    """A curried function of 2 or 3 parameters, applied to all its
    arguments under ``forall``s of some of the same names: the head, the
    direct application, and the same application split by ``let``s into
    one-argument steps."""
    outer = rng.sample(NAMES, rng.randint(0, 3))
    params = [rng.choice(NAMES) for _ in range(rng.randint(2, 3))]
    at_prop = rng.random() < 0.5
    redexes = rng.random() < 0.5
    body = (_spine_prop if at_prop else _spine_real)(
        rng, list(params), 3, redexes)
    fn = "(" + "".join(f"fun {p} : real => " for p in params) + body + ")"
    args = [f"({_spine_real(rng, list(outer), 1, False)})" for _ in params]
    head = "".join(f"forall {v} : [0, 1], " for v in outer)
    tail = "" if at_prop else " < 1"
    split, g = head, fn
    for i, arg in enumerate(args[:-1]):
        split += f"let g{i} = {g} {arg} in "
        g = f"g{i}"
    return (fn, f"{head}{fn} {' '.join(args)}{tail}",
            f"{split}{g} {args[-1]}{tail}")


def alpha(e, names=None, depth=0):
    """``e`` with each bound variable named after its binding depth: two
    terms that differ in bound names alone give equal results."""
    names = names or {}
    if isinstance(e, Var):
        return Var(names.get(e.name, e.name))
    changes = {}
    if isinstance(e, (Lambda, Cut, Exists, Forall)):
        changes["var"] = bound = f"#{depth}"
        names, depth = {**names, e.var: bound}, depth + 1
    for f in dataclasses.fields(e):
        value = getattr(e, f.name)
        if isinstance(value, Expr):
            changes[f.name] = alpha(value, names, depth)
        elif f.name == "items":
            changes[f.name] = tuple(alpha(v, names, depth) for v in value)
    return dataclasses.replace(e, **changes)


def test_a_spine_normalizes_as_its_one_argument_steps():
    # The same disjuncts in the same order.  The same names too, unless
    # the head's normal form binds a primed name: see the next test.  The
    # arguments are reals, so none of them drops a later parameter.
    rng = random.Random(20261019)
    for _ in range(600):
        fn, direct, split = spine_case(rng)
        got, want = nf(direct), nf(split)
        assert list(map(alpha, got)) == list(map(alpha, want)), direct
        if "'" not in printed(fn):
            assert list(map(pretty_print, got)) == \
                list(map(pretty_print, want)), direct


@pytest.mark.parametrize("outer, fn, a1, a2, spine, steps", [
    # The head's normal form binds x' (the inner redex renames exists x).
    # One step at a time, w := x renames the parameter x to x', so the
    # kept exists x' becomes x''; the spine binds w and x at once.
    pytest.param(
        "forall x : [0,1], ",
        "(fun w : real => fun x : real => "
        "(fun y : real => exists x : [0,1], x < y + w) x)", "x", "1",
        "forall x : [0, 1], exists x' : [0, 1], x' < 1 + x",
        "forall x : [0, 1], exists x'' : [0, 1], x'' < 1 + x",
        id="kept_prime"),
    # h := fun z => 1 drops w, so the step that binds w := y finds w free
    # nowhere; the spine reads exists y under w := y and renames it.
    pytest.param(
        "forall y : [0,1], ",
        "(fun h : real -> real => fun w : real => "
        "exists y : [0,1], y < h w)", "(fun z : real => 1)", "y",
        "forall y : [0, 1], exists y' : [0, 1], y' < 1",
        "forall y : [0, 1], exists y : [0, 1], y < 1",
        id="dropped_parameter"),
])
def test_a_spine_may_name_a_binder_unlike_its_steps(outer, fn, a1, a2,
                                                    spine, steps):
    assert printed(f"{outer}{fn} {a1} {a2}") == spine
    assert printed(f"{outer}let g = {fn} {a1} in g {a2}") == steps
    assert alpha(*nf(spine)) == alpha(*nf(steps))


def test_a_kept_function_is_applied_without_walking_a_fun():
    # ``accel x v`` binds both parameters of accel's normal form at once:
    # no ``fun`` of it is walked, so none is rebuilt.
    state = SessionState()
    execute_source(state, '#use "car.msl";;', out=io.StringIO())
    e = _wrap_definitions(state, parse_expression("accel (-7/2) 13/4"))
    walked = []
    real_nf = NORMALIZE._nf

    def counting(e, ctx, env):
        walked.append(type(e))
        return real_nf(e, ctx, env)

    NORMALIZE._nf = counting
    try:
        normalize(e)
    finally:
        NORMALIZE._nf = real_nf
    assert walked and walked.count(Lambda) == 0


# --- reduction ----------------------------------------------------------------

def test_beta():
    assert nf("(fun x : real => x + 1) 2") == [parse_expression("2 + 1")]


def test_let_elimination():
    assert nf("let x = 3 in x * x") == [parse_expression("3 * 3")]


def test_projection_reduction():
    assert nf("(1, 2)#2") == [RatLit(F(2))]
    assert nf("(True ~> (1, 2))#1") == [Restrict(TrueLit(), RatLit(F(1)))]


def test_a_projection_of_a_join_drops_equal_disjuncts():
    # As "||", "let", application and is_true/is_false do; each copy left
    # would be refined in every sweep and log its witnesses again.
    assert nf("((1, 1) || (1, 2))#1") == [RatLit(F(1))]
    p = "(exists x : [0, 1], 1/3 < x)"
    out, err = io.StringIO(), io.StringIO()
    execute_source(SessionState(), f"#trace on;; (({p}, 1) || ({p}, 2))#1;;",
                   out=out, err=err)
    assert (out.getvalue(), err.getvalue()) == (
        "(witness x in [1, 1])\nprop = True\n", "")


def test_bool_projection_reduction():
    assert nf("is_true (mkbool (1 < 2) (2 < 1))") == \
        [parse_expression("1 < 2")]
    assert nf("is_false (mkbool (1 < 2) (2 < 1))") == \
        [parse_expression("2 < 1")]


def test_bool_projection_through_restriction():
    got = nf("is_true ((0 < 1) ~> mkbool (1 < 2) (2 < 1))")
    assert got == [And((parse_expression("0 < 1"), parse_expression("1 < 2")))]


def test_prop_restriction_becomes_conjunction():
    got = nf("(0 < 1) ~> (1 < 2)")
    assert got == [And((parse_expression("0 < 1"), parse_expression("1 < 2")))]


def test_prop_projection_through_restriction_becomes_conjunction():
    got = nf("((0 < 1) ~> (1 < 2, 3))#1")
    assert got == [And((parse_expression("0 < 1"), parse_expression("1 < 2")))]
    got = nf("(0 < 1 ~> (2 < 3 ~> (1 < 2, 3)))#1")
    assert got == [And(tuple(map(parse_expression,
                                 ("0 < 1", "2 < 3", "1 < 2"))))]


@pytest.mark.parametrize("source, expected", [
    ("forall x : [0,1], (x < 2 ~> (x < 3, 0))#1", "prop = True"),
    ("forall x : [0,1], (x < 2 ~> (x < 1/2, 0))#1", "prop = False (proven)"),
    ("exists x : [0,1], (x < 1/2 ~> (x < 1, 0))#1", "prop = True"),
    ("(fun t : prop * prop => t#1 /\\ t#2) (0 < 1 ~> (1 < 2, 2 < 3))",
     "prop = True"),
    ("forall x : [0,1], (fun p : prop * real => p#1) (x < 2 ~> (x < 3, 0))",
     "prop = True"),
])
def test_a_prop_projection_through_a_restriction_answers(source, expected):
    # It answers as its /\ spelling does: a restriction left in a prop
    # is not normal, and evaluating it raised out of the session.
    out, err = io.StringIO(), io.StringIO()
    execute_source(SessionState(), f"{source};;", out=out, err=err)
    assert (out.getvalue(), err.getvalue()) == (expected + "\n", "")


# --- join hoisting --------------------------------------------------------------

def test_join_hoists_through_arithmetic():
    got = nf("(1 || 2) + 3")
    assert got == [parse_expression("1 + 3"), parse_expression("2 + 3")]


def test_join_hoists_through_tuples_and_both_sides():
    got = nf("((1 || 2), (3 || 4))")
    assert got == [Tuple((RatLit(F(a)), RatLit(F(b))))
                   for a in (1, 2) for b in (3, 4)]


def test_a_join_in_a_function_body_chooses_at_each_call():
    # A function is one value whose body joins its choices: each
    # application reads the join, so f 2 + f 3 has every pair.
    (fn,) = nf("fun x : real => (0 || x)")
    assert fn == Lambda("x", REAL, Join((RatLit(F(0)), Var("x"))))
    got = nf("let f = fun x : real => (0 || 1) in f 2 + f 3")
    assert got == [parse_expression(f"{a} + {b}")
                   for a in (0, 1) for b in (0, 1)]


GUARDED = "fun x : real => (x < 1 ~> 0 || x > 2 ~> 1)"


@pytest.mark.parametrize("source", [
    f"let f = {GUARDED} in f 0 + f 3;;",
    f"(fun f : real -> real => f 0 + f 3) ({GUARDED});;",
    f"let g = {GUARDED};; g 0 + g 3;;",
], ids=["let", "higher_order", "repl"])
def test_a_function_defined_by_cases_answers_at_each_call(source):
    # f 0 is defined by the first branch alone and f 3 by the second.
    # Committing f to one branch for the whole program left no disjunct
    # defined at both calls.
    out, err = io.StringIO(), io.StringIO()
    execute_source(SessionState(), source, out=out, err=err)
    assert (out.getvalue(), err.getvalue()) == ("real = 1 ± 0\n", "")


SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=2).map(
    lambda q: f"({q})")


def _guarded_function(data):
    """The source of a one-argument function whose body joins one to
    three branches, each under a guard on its argument or none."""
    branches = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        c, k, m = (data.draw(SMALL) for _ in range(3))
        guard = data.draw(st.sampled_from(("", f"x < {c} ~> ",
                                           f"x > {c} ~> ")))
        branches.append(f"{guard}(x * {k} + {m})")
    return f"fun x : real => ({' || '.join(branches)})"


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_a_let_bound_function_answers_as_its_body_written_out(data):
    fn = _guarded_function(data)
    args = [data.draw(SMALL) for _ in range(2)]
    op = data.draw(st.sampled_from("+-*"))
    bound = parse_expression(f"let f = {fn} in f {args[0]} {op} f {args[1]}")
    written = parse_expression(
        f"({fn}) {args[0]} {op} ({fn}) {args[1]}")
    assert run(bound, max_steps=8) == run(written, max_steps=8)


def test_top_level_prop_join_stays_a_join():
    got = nf("(1 < 2) || (2 < 3)")
    assert got == [parse_expression("1 < 2"), parse_expression("2 < 3")]


def test_embedded_prop_join_becomes_or():
    got = nf("((1 < 2) || (2 < 3)) /\\ (0 < 1)")
    assert got == [And((Or((parse_expression("1 < 2"),
                            parse_expression("2 < 3"))),
                        parse_expression("0 < 1")))]


def test_prop_join_under_forall_becomes_or():
    got = nf("forall x : [0,1], (x < 1 || 0 < x)")
    assert len(got) == 1
    assert isinstance(got[0], Forall)
    assert isinstance(got[0].body, Or)


def test_real_join_under_quantifier_body_distributes_through_less():
    got = nf("exists x : [0,1], x < (1/2 || 2)")
    assert len(got) == 1
    body = got[0].body
    assert isinstance(body, Or)
    assert body.items == (Less(Var("x"), RatLit(F(1, 2))),
                          Less(Var("x"), RatLit(F(2))))


def test_joins_flatten_and_dedup():
    got = nf("(1 || 2) || (1 || 3)")
    assert got == [RatLit(F(1)), RatLit(F(2)), RatLit(F(3))]


def test_restriction_distributes_over_body_join():
    got = nf("(0 < 1) ~> (1 || 2)")
    assert got == [Restrict(parse_expression("0 < 1"), RatLit(F(1))),
                   Restrict(parse_expression("0 < 1"), RatLit(F(2)))]


def test_literal_folding():
    assert nf("True /\\ (1 < 2)") == [parse_expression("1 < 2")]
    assert nf("False /\\ (1 < 2)") == [FalseLit()]
    assert nf("False \\/ (1 < 2)") == [parse_expression("1 < 2")]
    assert nf("True \\/ (1 < 2)") == [TrueLit()]


def test_normal_form_is_join_free():
    def join_free(e):
        if isinstance(e, (Join, Let, App)):
            return False
        for name in ("items",):
            if hasattr(e, name):
                return all(join_free(i) for i in getattr(e, name))
        for name in ("lhs", "rhs", "base", "body", "guard", "left", "right",
                     "tuple_", "if_true", "if_false", "arg", "bound"):
            if hasattr(e, name) and getattr(e, name) is not None:
                child = getattr(e, name)
                if hasattr(child, "loc") and not join_free(child):
                    return False
        return True

    sources = [
        "(1 || 2) * (3 || (4 || 5)) - 1",
        "let f = fun x : real => x * (1 || 2) in f (f 1)",
        "is_true (mkbool ((1 < 2) || (2 < 3)) False)",
        "((0 < 1) ~> ((1, 2) || (3, 4)))#2",
        "cut x : [0,1] left (x < 1/2 || x < 1) right x > 1",
    ]
    for source in sources:
        for d in nf(source):
            assert join_free(d), source


# --- quasi-boolean laws ----------------------------------------------------------

def test_double_negation_is_syntactic_identity():
    for b in ("tt", "ff", "mkbool (1 < 2) (2 < 1)",
              "band tt (mkbool (0 < 1) (1 < 0))"):
        direct = nf(f"is_true ({b})", PRELUDE)
        doubled = nf(f"is_true (bneg (bneg ({b})))", PRELUDE)
        assert direct == doubled, b


def test_de_morgan_laws_are_syntactic_identities():
    pairs = [
        ("is_true (bneg (band A% B%))", "is_true (bor (bneg A%) (bneg B%))"),
        ("is_true (bneg (bor A% B%))", "is_true (band (bneg A%) (bneg B%))"),
    ]
    bools = ["tt", "ff", "mkbool (1 < 2) (2 < 1)", "mkbool (x < 1) (1 < x)"]
    for lhs_src, rhs_src in pairs:
        for a in bools:
            for b in bools:
                lhs = lhs_src.replace("A%", f"({a})").replace("B%", f"({b})")
                rhs = rhs_src.replace("A%", f"({a})").replace("B%", f"({b})")
                lhs_nf = nf(f"fun x : real => ({lhs})", PRELUDE)
                rhs_nf = nf(f"fun x : real => ({rhs})", PRELUDE)
                assert lhs_nf == rhs_nf, (lhs, rhs)


def test_quantifier_duality_normal_forms():
    forall_bool = ("fun pred : real -> bool => "
                   "mkbool (forall x : [0,1], is_true (pred x)) "
                   "(exists x : [0,1], is_false (pred x))")
    pred = "fun y : real => mkbool (y < 1) (0 < y)"
    got_true = nf(f"is_true (({forall_bool}) ({pred}))")
    assert got_true == [Forall("x", got_true[0].range,
                               Less(Var("x"), RatLit(F(1))))]
    got_false = nf(f"is_false (({forall_bool}) ({pred}))")
    assert got_false == [Exists("x", got_false[0].range,
                                Less(RatLit(F(0)), Var("x")))]


# --- properties -------------------------------------------------------------------

def _random_arith(rng, depth):
    if depth == 0:
        return RatLit(F(rng.randint(-9, 9), rng.randint(1, 9)))
    op = rng.choice("+-*/")
    lhs = _random_arith(rng, depth - 1)
    rhs = _random_arith(rng, depth - 1)
    return Arith(op, lhs, rhs)


def _rational_eval(e):
    if isinstance(e, RatLit):
        return e.value
    if isinstance(e, Arith):
        lhs, rhs = _rational_eval(e.lhs), _rational_eval(e.rhs)
        if e.op == "+":
            return lhs + rhs
        if e.op == "-":
            return lhs - rhs
        if e.op == "*":
            return lhs * rhs
        return lhs / rhs
    if isinstance(e, Pow):
        return _rational_eval(e.base) ** e.exp
    raise AssertionError(type(e))


def test_normalization_preserves_rational_value():
    rng = random.Random(20240901)
    checked = 0
    while checked < 100:
        e = _random_arith(rng, 3)
        try:
            expected = _rational_eval(e)
        except ZeroDivisionError:
            continue
        wrapped = Let("k", e, Arith("+", Var("k"), RatLit(F(0))))
        for d in normalize(wrapped):
            assert _rational_eval(d) == expected
        checked += 1


def test_normalization_preserves_types():
    sources = [
        "(1 || 2) + 3",
        "((1 < 2) || (2 < 3)) /\\ (0 < 1)",
        "let f = fun x : real => (x || 1) in (f 2, mkbool (1 < 2) False)",
        "is_true (mkbool ((1 || 2) < 2) True)",
    ]
    for source in sources:
        e = parse_expression(source)
        expected = infer_type({}, e)
        for d in normalize(e):
            assert infer_type({}, d) == expected, source


def test_normalize_terminates_on_nested_redexes():
    source = "(fun f : real -> real => f (f (f 1))) (fun x : real => x + x)"
    got = nf(source)
    assert len(got) == 1
    assert _rational_eval(got[0]) == 8


def test_disjuncts_are_closed_when_input_is_closed():
    for d in nf("let f = fun x : real => (x || 0 - x) in f (1 || 2)"):
        assert free_vars(d) == set()


def test_mk_helpers():
    assert mk_and([TrueLit(), TrueLit()]) == TrueLit()
    assert mk_or([FalseLit()]) == FalseLit()
    assert mk_and([Var("p"), FalseLit()]) == FalseLit()
    assert mk_or([Var("p"), TrueLit()]) == TrueLit()
    assert mk_and([And((Var("p"), Var("q"))), Var("r")]) == \
        And((Var("p"), Var("q"), Var("r")))
