"""A closed let-bound keeps its normal form and its type, so each stored
definition of a session is normalized and type-checked once, and what is
kept gives what a copy with nothing kept gives."""

import dataclasses
import importlib
import io
import random

from hypothesis import given, settings, strategies as st

from msl.cli import SessionState, _wrap_definitions, execute_item, execute_source
from msl.normalize import normalize
from msl.syntax import (
    App, ArrowTy, BOOL, Cut, Def, Expr, Lambda, Let, PROP, REAL, Restrict,
    Tuple, Var, children, free_vars, parse_expression,
)
from msl.typecheck import infer_type
from test_properties import TypedGen

# The modules, not the functions that ``msl`` exports under their names.
NORMALIZE = importlib.import_module("msl.normalize")
TYPECHECK = importlib.import_module("msl.typecheck")

DEF_TYPES = [REAL, PROP, BOOL, ArrowTy(REAL, REAL), ArrowTy(REAL, BOOL),
             ArrowTy(REAL, ArrowTy(REAL, REAL))]
USE_TYPES = [REAL, PROP, BOOL]


def unkept(e):
    """An equal tree of new nodes, none of which keeps anything."""
    changes = {}
    for f in dataclasses.fields(e):
        value = getattr(e, f.name)
        if isinstance(value, Expr):
            changes[f.name] = unkept(value)
        elif f.name == "items":
            changes[f.name] = tuple(map(unkept, value))
    return dataclasses.replace(e, **changes)


def closed_cuts(e, out):
    """Append every occurrence of a closed cut in ``e`` to ``out``."""
    if isinstance(e, Cut) and not free_vars(e):
        out.append(e)
    for kid in children(e):
        closed_cuts(kid, out)
    return out


def applied(gen, ctx, e, ty):
    """``e`` of type ``ty`` applied to random arguments up to base type."""
    while isinstance(ty, ArrowTy):
        e, ty = App(e, gen.expr(ty.arg, ctx, depth=1)), ty.result
    return e


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_kept_values_match_a_copy_with_nothing_kept(seed):
    # Definitions, some redefining a name and some copying a stored one,
    # each used alone as it comes and all of them together at the end:
    # so equal closed cuts are kept by different calls and then meet.
    rng = random.Random(seed)
    gen = TypedGen(rng)
    state = SessionState()
    for _ in range(rng.randint(2, 5)):
        if state.definitions and rng.random() < 0.4:
            body = unkept(rng.choice(list(state.definitions.values()))[0])
        else:
            body = gen.expr(rng.choice(DEF_TYPES), state.type_context(), 2)
        name = f"d{rng.randint(0, 3)}"
        execute_item(state, Def(name, body))
        check_uses(gen, state, [name])
    check_uses(gen, state, list(state.definitions))
    for stored, ty in state.definitions.values():
        assert infer_type({}, stored) == ty


def check_uses(gen, state, names):
    """Use the definitions ``names`` twice, comparing what the session
    keeps with a copy that keeps nothing."""
    ctx = state.type_context()
    parts = [applied(gen, ctx, Var(n), ctx[n]) for n in names]
    parts.append(gen.expr(gen.rng.choice(USE_TYPES), ctx, depth=1))
    use = Tuple(tuple(parts))
    for _ in range(2):
        wrapped = _wrap_definitions(state, use)
        fresh = unkept(wrapped)
        assert infer_type({}, wrapped) == infer_type({}, fresh)
        got = normalize(wrapped)
        assert repr(got) == repr(normalize(fresh))
        # Equal closed cuts are one object, as without kept values.
        cuts = []
        for d in got:
            closed_cuts(d, cuts)
        for a in cuts:
            assert all(a is b for b in cuts if a == b)


def test_a_cut_kept_inside_a_kept_cut_is_shared():
    # ``a`` and the inner cut of ``b`` are equal cuts kept by different
    # evaluations.  Used together they are one object.
    state = SessionState()
    execute_source(state, """
        let sqrt = fun x : real =>
          cut y : [0, 4] left (y < 0 \\/ y * y < x) right (0 < y /\\ x < y * y);;
        let a = sqrt 2;; a;; let b = sqrt (sqrt 2);; b;;
        """, out=io.StringIO())
    (d,) = normalize(_wrap_definitions(state, parse_expression("a + b")))
    cuts = closed_cuts(d, [])
    assert len(cuts) == 4  # a, b's outer cut and its argument twice
    assert cuts[0] is cuts[2] is cuts[3]


def test_only_closed_bounds_keep_what_they_depend_on():
    # ``True ~> y`` is a conjunction at prop and a restriction at real, so
    # neither its type nor its normal form may stay with it.
    e = Let("z", parse_expression("True ~> y"), Var("z"))
    assert infer_type({"y": PROP}, e) == PROP
    assert infer_type({"y": REAL}, e) == REAL
    (lam,) = normalize(Lambda("y", PROP, e))
    assert isinstance(lam.body, Var)  # True /\ y folds to y
    (lam,) = normalize(Lambda("y", REAL, e))
    assert isinstance(lam.body, Restrict)


def test_a_stored_definition_is_normalized_and_typed_once(monkeypatch):
    state = SessionState()
    built = {"normal": 0, "type": 0}
    calls = []
    nf, infer = NORMALIZE._nf, TYPECHECK.infer_type

    def counting_nf(e, ctx, env):
        calls[-1] += 1
        built["normal"] += e is stored() and e._nform is None
        return nf(e, ctx, env)

    def counting_infer(ctx, e):
        built["type"] += e is stored() and e._ty is None
        return infer(ctx, e)

    def stored():
        return state.definitions.get("accel", (None,))[0]

    monkeypatch.setattr(NORMALIZE, "_nf", counting_nf)
    monkeypatch.setattr(TYPECHECK, "infer_type", counting_infer)
    calls.append(0)
    out = io.StringIO()
    execute_source(state, '#use "car.msl";;', out=out)  # evaluates accel twice
    assert out.getvalue().splitlines()[-1] == "real = -25/198 ± 0"
    for _ in range(10):
        calls.append(0)
        out = io.StringIO()
        execute_source(state, "accel (-100) 5;;", out=out)
        assert out.getvalue() == "real = -25/198 ± 0\n"
    # The definition is typed once, as written in its session; the closed
    # body stored from it keeps that type, so it is never typed again.
    assert built == {"normal": 1, "type": 0}
    # What is not kept, the application to the arguments, is the same
    # work in every evaluation.
    assert len(set(calls[1:])) == 1 and calls[0] > calls[1]


def test_a_redefinition_is_used_in_place_of_the_kept_one():
    state = SessionState()
    out = io.StringIO()
    execute_source(state, """
        let f = fun x : real => x + 1;; let c = 1;; f c;;
        let f = fun x : real => x * 10;; f c;;
        let c = 2;; f c;; let g = fun x : real => f x + c;; g 0;;
        let f = fun x : real => x;; g 0;; f c;;
        """, out=out)
    assert out.getvalue().splitlines() == [
        "real = 2 ± 0", "real = 10 ± 0", "real = 20 ± 0", "real = 2 ± 0",
        "real = 2 ± 0", "real = 2 ± 0"]
