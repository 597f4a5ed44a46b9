"""Typing rules, base types, and error reporting."""

import pytest

from msl.prelude import asset_source, load_prelude
from msl.syntax import (
    ArrowTy, BOOL, Def, Eval, PROP, ProductTy, REAL, parse_expression,
    parse_program,
)
from msl.typecheck import TypecheckError, infer_type, is_base


def ty_of(source, ctx=None):
    return infer_type(ctx or {}, parse_expression(source))


def test_is_base():
    assert is_base(ProductTy((REAL, BOOL)))
    assert not is_base(ArrowTy(REAL, PROP))
    assert is_base(ProductTy((ProductTy((REAL, PROP)), BOOL)))
    assert not is_base(ProductTy((REAL, ArrowTy(REAL, REAL))))


def test_literals_and_operators():
    assert ty_of("mkbool True False") == BOOL
    assert ty_of("fun x : real => x < 1") == ArrowTy(REAL, PROP)
    assert ty_of("1 + 2 * 3") == REAL
    assert ty_of("1 < 2") == PROP
    assert ty_of("(1, True)") == ProductTy((REAL, PROP))
    assert ty_of("(1, True)#2") == PROP
    assert ty_of("let y = 1 in y + y") == REAL
    assert ty_of("cut x : (-inf, inf) left x < 0 right x > 0") == REAL
    assert ty_of("exists x : [0,1], x < 1") == PROP
    assert ty_of("is_true (mkbool True False)") == PROP
    assert ty_of("True ~> 3") == REAL
    assert ty_of("1 || 2") == REAL


def test_join_requires_base_type():
    with pytest.raises(TypecheckError):
        ty_of("(fun f : real -> real => f) || (fun f : real -> real => f)")


def test_join_requires_agreement():
    with pytest.raises(TypecheckError):
        ty_of("1 || True")


def test_restrict_requires_base_body_and_prop_guard():
    with pytest.raises(TypecheckError):
        ty_of("True ~> (fun x : real => x)")
    with pytest.raises(TypecheckError):
        ty_of("1 ~> 2")


def test_unbound_variable_reports_location():
    with pytest.raises(TypecheckError) as err:
        ty_of("1 + nope")
    assert "nope" in str(err.value)
    assert err.value.loc is not None


def test_application_errors():
    with pytest.raises(TypecheckError):
        ty_of("1 2")
    with pytest.raises(TypecheckError):
        ty_of("(fun x : real => x) True")


def test_projection_errors():
    with pytest.raises(TypecheckError):
        ty_of("(1, 2)#3")
    with pytest.raises(TypecheckError):
        ty_of("1#1")


def test_quantifier_ranges_must_be_finite_closed():
    with pytest.raises(TypecheckError):
        ty_of("exists x : (-inf, 1), x < 0")
    with pytest.raises(TypecheckError):
        ty_of("forall x : (0, 1), x < 2")
    # cut ranges may be open or unbounded
    assert ty_of("cut x : (0, 1) left x < 0 right x > 0") == REAL


def test_shadowing():
    assert ty_of("fun x : prop => fun x : real => x + 1") == \
        ArrowTy(PROP, ArrowTy(REAL, REAL))


def test_mkbool_components_must_be_props():
    with pytest.raises(TypecheckError):
        ty_of("mkbool 1 False")
    with pytest.raises(TypecheckError):
        ty_of("is_true True")


def _check_items(items, ctx):
    for item in items:
        if isinstance(item, Def):
            ctx[item.name] = infer_type(ctx, item.body)
        elif isinstance(item, Eval):
            infer_type(ctx, item.expr)
    return ctx


def test_shipped_programs_typecheck():
    ctx = {}
    for item in load_prelude():
        ctx[item.name] = infer_type(ctx, item.body)
    assert ctx["band"] == ArrowTy(BOOL, ArrowTy(BOOL, BOOL))
    assert ctx["max"] == ArrowTy(REAL, ArrowTy(REAL, REAL))

    car = [i for i in parse_program(asset_source("car.msl"))
           if isinstance(i, (Def, Eval))]
    ctx = _check_items(car, dict(ctx))
    assert ctx["accel"] == ArrowTy(REAL, ArrowTy(REAL, REAL))

    roots = [i for i in parse_program(asset_source("roots.msl"))
             if isinstance(i, (Def, Eval))]
    ctx = _check_items(roots, dict(ctx))
    assert ctx["roots_interval"] == ArrowTy(ArrowTy(REAL, REAL), BOOL)


@pytest.mark.parametrize("source, error", [
    ("True + 1", "1:1: the left operand of '+' has type prop, expected real"),
    ("1 - True", "1:5: the right operand of '-' has type prop, expected real"),
    ("1 * True", "1:5: the right operand of '*' has type prop, expected real"),
    ("True / 2", "1:1: the left operand of '/' has type prop, expected real"),
    ("True < 1", "1:1: the left side of '<' has type prop, expected real"),
    ("1 < True", "1:5: the right side of '<' has type prop, expected real"),
    ("True ^ 2", "1:1: the base of '^' has type prop, expected real"),
    ("exists x : [0, 1], x",
     "1:20: the quantifier body has type real, expected prop"),
    ("forall x : [0, 1], 1",
     "1:20: the quantifier body has type real, expected prop"),
    ("cut x : [0, 1] left 1 right x > 0",
     "1:21: the left cut body has type real, expected prop"),
    ("cut x : [0, 1] left x < 0 right 1",
     "1:33: the right cut body has type real, expected prop"),
    ("True /\\ 1", "1:9: a conjunct has type real, expected prop"),
    ("1 \\/ True", "1:1: a disjunct has type real, expected prop"),
    ("mkbool 1 False",
     "1:8: the first mkbool component has type real, expected prop"),
    ("mkbool True 1",
     "1:13: the second mkbool component has type real, expected prop"),
    ("is_true True", "1:9: the is_true argument has type prop, expected bool"),
    ("is_false 1", "1:10: the is_false argument has type real, expected bool"),
    ("1 ~> 2", "1:1: a restriction guard has type real, expected prop"),
])
def test_each_child_type_error_names_the_child(source, error):
    # The name of a child is formatted, with its node's operator, only
    # when the child has the wrong type.
    with pytest.raises(TypecheckError) as err:
        ty_of(source)
    assert err.value.format() == error
