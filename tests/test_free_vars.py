"""The free-variable sets kept on nodes, and the node shapes, agree with a
plain recursion over the dataclass fields."""

import dataclasses
import operator
from fractions import Fraction

from hypothesis import given, strategies as st

from msl.interval import XRat
from msl.syntax import (
    And, App, Arith, Cut, Exists, Expr, FalseLit, Forall, IsFalse, IsTrue,
    Join, Lambda, Less, Let, MkBool, Or, Pow, Proj, REAL, Range, RatLit,
    Restrict, Tuple, TrueLit, Var, children, free_vars, keep,
    parse_expression, rebuild,
)

NAMES = ("x", "y", "z")  # few names, so binders often shadow each other
UNIT = Range(XRat(0), XRat(1))


def reference_children(e):
    """The child expressions of ``e``, found among its dataclass fields."""
    out = []
    for f in dataclasses.fields(e):
        value = getattr(e, f.name)
        for child in value if isinstance(value, tuple) else (value,):
            if isinstance(child, Expr):
                out.append(child)
    return out


def reference_free_vars(e):
    """The free variable names of ``e``, recomputed from scratch."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, (TrueLit, FalseLit, RatLit)):
        return set()
    if isinstance(e, Cut):
        return (reference_free_vars(e.left)
                | reference_free_vars(e.right)) - {e.var}
    if isinstance(e, (Exists, Forall, Lambda)):
        return reference_free_vars(e.body) - {e.var}
    if isinstance(e, Let):
        return (reference_free_vars(e.bound)
                | (reference_free_vars(e.body) - {e.var}))
    out = set()
    for child in reference_children(e):
        out |= reference_free_vars(child)
    return out


def trees(data, pool, depth):
    """A random tree of every node kind.  Subtrees already built are
    reused from ``pool`` (so one object sits in several positions), and
    some get their set computed before their parent exists."""
    if pool and data.draw(st.integers(0, 4)) == 0:
        return data.draw(st.sampled_from(pool))
    name = data.draw(st.sampled_from(NAMES))
    kinds = ["var", "lit", "true", "false"]
    if depth > 0:
        kinds += ["cut", "exists", "forall", "lambda", "let", "and", "or",
                  "join", "tuple", "less", "arith", "pow", "app", "proj",
                  "restrict", "mkbool", "is_true", "is_false"]
    kind = data.draw(st.sampled_from(kinds))

    def sub():
        return trees(data, pool, depth - 1)

    if kind == "var":
        e = Var(name)
    elif kind == "lit":
        e = RatLit(Fraction(data.draw(st.integers(-3, 3))))
    elif kind == "true":
        e = TrueLit()
    elif kind == "false":
        e = FalseLit()
    elif kind == "cut":
        e = Cut(name, UNIT, sub(), sub())
    elif kind in ("exists", "forall"):
        e = (Exists if kind == "exists" else Forall)(name, UNIT, sub())
    elif kind == "lambda":
        e = Lambda(name, REAL, sub())
    elif kind == "let":
        e = Let(name, sub(), sub())
    elif kind in ("and", "or", "join", "tuple"):
        node = {"and": And, "or": Or, "join": Join, "tuple": Tuple}[kind]
        e = node(tuple(sub() for _ in range(data.draw(st.integers(0, 3)))))
    elif kind in ("less", "arith"):
        e = Less(sub(), sub()) if kind == "less" \
            else Arith(data.draw(st.sampled_from("+-*/")), sub(), sub())
    elif kind == "pow":
        e = Pow(sub(), data.draw(st.integers(0, 3)))
    elif kind == "app":
        e = App(sub(), sub())
    elif kind == "proj":
        e = Proj(sub(), 1)
    elif kind == "restrict":
        e = Restrict(sub(), sub())
    elif kind == "mkbool":
        e = MkBool(sub(), sub())
    else:
        e = (IsTrue if kind == "is_true" else IsFalse)(sub())
    if data.draw(st.booleans()):
        free_vars(e)
    pool.append(e)
    return e


def replaced(data, e, pool):
    """``e`` with one field swapped by ``dataclasses.replace``."""
    names = [f.name for f in dataclasses.fields(e) if f.name != "loc"]
    if not names:
        return e
    field = data.draw(st.sampled_from(names))
    value = getattr(e, field)
    if field in ("var", "name"):
        new = data.draw(st.sampled_from(NAMES))
    elif isinstance(value, tuple):
        new = value + (data.draw(st.sampled_from(pool)),)
    elif isinstance(value, Expr):
        new = data.draw(st.sampled_from(pool))
    else:
        return e
    return dataclasses.replace(e, **{field: new})


@given(st.data())
def test_cached_free_vars_match_the_reference(data):
    pool = []
    e = trees(data, pool, depth=4)
    for node in [e] + pool:
        assert free_vars(node) == reference_free_vars(node)
        assert isinstance(free_vars(node), frozenset)
    # A node made by dataclasses.replace from one whose set is kept
    # computes its own.
    for node in pool:
        other = replaced(data, node, pool)
        assert free_vars(other) == reference_free_vars(other)


@given(st.data())
def test_kept_sets_leave_equality_hash_and_repr_alone(data):
    pool = []
    e = trees(data, pool, depth=3)
    before = (repr(e), hash(e), [f.name for f in dataclasses.fields(e)])
    free_vars(e)
    assert (repr(e), hash(e), [f.name for f in dataclasses.fields(e)]) \
        == before
    copy = dataclasses.replace(e)  # equal, with no kept set
    assert copy == e and hash(copy) == hash(e) and repr(copy) == repr(e)


def test_shadowing_binders():
    e = parse_expression(
        "let x = y in (fun y : real => x + y) (cut x : [0, 1] "
        "left (x < z /\\ exists z : [0, 1], z < x) right w < x)")
    assert free_vars(e) == reference_free_vars(e) == {"y", "z", "w"}


#: What a node may keep (see ``Expr``), with stand-in values.
KEPT = {"_settled": 1, "_lower": True, "_upper": True, "_sides": (None, []),
        "_ty": object(), "_nform": (), "_code": []}


@given(st.data())
def test_shape_table_matches_the_dataclass_fields(data):
    """``children`` reads the fields the reference reads, and ``rebuild``
    makes what ``dataclasses.replace`` makes, keeping nothing of ``e``."""
    pool = []
    trees(data, pool, depth=3)
    for k, node in enumerate(pool):
        node = dataclasses.replace(node, loc=(1, k + 1))
        kids = children(node)
        assert isinstance(kids, tuple)
        assert len(kids) == len(reference_children(node))
        assert all(map(operator.is_, kids, reference_children(node)))
        free_vars(node), hash(node)
        for attr, value in KEPT.items():
            keep(node, attr, value)
        assert rebuild(node, kids) is node
        if not kids:
            continue
        # Swap one child; the reference swaps the field that holds it.
        i = data.draw(st.integers(0, len(kids) - 1))
        new = data.draw(st.sampled_from(pool).filter(
            lambda x: x is not kids[i]))
        swapped = kids[:i] + (new,) + kids[i + 1:]
        if hasattr(node, "items"):
            want = dataclasses.replace(node, items=swapped)
        else:
            name = [f.name for f in dataclasses.fields(node)
                    if isinstance(getattr(node, f.name), Expr)][i]
            want = dataclasses.replace(node, **{name: new})
        got = rebuild(node, swapped)
        assert not set(vars(got)) & {"_fv", "_hash", *KEPT}
        assert type(got) is type(want) and got == want
        assert hash(got) == hash(want) and repr(got) == repr(want)
        assert got.loc == want.loc == node.loc
