"""Cross-module properties on randomly generated well-typed programs."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from msl.evaluator import BoolFF, BoolTT, PropFalseProven, PropTrue, run
from msl.interval import XRat
from msl.normalize import normalize
from msl.syntax import (
    And, App, Arith, ArrowTy, BOOL, Cut, Exists, FalseLit, Forall, IsFalse,
    IsTrue, Join, Lambda, Less, Let, MkBool, Or, PROP, Pow, ProductTy, Proj,
    Range, RatLit, REAL, Restrict, Tuple, TrueLit, Var, parse_expression,
)
from msl.typecheck import infer_type
from test_free_vars import reference_children

F = Fraction


# --- a generator of closed well-typed expressions -------------------------------


class TypedGen:
    def __init__(self, rng):
        self.rng = rng
        self.counter = 0

    def fresh(self):
        self.counter += 1
        return f"v{self.counter}"

    def rat(self):
        return F(self.rng.randint(-8, 8), self.rng.randint(1, 6))

    def rrange(self):
        lo = self.rat()
        return Range(XRat(lo), XRat(lo + abs(self.rat()) + 1))

    def expr(self, ty, ctx, depth):
        rng = self.rng
        if depth <= 0:
            return self.leaf(ty, ctx)
        roll = rng.random()
        if ty == REAL:
            if roll < 0.25:
                op = rng.choice("+-*/")
                return Arith(op, self.expr(REAL, ctx, depth - 1),
                             self.expr(REAL, ctx, depth - 1))
            if roll < 0.35:
                return Pow(self.expr(REAL, ctx, depth - 1), rng.randint(0, 3))
            if roll < 0.45:
                x = self.fresh()
                return Cut(x, self.rrange(),
                           self.expr(PROP, {**ctx, x: REAL}, depth - 1),
                           self.expr(PROP, {**ctx, x: REAL}, depth - 1))
            if roll < 0.55:
                return Restrict(self.expr(PROP, ctx, depth - 1),
                                self.expr(REAL, ctx, depth - 1))
            if roll < 0.65:
                return Join((self.expr(REAL, ctx, depth - 1),
                             self.expr(REAL, ctx, depth - 1)))
            return self.via_binding(REAL, ctx, depth)
        if ty == PROP:
            if roll < 0.2:
                items = tuple(self.expr(PROP, ctx, depth - 1)
                              for _ in range(rng.randint(2, 3)))
                return And(items) if rng.random() < 0.5 else Or(items)
            if roll < 0.45:
                return Less(self.expr(REAL, ctx, depth - 1),
                            self.expr(REAL, ctx, depth - 1))
            if roll < 0.6:
                x = self.fresh()
                node = Exists if rng.random() < 0.5 else Forall
                return node(x, self.rrange(),
                            self.expr(PROP, {**ctx, x: REAL}, depth - 1))
            if roll < 0.7:
                arg = self.expr(BOOL, ctx, depth - 1)
                return IsTrue(arg) if rng.random() < 0.5 else IsFalse(arg)
            if roll < 0.8:
                return Join((self.expr(PROP, ctx, depth - 1),
                             self.expr(PROP, ctx, depth - 1)))
            if roll < 0.88:
                return Restrict(self.expr(PROP, ctx, depth - 1),
                                self.expr(PROP, ctx, depth - 1))
            return self.via_binding(PROP, ctx, depth)
        if ty == BOOL:
            if roll < 0.5:
                return MkBool(self.expr(PROP, ctx, depth - 1),
                              self.expr(PROP, ctx, depth - 1))
            if roll < 0.65:
                return Restrict(self.expr(PROP, ctx, depth - 1),
                                self.expr(BOOL, ctx, depth - 1))
            if roll < 0.75:
                return Join((self.expr(BOOL, ctx, depth - 1),
                             self.expr(BOOL, ctx, depth - 1)))
            return self.via_binding(BOOL, ctx, depth)
        if isinstance(ty, ProductTy):
            return Tuple(tuple(self.expr(t, ctx, depth - 1)
                               for t in ty.items))
        assert isinstance(ty, ArrowTy)
        x = self.fresh()
        return Lambda(x, ty.arg,
                      self.expr(ty.result, {**ctx, x: ty.arg}, depth - 1))

    def via_binding(self, ty, ctx, depth):
        rng = self.rng
        if rng.random() < 0.5:  # let
            x = self.fresh()
            bound_ty = rng.choice((REAL, PROP, BOOL))
            return Let(x, self.expr(bound_ty, ctx, depth - 1),
                       self.expr(ty, {**ctx, x: bound_ty}, depth - 1))
        if rng.random() < 0.5:  # application of a fresh lambda
            arg_ty = rng.choice((REAL, PROP))
            fn = self.expr(ArrowTy(arg_ty, ty), ctx, depth - 1)
            return App(fn, self.expr(arg_ty, ctx, depth - 1))
        # projection out of a two-tuple
        other = rng.choice((REAL, PROP))
        pair = Tuple((self.expr(ty, ctx, depth - 1),
                      self.expr(other, ctx, depth - 1)))
        return Proj(pair, 1)

    def leaf(self, ty, ctx):
        rng = self.rng
        candidates = [name for name, t in ctx.items() if t == ty]
        if candidates and rng.random() < 0.5:
            return Var(rng.choice(candidates))
        if ty == REAL:
            return RatLit(self.rat())
        if ty == PROP:
            if rng.random() < 0.5:
                return TrueLit() if rng.random() < 0.5 else FalseLit()
            return Less(RatLit(self.rat()), RatLit(self.rat()))
        if ty == BOOL:
            return MkBool(self.leaf(PROP, ctx), self.leaf(PROP, ctx))
        if isinstance(ty, ProductTy):
            return Tuple(tuple(self.leaf(t, ctx) for t in ty.items))
        assert isinstance(ty, ArrowTy)
        x = self.fresh()
        return Lambda(x, ty.arg, self.leaf(ty.result, {**ctx, x: ty.arg}))


#: The evaluator's whole input contract: the node kinds of a base-typed
#: normal form.  A ``Join`` is only ever in the body of a function, and
#: a base-typed normal form holds no function.
CORE_NODES = (RatLit, Var, Arith, Pow, Cut, Less, And, Or, TrueLit, FalseLit,
              Exists, Forall, MkBool, Tuple, Restrict)
PROP_NODES = (Less, And, Or, TrueLit, FalseLit, Exists, Forall)


def _assert_join_free(e):
    """Every node is a core node, and no restriction is at prop type (a
    prop-typed one collapses to a conjunction)."""
    assert isinstance(e, CORE_NODES), e
    if isinstance(e, Restrict):
        body = e.body
        while isinstance(body, Restrict):
            body = body.body
        assert not isinstance(body, PROP_NODES), e
    for child in reference_children(e):
        _assert_join_free(child)


def test_normalization_terminates_preserves_types_and_is_join_free():
    rng = random.Random(31_337)
    gen = TypedGen(rng)
    types = [REAL, PROP, BOOL, ProductTy((REAL, PROP)),
             ProductTy((BOOL, REAL))]
    for i in range(150):
        ty = rng.choice(types)
        e = gen.expr(ty, {}, depth=3)
        assert infer_type({}, e) == ty
        nform = normalize(e)
        assert 1 <= len(nform) <= 256
        for d in nform:
            _assert_join_free(d)
            assert infer_type({}, d) == ty, (e, d)


def test_normalization_is_idempotent_per_disjunct():
    rng = random.Random(90_210)
    gen = TypedGen(rng)
    for _ in range(60):
        e = gen.expr(rng.choice((REAL, PROP, BOOL)), {}, depth=3)
        for d in normalize(e):
            again = normalize(d)
            assert list(again) == [d] or all(x in list(normalize(e))
                                             for x in again)


# --- the whole pipeline on random programs -------------------------------------------


def test_run_is_total_on_random_programs():
    """Every well-typed closed program yields an Outcome: an answer,
    a proven falsehood, or Diverged, but never an internal error."""
    from msl.evaluator import Outcome, run

    rng = random.Random(424_242)
    gen = TypedGen(rng)
    types = [REAL, PROP, BOOL, ProductTy((REAL, PROP)),
             ProductTy((BOOL, REAL))]
    for _ in range(150):
        e = gen.expr(rng.choice(types), {}, depth=3)
        out = run(e, max_steps=20)
        assert isinstance(out, Outcome), e


def test_pruned_subterms_propagate():
    from msl.evaluator import Diverged, PropFalseProven, run
    from msl.syntax import parse_expression

    # an undefined operand poisons the whole disjunct
    out = run(parse_expression("((2 < 1) ~> 1) + 2"), max_steps=50)
    assert isinstance(out, Diverged)
    out = run(parse_expression("(((2 < 1) ~> 1) + 2) || 7"), max_steps=50)
    from msl.evaluator import RealBall
    from fractions import Fraction as FF
    assert out == RealBall(FF(7), FF(0))
    # a prop over an undefined real is proven false once pruned
    out = run(parse_expression("((2 < 1) ~> 1) < 5"), max_steps=50)
    assert out == PropFalseProven()


# --- adequacy with variable-tracking witnesses ---------------------------------------


def test_nested_quantifiers_with_cross_terms():
    from msl.evaluator import PropFalseProven, PropTrue
    from msl.syntax import parse_expression

    cases = [
        # the inner witness must follow the outer variable
        ("forall x : [0,1], exists y : [0,1], (x - y)*(x - y) < 1/10",
         PropTrue()),
        ("forall x : [0,1], exists y : [0,1], (x - y)*(x - y) < 1/100",
         PropTrue()),
        ("forall x : [0,1], exists y : [0,1], y < x - 1/2",
         PropFalseProven()),
        ("exists x : [0,1], forall y : [0,1], (x - y)*(x - y) < 2",
         PropTrue()),
        # robustly false: y in (1/2, 1] fails for every x in [0,1]
        ("exists x : [0,1], forall y : [0,1], y < x - 1/2",
         PropFalseProven()),
        ("forall x : [0,2], x*x - x < 9/4", PropTrue()),
        ("exists x : [0,2], x*x - x < -1/8", PropTrue()),
        ("exists x : [0,2], x*x - x < -9/10", PropFalseProven()),
    ]
    for src, want in cases:
        out = run(parse_expression(src), max_steps=50_000)
        assert out == want, (src, out)


# --- adequacy of total booleans ----------------------------------------------------


def _quad_min(A, B, C, lo, hi):
    def q(v):
        return A * v * v + B * v + C
    values = [q(lo), q(hi)]
    if A != 0:
        vertex = -B / (2 * A)
        if lo <= vertex <= hi:
            values.append(q(vertex))
    return min(values)


def test_total_booleans_terminate():
    """mkbool (exists x, p(x) < t) (forall x, p(x) > t - 1/2) is always
    covering; when the oracle certifies one side robustly, evaluation
    must answer tt or ff within the budget: the certified side, or
    either where both are certified."""
    rng = random.Random(60_606)
    checked = 0
    while checked < 30:
        A, B = F(rng.randint(-2, 2)), F(rng.randint(-3, 3))
        C = F(rng.randint(-4, 4), 2)
        lo = F(rng.randint(-2, 1))
        hi = lo + rng.randint(1, 3)
        t = F(rng.randint(-3, 3), 2)
        mn = _quad_min(A, B, C, lo, hi)
        margin = F(1, 8)
        allowed = ({BoolTT()} if mn <= t - margin else set()) | (
            {BoolFF()} if mn >= t - F(1, 2) + margin else set())
        if not allowed:
            continue
        poly = f"{A} * x * x + {B} * x + ({C})"
        src = (f"mkbool (exists x : [{lo},{hi}], {poly} < {t}) "
               f"(forall x : [{lo},{hi}], {poly} > {t} - 1/2)")
        out = run(parse_expression(src), max_steps=100_000)
        assert out in allowed, (src, out)
        checked += 1


def test_a_total_boolean_answers_the_side_proven_first():
    # p(x) = 2x^2 - x - 1/2 has its minimum -5/8 at x = 1/4, so both
    # sides hold with margin 1/8.  The universal splits at 1/4 and is
    # proven in the second sweep, before midpoint splitting finds the
    # existential's witness: ff, where splitting the universal at its
    # midpoints answered tt.
    poly = "2 * x * x + -1 * x + (-1/2)"
    exists = f"exists x : [0,3], {poly} < -1/2"
    forall = f"forall x : [0,3], {poly} > -1/2 - 1/2"
    for prop in (exists, forall):
        assert run(parse_expression(prop)) == PropTrue()
    assert run(parse_expression(f"mkbool ({exists}) ({forall})")) == BoolFF()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_a_quadratic_universal_answers_within_three_steps(data):
    """forall x : [lo, hi], A x^2 + B x + C < t, its vertex inside the
    range, with t the exact maximum plus or minus a margin from 10^-2 to
    10^-20: proven or refuted, as the maximum says, within 3 steps."""
    def rational(bound):
        return F(data.draw(st.integers(-bound, bound)),
                 data.draw(st.integers(1, 9)))

    lo = rational(9)
    v = lo + F(data.draw(st.integers(1, 99)), data.draw(st.integers(1, 9)))
    hi = v + F(data.draw(st.integers(1, 99)), data.draw(st.integers(1, 9)))
    A = rational(9) or F(1)
    B, C = -2 * A * v, rational(9)
    delta = F(1, 10 ** data.draw(st.integers(2, 20)))
    holds = data.draw(st.booleans())
    mx = -_quad_min(-A, -B, -C, lo, hi)
    t = mx + delta if holds else mx - delta
    e = parse_expression(f"forall x : [{lo}, {hi}], "
                         f"{A} * x * x + ({B}) * x + ({C}) < {t}")
    assert run(e, max_steps=3) == (PropTrue() if holds
                                   else PropFalseProven()), e
