"""Reduction to normal form: an n-ary choice of join-free expressions.

Normalization eliminates local definitions and redexes (beta, tuple
projection, the boolean projections is_true/is_false over mkbool) and
hoists nondeterministic joins outward until a single top-level join of
join-free disjuncts remains; ``normalize`` returns them as a tuple.
Reduction also happens under binders.

Joins of real, bool, and tuple type distribute through the surrounding
construct (arithmetic, comparison, tuples, projections, application,
restriction bodies) and hoist out of lambdas, committing each choice
once per program.  A prop-typed join coincides with disjunction, so in
any non-top-level position it is emitted as an Or node instead of being
distributed; distributing it through a universal quantifier would change
the meaning.

Three extra reductions keep evaluation total on well-typed programs:
projections and the boolean projections push through restriction
(``(g ~> e)#k`` becomes ``g ~> e#k``, ``is_true (g ~> b)`` becomes
``g /\\ is_true b``), and a prop-typed restriction itself collapses to a
conjunction.  Literal conjunctions and disjunctions are folded, and
duplicate disjuncts of a join are dropped.

Equal closed cuts denote the same real, so they are one object:
``_intern`` picks the object for every closed cut ``normalize`` builds,
and while a closed cut is alive every equal one that any call builds is
that object.  Every copy of a closed cut that substitution spreads
through a term (``max (sqrt 2) (cbrt 3)`` holds each argument in both
the left and the right predicate of its cut) is the same node, and a
refinement sweep refines it once (see ``evaluator``).  Substitution
returns a subtree in which the name is not free as the same object.
The table behind ``_intern`` is process-wide and holds its cuts weakly,
as keys and as values.  It cannot change a meaning, because nodes are
immutable and what is kept on one depends on the node alone (see
``syntax.Expr``), so an equal object serves as well.  It cannot hold
memory, because a cut leaves it once the cut is collected.

The normal form of a closed node depends on the node alone: the
context only types free variables.  So the disjuncts of a closed
``let``-bound are kept on it (``_nform``) the first time they are built,
and each disjunct, being normal, keeps itself, as does every closed cut
``normalize`` builds.  A kept normal form is never built again, and the
closed cuts in it stay in the table while it is kept.  The definitions a
session stores are closed and are let-bound around each evaluation that
uses them (see ``cli``), so each is normalized once per session, however
often it is used.

Substitution, and the distribution of joins through comparisons,
arithmetic, powers and tuples, reach children through the node shapes of
``syntax`` (``children``, ``rebuild``); the other cases are written out.
"""

from __future__ import annotations

import weakref
from dataclasses import replace
from itertools import product

from .syntax import (
    And, App, Arith, BINDERS, Cut, Exists, FalseLit, Forall, IsFalse, IsTrue,
    Join, Lambda, Less, Let, MkBool, Or, PROP, Pow, Proj, RatLit, REAL,
    Restrict, Tuple, TrueLit, Var, children, free_vars, keep, rebuild,
)
from .typecheck import infer_type


def normalize(e):
    """Normalize a closed, well-typed expression to a non-empty tuple of
    join-free disjuncts, any of which may answer."""
    return tuple(_nf(e, {}))


# ---------------------------------------------------------------------------
# Substitution


def substitute(name, value, e):
    """Capture-avoiding substitution of ``value`` for ``name`` in ``e``."""
    if name not in free_vars(e):
        return e  # the same object: closed cuts in it stay shared
    if isinstance(e, Var):
        return value
    if isinstance(e, Let):
        bound = substitute(name, value, e.bound)
        var, (body,) = _under_binder(name, value, e.var, (e.body,))
        return Let(var, bound, body, loc=e.loc)
    if isinstance(e, BINDERS):
        var, kids = _under_binder(name, value, e.var, children(e))
        e = rebuild(e, kids)
        return e if var == e.var else replace(e, var=var)
    return rebuild(e, [substitute(name, value, kid) for kid in children(e)])


def _under_binder(name, value, var, bodies):
    """Substitute under a binder of ``var``, renaming it if needed."""
    if var == name:
        return var, bodies  # shadowed: nothing to do below
    if any(name in free_vars(b) for b in bodies) and var in free_vars(value):
        avoid = free_vars(value) | {name}
        for b in bodies:
            avoid |= free_vars(b)
        fresh = _fresh(var, avoid)
        bodies = tuple(substitute(var, Var(fresh), b) for b in bodies)
        var = fresh
    return var, tuple(substitute(name, value, b) for b in bodies)


def _fresh(base, avoid):
    name = base + "'"
    while name in avoid:
        name += "'"
    return name


# ---------------------------------------------------------------------------
# Smart constructors


def mk_and(items):
    """Conjunction with flattening and literal folding."""
    flat = []
    for item in items:
        if isinstance(item, FalseLit):
            return FalseLit()
        if isinstance(item, TrueLit):
            continue
        if isinstance(item, And):
            flat.extend(item.items)
        else:
            flat.append(item)
    if not flat:
        return TrueLit()
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def mk_or(items):
    """Disjunction with flattening and literal folding."""
    flat = []
    for item in items:
        if isinstance(item, TrueLit):
            return TrueLit()
        if isinstance(item, FalseLit):
            continue
        if isinstance(item, Or):
            flat.extend(item.items)
        else:
            flat.append(item)
    if not flat:
        return FalseLit()
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def _embed(disjuncts):
    """Re-emit a prop-typed normal form as a single expression."""
    if len(disjuncts) == 1:
        return disjuncts[0]
    return mk_or(disjuncts)


def _dedup(disjuncts):
    if len(disjuncts) < 2:
        return disjuncts  # nothing to drop: skip hashing the tree
    return list(dict.fromkeys(disjuncts))


# ---------------------------------------------------------------------------
# The normalizer proper: returns the list of join-free disjuncts.


def _nf(e, ctx):
    if e._nform is not None:
        return e._nform
    if isinstance(e, (Var, TrueLit, FalseLit, RatLit)):
        return [e]
    if isinstance(e, Join):
        out = []
        for item in e.items:
            out.extend(_nf(item, ctx))
        return _dedup(out)
    if isinstance(e, And):
        return [mk_and([_embed(_nf(item, ctx)) for item in e.items])]
    if isinstance(e, Or):
        return [mk_or([_embed(_nf(item, ctx)) for item in e.items])]
    if isinstance(e, (Less, Arith, Pow, Tuple)):
        # Distribute the joins of the children: one node per choice.
        return [rebuild(e, row) for row in
                product(*[_nf(kid, ctx) for kid in children(e)])]
    if isinstance(e, Proj):
        return [_proj_reduce(d, e.index) for d in _nf(e.tuple_, ctx)]
    if isinstance(e, Lambda):
        inner = {**ctx, e.var: e.var_ty}
        return [Lambda(e.var, e.var_ty, d) for d in _nf(e.body, inner)]
    if isinstance(e, App):
        out = []
        for fn in _nf(e.fn, ctx):
            for arg in _nf(e.arg, ctx):
                if isinstance(fn, Lambda):
                    body = substitute(fn.var, arg, fn.body)
                    out.extend(_nf(body, ctx))
                else:
                    out.append(App(fn, arg))
        return _dedup(out)
    if isinstance(e, Let):
        bounds = _nf(e.bound, ctx)
        if e.bound._nform is None and not free_vars(e.bound):
            keep(e.bound, "_nform", tuple(bounds))
            for d in bounds:
                if d._nform is None:
                    keep(d, "_nform", (d,))  # normal already
        out = []
        for bound in bounds:
            out.extend(_nf(substitute(e.var, bound, e.body), ctx))
        return _dedup(out)
    if isinstance(e, Cut):
        inner = {**ctx, e.var: REAL}
        left = _embed(_nf(e.left, inner))
        right = _embed(_nf(e.right, inner))
        cut = Cut(e.var, e.range, left, right)
        return [cut if free_vars(cut) else _intern(cut)]
    if isinstance(e, (Exists, Forall)):
        body = _embed(_nf(e.body, {**ctx, e.var: REAL}))
        return [type(e)(e.var, e.range, body)]
    if isinstance(e, Restrict):
        guard = _embed(_nf(e.guard, ctx))
        if infer_type(ctx, e.body) == PROP:
            # Restriction at prop is conjunction with the guard.
            return [mk_and([guard, _embed(_nf(e.body, ctx))])]
        return [Restrict(guard, d) for d in _nf(e.body, ctx)]
    if isinstance(e, MkBool):
        p = _embed(_nf(e.if_true, ctx))
        q = _embed(_nf(e.if_false, ctx))
        return [MkBool(p, q)]
    if isinstance(e, IsTrue):
        return _dedup([_bool_project(d, True) for d in _nf(e.arg, ctx)])
    if isinstance(e, IsFalse):
        return _dedup([_bool_project(d, False) for d in _nf(e.arg, ctx)])
    raise TypeError(f"normalize: {type(e).__name__}")


# Each live closed cut that ``_nf`` built, mapped to a weak reference to
# itself: the table keeps no cut alive.
_CUTS = weakref.WeakKeyDictionary()


def _intern(cut):
    """The live closed cut equal to ``cut``, or ``cut`` itself, entered."""
    ref = _CUTS.get(cut)
    shared = None if ref is None else ref()
    if shared is not None:
        return shared
    keep(cut, "_nform", (cut,))  # normal already
    _CUTS[cut] = weakref.ref(cut)
    return cut


def _proj_reduce(d, k):
    if isinstance(d, Tuple):
        return d.items[k - 1]
    if isinstance(d, Restrict):
        return Restrict(d.guard, _proj_reduce(d.body, k))
    return Proj(d, k)


def _bool_project(d, want_true):
    if isinstance(d, MkBool):
        return d.if_true if want_true else d.if_false
    if isinstance(d, Restrict):
        return mk_and([d.guard, _bool_project(d.body, want_true)])
    return IsTrue(d) if want_true else IsFalse(d)

