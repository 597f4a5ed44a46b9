"""Reduction to normal form: an n-ary choice of join-free expressions.

Normalization eliminates local definitions and redexes (beta, tuple
projection, the boolean projections is_true/is_false over mkbool) and
hoists nondeterministic joins outward until a single top-level join of
join-free disjuncts remains; ``normalize`` returns them as a tuple.
Reduction also happens under binders.

Joins of real, bool, and tuple type distribute through the surrounding
construct (arithmetic, comparison, tuples, projections, application,
restriction bodies).  A join does not leave a function's body: a
function is one value, whose normal body is the ``Join`` of its
disjuncts, and each application reads that join again, so each call
chooses on its own.  That is the reading of a nondeterministic function
as A -> M B (Moggi, "Notions of computation and monads", 1991): in ``let
f = fun x : real => (x < 1 ~> 0 || x > 2 ~> 1) in f 0 + f 3`` the first
call takes the first branch and the second call the second.  So a
function body is the one place a normal form holds a ``Join``, and a
normal form of base type holds no function.  A prop-typed join coincides
with disjunction, so in any non-top-level position it is emitted as an
Or node instead of being distributed; distributing it through a
universal quantifier would change the meaning.

Three extra reductions keep evaluation total on well-typed programs:
projections and the boolean projections push through restriction
(``(g ~> e)#k`` becomes ``g ~> e#k``, ``is_true (g ~> b)`` becomes
``g /\\ is_true b``), and a prop-typed restriction itself, a projected
one included, collapses to a conjunction.  Literal conjunctions and
disjunctions are folded, and duplicate disjuncts of a join are dropped.

Nothing is substituted.  The one walk reads an environment that maps
each name a ``let`` or a beta step binds to one normal disjunct of its
value.  An application ``f a1 ... an`` normalizes its head and then
each argument once.  For each choice of one disjunct of each, a function
binds its leading parameters to the arguments all at once, and its
innermost body is read once under those bindings alone: a function is
normal when it is applied, so it holds no name of the environment.
Arguments left over go to each disjunct of what that body returns, and
a head that is not a function is applied by rebuilding its ``App``
nodes.  So a curried function applied to all its arguments is walked
once, and none of its inner ``fun``s is built.  A binder (``fun``,
``cut``, ``exists``, ``forall``) keeps the entries whose names are free
in it.  When a value it keeps has the binder's variable free, the
variable gets primes until the name is free neither in a kept value nor
in the binder, and the environment maps the old name to the new one.
The names are those of one beta step per argument, but for two cases
where the steps see other values: a function whose normal form binds a
primed name, which a step's renamed parameter can push one prime
further, and an argument that drops a later parameter, which then keeps
no value in the later step.  Either way the terms differ in bound names
alone.
A ``let`` name never reaches the output, so it is never renamed.  The
context types the variables of the output: a restriction is at prop
when its body's normal form is.

Equal closed cuts denote the same real, so they are one object:
``_intern`` picks the object for every closed cut ``normalize`` builds,
and while a closed cut is alive every equal one that any call builds is
that object.  Every copy of a closed cut that the environment spreads
through a term (``max (sqrt 2) (cbrt 3)`` holds each argument in both
the left and the right predicate of its cut) is the same node, and a
refinement sweep refines it once (see ``evaluator``).  The table behind
``_intern`` is process-wide and holds its cuts weakly, as keys and as
values.  It cannot change a meaning, because nodes are immutable and
what is kept on one depends on the node alone (see ``syntax.Expr``), so
an equal object serves as well.  It cannot hold memory, because a cut
leaves it once the cut is collected.

The normal form of a closed node depends on the node alone: the
context and the environment only concern free variables.  So the
disjuncts of a closed ``let``-bound are kept on it (``_nform``) the
first time they are built, and each disjunct, being normal, keeps ``()``
for itself, as does every closed cut ``normalize`` builds: no node
refers to itself, so reference counting frees a cut that nothing uses.
A kept normal form is never built again, and the closed cuts in it stay
in the table while it is kept.  The definitions a session stores are
closed and are let-bound around each evaluation that uses them (see
``cli``), so each is normalized once per session, however often it is
used.

The distribution of joins through comparisons, arithmetic, powers and
tuples reaches children through the node shapes of ``syntax``
(``children``, ``rebuild``); the other cases are written out.
"""

from __future__ import annotations

import weakref
from itertools import product

from .syntax import (
    And, App, Arith, Cut, Exists, FalseLit, Forall, IsFalse, IsTrue, Join,
    Lambda, Less, Let, MkBool, Or, PROP, Pow, Proj, RatLit, REAL, Restrict,
    Tuple, TrueLit, Var, children, free_vars, keep, rebuild,
)
from .typecheck import infer_type


def normalize(e):
    """Normalize a closed, well-typed expression to a non-empty tuple of
    join-free disjuncts, any of which may answer."""
    return tuple(_nf(e, {}, {}))


# ---------------------------------------------------------------------------
# Smart constructors


def mk_and(items):
    """Conjunction with flattening and literal folding."""
    return _connective(items, And, TrueLit, FalseLit)


def mk_or(items):
    """Disjunction with flattening and literal folding."""
    return _connective(items, Or, FalseLit, TrueLit)


def _connective(items, node, unit, zero):
    """``node`` of ``items``, flattening nested ``node``s: ``zero`` if an
    item is one, the lone item, or ``unit`` if none is left after
    dropping the ``unit``s."""
    flat = []
    for item in items:
        if isinstance(item, zero):
            return zero()
        if isinstance(item, unit):
            continue
        if isinstance(item, node):
            flat.extend(item.items)
        else:
            flat.append(item)
    if not flat:
        return unit()
    if len(flat) == 1:
        return flat[0]
    return node(tuple(flat))


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


def _nf(e, ctx, env):
    if e._nform is not None:
        return e._nform or (e,)
    if isinstance(e, Var):
        return [env.get(e.name, e)]
    if isinstance(e, (TrueLit, FalseLit, RatLit)):
        return [e]
    if isinstance(e, Join):
        out = []
        for item in e.items:
            out.extend(_nf(item, ctx, env))
        return _dedup(out)
    if isinstance(e, And):
        return [mk_and([_embed(_nf(item, ctx, env)) for item in e.items])]
    if isinstance(e, Or):
        return [mk_or([_embed(_nf(item, ctx, env)) for item in e.items])]
    if isinstance(e, (Less, Arith, Pow, Tuple)):
        # Distribute the joins of the children: one node per choice.
        return [rebuild(e, row) for row in
                product(*[_nf(kid, ctx, env) for kid in children(e)])]
    if isinstance(e, Proj):
        return _dedup([_proj_reduce(d, e.index, ctx)
                       for d in _nf(e.tuple_, ctx, env)])
    if isinstance(e, Lambda):
        # One function, whose body chooses at each call (``_apply``).
        var, ctx, env = _enter(e, e.var_ty, ctx, env)
        body = _nf(e.body, ctx, env)
        return [Lambda(var, e.var_ty,
                       body[0] if len(body) == 1 else Join(tuple(body)))]
    if isinstance(e, App):
        # The spine ``f a1 ... an``: the head, then each argument, once.
        args = []
        while isinstance(e, App):
            args.append(e.arg)
            e = e.fn
        args.reverse()
        out = []
        for fn, *row in product(_nf(e, ctx, env),
                                *[_nf(arg, ctx, env) for arg in args]):
            out.extend(_apply(fn, row, ctx))
        return _dedup(out)
    if isinstance(e, Let):
        bounds = _nf(e.bound, ctx, env)
        if e.bound._nform is None and not free_vars(e.bound):
            own = len(bounds) == 1 and bounds[0] is e.bound
            keep(e.bound, "_nform", () if own else tuple(bounds))
            for d in bounds:
                if d._nform is None:
                    keep(d, "_nform", ())  # normal already
        out = []
        for bound in bounds:
            out.extend(_nf(e.body, ctx, {**env, e.var: bound}))
        return _dedup(out)
    if isinstance(e, Cut):
        var, ctx, env = _enter(e, REAL, ctx, env)
        left = _embed(_nf(e.left, ctx, env))
        right = _embed(_nf(e.right, ctx, env))
        cut = Cut(var, e.range, left, right)
        return [cut if free_vars(cut) else _intern(cut)]
    if isinstance(e, (Exists, Forall)):
        var, ctx, env = _enter(e, REAL, ctx, env)
        return [type(e)(var, e.range, _embed(_nf(e.body, ctx, env)))]
    if isinstance(e, Restrict):
        guard = _embed(_nf(e.guard, ctx, env))
        body = _nf(e.body, ctx, env)
        if infer_type(ctx, body[0]) == PROP:
            # Restriction at prop is conjunction with the guard.  The body
            # is typed in its normal form, whose names ``ctx`` types.
            return [mk_and([guard, _embed(body)])]
        return [Restrict(guard, d) for d in body]
    if isinstance(e, MkBool):
        p = _embed(_nf(e.if_true, ctx, env))
        q = _embed(_nf(e.if_false, ctx, env))
        return [MkBool(p, q)]
    if isinstance(e, (IsTrue, IsFalse)):
        return _dedup([_bool_project(d, type(e))
                       for d in _nf(e.arg, ctx, env)])
    raise TypeError(f"normalize: {type(e).__name__}")


def _enter(e, ty, ctx, env):
    """The output name of the variable of binder ``e``, typed ``ty``, and
    the context and environment of its children: renamed with primes when
    a value the environment keeps for ``e`` has the variable free."""
    var = e.var
    fv = free_vars(e)
    env = {name: d for name, d in env.items() if name in fv}
    taken = fv.union(*map(free_vars, env.values()))
    if var in taken:
        fresh = var + "'"
        while fresh in taken:
            fresh += "'"
        env[var] = Var(fresh)
        var = fresh
    return var, {**ctx, var: ty}, env


def _apply(fn, args, ctx):
    """The disjuncts of the normal ``fn`` applied to the normal ``args``:
    its leading parameters are bound at once, and what it returns takes
    the arguments left over."""
    env = {}
    while args and isinstance(fn, Lambda):
        # A normal function holds no name of the caller's environment.
        env[fn.var] = args[0]
        fn, args = fn.body, args[1:]
    if not env:
        for arg in args:
            fn = App(fn, arg)
        return [fn]
    out = _nf(fn, ctx, env)
    if args:
        return [d for result in out for d in _apply(result, args, ctx)]
    return out


# Each live closed cut that ``_nf`` built, mapped to a weak reference to
# itself: the table keeps no cut alive.
_CUTS = weakref.WeakKeyDictionary()


def _intern(cut):
    """The live closed cut equal to ``cut``, or ``cut`` itself, entered."""
    ref = _CUTS.get(cut)
    shared = None if ref is None else ref()
    if shared is not None:
        return shared
    keep(cut, "_nform", ())  # normal already
    _CUTS[cut] = weakref.ref(cut)
    return cut


def _proj_reduce(d, k, ctx):
    """``d#k`` of a normal disjunct ``d``, pushed through its tuple and
    its restrictions; one at prop is conjunction with its guard."""
    if isinstance(d, Tuple):
        return d.items[k - 1]
    if isinstance(d, Restrict):
        body = _proj_reduce(d.body, k, ctx)
        if infer_type(ctx, body) == PROP:
            return mk_and([d.guard, body])
        return Restrict(d.guard, body)
    return Proj(d, k)


def _bool_project(d, node):
    """``node d`` of a normal disjunct ``d``, for ``node`` ``IsTrue`` or
    ``IsFalse``, pushed through its mkbool and its restrictions."""
    if isinstance(d, MkBool):
        return d.if_true if node is IsTrue else d.if_false
    if isinstance(d, Restrict):
        return mk_and([d.guard, _bool_project(d.body, node)])
    return node(d)

