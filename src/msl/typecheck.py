"""Type checker for the surface language.

The context maps variable names to types; inner bindings shadow outer
ones.  Restriction and choice are only permitted at base types (types
with no function arrow); quantifier and cut bodies type their bound
variable at real.  Quantifier ranges must be finite closed intervals —
exhaustive search needs a compact range — while cut ranges may be open
or unbounded.

The type of a closed node depends on the node alone, so that of a
closed ``let``-bound is kept on it (``_ty``) once inferred and returned
from then on.  The CLI types each item once, as written in its session,
and keeps that type on the closed term it stores or runs, the item
let-bound in the stored definitions it uses.  So ``run`` types nothing
again, and a stored definition is never typed after its own item.
"""

from __future__ import annotations

from itertools import cycle

from .syntax import (
    And, App, Arith, ArrowTy, BINDERS, BOOL, Cut, Exists, FalseLit, Forall,
    IsFalse, IsTrue, Join, Lambda, Less, Let, MkBool, Or, PROP, Pow, ProductTy,
    Proj, RatLit, REAL, Restrict, SourceError, Tuple, TrueLit, Var, children,
    free_vars, keep, type_str,
)


class TypecheckError(SourceError):
    pass


def is_base(t):
    """True iff the type contains no function arrow."""
    if isinstance(t, ArrowTy):
        return False
    if isinstance(t, ProductTy):
        return all(is_base(item) for item in t.items)
    return True


#: The result type of each node kind whose children all have one fixed
#: type, that type, and what each child is called in an error (every
#: item of ``And`` and ``Or`` alike).  Cut and quantifier bodies type
#: their bound variable at real.
_SIGNATURES = {
    TrueLit: (PROP, None, ()),
    FalseLit: (PROP, None, ()),
    RatLit: (REAL, None, ()),
    Cut: (REAL, PROP, ("the left cut body", "the right cut body")),
    And: (PROP, PROP, ("a conjunct",)),
    Or: (PROP, PROP, ("a disjunct",)),
    Less: (PROP, REAL, ("the left side of '<'", "the right side of '<'")),
    Exists: (PROP, PROP, ("the quantifier body",)),
    Forall: (PROP, PROP, ("the quantifier body",)),
    Arith: (REAL, REAL, ("the left operand of '{}'",
                         "the right operand of '{}'")),
    Pow: (REAL, REAL, ("the base of '^'",)),
    MkBool: (BOOL, PROP, ("the first mkbool component",
                          "the second mkbool component")),
    IsTrue: (PROP, BOOL, ("the is_true argument",)),
    IsFalse: (PROP, BOOL, ("the is_false argument",)),
}


def infer_type(ctx, e):
    """Infer the unique type of ``e`` under ``ctx`` or raise TypecheckError."""
    if e._ty is not None:
        return e._ty
    if isinstance(e, Var):
        try:
            return ctx[e.name]
        except KeyError:
            raise TypecheckError(f"unbound variable '{e.name}'", e.loc) from None
    if isinstance(e, (Exists, Forall)) and (
            not e.range.is_finite or e.range.lo_open or e.range.hi_open):
        raise TypecheckError(
            "quantifier ranges must be finite closed intervals [a, b]", e.loc)
    signature = _SIGNATURES.get(type(e))
    if signature is not None:
        result, expected, names = signature
        if isinstance(e, BINDERS):
            ctx = {**ctx, e.var: REAL}
        op = getattr(e, "op", None)
        for kid, what in zip(children(e), cycle(names)):
            _check(ctx, kid, expected, what, op)
        return result
    if isinstance(e, Tuple):
        return ProductTy(tuple(infer_type(ctx, item) for item in e.items))
    if isinstance(e, Proj):
        t = infer_type(ctx, e.tuple_)
        if not isinstance(t, ProductTy):
            raise TypecheckError(
                f"projection from a non-tuple of type {type_str(t)}", e.loc)
        if not 1 <= e.index <= len(t.items):
            raise TypecheckError(
                f"projection index {e.index} out of range for {type_str(t)}",
                e.loc)
        return t.items[e.index - 1]
    if isinstance(e, Lambda):
        return ArrowTy(e.var_ty, infer_type({**ctx, e.var: e.var_ty}, e.body))
    if isinstance(e, App):
        fn_ty = infer_type(ctx, e.fn)
        if not isinstance(fn_ty, ArrowTy):
            raise TypecheckError(
                f"applying a non-function of type {type_str(fn_ty)}", e.loc)
        arg_ty = infer_type(ctx, e.arg)
        if arg_ty != fn_ty.arg:
            raise TypecheckError(
                f"argument has type {type_str(arg_ty)}, expected "
                f"{type_str(fn_ty.arg)}", e.loc)
        return fn_ty.result
    if isinstance(e, Let):
        bound_ty = infer_type(ctx, e.bound)
        if not free_vars(e.bound):
            keep(e.bound, "_ty", bound_ty)
        return infer_type({**ctx, e.var: bound_ty}, e.body)
    if isinstance(e, Restrict):
        _check(ctx, e.guard, PROP, "a restriction guard")
        t = infer_type(ctx, e.body)
        if not is_base(t):
            raise TypecheckError(
                f"'~>' needs a base-typed body, got {type_str(t)}", e.loc)
        return t
    if isinstance(e, Join):
        t = infer_type(ctx, e.items[0])
        if not is_base(t):
            raise TypecheckError(
                f"'||' needs base-typed branches, got {type_str(t)}", e.loc)
        for item in e.items[1:]:
            t2 = infer_type(ctx, item)
            if t2 != t:
                raise TypecheckError(
                    f"'||' branches disagree: {type_str(t)} vs {type_str(t2)}",
                    item.loc or e.loc)
        return t
    raise TypecheckError(f"cannot type {type(e).__name__}", getattr(e, "loc", None))


def _check(ctx, e, expected, what, op=None):
    """The type of ``e``, which must be ``expected``; ``what`` names it in
    the error, formatted with its node's ``op`` only then."""
    t = infer_type(ctx, e)
    if t != expected:
        raise TypecheckError(
            f"{what.format(op)} has type {type_str(t)}, expected "
            f"{type_str(expected)}", e.loc)
    return t
