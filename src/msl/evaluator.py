"""The operational core: approximation, refinement, and the run loop.

Every prop has two computable approximants.  The lower one may only say
"true" when the prop provably holds; the upper one may only say "false"
when it provably fails.  Both are driven by interval approximation of
the real subterms, with a single comparison rule -- ``e1 < e2`` holds
when the second endpoint of e1's generalized interval lies below the
first endpoint of e2's -- and a mode-dependent choice of the intervals
bound to quantified variables and cut ranges:

    =========  lower mode          upper mode
    cut var    its range <a, b>    dualized <b, a>
    forall     <a, b>              <b, a>
    exists     point <a, a>        <b, a>
    =========  ==================  ==================

In lower mode an existential is affirmed through a concrete witness
point (range splitting makes the probed points dense), and a universal
through the interval evaluation of its whole range; upper mode dualizes
the ranges so the same endpoint test becomes the optimistic reading,
refuting an existential only when the whole range fails and a universal
only when some subrange fails everywhere.

Each real term is compiled once into a straight-line program, kept on
the node (``compile_term``) and read three ways: over generalized
intervals (``real_approx``, and the naive test of a comparison), as a
value and slope at a point for the Newton steps of cut probes
(``_value_and_slope``), and as the centred form below (``Polynomial``).
A folded constant is an operand with a point range and no slope, and
point operations are exact, so it gives every reading the numbers a
dedicated constant operation would.  Every reading computes on plain
ints with unreduced denominators (``interval``): no ``Fraction`` is
built inside the loop, and a value becomes a ``GInterval`` only where
``real_approx`` hands it out.  So do the bindings and the narrowing of
cuts: an environment binds a quantified variable or a cut probe's
variable to the integer tuple of its box or point, and a cut's
endpoints, its Newton steps and its trisection points are integer pairs
until the two chosen endpoints become the ``Fraction``s of its new
range.  The arithmetic is exact, so the answers are those of
``GInterval`` and ``Fraction`` arithmetic.

Naive interval evaluation suffers the dependency problem: ``x*(1-x)``
over a box of width w is overestimated by about w, so near an extremum
the range splitting needs many leaves.  A comparison inside a quantifier
body whose sides are polynomials in the bound variables (only literals,
variables, ``+ - *`` and ``^``) over finite boxes therefore gets a second
test when the naive one leaves it undecided: the centred (mean-value)
form f(m) + sum_i d_i f(X) * (X_i - m_i) of f = lhs - rhs over the
boxes X with midpoint m, which overestimates by O(w^2).  It may only add
decisions -- "true" in lower mode, "false" in upper mode -- and is tried
only when f(m) already lies on the deciding side.  It is taken over the
undualized boxes.  That is sound in upper mode as well: there every
quantified variable is bound to a dual box, and every interval operation
is dual-homomorphic, so the upper-mode enclosure of a polynomial is
exactly the dual of its enclosure over the proper boxes, and any tighter
outer enclosure may stand in for it.  Cuts, restrictions, division,
unbounded boxes, cut probes and closed nodes keep the naive test.

Refinement rewrites an expression without changing its meaning: decided
props collapse to literals, cut ranges narrow by probes, quantifiers
split at range midpoints, proven guards unwrap and refuted guards prune
their branch.  The run loop alternates evaluation attempts with one fair
refinement sweep over all live disjuncts of the normal form until one
disjunct is precise enough to answer.

A finite cut range [a, b] narrows by lower-mode probes of ``left`` and
``right`` at chosen points; an endpoint moves only to a point where its
probe holds, so the choice of points bears on speed alone.  Each
comparison of the predicates gives a Newton step r from the midpoint,
computed exactly (closed cuts inside it enter at their midpoints), and
the points r -+ delta with delta about (b - a)^2, rounded outward to a
dyadic grid a few bits finer than delta.  Near a simple root this
doubles the correct bits per sweep.  A side where no Newton point holds
probes at its trisection point, (2a + b)/3 or (a + 2b)/3, which gains
0.58 bits.  In sweep n delta is at least 2^-(8 (n + 1))
(``PROBE_BITS_PER_SWEEP``), which bounds the bits a cut gains per
sweep.  A cut whose predicates read a variable bound above it is never
probed, so its range never narrows.

A sweep does each distinct piece of work once.  A closed prop's
approximants depend on the node alone, so each is decided once and kept
on the node, as is a comparison's compiled centred form.  A settled
subtree -- only variables, literals, ``+ - * /`` and powers, under
comparisons and connectives that have free variables and that
``mk_and``/``mk_or`` would not fold -- cannot change, so it comes back
by identity without a walk.  ``normalize`` makes equal closed cuts one
object, and a sweep refines each once and hands the result to its other
occurrences.  Work is metered in node visits, and a sweep stops refining
after ``SWEEP_VISIT_CAP`` of them.  Skipped work still counts: a settled
subtree adds its node count, and a shared cut adds the visits of its
first walk and logs its witnesses again.  A shared cut is reused only
when a walk of it would run in full below the cap.  So the cap binds
exactly where a full walk of every copy would make it bind.
Comparisons, arithmetic, powers and tuples are refined through the node
shapes of ``syntax``; ``rebuild`` keeps a node whose children all stay.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd

from .interval import (
    DivisionIndeterminate, ENTIRE, GInterval, XRat, add, below, box, div,
    ends, interval_of, mul, power, sub,
)
from .normalize import mk_and, mk_or, normalize
from .syntax import (
    And, Arith, BOOL, Cut, Exists, FalseLit, Forall, Less, MkBool, Or, PROP,
    Pow, ProductTy, Range, RatLit, Restrict, Tuple, TrueLit, Var, children,
    free_vars, keep, rebuild,
)
from .typecheck import infer_type, is_base


class EvalError(Exception):
    """An expression outside the evaluable normal-form fragment."""


class Mode(enum.Enum):
    LOWER = "lower"
    UPPER = "upper"


LOWER = Mode.LOWER
UPPER = Mode.UPPER


def no_info(mode):
    """The no-information interval for a mode."""
    return ENTIRE if mode is LOWER else ENTIRE.dual()


# ---------------------------------------------------------------------------
# Outcomes


@dataclass(frozen=True)
class Outcome:
    pass


@dataclass(frozen=True)
class RealBall(Outcome):
    center: Fraction
    radius: Fraction


@dataclass(frozen=True)
class PropTrue(Outcome):
    pass


@dataclass(frozen=True)
class PropFalseProven(Outcome):
    pass


@dataclass(frozen=True)
class BoolTT(Outcome):
    pass


@dataclass(frozen=True)
class BoolFF(Outcome):
    pass


@dataclass(frozen=True)
class TupleOf(Outcome):
    items: tuple


@dataclass(frozen=True)
class Diverged(Outcome):
    steps: int


@dataclass(frozen=True)
class FunctionValue(Outcome):
    pass


class _PrunedType:
    """Sentinel for a disjunct proven bottom (its guard was refuted)."""

    def __repr__(self):
        return "Pruned"


PRUNED = _PrunedType()


# ---------------------------------------------------------------------------
# Approximation


def real_approx(e, env, mode):
    """Interval approximation of a join-free real expression in ``mode``:
    a cut's range, or the value of its program (``compile_term``) read
    over generalized intervals."""
    if isinstance(e, Cut):
        r = e.range
        if mode is LOWER:
            return GInterval(r.lo, r.hi)
        return GInterval(r.hi, r.lo)
    return interval_of(_value(e, env, mode))


def _value(e, env, mode):
    """``real_approx`` of ``e`` as the readers hold it: an integer tuple
    where finite (``interval``)."""
    code = e._code
    if code is None:
        if isinstance(e, Cut):
            r = e.range
            return box(r.lo, r.hi) if mode is LOWER else box(r.hi, r.lo)
        if isinstance(e, Restrict):
            if prop_approx(e.guard, env, mode):
                return _value(e.body, env, mode)
            return no_info(mode)
        code = compile_term(e)
    return _read(code, len(code), env, mode)[-1]


def _lookup(env, name):
    try:
        return env[name]
    except KeyError:
        raise EvalError(f"unbound variable '{name}'") from None


def _read(code, stop, env, mode):
    """The values of the first ``stop`` instructions of ``code`` over
    generalized intervals: integer tuples where finite (``interval``)."""
    vals = []
    push = vals.append
    for op, x, y in islice(code, stop):
        if op == "*":
            push(mul(vals[x], vals[y]))
        elif op == "+":
            push(add(vals[x], vals[y]))
        elif op == "-":
            push(sub(vals[x], vals[y]))
        elif op == "v":
            push(ends(_lookup(env, x)))
        elif op == "q":
            push(x)
        elif op == "^":
            push(power(vals[x], y))
        elif op == "/":
            try:
                push(div(vals[x], vals[y]))
            except DivisionIndeterminate:
                push(no_info(mode))
        else:
            push(_value(x, env, mode))
    return vals


def compile_term(t):
    """The program of the join-free real term ``t``, or of ``lhs - rhs``
    for a comparison ``t``, kept on it (``_code``) unless ``t`` is an
    opaque leaf, which it would hold.

    Each instruction ``(op, x, y)`` appends one value: ``("q", t,
    None)`` a constant, its point interval as the integer tuple t
    (``interval``); ``("v", name, None)`` a variable; ``("o", leaf,
    None)`` a ``Cut`` or a ``Restrict``; ``(op, j, k)`` for op in ``+ -
    * /`` values j and k combined; ``("^", j, n)`` value j to the power
    n >= 2.  The last value is that of ``t``.  Powers below 2 fold too.
    """
    code = t._code
    if code is None:
        code = []
        _slot(_emit(t, code), code)
        if not isinstance(t, (Cut, Restrict)):
            keep(t, "_code", code)
    return code


def _emit(t, code):
    """Append the instructions of ``t`` to ``code``: the slot of its
    value, or the ``Fraction`` of a constant, not yet pushed."""
    kind = type(t)
    if kind is RatLit:
        return Fraction(t.value)
    if kind is Var:
        code.append(("v", t.name, None))
    elif kind is Arith or kind is Less:
        u, w = _emit(t.lhs, code), _emit(t.rhs, code)
        op = t.op if kind is Arith else "-"
        if op != "/" and isinstance(u, Fraction) and isinstance(w, Fraction):
            return u + w if op == "+" else u - w if op == "-" else u * w
        code.append((op, _slot(u, code), _slot(w, code)))
    elif kind is Pow:
        base, k = _emit(t.base, code), t.exp
        if isinstance(base, Fraction):
            return base ** k
        if k < 2:
            return base if k else Fraction(1)
        code.append(("^", base, k))
    elif kind is Cut or kind is Restrict:
        code.append(("o", t, None))
    else:
        raise EvalError(f"real_approx: {kind.__name__} is not normal")
    return len(code) - 1


def _slot(v, code):
    """The slot of ``v``, pushing it first when it is a constant."""
    if isinstance(v, Fraction):
        n, d = v.numerator, v.denominator
        code.append(("q", (n, d, n, d), None))
        return len(code) - 1
    return v


class SweepEnv(dict):
    """An environment of a refinement sweep.  Empty, it is that of the
    closed nodes, whose approximants depend on the node alone and are
    kept on it by ``prop_approx``.  Binding a quantifier body's
    variables, it lets the body's comparisons use the centred test
    (``_centred_decides``) and keeps nothing.  Plain dicts (a cut probe,
    ``evaluate_step``) keep the naive test and ignore kept values.

    Every environment binds a variable to the integer tuple of its box
    where the box is finite (``interval.box``), else to its
    ``GInterval``; the readers take either (``interval.ends``).
    """

    __slots__ = ()


def _bind(env, var, value):
    """The environment of a quantifier body that binds ``var`` to
    ``value``, a copy of ``env`` of its type: a cut probe's point tuple
    reaches the body of a quantifier in the cut's predicate this way."""
    inner = type(env)(env)
    inner[var] = value
    return inner


def prop_approx(e, env, mode):
    """The lower (mode=LOWER) or upper (mode=UPPER) approximant of a prop."""
    if type(env) is SweepEnv and not env:
        attr = "_lower" if mode is LOWER else "_upper"
        value = getattr(e, attr)
        if value is None:
            value = keep(e, attr, _prop_approx(e, env, mode))
        return value
    return _prop_approx(e, env, mode)


def _prop_approx(e, env, mode):
    if isinstance(e, TrueLit):
        return True
    if isinstance(e, FalseLit):
        return False
    if isinstance(e, And):
        return all(prop_approx(item, env, mode) for item in e.items)
    if isinstance(e, Or):
        return any(prop_approx(item, env, mode) for item in e.items)
    if isinstance(e, Less):
        # The program of lhs - rhs ends in that subtraction (or is the
        # folded constant): lhs.hi < rhs.lo is read from its operands.
        code = compile_term(e)
        op, x, y = code[-1]
        if op == "q":
            holds = x[0] < 0
        else:
            vals = _read(code, len(code) - 1, env, mode)
            holds = below(vals[x], vals[y])
        if type(env) is SweepEnv and env:
            # The centred test may only add decisions: a proof in lower
            # mode, a refutation in upper mode.
            if mode is LOWER and not holds:
                return _centred_decides(e, env, LOWER)
            if mode is UPPER and holds:
                return not _centred_decides(e, env, UPPER)
        return holds
    if isinstance(e, Forall):
        lo, hi = e.range.lo, e.range.hi
        inner = box(lo, hi) if mode is LOWER else box(hi, lo)
        return prop_approx(e.body, _bind(env, e.var, inner), mode)
    if isinstance(e, Exists):
        lo, hi = e.range.lo, e.range.hi
        inner = box(lo, lo) if mode is LOWER else box(hi, lo)
        return prop_approx(e.body, _bind(env, e.var, inner), mode)
    raise EvalError(f"prop_approx: {type(e).__name__} is not normal")


# ---------------------------------------------------------------------------
# The centred form of a polynomial comparison


class Polynomial:
    """``lhs - rhs`` of a comparison whose sides are polynomials.

    ``code`` is the program of the difference, with no opaque leaf and
    no ``/``, over the variables ``names``, each held by its index.  A
    fourth field, ``ranged``, marks the values whose range ``spread``
    needs.  Evaluation uses plain ints: boxes are the integer tuples of
    proper intervals (``interval.ends``), one per name, and a result is
    a pair (numerator, denominator > 0).
    """

    __slots__ = ("names", "code")

    def __init__(self, less):
        index, code = {}, []
        for op, x, y in compile_term(less):
            if op == "o" or op == "/":
                raise ValueError("not a polynomial")
            if op == "v":
                x = index.setdefault(x, len(index))
            code.append((op, x, y))
        ranged = [False] * len(code)
        for i in range(len(code) - 1, -1, -1):
            op, x, y = code[i]
            if op == "^":
                ranged[x] = True
            elif op == "*":  # each factor's range scales the other's slope
                ranged[x] = ranged[i] or code[y][0] != "q"
                ranged[y] = ranged[i] or code[x][0] != "q"
            elif ranged[i] and op in ("+", "-"):
                ranged[x] = ranged[y] = True
        self.names = tuple(index)
        self.code = [(*ins, r) for ins, r in zip(code, ranged)]

    def at_midpoint(self, boxes):
        """f(m): the exact value at the midpoint m of the boxes, as a
        pair (numerator, denominator > 0)."""
        point = [(a * d + c * b, 2 * b * d) for a, b, c, d in boxes]
        vals = []
        for op, x, y, _ in self.code:
            if op == "v":
                v = point[x]
            elif op == "q":
                v = x[:2]
            elif op == "^":
                n, d = vals[x]
                v = n ** y, d ** y
            else:
                (n, d), (m, e) = vals[x], vals[y]
                if op == "*":
                    v = n * m, d * e
                elif op == "+":
                    v = n * e + m * d, d * e
                else:
                    v = n * e - m * d, d * e
            vals.append(v)
        return vals[-1]

    def spread(self, boxes):
        """The sum over i of r_i * max|d_i f(X)|, r_i the half-width of
        box i, as a pair: f(m) +- spread encloses f over the boxes.

        Forward-mode differentiation in interval arithmetic: each value
        carries its range when it is ``ranged`` and, unless it is
        constant, its gradient, one interval per variable.  Variables
        bound to a point count as constants.
        """
        vals = []  # (range or None, gradient or None)
        for op, x, y, ranged in self.code:
            if op == "v":
                a, b, c, d = boxes[x]
                grad = None
                if a * d != c * b:
                    grad = [(0, 1, 0, 1)] * len(boxes)
                    grad[x] = (1, 1, 1, 1)
                vals.append((boxes[x], grad))
                continue
            if op == "q":
                vals.append((x, None))
                continue
            u, gu = vals[x]
            if op == "^":
                # d(u^k) = k * u^(k-1) * du
                if gu is not None:
                    a, b, c, d = power(u, y - 1)
                    gu = [mul((y * a, b, y * c, d), g) for g in gu]
                vals.append((power(u, y) if ranged else None, gu))
                continue
            w, gw = vals[y]
            if op == "*":
                # d(u*w) = du * w + u * dw
                r = mul(u, w) if ranged else None
                if gu is not None:
                    gu = [mul(g, w) for g in gu]
                if gw is not None:
                    gw = [mul(u, g) for g in gw]
            elif op == "+":
                r = add(u, w) if ranged else None
            else:
                r = sub(u, w) if ranged else None
                if gw is not None:
                    gw = [(-c, d, -a, b) for a, b, c, d in gw]
            if gu is None or gw is None:
                grad = gw if gu is None else gu
            else:
                grad = [add(g, h) for g, h in zip(gu, gw)]
            vals.append((r, grad))
        n, d = 0, 1
        for (a, b, c, e), (p, q, r, s) in zip(boxes, vals[-1][1] or ()):
            # (c/e - a/b) / 2 * max(-p/q, r/s)
            g, h = (-p, q) if -p * s >= r * q else (r, s)
            m, k = (c * b - a * e) * g, 2 * b * e * h
            n, d = n * k + m * d, d * k
        return n, d


def compile_polynomial(less):
    """The ``Polynomial`` of a comparison, or None when a side is not a
    polynomial.  It depends on the node alone and is kept on it
    (``_poly``, False when it does not compile)."""
    poly = less._poly
    if poly is None:
        try:
            poly = Polynomial(less)
        except ValueError:  # an opaque leaf or a division
            poly = False
        keep(less, "_poly", poly)
    return poly or None


def _centred_decides(e, env, mode):
    """Does the centred form of ``lhs - rhs`` over the undualized boxes
    of ``env`` prove ``e`` (LOWER) or refute it (UPPER)?

    The module docstring gives the soundness argument for both modes.
    Its premise is checked here: every box has the orientation its mode
    binds (proper or a point in LOWER, dual or a point in UPPER).
    Unbounded boxes keep the naive test.
    """
    poly = compile_polynomial(e)
    if poly is None:
        return False
    boxes, points = [], True
    for name in poly.names:
        x = ends(env[name])
        if type(x) is not tuple:
            return False
        a, b, c, d = x if mode is LOWER else x[2:] + x[:2]
        if a * d > c * b:
            return False
        boxes.append((a, b, c, d))
        points = points and a * d == c * b
    if points:
        return False  # the naive test was exact
    n, d = poly.at_midpoint(boxes)
    if (n < 0) is not (mode is LOWER):
        return False
    m, e = poly.spread(boxes)  # f(m) + spread < 0, f(m) - spread >= 0
    return n * e + m * d < 0 if mode is LOWER else n * e - m * d >= 0


# ---------------------------------------------------------------------------
# Refinement

#: Node visits after which a refinement sweep returns the remaining
#: subtrees unchanged.  Quantifier splitting is the only growth source,
#: so the horizon bounds both the work of every sweep and the growth per
#: sweep; boundary-degenerate props then diverge in bounded time per
#: step instead of exploding.  Decided regions collapse to literals over
#: time, which moves the horizon forward.
SWEEP_VISIT_CAP = 10_000

#: Bits of precision a cut's Newton-chosen probe points may gain per
#: sweep: in sweep n they lie at least 2^-(8 (n + 1)) from the Newton
#: point.  Without this ceiling a cut nested in another doubles its
#: endpoint bits every sweep while the outer cut is still trisecting, so
#: its exact arithmetic grows far beyond what the answer needs.
PROBE_BITS_PER_SWEEP = 8


class _Sweep:
    """Mutable per-sweep state: probe pacing, witness log, work budget
    and the kept walks of closed cuts (see ``_refine_shared``)."""

    __slots__ = ("n", "wlog", "visits", "cuts")

    def __init__(self, n, wlog):
        self.n = n
        self.wlog = wlog
        self.visits = 0
        self.cuts = {}

    def may_split(self):
        return self.visits < SWEEP_VISIT_CAP


def refine_step(e, round_index=0, witness_log=None):
    """One meaning-preserving refinement of a join-free expression.

    Returns the refined expression, or PRUNED when the expression is
    proven bottom (a refuted restriction guard or a boolean whose both
    components are refuted).  ``round_index`` paces the probe sequence
    for unbounded cut ranges; ``witness_log`` collects (var, lo, hi)
    entries whenever an existential is affirmed.

    ``e`` is closed, as every disjunct ``normalize`` gives is, so each
    free variable of a subterm is bound by a quantifier or cut above it.
    """
    return _refine(e, _Sweep(round_index, witness_log))


#: The environment of a sweep's closed nodes: it binds nothing.
_CLOSED = SweepEnv()

_PROP_NODES = (TrueLit, FalseLit, And, Or, Less, Exists, Forall)


def _refine(e, st):
    st.visits += 1
    if st.visits > SWEEP_VISIT_CAP:
        return e  # past the sweep horizon: left for a later round
    size = _settled_size(e)
    if size:
        # Walking it would visit every node and change none.  Coming back
        # by identity also keeps the comparisons compiled on its nodes.
        st.visits += size - 1
        return e
    fv = free_vars(e)
    if isinstance(e, _PROP_NODES) and not fv:
        if prop_approx(e, _CLOSED, LOWER):
            if st.wlog is not None:
                _log_witnesses(e, _CLOSED, st.wlog)
            return TrueLit()
        if not prop_approx(e, _CLOSED, UPPER):
            return FalseLit()
    if isinstance(e, (TrueLit, FalseLit, RatLit, Var)):
        return e
    # A pruned subterm (its guard was refuted) makes the whole disjunct
    # undefined, so PRUNED propagates through every compound node.
    if isinstance(e, And):
        items = _refine_all(e.items, st)
        return PRUNED if items is PRUNED else mk_and(items)
    if isinstance(e, Or):
        items = _refine_all(e.items, st)
        return PRUNED if items is PRUNED else mk_or(items)
    if isinstance(e, (Less, Arith, Pow, Tuple)):
        kids = _refine_all(children(e), st)
        return PRUNED if kids is PRUNED else rebuild(e, kids)
    if isinstance(e, Cut):
        if fv:
            return _refine_cut(e, st)
        return _refine_shared(e, st)
    if isinstance(e, Exists):
        return _split_quantifier(e, Exists, mk_or, st)
    if isinstance(e, Forall):
        return _split_quantifier(e, Forall, mk_and, st)
    if isinstance(e, Restrict):
        guard = e.guard
        if not isinstance(guard, TrueLit):
            guard = _refine(guard, st)
        if isinstance(guard, TrueLit):
            return _refine(e.body, st)
        if isinstance(guard, FalseLit) or guard is PRUNED:
            return PRUNED
        body = _refine(e.body, st)
        if body is PRUNED:
            return PRUNED
        return Restrict(guard, body)
    if isinstance(e, MkBool):
        p = _refine(e.if_true, st)
        q = _refine(e.if_false, st)
        if p is PRUNED or q is PRUNED:
            return PRUNED
        if isinstance(p, FalseLit) and isinstance(q, FalseLit):
            return PRUNED  # both branches refuted: the boolean is bottom
        return MkBool(p, q)
    raise EvalError(f"refine: {type(e).__name__} is not normal")


def _refine_all(items, st):
    out = []
    for item in items:
        r = _refine(item, st)
        if r is PRUNED:
            return PRUNED
        out.append(r)
    return out


def _settled_size(e):
    """The node count of ``e`` if refinement returns it unchanged, else 0.

    That holds for a tree of ``Var``, ``RatLit``, ``Arith`` and ``Pow``
    nodes and of ``Less``/``And``/``Or`` nodes that have free variables
    (so ``_refine`` never decides them: an enclosing quantifier or cut
    binds those) and that ``mk_and``/``mk_or`` would rebuild as they
    are.  The count is kept on the node.
    """
    n = e._settled
    if n is not None:
        return n
    n = 0
    if isinstance(e, (Var, RatLit)):
        n = 1
    elif isinstance(e, (Arith, Pow, Less, And, Or)):
        kids = children(e)
        sizes = [_settled_size(kid) for kid in kids]
        # mk_and/mk_or fold a connective of one item or of its own kind.
        folds = isinstance(e, (And, Or)) and (
            len(kids) < 2 or any(type(kid) is type(e) for kid in kids))
        if all(sizes) and not folds and (isinstance(e, (Arith, Pow))
                                         or free_vars(e)):
            n = 1 + sum(sizes)
    return keep(e, "_settled", n)


def _log_witnesses(e, env, wlog):
    """Record the range of every existential along a positive certificate.

    Precondition: the lower approximant of ``e`` holds under ``env``.
    """
    if isinstance(e, Exists):
        r = e.range
        wlog.append((e.var, r.lo.q, r.hi.q))
        _log_witnesses(e.body, _bind(env, e.var, box(r.lo, r.lo)), wlog)
    elif isinstance(e, Or):
        for item in e.items:
            if prop_approx(item, env, LOWER):
                _log_witnesses(item, env, wlog)
                return
    elif isinstance(e, And):
        for item in e.items:
            _log_witnesses(item, env, wlog)
    elif isinstance(e, Forall):
        r = e.range
        _log_witnesses(e.body, _bind(env, e.var, box(r.lo, r.hi)), wlog)


def _split_quantifier(e, node, combine, st):
    body = _refine(e.body, st)
    if body is PRUNED:
        return PRUNED  # pointwise-undefined body: the quantifier is bottom
    if not st.may_split():
        return node(e.var, e.range, body)
    lo, hi = e.range.lo, e.range.hi
    m = XRat((lo.q + hi.q) / 2)
    return combine([node(e.var, Range(lo, m), body),
                    node(e.var, Range(m, hi), body)])


def _refine_shared(e, st):
    """Refine a closed cut once per sweep.

    ``normalize`` makes equal closed cuts one object, and the refinement
    of a closed cut depends on the sweep alone, not on where the cut
    occurs.  The first walk is kept.  A later occurrence takes its result
    only when it would be walked in full below the cap too (then so was
    the first, which ended before it began), and adds the same visits
    and logs the same witnesses.  Otherwise it is walked as before.
    """
    start = st.visits
    kept = st.cuts.get(id(e))
    if kept is not None:
        out, visits, entries = kept
        if start + visits < SWEEP_VISIT_CAP:
            st.visits += visits
            if entries:
                st.wlog.extend(entries)
            return out
        return _refine_cut(e, st)
    mark = None if st.wlog is None else len(st.wlog)
    out = _refine_cut(e, st)
    entries = () if mark is None else st.wlog[mark:]
    st.cuts[id(e)] = (out, st.visits - start, entries)
    return out


def _refine_cut(e, st):
    lo, hi = e.range.lo, e.range.hi
    # Only a closed cut is probed: a probe binds the cut's own variable
    # alone.
    if not free_vars(e):
        if lo.is_finite and hi.is_finite:
            a, b = _narrow(e, (lo.q.numerator, lo.q.denominator),
                           (hi.q.numerator, hi.q.denominator), st.n)
            lo, hi = XRat(Fraction(*a)), XRat(Fraction(*b))
        else:
            # Establish finite bounds by probing doubling candidates.
            step = Fraction(2) ** st.n
            if not lo.is_finite:
                cand = XRat(-step if (not hi.is_finite or -step < hi.q)
                            else hi.q - step)
                if prop_approx(e.left, {e.var: box(cand, cand)}, LOWER):
                    lo = cand
            if not hi.is_finite:
                cand = XRat(step if (not lo.is_finite or step > lo.q)
                            else lo.q + step)
                if prop_approx(e.right, {e.var: box(cand, cand)}, LOWER):
                    hi = cand
    rng = Range(lo, hi, lo_open=not lo.is_finite, hi_open=not hi.is_finite)
    sides = _refine_all((e.left, e.right), st)
    if sides is PRUNED:
        return PRUNED  # a cut over an undefined predicate cannot converge
    return Cut(e.var, rng, *sides)


def _narrow(e, a, b, n):
    """The range [a, b] of the finite cut ``e`` after the probes of sweep n.

    a, b and the two endpoints returned are pairs (numerator,
    denominator > 0), not necessarily reduced.  The lower endpoint moves
    to the highest Newton-chosen point where the lower-mode probe of
    ``left`` holds, the upper one to the lowest point above it where that
    of ``right`` holds.  A side with no such point probes at its
    trisection point instead.  A probe binds the cut's variable to the
    point's integer tuple.  Soundness needs nothing of the points: an
    endpoint moves only where its probe holds.
    """
    var = e.var

    def holds(side, p):
        return prop_approx(side, {var: p + p}, LOWER)

    (an, ad), (bn, bd) = a, b
    points = _newton_points(e, a, b, n)
    lo = next((p for p in reversed(points) if holds(e.left, p)), None)
    if lo is None:
        q1 = 2 * an * bd + bn * ad, 3 * ad * bd
        lo = q1 if holds(e.left, q1) else a
    hi = next((p for p in points
               if lo[0] * p[1] < p[0] * lo[1] and holds(e.right, p)), None)
    if hi is None:
        q2 = an * bd + 2 * bn * ad, 3 * ad * bd
        hi = q2 if holds(e.right, q2) else b
    return lo, hi


def _newton_points(e, a, b, n):
    """Dyadic probe points inside (a, b), ascending, for the cut ``e``:
    pairs (numerator, 2^k) with one k for all, a and b as in ``_narrow``.

    Each comparison reachable through ``And``/``Or`` in ``left`` and
    ``right`` whose difference f = lhs - rhs has a slope at the midpoint
    m gives the Newton step r = m - f(m) / f'(m).  Near a simple root
    the step is off by O(w^2), w = b - a, so the points are r -+ delta
    with delta = max(w^2 + slack, 2^-(8 (n + 1))), rounded outward to a
    dyadic grid about 3 bits finer than delta: 2^-k with k = 3 plus the
    bits of delta's reduced denominator less those of its numerator.
    ``slack`` is the width of the closed cuts inside f, which enter at
    their midpoints.  A step is dropped when r leaves (a, b) or when
    4 delta >= w, where trisection does at least as well.  All of it is
    computed on ints, by cross-multiplication.
    """
    (an, ad), (bn, bd) = a, b
    wn, wd = bn * ad - an * bd, ad * bd  # w
    sq, sqd = wn * wn, wd * wd  # w^2
    shift = PROBE_BITS_PER_SWEEP * (n + 1)
    # delta without slack: max(w^2, 2^-shift)
    ln, ld = (sq, sqd) if sq << shift >= sqd else (1, 1 << shift)
    if 4 * ln * wd >= wn * ld:
        return ()
    m = an * bd + bn * ad, 2 * ad * bd
    sides = []  # each comparison once: a swapped one steps to the same r
    for less in (*_comparisons(e.left), *_comparisons(e.right)):
        if less not in sides and Less(less.rhs, less.lhs) not in sides:
            sides.append(less)
    grid = []  # (numerator, k) of each point
    for less in sides:
        f = _value_and_slope(less, e.var, m)
        if f is None or not f[1][0]:
            continue
        (fn, fd), (pn, pd), (sn, sd) = f
        # r = m - f / f', its denominator made positive
        rn, rd = m[0] * fd * pn - fn * pd * m[1], m[1] * fd * pn
        if rd < 0:
            rn, rd = -rn, -rd
        dn, dd = ln, ld
        if sn:  # delta = max(least, w^2 + slack)
            tn, td = sq * sd + sn * sqd, sqd * sd
            if tn * ld > ln * td:
                dn, dd = tn, td
        if not (an * rd < rn * ad and rn * bd < bn * rd) \
                or 4 * dn * wd >= wn * dd:
            continue
        # r -+ delta rounded outward to multiples of 2^-k.
        g = gcd(dn, dd)
        k = 3 + (dd // g).bit_length() - (dn // g).bit_length()
        den = rd * dd
        for num in ((rn * dd - dn * rd) << k) // den, \
                -((-(rn * dd + dn * rd) << k) // den):
            if an << k < num * ad and num * bd < bn << k:
                grid.append((num, k))
    # Two comparisons may round to different grids: compare on the finest.
    top = max((k for _, k in grid), default=0)
    return [(num, 1 << top)
            for num in sorted({num << top - k for num, k in grid})]


def _comparisons(p):
    """The ``Less`` nodes of a prop reachable through ``And``/``Or``."""
    if isinstance(p, Less):
        yield p
    elif isinstance(p, (And, Or)):
        for item in p.items:
            yield from _comparisons(item)


def _value_and_slope(t, var, x):
    """(t, dt/dvar, slack) at var = x, each a pair (numerator,
    denominator > 0), as x is: the program of ``t``, a term or a
    comparison, read in forward mode over integer pairs, each value as
    (f, g, p, q) for f/g and its slope p/q.

    A closed cut with a finite range is the constant at its midpoint and
    adds its width to the slack.  None when ``t`` has another free
    variable or another opaque leaf, or divides by zero.
    """
    vals, sn, sd = [], 0, 1
    for op, u, w in compile_term(t):
        if op == "v":
            if u != var:
                return None
            vals.append((*x, 1, 1))
        elif op == "q":
            vals.append((u[0], u[1], 0, 1))
        elif op == "o":
            if not isinstance(u, Cut) or free_vars(u) \
                    or not u.range.is_finite:
                return None
            a, b, c, d = box(u.range.lo, u.range.hi)
            vals.append((a * d + c * b, 2 * b * d, 0, 1))
            sn, sd = sn * b * d + (c * b - a * d) * sd, sd * b * d
        elif op == "^":
            f, g, p, q = vals[u]
            e = f ** (w - 1)
            vals.append((e * f, g ** w, w * e * p, g ** (w - 1) * q))
        else:
            (f, g, p, q), (h, k, r, s) = vals[u], vals[w]
            if op == "+":
                vals.append((f * k + h * g, g * k, p * s + r * q, q * s))
            elif op == "-":
                vals.append((f * k - h * g, g * k, p * s - r * q, q * s))
            elif op == "*":  # d(u*w) = du * w + u * dw
                vals.append((f * h, g * k, p * h * g * s + f * r * q * k,
                             q * k * g * s))
            elif not h:
                return None
            else:  # d(u/w) = (du * w - u * dw) / w^2
                sign = 1 if h > 0 else -1
                vals.append((sign * f * k, sign * g * h,
                             (p * h * g * s - f * r * q * k) * k,
                             q * g * s * h * h))
    f, g, p, q = vals[-1]
    return (f, g), (p, q), (sn, sd)


# ---------------------------------------------------------------------------
# Evaluation


def evaluate_step(e, precision, ty):
    """An Outcome for one base-typed disjunct if it is refined enough."""
    if ty == PROP:
        if isinstance(e, TrueLit):
            return PropTrue()
        if isinstance(e, FalseLit):
            return PropFalseProven()
        return None
    if ty == BOOL:
        if isinstance(e, MkBool):
            if isinstance(e.if_true, TrueLit):
                return BoolTT()
            if isinstance(e.if_false, TrueLit):
                return BoolFF()
        return None
    if isinstance(ty, ProductTy):
        if not isinstance(e, Tuple):
            return None
        items = []
        for item, item_ty in zip(e.items, ty.items):
            out = evaluate_step(item, precision, item_ty)
            if out is None:
                return None
            items.append(out)
        return TupleOf(tuple(items))
    box = real_approx(e, {}, LOWER)  # real
    if not (box.is_finite and box.is_proper):
        return None
    a, b = box.lo.q, box.hi.q
    if b - a < precision:
        return RealBall((a + b) / 2, (b - a) / 2)
    return None


def _contains_false(outcome):
    if isinstance(outcome, PropFalseProven):
        return True
    if isinstance(outcome, TupleOf):
        return any(_contains_false(item) for item in outcome.items)
    return False


DEFAULT_PRECISION = Fraction(1, 1000)
DEFAULT_MAX_STEPS = 100_000


def run(e, precision=DEFAULT_PRECISION, max_steps=DEFAULT_MAX_STEPS,
        witness_log=None):
    """Evaluate a closed, well-typed expression to an Outcome.

    Normalizes, then alternates evaluation attempts with fair refinement
    sweeps.  Every live disjunct is refined once per round, so a
    diverging disjunct cannot starve one that will answer; the first
    disjunct (in normal-form order) to evaluate supplies the result,
    keeping runs deterministic.  Diverged is a normal outcome: the step
    budget ran out, or every disjunct was pruned.
    """
    precision = Fraction(precision)
    if precision <= 0:
        raise ValueError("precision must be positive")
    ty = infer_type({}, e)
    if not is_base(ty):
        return FunctionValue()
    live = normalize(e)
    for step in range(max_steps):
        sole = len(live) == 1
        for d in live:
            out = evaluate_step(d, precision, ty)
            if out is not None and (sole or not _contains_false(out)):
                return out
        nxt = []
        for d in live:
            rd = refine_step(d, step, witness_log)
            if rd is PRUNED:
                continue
            if ty == PROP and isinstance(rd, FalseLit) and not sole:
                continue  # a refuted disjunct adds nothing to the join
            nxt.append(rd)
        live = nxt
        if not live:
            # Every disjunct proven bottom.  For a prop that *is* the
            # proof of falsity; elsewhere the value is undefined.
            if ty == PROP:
                return PropFalseProven()
            return Diverged(step + 1)
    return Diverged(max_steps)
