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
(``PROBE_BITS_PER_SWEEP``), so a cut nested in another cannot outrun
the cut that reads it and grow its endpoints beyond what the answer
needs.

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

from .interval import DivisionIndeterminate, ENTIRE, GInterval, XRat
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
    """Interval approximation of a join-free real expression."""
    if isinstance(e, RatLit):
        point = e._point
        if point is None:
            point = keep(e, "_point", GInterval.point(e.value))
        return point
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise EvalError(f"unbound variable '{e.name}'") from None
    if isinstance(e, Arith):
        a = real_approx(e.lhs, env, mode)
        b = real_approx(e.rhs, env, mode)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        try:
            return a / b
        except DivisionIndeterminate:
            return no_info(mode)
    if isinstance(e, Pow):
        return real_approx(e.base, env, mode) ** e.exp
    if isinstance(e, Cut):
        r = e.range
        if mode is LOWER:
            return GInterval(r.lo, r.hi)
        return GInterval(r.hi, r.lo)
    if isinstance(e, Restrict):
        if prop_approx(e.guard, env, mode):
            return real_approx(e.body, env, mode)
        return no_info(mode)
    raise EvalError(f"real_approx: {type(e).__name__} is not normal")


class SweepEnv(dict):
    """An environment of a refinement sweep.  Empty, it is that of the
    closed nodes, whose approximants depend on the node alone and are
    kept on it by ``prop_approx``.  Binding a quantifier body's
    variables, it lets the body's comparisons use the centred test
    (``_centred_decides``) and keeps nothing.  Plain dicts (a cut probe,
    ``evaluate_step``) keep the naive test and ignore kept values.
    """

    __slots__ = ()


def _bind(env, var, box):
    """The environment of a quantifier body that binds ``var``."""
    inner = type(env)(env)
    inner[var] = box
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
        lhs = real_approx(e.lhs, env, mode)
        rhs = real_approx(e.rhs, env, mode)
        holds = lhs.hi < rhs.lo
        if type(env) is SweepEnv and env:
            # The centred test may only add decisions: a proof in lower
            # mode, a refutation in upper mode.
            if mode is LOWER and not holds:
                return _centred_decides(e, env, LOWER)
            if mode is UPPER and holds:
                return not _centred_decides(e, env, UPPER)
        return holds
    if isinstance(e, Forall):
        r = e.range
        box = GInterval(r.lo, r.hi) if mode is LOWER else GInterval(r.hi, r.lo)
        return prop_approx(e.body, _bind(env, e.var, box), mode)
    if isinstance(e, Exists):
        r = e.range
        box = GInterval(r.lo, r.lo) if mode is LOWER else GInterval(r.hi, r.lo)
        return prop_approx(e.body, _bind(env, e.var, box), mode)
    raise EvalError(f"prop_approx: {type(e).__name__} is not normal")


# ---------------------------------------------------------------------------
# The centred form of a polynomial comparison


class _NotPolynomial(Exception):
    pass


class Polynomial:
    """``lhs - rhs`` of a comparison whose sides are polynomials.

    The sides may use only ``RatLit``, ``Var``, ``Arith`` with ``+ - *``
    and ``Pow``.  The difference is compiled, with constant subterms
    folded, to a straight-line program ``code`` over the variables
    ``names``.  Each instruction ``(op, x, y, ranged)`` appends one
    value: ``("v", i, None)`` variable i; ``(op, j, k)`` for op in
    ``+ - *`` values j and k combined; ``("c+", j, c)``, ``("c-", j,
    c)`` and ``("c*", j, c)`` value j plus c, c minus value j, and value
    j times c for a constant c; ``("^", j, n)`` value j to the power
    n >= 2; and, only when the whole difference is constant, ``("q", c,
    None)``.  ``ranged`` marks the values whose range ``spread`` needs:
    those a product or a power reads, directly or through sums.
    Evaluation uses raw ``Fraction``s; boxes are proper ``(lo, hi)``
    pairs, one per name.
    """

    __slots__ = ("names", "code")

    def __init__(self, less):
        index, code = {}, []

        def push(op, x, y):
            code.append((op, x, y))
            return len(code) - 1

        def emit(t):
            """A constant subterm as its Fraction, else the slot of its
            value."""
            if isinstance(t, RatLit):
                return t.value
            if isinstance(t, Var):
                return push("v", index.setdefault(t.name, len(index)), None)
            if isinstance(t, Pow):
                base = emit(t.base)
                if isinstance(base, Fraction):
                    return base ** t.exp
                if t.exp < 2:
                    return base if t.exp else Fraction(1)
                return push("^", base, t.exp)
            if not isinstance(t, Arith) or t.op == "/":
                raise _NotPolynomial
            return combine(t.op, emit(t.lhs), emit(t.rhs))

        def combine(op, u, w):
            cu, cw = isinstance(u, Fraction), isinstance(w, Fraction)
            if cu and cw:
                return u + w if op == "+" else u - w if op == "-" else u * w
            if op == "-" and cu:
                return push("c-", w, u)
            if op == "-" and cw:
                return push("c+", u, -w)
            if cu:
                u, w = w, u  # + and * commute
            return push("c" + op, u, w) if cu or cw else push(op, u, w)

        diff = combine("-", emit(less.lhs), emit(less.rhs))
        if isinstance(diff, Fraction):
            push("q", diff, None)
        ranged = [False] * len(code)
        for i in range(len(code) - 1, -1, -1):
            op, x, y = code[i]
            if op in ("*", "^") or (ranged[i] and op not in ("v", "q")):
                ranged[x] = True
                if op in ("*", "+", "-"):
                    ranged[y] = True
        self.names = tuple(index)
        self.code = [(*ins, r) for ins, r in zip(code, ranged)]

    def at_midpoint(self, boxes):
        """f(m): the exact value at the midpoint m of the boxes."""
        point = [(a + b) / 2 for a, b in boxes]
        vals = []
        for op, x, y, _ in self.code:
            if op == "v":
                v = point[x]
            elif op == "c*":
                v = vals[x] * y
            elif op == "c+":
                v = vals[x] + y
            elif op == "c-":
                v = y - vals[x]
            elif op == "*":
                v = vals[x] * vals[y]
            elif op == "+":
                v = vals[x] + vals[y]
            elif op == "-":
                v = vals[x] - vals[y]
            elif op == "^":
                v = vals[x] ** y
            else:
                v = x
            vals.append(v)
        return vals[-1]

    def spread(self, boxes):
        """The sum over i of r_i * max|d_i f(X)|, r_i the half-width of
        box i: f(m) +- spread encloses f over the boxes.

        Forward-mode differentiation in interval arithmetic: each value
        carries its range when it is ``ranged`` and, unless it is
        constant, its gradient, one (lo, hi) pair per variable.
        Variables bound to a point count as constants.
        """
        vals = []  # (lo, hi, gradient or None)
        for op, x, y, ranged in self.code:
            if op == "v":
                a, b = boxes[x]
                grad = None
                if a != b:
                    grad = [(0, 0)] * len(boxes)
                    grad[x] = (1, 1)
                vals.append((a, b, grad))
                continue
            if op == "q":
                vals.append((x, x, None))
                continue
            lo = hi = None
            a, b, gu = vals[x]
            if op == "c*":
                if ranged:
                    lo, hi = _iscale(a, b, y)
                if gu is not None:
                    gu = [_iscale(g0, g1, y) for g0, g1 in gu]
                vals.append((lo, hi, gu))
                continue
            if op == "c+":
                if ranged:
                    lo, hi = a + y, b + y
                vals.append((lo, hi, gu))
                continue
            if op == "c-":
                if ranged:
                    lo, hi = y - b, y - a
                if gu is not None:
                    gu = [(-g1, -g0) for g0, g1 in gu]
                vals.append((lo, hi, gu))
                continue
            if op == "^":
                # d(u^k) = k * u^(k-1) * du
                if ranged:
                    lo, hi = _ipow(a, b, y)
                if gu is not None:
                    c, d = _ipow(a, b, y - 1)
                    gu = [_imul(y * c, y * d, *g) for g in gu]
                vals.append((lo, hi, gu))
                continue
            c, d, gw = vals[y]
            if op == "*":
                # d(u*w) = du * w + u * dw
                if ranged:
                    lo, hi = _imul(a, b, c, d)
                if gu is not None:
                    gu = [_imul(*g, c, d) for g in gu]
                if gw is not None:
                    gw = [_imul(a, b, *g) for g in gw]
            elif op == "+":
                if ranged:
                    lo, hi = a + c, b + d
            else:
                if ranged:
                    lo, hi = a - d, b - c
                if gw is not None:
                    gw = [(-g1, -g0) for g0, g1 in gw]
            if gu is None or gw is None:
                grad = gw if gu is None else gu
            else:
                grad = [(g0 + h0, g1 + h1)
                        for (g0, g1), (h0, h1) in zip(gu, gw)]
            vals.append((lo, hi, grad))
        spread = Fraction(0)
        grad = vals[-1][2]
        if grad is not None:
            for (a, b), (g0, g1) in zip(boxes, grad):
                spread += (b - a) / 2 * max(-g0, g1)
        return spread

    def enclosure(self, boxes):
        """The centred form f(m) + sum_i d_i f(X) * (X_i - m_i) as a
        (lo, hi) pair: it contains f at every point of the boxes."""
        mid, spread = self.at_midpoint(boxes), self.spread(boxes)
        return mid - spread, mid + spread


def _iscale(a, b, c):
    """The proper interval [a, b] times the number c."""
    return (a * c, b * c) if c >= 0 else (b * c, a * c)


def _imul(a, b, c, d):
    """Product of the proper intervals [a, b] and [c, d]."""
    if c == d:
        return _iscale(a, b, c)
    if a == b:
        return _iscale(c, d, a)
    ps = (a * c, a * d, b * c, b * d)
    return min(ps), max(ps)


def _ipow(a, b, k):
    """The proper interval [a, b] to the power k >= 1."""
    if k % 2 or a >= 0:
        return a ** k, b ** k
    if b <= 0:
        return b ** k, a ** k
    return 0, max(a ** k, b ** k)


def compile_polynomial(less):
    """The ``Polynomial`` of a comparison, or None when a side is not a
    polynomial.  It depends on the node alone and is kept on it
    (``_poly``, False when it does not compile)."""
    poly = less._poly
    if poly is None:
        try:
            poly = Polynomial(less)
        except _NotPolynomial:
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
        box = env[name]
        lo, hi = box.lo, box.hi
        if lo.sign or hi.sign:
            return False
        a, b = (lo.q, hi.q) if mode is LOWER else (hi.q, lo.q)
        if a > b:
            return False
        boxes.append((a, b))
        points = points and a == b
    if points:
        return False  # the naive test was exact
    mid = poly.at_midpoint(boxes)
    if mode is LOWER:
        return mid < 0 and mid + poly.spread(boxes) < 0
    return mid >= 0 and mid - poly.spread(boxes) >= 0


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
    """
    return _refine(e, _Sweep(round_index, witness_log), frozenset())


#: The environment of a sweep's closed nodes: it binds nothing.
_CLOSED = SweepEnv()

_PROP_NODES = (TrueLit, FalseLit, And, Or, Less, Exists, Forall)


def _refine(e, st, scope):
    st.visits += 1
    if st.visits > SWEEP_VISIT_CAP:
        return e  # past the sweep horizon: left for a later round
    fv = free_vars(e)
    size = _settled_size(e)
    if size and fv <= scope:
        # Walking it would visit every node and change none.  Coming back
        # by identity also keeps the comparisons compiled on its nodes.
        st.visits += size - 1
        return e
    if isinstance(e, _PROP_NODES) and fv.isdisjoint(scope):
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
        items = _refine_all(e.items, st, scope)
        return PRUNED if items is PRUNED else mk_and(items)
    if isinstance(e, Or):
        items = _refine_all(e.items, st, scope)
        return PRUNED if items is PRUNED else mk_or(items)
    if isinstance(e, (Less, Arith, Pow, Tuple)):
        kids = _refine_all(children(e), st, scope)
        return PRUNED if kids is PRUNED else rebuild(e, kids)
    if isinstance(e, Cut):
        if fv:
            return _refine_cut(e, st, scope)
        return _refine_shared(e, st, scope)
    if isinstance(e, Exists):
        return _split_quantifier(e, Exists, mk_or, st, scope)
    if isinstance(e, Forall):
        return _split_quantifier(e, Forall, mk_and, st, scope)
    if isinstance(e, Restrict):
        guard = e.guard
        if not isinstance(guard, TrueLit):
            guard = _refine(guard, st, scope)
        if isinstance(guard, TrueLit):
            return _refine(e.body, st, scope)
        if isinstance(guard, FalseLit) or guard is PRUNED:
            return PRUNED
        body = _refine(e.body, st, scope)
        if body is PRUNED:
            return PRUNED
        return Restrict(guard, body)
    if isinstance(e, MkBool):
        p = _refine(e.if_true, st, scope)
        q = _refine(e.if_false, st, scope)
        if p is PRUNED or q is PRUNED:
            return PRUNED
        if isinstance(p, FalseLit) and isinstance(q, FalseLit):
            return PRUNED  # both branches refuted: the boolean is bottom
        return MkBool(p, q)
    raise EvalError(f"refine: {type(e).__name__} is not normal")


def _refine_all(items, st, scope):
    out = []
    for item in items:
        r = _refine(item, st, scope)
        if r is PRUNED:
            return PRUNED
        out.append(r)
    return out


def _settled_size(e):
    """The node count of ``e`` if refinement returns it unchanged, else 0.

    That holds for a tree of ``Var``, ``RatLit``, ``Arith`` and ``Pow``
    nodes and of ``Less``/``And``/``Or`` nodes that have free variables
    (so ``_refine`` never decides them once their variables are in
    scope) and that ``mk_and``/``mk_or`` would rebuild as they are.  The
    count is kept on the node.
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
        _log_witnesses(e.body, _bind(env, e.var, GInterval(r.lo, r.lo)),
                       wlog)
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
        _log_witnesses(e.body, _bind(env, e.var, GInterval(r.lo, r.hi)),
                       wlog)


def _split_quantifier(e, node, combine, st, scope):
    body = _refine(e.body, st, scope | {e.var})
    if body is PRUNED:
        return PRUNED  # pointwise-undefined body: the quantifier is bottom
    if not st.may_split():
        return node(e.var, e.range, body)
    a, b = e.range.lo.q, e.range.hi.q
    m = (a + b) / 2
    return combine([node(e.var, Range(XRat(a), XRat(m)), body),
                    node(e.var, Range(XRat(m), XRat(b)), body)])


def _refine_shared(e, st, scope):
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
        return _refine_cut(e, st, scope)
    mark = None if st.wlog is None else len(st.wlog)
    out = _refine_cut(e, st, scope)
    entries = () if mark is None else st.wlog[mark:]
    st.cuts[id(e)] = (out, st.visits - start, entries)
    return out


def _refine_cut(e, st, scope):
    lo, hi = e.range.lo, e.range.hi
    # The cut's own variable is bound here even when an enclosing binder
    # of the same name is in scope, so only its free variables count.
    if free_vars(e).isdisjoint(scope):
        if lo.is_finite and hi.is_finite:
            lo, hi = (XRat(q) for q in _narrow(e, lo.q, hi.q, st.n))
        else:
            # Establish finite bounds by probing doubling candidates.
            step = Fraction(2) ** st.n
            if not lo.is_finite:
                cand = -step if (not hi.is_finite or -step < hi.q) \
                    else hi.q - step
                if prop_approx(e.left, {e.var: GInterval.point(cand)}, LOWER):
                    lo = XRat(cand)
            if not hi.is_finite:
                cand = step if (not lo.is_finite or step > lo.q) \
                    else lo.q + step
                if prop_approx(e.right, {e.var: GInterval.point(cand)}, LOWER):
                    hi = XRat(cand)
    inner = scope | {e.var}
    rng = Range(lo, hi, lo_open=not lo.is_finite, hi_open=not hi.is_finite)
    sides = _refine_all((e.left, e.right), st, inner)
    if sides is PRUNED:
        return PRUNED  # a cut over an undefined predicate cannot converge
    return Cut(e.var, rng, *sides)


def _narrow(e, a, b, n):
    """The range [a, b] of the finite cut ``e`` after the probes of sweep n.

    The lower endpoint moves to the highest Newton-chosen point where the
    lower-mode probe of ``left`` holds, the upper one to the lowest point
    above it where that of ``right`` holds.  A side with no such point
    probes at its trisection point instead.  Soundness needs nothing of
    the points: an endpoint moves only where its probe holds.
    """
    var = e.var

    def holds(side, p):
        return prop_approx(side, {var: GInterval.point(p)}, LOWER)

    points = _newton_points(e, a, b, n)
    lo = next((p for p in reversed(points) if holds(e.left, p)), None)
    if lo is None:
        q1 = (2 * a + b) / 3
        lo = q1 if holds(e.left, q1) else a
    hi = next((p for p in points if p > lo and holds(e.right, p)), None)
    if hi is None:
        q2 = (a + 2 * b) / 3
        hi = q2 if holds(e.right, q2) else b
    return lo, hi


def _newton_points(e, a, b, n):
    """Dyadic probe points inside (a, b), ascending, for the cut ``e``.

    Each comparison reachable through ``And``/``Or`` in ``left`` and
    ``right`` whose difference f = lhs - rhs has a slope at the midpoint
    m gives the Newton step r = m - f(m) / f'(m).  Near a simple root
    the step is off by O(w^2), w = b - a, so the points are r -+ delta
    with delta = max(w^2 + slack, 2^-(8 (n + 1))), rounded outward to a
    dyadic grid about 3 bits finer than delta.  ``slack`` is the width
    of the closed cuts inside f, which enter at their midpoints.  A
    step is dropped when r leaves (a, b) or when 4 delta >= w, where
    trisection does at least as well.
    """
    w = b - a
    floor = Fraction(1, 1 << PROBE_BITS_PER_SWEEP * (n + 1))
    least = max(w * w, floor)  # delta without slack
    if 4 * least >= w:
        return ()
    m = (a + b) / 2
    sides = []  # each comparison once: a swapped one steps to the same r
    for less in (*_comparisons(e.left), *_comparisons(e.right)):
        pair = (less.lhs, less.rhs)
        if pair not in sides and pair[::-1] not in sides:
            sides.append(pair)
    points = []
    for lhs, rhs in sides:
        lhs = _value_and_slope(lhs, e.var, m)
        rhs = _value_and_slope(rhs, e.var, m)
        if lhs is None or rhs is None or lhs[1] == rhs[1]:
            continue
        r = m - (lhs[0] - rhs[0]) / (lhs[1] - rhs[1])
        slack = lhs[2] + rhs[2]
        delta = max(least, w * w + slack) if slack else least
        if not a < r < b or 4 * delta >= w:
            continue
        # r -+ delta rounded outward to multiples of 2^-k, in integers.
        k = 3 + delta.denominator.bit_length() - delta.numerator.bit_length()
        rn, rd = r.numerator, r.denominator
        dn, dd = delta.numerator, delta.denominator
        den = rd * dd
        for num in ((rn * dd - dn * rd) << k) // den, \
                -((-(rn * dd + dn * rd) << k) // den):
            p = Fraction(num, 1 << k)
            if a < p < b and p not in points:
                points.append(p)
    return sorted(points)


def _comparisons(p):
    """The ``Less`` nodes of a prop reachable through ``And``/``Or``."""
    if isinstance(p, Less):
        yield p
    elif isinstance(p, (And, Or)):
        for item in p.items:
            yield from _comparisons(item)


def _value_and_slope(t, var, x):
    """(t, dt/dvar, slack) at var = x, by forward mode over Fractions.

    A closed cut with a finite range is the constant at its midpoint and
    adds its width to ``slack``.  None when ``t`` has another free
    variable, divides by zero or is not arithmetic.
    """
    if isinstance(t, RatLit):
        return t.value, 0, 0
    if isinstance(t, Var):
        return (x, 1, 0) if t.name == var else None
    if isinstance(t, Arith):
        u = _value_and_slope(t.lhs, var, x)
        v = _value_and_slope(t.rhs, var, x)
        if u is None or v is None:
            return None
        (f, df, s), (g, dg, s2) = u, v
        if t.op == "+":
            return f + g, df + dg, s + s2
        if t.op == "-":
            return f - g, df - dg, s + s2
        if t.op == "*":
            return f * g, df * g + f * dg, s + s2
        if not g:
            return None
        return f / g, (df * g - f * dg) / (g * g), s + s2
    if isinstance(t, Pow):
        u = _value_and_slope(t.base, var, x)
        if u is None:
            return None
        f, df, s = u
        k = t.exp
        return f ** k, k and k * f ** (k - 1) * df, s
    if isinstance(t, Cut) and not free_vars(t) and t.range.is_finite:
        lo, hi = t.range.lo.q, t.range.hi.q
        return (lo + hi) / 2, 0, hi - lo
    return None


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
