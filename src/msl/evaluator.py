"""The operational core: approximation, refinement, and the run loop.

Every prop has two computable approximants.  The lower one may only say
"true" when the prop provably holds; the upper one may only say "false"
when it provably fails.  Both are driven by interval approximation of
the real subterms, with a single comparison rule -- ``e1 < e2`` holds
when the second endpoint of e1's generalized interval lies below the
first endpoint of e2's -- and a mode-dependent choice of the intervals
bound to quantified variables and cut ranges: a cut reads as its range
<a, b> in lower mode and as the dual <b, a> in upper mode, and ``_box``
gives that box and the box a quantifier binds in each mode.  An
approximant depends on its node and on the values bound to the node's
free variables alone, so every reader passes a plain dict of bindings.

In lower mode an existential is affirmed through a concrete witness
point (range splitting makes the probed points dense), and a universal
through the interval evaluation of its whole range; upper mode dualizes
the ranges so the same endpoint test becomes the optimistic reading,
refuting an existential only when the whole range fails and a universal
only when some subrange fails everywhere.  Any point of the range may
serve as a witness or a counterexample, so before a closed quantifier
splits, refinement reads its body at each end of its range it has not
read yet (``_split_quantifier``, the bounding step of interval branch
and bound): in lower mode an existential's upper end, in upper mode
both ends of a universal.  Each end is read once: a half keeps the
reading of the end it shares with its parent, and only the left half
reads the new split point.

Each real term, and the difference lhs - rhs of each comparison, is
compiled once into a straight-line program, kept on the node
(``compile_term``).  That one program is read three ways: over
generalized intervals (``_read``: ``real_approx``, the naive test of a
comparison, and the values of a cut's Newton step), exactly at a point
(``_at_point``: f(m) in the centred form below), and in forward mode
over values ``_read`` returned (``_slopes``: the slopes of the centred
form and of a Newton step).  A folded constant is an operand with a
point range and no slope, and point operations are exact, so it gives
every reading the numbers a dedicated constant operation would.  Every
reading computes on the integer tuples of ``interval``, an infinite
endpoint (an unbounded cut's range, no information) included: no
``Fraction`` is built inside the loop.  A value is reduced to a
``GInterval`` only where ``real_approx`` hands it out, and
``evaluate_step`` answers a real from its integer tuple.  So do the
bindings and the narrowing of cuts: an environment binds a quantified
variable or a cut probe's variable to the integer tuple of its box or
point (``interval.box``), and a cut's endpoints, its Newton steps and
its trisection points are integers until the two chosen endpoints
become the ``Fraction``s of its new range.  The arithmetic is exact, so
the answers are those of ``Fraction`` arithmetic.

Naive interval evaluation suffers the dependency problem: ``x*(1-x)``
over a box of width w is overestimated by about w, so near an extremum
the range splitting needs many leaves.  A comparison inside a quantifier
body whose sides are polynomials in the bound variables (only literals,
variables, ``+ - *``, ``^`` and division by a constant) over finite
boxes therefore gets a second test when the naive one leaves it
undecided: the centred (mean-value) form f(m) + sum_i d_i f(X) * (X_i -
m_i) of f = lhs - rhs over the boxes X with midpoint m, which
overestimates by O(w^2).  It may only add decisions -- "true" in lower
mode, "false" in upper mode -- and is tried only when f(m) already lies
on the deciding side.  Where every slope
d_i f(X) has one sign, f is monotone in each variable over X, so its
maximum and minimum are its values at two corners of X (the
monotonicity test of interval global optimization), and f is read
exactly at the deciding corner instead.  Both are taken over the
undualized boxes.  That is sound in upper mode as well: there every
quantified variable is bound to a dual box, and every interval operation
is dual-homomorphic, so the upper-mode enclosure of a polynomial is
exactly the dual of its enclosure over the proper boxes, and any tighter
outer enclosure, the exact range above included, may stand in for it.
For the same reason each slope read from the values of upper mode's
naive test is the dual of its enclosure over the proper boxes: the test
swaps its ends, and swapped back each has its sign in lower mode.  Cuts,
restrictions, division by a non-constant and unbounded boxes keep the
naive test (a comparison keeps whether its program holds one of the
first three, ``_polynomial``), and so does a comparison of two points,
where it is exact.  A division by a constant other than 0 is compiled
as a product with its reciprocal, which reads the same.  Every reader
gets the test alike: a quantifier inside a cut's predicate is decided
by it during a probe as in a sweep, so a cut defined by quantified
predicates (a supremum) converges.

Refinement rewrites an expression without changing its meaning: decided
props collapse to literals, cut ranges narrow by probes, quantifiers
split at range midpoints -- a closed universal over one quadratic
comparison at the stationary point of its difference instead, so that
it is monotone on both halves (``_split_point``) -- proven guards unwrap
and refuted guards prune their branch: a refuted guard makes the whole
disjunct undefined, so the sweep stops at it (``_Pruned``) and
``refine_step`` returns ``PRUNED``.
The run loop alternates evaluation attempts with one fair refinement
sweep over all live disjuncts of the normal form until one disjunct is
precise enough to answer.

A finite cut range [a, b] narrows by lower-mode probes of ``left`` and
``right`` at chosen points; an endpoint moves only to a point where its
probe holds, so the choice of points bears on speed alone.  Each
comparison of the predicates that is a polynomial in the cut's variable
gives an interval Newton step N = m - F(m) / F'(X) over X = [a, b]: F(m)
is its difference read at the midpoint, with closed cuts inside it as
their ranges, and F'(X) encloses its slope over X, read in forward mode
over its values on X (``_slopes``).  A comparison whose naive test
already separates its sides over X keeps one sign there, so X holds no
root of it, and it gives no step.  The cut probes just outside the two
ends of N, on a dyadic grid about width(N)/8 apart.  Near a simple root
this doubles the correct bits per sweep.  A slope enclosure, or a
divisor's range, that meets 0 gives no step, and a side where no Newton
point holds probes at its trisection point, (2a + b)/3 or (a + 2b)/3,
which gains 0.58 bits.  The grid is no finer than the answer needs, the
bits of 1/precision plus 8 guard bits, which ``run`` passes to the
sweeps (``_DEMAND_BITS``); past those a cut gains at most 8 bits per
sweep (``PROBE_BITS_PER_SWEEP``).  A cut whose predicates read a
variable bound above it is never probed, so its range never narrows.

A sweep does each distinct piece of work once.  Read under no bindings,
a prop is closed and its approximants depend on the node alone, so each
is decided once and kept on the node, as is each comparison's program.
A settled subtree -- only variables, literals, ``+ - * /`` and powers,
under comparisons and connectives that have free variables and that
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
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .interval import (
    DivisionIndeterminate, ENTIRE, XRat, add, below, box, div, interval_of,
    mul, power, sub,
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
    its ``_value`` as a ``GInterval`` with reduced endpoints."""
    return interval_of(_value(e, env, mode))


def _value(e, env, mode):
    """``real_approx`` of ``e`` as the readers hold it: an integer tuple
    where finite (``interval``)."""
    code = e._code
    if code is None:
        if isinstance(e, Cut):
            return _box(e, mode)
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
            push(_lookup(env, x))
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
    * /`` values j and k combined, ``/`` only by a non-constant or by 0;
    ``("^", j, n)`` value j to the power n >= 2.  The last value is that
    of ``t``.  Powers below 2 fold too, a power 0 without its base.
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
    value, or the ``Fraction`` of a constant, not yet pushed.  A division
    by a constant c other than 0 is a product with 1/c, and an operation
    on two constants folds; a division by 0 reads as no information."""
    kind = type(t)
    if kind is RatLit:
        return Fraction(t.value)
    if kind is Var:
        code.append(("v", t.name, None))
    elif kind is Arith or kind is Less:
        u, w = _emit(t.lhs, code), _emit(t.rhs, code)
        op = t.op if kind is Arith else "-"
        if op == "/" and isinstance(w, Fraction) and w:
            op, w = "*", 1 / w
        if isinstance(u, Fraction) and isinstance(w, Fraction) and op != "/":
            return u + w if op == "+" else u - w if op == "-" else u * w
        code.append((op, _slot(u, code), _slot(w, code)))
    elif kind is Pow:
        if not t.exp:
            return Fraction(1)  # before the base, which would be dead code
        base, k = _emit(t.base, code), t.exp
        if isinstance(base, Fraction):
            return base ** k
        if k == 1:
            return base
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


def _box(e, mode):
    """The box that the binder ``e`` over [a, b] reads as in ``mode``, as
    an integer tuple (``interval.box``): a cut's value, or the box a
    quantifier binds its variable to.

        ===========  ============  ==========
        binder       lower mode    upper mode
        cut, forall  <a, b>        <b, a>
        exists       point <a, a>  <b, a>
        ===========  ============  ==========
    """
    r = e.range
    if mode is UPPER:
        return box(r.hi, r.lo)
    return box(r.lo, r.lo if isinstance(e, Exists) else r.hi)


#: How refinement splits a quantifier (``_split_quantifier``): the mode
#: whose decisive reading at a point decides a closed one -- true in
#: lower mode affirms an existential, false in upper mode refutes a
#: universal -- the ends (lo, hi) that its own approximant in that mode
#: has read already, and the connective of its halves.  An existential's
#: lower approximant is its body at its lower end.
_PROBES = {Exists: (LOWER, (True, False), mk_or),
           Forall: (UPPER, (False, False), mk_and)}


def prop_approx(e, env, mode):
    """The lower (mode=LOWER) or upper (mode=UPPER) approximant of a prop
    under ``env``, which binds each free variable of ``e`` to the integer
    tuple of its box or point (``interval.box``), or to a ``GInterval``,
    which is such a tuple.  Read under no bindings, ``e`` is closed: its
    approximant depends on the node alone and is kept on it."""
    if env:
        return _prop_approx(e, env, mode)
    attr = "_lower" if mode is LOWER else "_upper"
    value = getattr(e, attr)
    if value is None:
        value = keep(e, attr, _prop_approx(e, env, mode))
    return value


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
            return x[0] < 0
        vals = _read(code, len(code) - 1, env, mode)
        u, w = vals[x], vals[y]
        holds = below(u, w)
        # The centred test may only add decisions: a proof in lower mode,
        # a refutation in upper mode.  Between two points, each of equal
        # ends, the naive test is exact.
        if holds is (mode is LOWER) or (u[0] == u[2] and u[1] == u[3]
                                        and w[0] == w[2] and w[1] == w[3]):
            return holds
        return holds is not _centred_decides(e, vals, env, mode)
    if isinstance(e, (Forall, Exists)):
        return prop_approx(e.body, {**env, e.var: _box(e, mode)}, mode)
    raise EvalError(f"prop_approx: {type(e).__name__} is not normal")


# ---------------------------------------------------------------------------
# The centred form of a polynomial comparison


def _centred_decides(e, vals, env, mode):
    """Does f = ``lhs - rhs`` over the undualized boxes X of ``env``
    prove the comparison ``e`` (LOWER) or refute it (UPPER)?  ``vals``
    are the values of all but the last instruction of its program that
    the naive test read.

    Where every slope d_i f(X) has one sign, moving each x_i to the end
    its slope points to never lowers f: f's exact maximum over X is f at
    that corner, its minimum f at the opposite one.  LOWER proves f < 0
    at the first, UPPER refutes it by f >= 0 at the second: the exact
    range over the proper boxes is the tightest of the enclosures that
    the module docstring shows sound in both modes.  Elsewhere f(m) +-
    sum_i width_i / 2 * max|d_i f(X)| bounds f.  The premise is checked
    here: every box has the orientation its mode binds (proper or a
    point in LOWER, dual or a point in UPPER).  Unbounded boxes keep the
    naive test, and so does a program with an opaque leaf or a division,
    which the comparison keeps as a fact (``_polynomial``).
    """
    code = e._code
    polynomial = e._polynomial
    if polynomial is None:
        polynomial = keep(e, "_polynomial", all(
            op != "o" and op != "/" for op, _, _ in code))
    if not polynomial:
        return False
    names = free_vars(e)
    point, widths, ends = {}, [], []  # each box's midpoint, width, ends
    for name in names:
        x = env[name]
        a, b, c, d = x if mode is LOWER else x[2:] + x[:2]
        if not (b and d) or a * d > c * b:
            return False
        point[name] = a * d + c * b, 2 * b * d
        widths.append((c * b - a * d, b * d))
        ends.append(((a, b), (c, d)))
    if not any(w for w, _ in widths):
        return False  # the naive test was exact
    mid = _at_point(code, point)
    if (mid[0] < 0) is not (mode is LOWER):
        return False
    # Over upper mode's dual boxes each slope is the dual of its
    # enclosure over the proper ones.
    slopes = [s if mode is LOWER else s[2:] + s[:2]
              for s in _slopes(code, vals, tuple(point)) or ()]
    if slopes and all(p >= 0 or r <= 0 for p, _, r, _ in slopes):
        # f is monotone in each variable: its exact maximum (LOWER) or
        # minimum (UPPER) is its value at one corner of the boxes.
        for name, (lo, hi), (p, _, _, _) in zip(names, ends, slopes):
            point[name] = hi if (p >= 0) is (mode is LOWER) else lo
        n, _ = _at_point(code, point)
        return n < 0 if mode is LOWER else n >= 0
    n, d = mid
    m, k = 0, 1  # the spread: sum_i width_i / 2 * max|d_i f(X)|
    for (w, v), (p, q, r, s) in zip(widths, slopes):
        g, h = (-p, q) if -p * s >= r * q else (r, s)
        m, k = m * 2 * v * h + w * g * k, k * 2 * v * h
    # f(m) + spread < 0, f(m) - spread >= 0
    return n * k + m * d < 0 if mode is LOWER else n * k - m * d >= 0


def _at_point(code, point):
    """The exact value of the polynomial ``code`` (no opaque leaf, no
    division) at ``point``, which maps each variable to a pair
    (numerator, denominator > 0), as such a pair."""
    out = []
    push = out.append
    for op, x, y in code:
        if op == "*":
            (n, d), (m, k) = out[x], out[y]
            push((n * m, d * k))
        elif op == "+" or op == "-":
            (n, d), (m, k) = out[x], out[y]
            push((n * k + m * d if op == "+" else n * k - m * d, d * k))
        elif op == "v":
            push(point[x])
        elif op == "q":
            push(x[:2])
        else:  # "^"
            n, d = out[x]
            push((n ** y, d ** y))
    return out[-1]


def _slopes(code, vals, names):
    """The enclosures d_i f(X) of the value f of ``code`` over boxes X,
    one integer tuple per variable of ``names``, or None when f is
    constant on them.  ``vals`` are the values of all but the last
    instruction that ``_read`` returned over X.

    Forward-mode differentiation in interval arithmetic: each value's
    gradient is one interval per name, or None where it is constant, as
    an opaque leaf is.  Variables bound to a point count as constants.
    Raises ``DivisionIndeterminate`` at a division that ``_read`` read
    as no information.
    """
    grads = []
    for i, (op, x, y) in enumerate(code):
        if op == "v":
            a, b, c, d = vals[i]
            grad = None
            if a * d != c * b:
                grad = [(0, 1, 0, 1)] * len(names)
                grad[names.index(x)] = (1, 1, 1, 1)
        elif op == "^":
            # d(u^k) = k * u^(k-1) * du
            grad = grads[x]
            if grad is not None:
                a, b, c, d = power(vals[x], y - 1)
                grad = [mul((y * a, b, y * c, d), g) for g in grad]
        elif op == "q" or op == "o":
            grad = None
        else:
            gu, gw = grads[x], grads[y]
            if op == "*":
                # d(u*w) = du * w + u * dw
                if gu is not None:
                    gu = [mul(g, vals[y]) for g in gu]
                if gw is not None:
                    gw = [mul(vals[x], g) for g in gw]
            elif op == "-":
                if gw is not None:
                    gw = [(-c, d, -a, b) for a, b, c, d in gw]
            elif op == "/":
                # d(u/w) = du / w + (u/w) * -dw / w
                r, w = vals[i], vals[y]
                if not (r[1] and r[3]):  # no information
                    raise DivisionIndeterminate("divisor touches zero")
                if gu is not None:
                    gu = [div(g, w) for g in gu]
                if gw is not None:
                    gw = [div(mul(r, (-c, d, -a, b)), w)
                          for a, b, c, d in gw]
            if gu is None or gw is None:
                grad = gw if gu is None else gu
            else:
                grad = [add(g, h) for g, h in zip(gu, gw)]
        grads.append(grad)
    return grads[-1]


# ---------------------------------------------------------------------------
# Refinement

#: Node visits after which a refinement sweep returns the remaining
#: subtrees unchanged.  Quantifier splitting is the only growth source,
#: so the horizon bounds both the work of every sweep and the growth per
#: sweep; boundary-degenerate props then diverge in bounded time per
#: step instead of exploding.  Decided regions collapse to literals over
#: time, which moves the horizon forward.
SWEEP_VISIT_CAP = 10_000

#: Bits a cut may gain per sweep beyond what the answer needs.  In sweep
#: n the grid of its Newton points is no finer than 2^-max(D, min(8 (n +
#: 1), 2 j + 8)), where D is the bits of the run's 1/precision plus
#: ``DEMAND_GUARD_BITS`` (``_DEMAND_BITS``) and 2^-j is the largest power
#: of 2 at most 1 and at most the width of the cut's range.  So a cut
#: that feeds the answer converges quadratically up to D, and one that
#: needs more (a scaled or nested cut, a comparison) gains at most 8 bits
#: per sweep beyond it.  The 2 j + 8 term holds a step whose N is a point
#: (f linear in the cut's variable) to about the doubling of a Newton
#: step, where the sweep index, large once an unbounded cut finds its
#: bounds, would set it thousands of bits deep.  Without a ceiling a cut
#: nested in another doubles its endpoint bits every sweep while the
#: outer cut is still trisecting, so its exact arithmetic grows far
#: beyond the answer's.
PROBE_BITS_PER_SWEEP = 8
DEMAND_GUARD_BITS = 8

#: D of the run in progress (``run`` sets it; 0 outside a run).  It
#: reaches the sweeps this way because ``refine_step`` keeps its shape.
_DEMAND_BITS = ContextVar("msl_demand_bits", default=0)


class _Sweep:
    """Mutable per-sweep state: probe pacing, witness log, work budget
    and the kept walks of closed cuts (see ``_refine_shared``)."""

    __slots__ = ("n", "wlog", "visits", "cuts")

    def __init__(self, n, wlog):
        self.n = n
        self.wlog = wlog
        self.visits = 0
        self.cuts = {}


class _Pruned(Exception):
    """A refuted guard: the disjunct being refined is undefined."""


def refine_step(e, round_index=0, witness_log=None):
    """One meaning-preserving refinement of a join-free expression.

    Returns the refined expression, or PRUNED when the expression is
    proven bottom (a refuted restriction guard or a boolean whose both
    components are refuted).  ``round_index`` paces the probe sequence
    for unbounded cut ranges; ``witness_log`` collects (var, lo, hi)
    entries whenever an existential is affirmed.

    ``e`` is closed, as every disjunct ``normalize`` gives is, so each
    free variable of a subterm is bound by a quantifier or cut above it.
    A refuted guard anywhere in ``e`` makes all of it undefined, so the
    sweep stops there.
    """
    try:
        return _refine(e, _Sweep(round_index, witness_log))
    except _Pruned:
        return PRUNED


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
        if prop_approx(e, {}, LOWER):
            if st.wlog is not None:
                _log_witnesses(e, {}, st.wlog)
            return TrueLit()
        if not prop_approx(e, {}, UPPER):
            return FalseLit()
    if isinstance(e, (TrueLit, FalseLit, RatLit, Var)):
        return e
    if isinstance(e, And):
        return mk_and([_refine(item, st) for item in e.items])
    if isinstance(e, Or):
        return mk_or([_refine(item, st) for item in e.items])
    if isinstance(e, (Less, Arith, Pow, Tuple)) or fv and isinstance(e, Cut):
        # A cut that reads a variable bound above it is never probed.
        return rebuild(e, [_refine(kid, st) for kid in children(e)])
    if isinstance(e, Cut):
        return _refine_shared(e, st)
    if isinstance(e, (Exists, Forall)):
        return _split_quantifier(e, st)
    if isinstance(e, Restrict):
        guard = e.guard
        if not isinstance(guard, TrueLit):
            guard = _refine(guard, st)
        if isinstance(guard, TrueLit):
            return _refine(e.body, st)
        if isinstance(guard, FalseLit):
            raise _Pruned
        return Restrict(guard, _refine(e.body, st))
    if isinstance(e, MkBool):
        p, q = _refine(e.if_true, st), _refine(e.if_false, st)
        if isinstance(p, FalseLit) and isinstance(q, FalseLit):
            raise _Pruned  # both branches refuted: the boolean is bottom
        return MkBool(p, q)
    raise EvalError(f"refine: {type(e).__name__} is not normal")


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
        wlog.append((e.var, e.range.lo.q, e.range.hi.q))
    if isinstance(e, (Exists, Forall)):
        _log_witnesses(e.body, {**env, e.var: _box(e, LOWER)}, wlog)
    elif isinstance(e, Or):
        for item in e.items:
            if prop_approx(item, env, LOWER):
                _log_witnesses(item, env, wlog)
                return
    elif isinstance(e, And):
        for item in e.items:
            _log_witnesses(item, env, wlog)


def _split_quantifier(e, st):
    """Split ``e`` at its range's midpoint, or at the stationary point of
    a closed universal's quadratic comparison (``_split_point``), into its
    connective (``_PROBES``) of the two halves, refining its body once for
    both.

    A closed quantifier gets here only when neither approximant decided
    it.  The ends a and b of its range are points of it like any other
    (typecheck admits only finite closed ranges, and the parser no empty
    one), so it first reads its body at each end it has not read yet (its
    ``_ends``), in the mode of ``_PROBES``.  Where an existential's body
    holds at b in lower mode, b is a witness: it refines to ``TrueLit``,
    logging witness [b, b] and those under x = b.  Where a universal's
    body fails at a or b in upper mode, that end is a counterexample: it
    refines to ``FalseLit``.  Otherwise it splits.  While the body comes
    back unchanged, each half keeps the failed reading of the end it
    shares with ``e``: the left half of an existential keeps its lower
    approximant, the body at a, too.  A body that refinement changed (a
    cut in it narrowed) is read afresh.  The split point m is read once,
    by the left half as its upper end: in every sweep the left half is
    refined before the right one, and both have one body, so the right
    half takes m as read.  If that reading decides the left half, the
    connective of the two is decided with it.  A left universal proven
    as a whole holds at m too, and one refuted as a whole refutes the
    connective.  Probes charge no visits.
    """
    lo, hi = e.range.lo, e.range.hi
    node = type(e)
    mode, read, combine = _PROBES[node]
    closed = not free_vars(e)
    if closed:
        for end, known in zip((lo, hi), e._ends or read):
            if known:
                continue
            at = {e.var: box(end, end)}
            if prop_approx(e.body, at, mode) is (mode is LOWER):
                if mode is UPPER:
                    return FalseLit()
                if st.wlog is not None:
                    st.wlog.append((e.var, end.q, end.q))
                    _log_witnesses(e.body, at, st.wlog)
                return TrueLit()
    body = _refine(e.body, st)
    if st.visits >= SWEEP_VISIT_CAP:
        return node(e.var, e.range, body)
    m = XRat(_split_point(e, body, closed))
    left = node(e.var, Range(lo, m), body)
    right = node(e.var, Range(m, hi), body)
    if closed:
        same = body is e.body
        keep(right, "_ends", (True, same))
        if same:
            keep(left, "_ends", (True, False))
            if node is Exists:
                keep(left, "_lower", False)
    return combine([left, right])


def _split_point(e, body, closed):
    """Where the quantifier ``e`` over [a, b] splits, its body refined to
    ``body``: at the midpoint m, or at the stationary point v of f = lhs
    - rhs where ``e`` is a closed universal, ``body`` is one comparison
    whose program is a polynomial of degree exactly 2, and a < v < b.
    Any point inside the range is sound; v leaves f monotone on both
    halves, so the corner test of ``_centred_decides`` decides each.

    The degree is that of the program, a product adding its factors'.  f
    is then the parabola through its values at a, m and b, read exactly
    (``_at_point``), and v = m - f'(m) / f'' its vertex.
    """
    a, b = e.range.lo.q, e.range.hi.q
    m = (a + b) / 2
    if not (closed and type(e) is Forall and isinstance(body, Less)):
        return m
    code, degree = compile_term(body), []
    for op, x, y in code:
        if op == "o" or op == "/":
            return m
        degree.append(1 if op == "v" else 0 if op == "q"
                      else degree[x] * y if op == "^"
                      else degree[x] + degree[y] if op == "*"
                      else max(degree[x], degree[y]))
    if degree[-1] != 2:
        return m
    fa, fm, fb = (Fraction(*_at_point(code, {e.var: (q.numerator,
                                                     q.denominator)}))
                  for q in (a, m, b))
    if fa + fb == 2 * fm:
        return m  # f is linear
    v = m - (b - a) * (fb - fa) / (4 * (fa - 2 * fm + fb))
    return v if a < v < b else m


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
    """Narrow the closed cut ``e`` by its probes, and refine its
    predicates: only a closed cut is probed, as a probe binds the cut's
    own variable alone."""
    lo, hi = e.range.lo, e.range.hi
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
    return Cut(e.var, rng, _refine(e.left, st), _refine(e.right, st))


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

    Each comparison of ``_sides`` gives the interval Newton step N =
    m - F(m) / F'(X) of its f = lhs - rhs over X = [a, b] (Moore): F(m)
    is f read at the midpoint m, closed cuts as their ranges, and F'(X)
    encloses the slope of f over X (``_slopes``).  A root of f in X lies
    in N.  A comparison that the naive test decides over X, either way,
    has no root there and gives no step: its sides are read over X for
    the slope anyway.  A slope enclosure, or a divisor's range, that
    meets 0 gives no step (``DivisionIndeterminate``).  Each end of N is
    rounded outward, strictly, to multiples of 2^-k: 2^-k is the largest
    power of 2 at most width(N) / 8 and at most 1, but no finer than the
    ceiling of ``PROBE_BITS_PER_SWEEP``.  Rounding strictly outward
    brackets an exact dyadic root too.  All of it is computed on integer
    tuples (``interval``).
    """
    (an, ad), (bn, bd) = a, b
    m = an * bd + bn * ad, 2 * ad * bd
    at_m = {e.var: m + m}
    wn, wd = bn * ad - an * bd, ad * bd  # width(X)
    if not wn:
        return []
    step = PROBE_BITS_PER_SWEEP
    cap = max(_DEMAND_BITS.get(),
              min(step * (n + 1), 2 * _finer(wn, wd) + step))
    over_x = {e.var: a + b}
    grid = []  # (numerator, k) of each point
    for less in _sides(e):
        code = compile_term(less)
        try:
            vals = _read(code, len(code) - 1, over_x, LOWER)
            op, x, y = code[-1]
            if op == "-" and (below(vals[x], vals[y])
                              or below(vals[y], vals[x])):
                continue  # f keeps one sign on X: no root there
            # None: f is constant on X, its slope 0
            slope = _slopes(code, vals, (e.var,)) or [(0, 1, 0, 1)]
            ln, ld, hn, hd = sub(m + m, div(_read(code, len(code), at_m,
                                                  LOWER)[-1], slope[0]))
        except DivisionIndeterminate:
            continue
        vn, vd = hn * ld - ln * hd, ld * hd  # width(N)
        k = min(cap, _finer(vn, vd << 3)) if vn else cap
        for num in -((-ln << k) // ld) - 1, (hn << k) // hd + 1:
            if an << k < num * ad and num * bd < bn << k:
                grid.append((num, k))
    # Two comparisons may round to different grids: compare on the finest.
    top = max((k for _, k in grid), default=0)
    return [(num, 1 << top)
            for num in sorted({num << top - k for num, k in grid})]


def _finer(n, d):
    """The least k >= 0 with 2^-k <= n / d, for n, d > 0."""
    k = max(0, d.bit_length() - n.bit_length())
    return k + (n << k < d)


def _sides(e):
    """The comparisons of the closed cut ``e`` reachable through
    ``And``/``Or`` in ``left`` and ``right`` that give Newton steps: its
    variable is their only free one, and closed cuts with finite ranges
    are the only opaque leaves of their programs.  A swapped comparison
    steps to the same points, so only the first of the two is kept.  The
    list is kept on ``left`` with the ``right`` it was made with
    (``_sides``)."""
    kept = e.left._sides
    if kept is None or kept[0] is not e.right:
        seen, sides = [], []
        for less in (*_comparisons(e.left), *_comparisons(e.right)):
            if less in seen or Less(less.rhs, less.lhs) in seen:
                continue
            seen.append(less)
            if free_vars(less) == {e.var} and all(
                    isinstance(x, Cut) and x.range.is_finite
                    and not free_vars(x)
                    for op, x, _ in compile_term(less) if op == "o"):
                sides.append(less)
        kept = keep(e.left, "_sides", (e.right, sides))
    return kept[1]


def _comparisons(p):
    """The ``Less`` nodes of a prop reachable through ``And``/``Or``."""
    if isinstance(p, Less):
        yield p
    elif isinstance(p, (And, Or)):
        for item in p.items:
            yield from _comparisons(item)


# ---------------------------------------------------------------------------
# Evaluation


def evaluate_step(e, precision, ty):
    """An Outcome for one base-typed disjunct if it is refined enough: a
    real once its lower-mode ``_value`` is proper and below ``precision``."""
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
    a, b, c, d = _value(e, {}, LOWER)  # a real
    if not (b and d):
        return None  # an infinite endpoint
    w = c * b - a * d  # the width c/d - a/b over b * d
    if 0 <= w and w * precision.denominator < precision.numerator * b * d:
        return RealBall(Fraction(a * d + c * b, 2 * b * d),
                        Fraction(w, 2 * b * d))
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
    demand = _DEMAND_BITS.set(
        (precision.denominator // precision.numerator).bit_length()
        + DEMAND_GUARD_BITS)
    try:
        return _run(live, precision, ty, max_steps, witness_log)
    finally:
        _DEMAND_BITS.reset(demand)


def _run(live, precision, ty, max_steps, witness_log):
    """The loop of ``run`` over the disjuncts ``live`` of its term."""
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
