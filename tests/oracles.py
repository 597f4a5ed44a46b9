"""Independent oracles shared by the unit and acceptance suites.

Everything here is computed by a route unrelated to the interpreter:
bisection, grid search over exact rationals, closed-form kinematics, and
interval arithmetic by structural recursion instead of compiled programs,
the interval Newton steps of cut narrowing included.  The interval
arithmetic is its own: ``XRat`` and ``GInterval`` below compute on
extended-rational endpoints by the sign-class table written out, where
``msl.interval`` computes on integer tuples.
"""

import itertools
import math
from fractions import Fraction

from msl.cli import SessionState, _wrap_definitions, execute_item
from msl.evaluator import LOWER, run
from msl.interval import DivisionIndeterminate
from msl.syntax import (
    KEYWORDS, And, Arith, Cut, Exists, FalseLit, Less, LexError, Or, Pow,
    RatLit, Restrict, Token, TrueLit, Var, _number, free_vars,
    parse_expression, parse_program,
)
from msl.typecheck import infer_type

F = Fraction


# --- reference interval arithmetic -------------------------------------------
# Generalized intervals over extended rationals, endpoint by endpoint.
# ``reference`` reads the interpreter's intervals into this arithmetic.

class IndeterminateSum(ArithmeticError):
    """inf + -inf has no meaningful value."""


class XRat:
    """A rational extended with -inf and +inf, totally ordered.

    ``sign`` is -1 for -inf, +1 for +inf, 0 for a finite value held in
    ``q`` as an exact ``Fraction`` in lowest terms.
    """

    __slots__ = ("sign", "q")

    def __init__(self, value=0, sign=0):
        if sign:
            object.__setattr__(self, "sign", 1 if sign > 0 else -1)
            object.__setattr__(self, "q", None)
        else:
            if isinstance(value, float):
                raise TypeError("floats are not exact; pass a Fraction")
            object.__setattr__(self, "sign", 0)
            q = value if isinstance(value, Fraction) else Fraction(value)
            object.__setattr__(self, "q", q)

    # XRat is immutable by convention; block accidental mutation.
    def __setattr__(self, name, value):
        raise AttributeError("XRat is immutable")

    @property
    def is_finite(self):
        return self.sign == 0

    def _key(self):
        # (-1, _) < (0, q) < (1, _): tuple compare gives the total order.
        return (self.sign, self.q if self.sign == 0 else 0)

    def __eq__(self, other):
        if not isinstance(other, XRat):
            return NotImplemented
        return self._key() == other._key()

    # a > b and a >= b reflect to b < a and b <= a.

    def __lt__(self, other):
        return self._key() < other._key()

    def __le__(self, other):
        return self._key() <= other._key()

    def __hash__(self):
        return hash(self._key())

    def __neg__(self):
        if self.sign:
            return NEG_INF if self.sign > 0 else POS_INF
        return XRat(-self.q)

    def __add__(self, other):
        if self.sign == 0 and other.sign == 0:
            return XRat(self.q + other.q)
        if self.sign == 0:
            return other
        if other.sign == 0 or other.sign == self.sign:
            return self
        raise IndeterminateSum("inf + -inf")

    def __mul__(self, other):
        if self.sign == 0 and other.sign == 0:
            return XRat(self.q * other.q)
        # inf * 0 == 0 so products against exact zeros stay informative.
        if self.sign == 0 and self.q == 0:
            return ZERO
        if other.sign == 0 and other.q == 0:
            return ZERO
        sa = self.sign if self.sign else (1 if self.q > 0 else -1)
        sb = other.sign if other.sign else (1 if other.q > 0 else -1)
        return POS_INF if sa * sb > 0 else NEG_INF

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a natural number")
        if k == 0:
            return ONE
        if self.sign == 0:
            return XRat(self.q ** k)
        if self.sign > 0 or k % 2 == 0:
            return POS_INF
        return NEG_INF

    def reciprocal(self):
        if self.sign or self.q == 0:
            raise ZeroDivisionError("reciprocal needs a finite nonzero value")
        return XRat(1 / self.q)

    def __str__(self):
        if self.sign > 0:
            return "inf"
        if self.sign < 0:
            return "-inf"
        return str(self.q)

    def __repr__(self):
        return f"XRat({self})"


NEG_INF = XRat(sign=-1)
POS_INF = XRat(sign=1)
ZERO = XRat(0)
ONE = XRat(1)


def _as_xrat(v):
    return v if isinstance(v, XRat) else XRat(v)


# Sign classes for the generalized product: P has both endpoints >= 0,
# N both <= 0, Z straddles zero the proper way (lo <= 0 <= hi) and ZD
# the improper way (hi <= 0 <= lo).
_P, _N, _Z, _ZD = range(4)


def _sign_class(i):
    lo, hi = i.lo, i.hi
    a_nonneg = lo.sign > 0 if lo.sign else lo.q.numerator >= 0
    b_nonneg = hi.sign > 0 if hi.sign else hi.q.numerator >= 0
    if a_nonneg and b_nonneg:
        return _P
    if not a_nonneg and not b_nonneg:
        return _N
    if not a_nonneg and b_nonneg:
        return _Z
    return _ZD


class GInterval:
    """Generalized interval: a pair of extended-rational endpoints.

    No ordering constraint between the endpoints; ``lo <= hi`` is a
    proper interval, ``lo > hi`` an improper (back-to-front) one.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        object.__setattr__(self, "lo", _as_xrat(lo))
        object.__setattr__(self, "hi", _as_xrat(hi))

    def __setattr__(self, name, value):
        raise AttributeError("GInterval is immutable")

    @staticmethod
    def point(q):
        q = _as_xrat(q)
        return GInterval(q, q)

    @property
    def is_proper(self):
        return self.lo <= self.hi

    @property
    def is_finite(self):
        return self.lo.is_finite and self.hi.is_finite

    def dual(self):
        return GInterval(self.hi, self.lo)

    def __eq__(self, other):
        if not isinstance(other, GInterval):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __add__(self, other):
        try:
            return GInterval(self.lo + other.lo, self.hi + other.hi)
        except IndeterminateSum:
            # No-information fallback; only reachable when mixing
            # opposite-orientation unbounded intervals directly.
            return ENTIRE

    def __neg__(self):
        return GInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        ca, cb = _sign_class(self), _sign_class(other)
        if ca == _P:
            if cb == _P:
                return GInterval(a * c, b * d)
            if cb == _Z:
                return GInterval(b * c, b * d)
            if cb == _N:
                return GInterval(b * c, a * d)
            return GInterval(a * c, a * d)
        if ca == _Z:
            if cb == _P:
                return GInterval(a * d, b * d)
            if cb == _Z:
                return GInterval(min(a * d, b * c), max(a * c, b * d))
            if cb == _N:
                return GInterval(b * c, a * c)
            return GInterval(ZERO, ZERO)
        if ca == _N:
            if cb == _P:
                return GInterval(a * d, b * c)
            if cb == _Z:
                return GInterval(a * d, a * c)
            if cb == _N:
                return GInterval(b * d, a * c)
            return GInterval(b * d, b * c)
        # ca == _ZD
        if cb == _P:
            return GInterval(a * c, b * c)
        if cb == _Z:
            return GInterval(ZERO, ZERO)
        if cb == _N:
            return GInterval(b * d, a * d)
        return GInterval(max(a * c, b * d), min(a * d, b * c))

    def __truediv__(self, other):
        lo, hi = other.lo, other.hi
        if not (lo.is_finite and hi.is_finite):
            raise DivisionIndeterminate("unbounded divisor")
        if lo.q == 0 or hi.q == 0 or (lo.q > 0) != (hi.q > 0):
            raise DivisionIndeterminate("divisor touches zero")
        return self * GInterval(hi.reciprocal(), lo.reciprocal())

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a natural number")
        if k == 0:
            return GInterval(ONE, ONE)
        if k % 2 == 1:
            return GInterval(self.lo ** k, self.hi ** k)
        if not self.is_proper:
            return (self.dual() ** k).dual()
        lo_k, hi_k = self.lo ** k, self.hi ** k
        if self.lo <= ZERO <= self.hi:
            m = ZERO
        else:
            m = min(lo_k, hi_k)
        return GInterval(m, max(lo_k, hi_k))

    def __repr__(self):
        return f"GInterval({self.lo!r}, {self.hi!r})"


#: The mode-agnostic no-information interval.
ENTIRE = GInterval(NEG_INF, POS_INF)


def reference(x):
    """The reference ``GInterval`` of ``x``: one already, or an integer
    tuple <a/b, c/d> (``msl.interval.GInterval`` is one), an infinite
    endpoint +-1 over 0."""
    if isinstance(x, GInterval):
        return x
    a, b, c, d = x
    return GInterval(XRat(sign=a) if not b else Fraction(a, b),
                     XRat(sign=c) if not d else Fraction(c, d))


def reference_end(x):
    """The reference ``XRat`` of an ``msl.interval.XRat``."""
    return XRat(x.q, x.sign)


def bisect_sqrt2(tol):
    """Rational bisection for sqrt(2) on [1, 2] to within tol."""
    lo, hi = F(1), F(2)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if mid * mid < 2:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def contains(iv, q):
    """Whether the rational ``q`` lies in the proper reading of ``iv``."""
    iv = reference(iv)
    return iv.lo <= XRat(q) <= iv.hi


def contains_interval(outer, inner):
    """Whether the proper reading of ``outer`` includes that of ``inner``."""
    outer, inner = reference(outer), reference(inner)
    return outer.lo <= inner.lo and inner.hi <= outer.hi


def grid_min_abs(f, lo, hi, steps):
    """Minimum of |f| over an inclusive rational grid."""
    lo, hi = F(lo), F(hi)
    step = (hi - lo) / steps
    return min(abs(f(lo + k * step)) for k in range(steps + 1))


# The lexer as a hand-written scanner, kept as the reference for the
# pattern ``syntax.tokenize`` matches.
_SYMBOLS = [
    ";;", "~>", "=>", "->", "\\/", "/\\", "||",
    "(", ")", "[", "]", ",", ":", "=", "<", ">",
    "+", "-", "*", "/", "^",
]


def reference_tokenize(source, start=(1, 1)):
    """``syntax.tokenize`` as a character-by-character scanner: it steps
    through the text and tracks line and column one character at a time,
    and tries each symbol in turn, longest first."""
    toks = []
    i, (line, col) = 0, start
    n = len(source)

    def advance(k):
        nonlocal i, line, col
        for _ in range(k):
            if source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        loc = (line, col)
        if source.startswith("(*", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if source.startswith("(*", j):
                    depth += 1
                    j += 2
                elif source.startswith("*)", j):
                    depth -= 1
                    j += 2
                else:
                    j += 1
            if depth:
                raise LexError("unterminated comment", loc)
            advance(j - i)
            continue
        if ch == '"':
            j = i + 1
            while j < n and source[j] != '"':
                if source[j] == "\n":
                    raise LexError("unterminated string", loc)
                j += 1
            if j >= n:
                raise LexError("unterminated string", loc)
            toks.append(Token("STRING", source[i + 1:j], loc))
            advance(j + 1 - i)
            continue
        if ch == "#":
            j = i + 1
            if j < n and source[j].isdecimal():
                while j < n and source[j].isdecimal():
                    j += 1
                toks.append(Token("PROJ", _number(int, source[i + 1:j], loc),
                                  loc))
            elif j < n and (source[j].isalpha() or source[j] == "_"):
                while j < n and (source[j].isalnum() or source[j] == "_"):
                    j += 1
                toks.append(Token("DIRECTIVE", source[i + 1:j], loc))
            else:
                raise LexError("expected digits or a name after '#'", loc)
            advance(j - i)
            continue
        if ch.isdecimal():
            j = i
            while j < n and source[j].isdecimal():
                j += 1
            if j + 1 < n and source[j] == "." and source[j + 1].isdecimal():
                j += 1
                while j < n and source[j].isdecimal():
                    j += 1
            toks.append(Token("RAT", _number(Fraction, source[i:j], loc), loc))
            advance(j - i)
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] in "_'"):
                j += 1
            word = source[i:j]
            toks.append(Token(word if word in KEYWORDS else "IDENT", word,
                              loc))
            advance(j - i)
            continue
        for sym in _SYMBOLS:
            if source.startswith(sym, i):
                toks.append(Token(sym, sym, loc))
                advance(len(sym))
                break
        else:
            raise LexError(f"illegal character {ch!r}", loc)
    toks.append(Token("EOF", None, (line, col)))
    return toks


def reference_real_approx(e, env, mode):
    """Interval approximation of a real term by recursion over its tree:
    literals, variables, ``+ - * /``, powers, cuts (their range, dual in
    upper mode) and restrictions under a literal guard."""
    no_info = ENTIRE if mode is LOWER else ENTIRE.dual()
    if isinstance(e, RatLit):
        return GInterval.point(e.value)
    if isinstance(e, Var):
        return reference(env[e.name])
    if isinstance(e, Cut):
        box = GInterval(reference_end(e.range.lo), reference_end(e.range.hi))
        return box if mode is LOWER else box.dual()
    if isinstance(e, Restrict):
        if isinstance(e.guard, TrueLit):
            return reference_real_approx(e.body, env, mode)
        return no_info
    if isinstance(e, Pow):
        return reference_real_approx(e.base, env, mode) ** e.exp
    assert isinstance(e, Arith)
    a = reference_real_approx(e.lhs, env, mode)
    b = reference_real_approx(e.rhs, env, mode)
    if e.op == "+":
        return a + b
    if e.op == "-":
        return a - b
    if e.op == "*":
        return a * b
    try:
        return a / b
    except DivisionIndeterminate:
        return no_info


# --- cut narrowing by interval Newton steps ---------------------------------
# The narrowing of a finite cut written over ``Fraction``s and
# ``GInterval``s by recursion over the predicate trees: the reference
# for ``msl.evaluator``'s ``_narrow`` and ``_newton_points``, which read
# compiled programs on integer tuples and must give the same points.  It
# probes with its own lower approximant (``reference_holds``).

#: D, the bits a cut's probe grid may reach at once, is the bits of
#: 1/precision plus ``GUARD_BITS``; past D a cut gains at most
#: ``PACE_BITS`` per sweep.
GUARD_BITS = 8
PACE_BITS = 8


def reference_demand_bits(precision):
    """D for a run at ``precision``."""
    return int(1 / Fraction(precision)).bit_length() + GUARD_BITS


def reference_holds(p, env):
    """The lower approximant of a prop with the naive interval test at
    each comparison, by recursion over its tree: an ``exists`` binds its
    low end, a ``forall`` its range."""
    if isinstance(p, (TrueLit, FalseLit)):
        return isinstance(p, TrueLit)
    if isinstance(p, (And, Or)):
        each = (reference_holds(q, env) for q in p.items)
        return all(each) if isinstance(p, And) else any(each)
    if isinstance(p, Less):
        return (reference_real_approx(p.lhs, env, LOWER).hi
                < reference_real_approx(p.rhs, env, LOWER).lo)
    r = p.range
    lo = reference_end(r.lo)
    bound = GInterval(lo, lo if isinstance(p, Exists) else reference_end(r.hi))
    return reference_holds(p.body, {**env, p.var: bound})


def _least_k(w, f):
    """The least k >= 0 with f * 2^-k <= w, for w > 0."""
    k = 0
    while w * 2 ** k < f:
        k += 1
    return k


def _comparisons_of(p):
    if isinstance(p, Less):
        return [p]
    if isinstance(p, (And, Or)):
        return [c for q in p.items for c in _comparisons_of(q)]
    return []


def _polynomial_in(t, var):
    """Is the real term ``t`` built of literals, ``var``, ``+ - * /``,
    powers and closed cuts with finite ranges alone?"""
    if isinstance(t, Var):
        return t.name == var
    if isinstance(t, Cut):
        return t.range.is_finite and not free_vars(t)
    if isinstance(t, Pow):
        return _polynomial_in(t.base, var)
    if isinstance(t, Arith):
        return _polynomial_in(t.lhs, var) and _polynomial_in(t.rhs, var)
    return isinstance(t, RatLit)


def reference_slope(t, var, x):
    """An enclosure of dt/dvar over var in the proper interval ``x``, by
    forward differentiation in ``GInterval`` arithmetic over the tree of
    ``t``, closed cuts as constants; None where ``t`` does not depend on
    ``var``.  Raises ``DivisionIndeterminate`` where a divisor's range
    meets 0."""
    def span(u):
        return reference_real_approx(u, {var: x}, LOWER)

    if isinstance(t, Var):
        return GInterval(1, 1)
    if isinstance(t, (RatLit, Cut)):
        return None
    if isinstance(t, Pow):  # d(u^k) = k * u^(k-1) * du
        du = reference_slope(t.base, var, x)
        if du is None or t.exp == 0:
            return None
        return GInterval.point(t.exp) * span(t.base) ** (t.exp - 1) * du
    du, dw = reference_slope(t.lhs, var, x), reference_slope(t.rhs, var, x)
    if t.op == "*":  # d(u*w) = du * w + u * dw
        du = None if du is None else du * span(t.rhs)
        dw = None if dw is None else span(t.lhs) * dw
    elif t.op == "/":  # d(u/w) = du / w + (u/w) * -dw / w
        w = span(t.rhs)
        r = span(t.lhs) / w
        du = None if du is None else du / w
        dw = None if dw is None else r * -dw / w
    elif t.op == "-" and dw is not None:
        dw = -dw
    if du is None or dw is None:
        return dw if du is None else du
    return du + dw


def reference_newton_points(e, a, b, n, demand=0):
    """Dyadic probe points inside (a, b), ascending, for the cut ``e``
    in sweep n of a run whose D is ``demand`` (0 outside a run).

    Each comparison reachable through ``And``/``Or`` in ``left`` and
    ``right`` (a swapped one only once) that is a polynomial or a
    rational function of the cut's variable alone, closed cuts as
    constants, gives the interval Newton step N = m - F(m) / F'(X)
    over X = [a, b], with m the midpoint, F(m) f = lhs - rhs at m and
    F'(X) an enclosure of its slope over X; none when F'(X), or the
    range of a divisor in f, meets 0.
    The ends of N are rounded strictly outward to multiples of 2^-k:
    k is the least k >= 0 with 2^-k <= width(N) / 8, but at most
    max(D, min(8 (n + 1), 2 j + 8)), j the least j >= 0 with 2^-j <=
    b - a.
    """
    var, x, m = e.var, GInterval(a, b), (a + b) / 2
    if a == b:
        return []
    cap = max(demand, min(PACE_BITS * (n + 1),
                          2 * _least_k(b - a, 1) + PACE_BITS))
    sides = []
    for less in _comparisons_of(e.left) + _comparisons_of(e.right):
        if less not in sides and Less(less.rhs, less.lhs) not in sides:
            sides.append(less)
    points = set()
    for less in sides:
        f = Arith("-", less.lhs, less.rhs)
        if not (_polynomial_in(f, var) and var in free_vars(f)):
            continue
        try:
            slope = reference_slope(f, var, x)
            if slope is None:
                continue
            at_m = reference_real_approx(f, {var: GInterval.point(m)}, LOWER)
            step = GInterval.point(m) - at_m / slope
        except DivisionIndeterminate:
            continue
        width = step.hi.q - step.lo.q
        k = min(cap, _least_k(width, 8)) if width else cap
        for p in (Fraction(math.ceil(step.lo.q * 2 ** k) - 1, 2 ** k),
                  Fraction(math.floor(step.hi.q * 2 ** k) + 1, 2 ** k)):
            if a < p < b:
                points.add(p)
    return sorted(points)


def reference_narrow(e, a, b, n, demand=0):
    """The range [a, b] of the finite cut ``e`` after the probes of sweep
    n: the lower endpoint moves to the highest Newton point where the
    lower approximant of ``left`` holds, the upper one to the lowest
    point above it where that of ``right`` holds.  A side with no such
    point probes at its trisection point instead."""
    def holds(side, p):
        return reference_holds(side, {e.var: GInterval.point(p)})

    points = reference_newton_points(e, a, b, n, demand)
    lo = next((p for p in reversed(points) if holds(e.left, p)), None)
    if lo is None:
        q1 = (2 * a + b) / 3
        lo = q1 if holds(e.left, q1) else a
    hi = next((p for p in points if p > lo and holds(e.right, p)), None)
    if hi is None:
        q2 = (a + 2 * b) / 3
        hi = q2 if holds(e.right, q2) else b
    return lo, hi


def _centred_walk(t, boxes):
    """The value of the polynomial ``t`` at the midpoint of the proper
    ``boxes`` (name -> GInterval), exact in ``Fraction``s, and {name:
    enclosure of d_name t over the boxes} by forward differentiation in
    ``GInterval`` arithmetic, by recursion over the tree.  A variable
    bound to a point counts as a constant."""
    if isinstance(t, RatLit):
        return F(t.value), {}
    if isinstance(t, Var):
        box = boxes[t.name]
        slope = {} if box.lo == box.hi else {t.name: GInterval(1, 1)}
        return (box.lo.q + box.hi.q) / 2, slope
    if isinstance(t, Pow):  # d(u^k) = k * u^(k-1) * du
        u, du = _centred_walk(t.base, boxes)
        if t.exp == 0:
            return F(1), {}
        scale = GInterval.point(t.exp) * \
            reference_real_approx(t.base, boxes, LOWER) ** (t.exp - 1)
        return u ** t.exp, {v: scale * g for v, g in du.items()}
    u, du = _centred_walk(t.lhs, boxes)
    w, dw = _centred_walk(t.rhs, boxes)
    if t.op == "*":  # d(u*w) = du * w + u * dw
        value = u * w
        lhs = reference_real_approx(t.lhs, boxes, LOWER)
        rhs = reference_real_approx(t.rhs, boxes, LOWER)
        du = {v: g * rhs for v, g in du.items()}
        dw = {v: lhs * g for v, g in dw.items()}
    elif t.op == "-":
        value, dw = u - w, {v: -g for v, g in dw.items()}
    else:
        value = u + w
    for v, g in dw.items():
        du[v] = du[v] + g if v in du else g
    return value, du


def centred_form(less, boxes):
    """f(m) and the spread sum_i r_i * max|d_i f(X)| of f = lhs - rhs of
    a comparison of polynomials over the proper ``boxes`` (name ->
    GInterval) with midpoint m, r_i the half-width of box i
    (``_centred_walk``)."""
    value, grad = _centred_walk(Arith("-", less.lhs, less.rhs), boxes)
    spread = sum(((boxes[v].hi.q - boxes[v].lo.q) / 2 * max(-g.lo.q, g.hi.q)
                  for v, g in grad.items()), F(0))
    return value, spread


def corner_range(less, boxes):
    """The exact (min, max) of f = lhs - rhs of a comparison of
    polynomials over the proper ``boxes`` when each enclosure d_i f(X)
    of ``_centred_walk`` has one sign, else None.  f is then monotone
    in each variable over the boxes, so its extremes lie at corners:
    every corner is enumerated, and f read at each exactly."""
    f = Arith("-", less.lhs, less.rhs)
    _, grad = _centred_walk(f, boxes)
    if any(g.lo < ZERO < g.hi for g in grad.values()):
        return None
    ends = [[(v, box.lo.q), (v, box.hi.q)] for v, box in boxes.items()]
    values = [_centred_walk(f, {v: GInterval.point(q) for v, q in corner})[0]
              for corner in itertools.product(*ends)]
    return min(values), max(values)


def point_gradient(t, point):
    """The exact value of the polynomial ``t`` at ``point`` (name ->
    Fraction) and its gradient there, {name: Fraction}, by forward
    differentiation in ``Fraction``s."""
    if isinstance(t, RatLit):
        return F(t.value), {}
    if isinstance(t, Var):
        return point[t.name], {t.name: F(1)}
    if isinstance(t, Pow):  # d(u^k) = k * u^(k-1) * du
        if t.exp == 0:
            return F(1), {}
        u, du = point_gradient(t.base, point)
        scale = t.exp * u ** (t.exp - 1)
        return u ** t.exp, {v: scale * g for v, g in du.items()}
    u, du = point_gradient(t.lhs, point)
    w, dw = point_gradient(t.rhs, point)
    if t.op == "*":  # d(u*w) = du * w + u * dw
        value, du = u * w, {v: g * w for v, g in du.items()}
        dw = {v: u * g for v, g in dw.items()}
    elif t.op == "-":
        value, dw = u - w, {v: -g for v, g in dw.items()}
    else:
        value = u + w
    for v, g in dw.items():
        du[v] = du.get(v, 0) + g
    return value, du


def reference_exists(less, var, lo, hi, budget=64):
    """Does f = lhs - rhs of a comparison of polynomials in ``var`` take
    a negative value on [lo, hi]?  By bisection: True once f < 0 at the
    midpoint of a piece, False once the centred form f(m) - spread >= 0
    (mean value theorem, ``centred_form``) shows f >= 0 on every piece,
    None when ``budget`` pieces decide neither."""
    pieces = [(lo, hi)]
    for _ in range(budget):
        if not pieces:
            return False
        a, b = pieces.pop()
        value, spread = centred_form(less, {var: GInterval(a, b)})
        if value < 0:
            return True
        if value - spread < 0:
            m = (a + b) / 2
            pieces += [(a, m), (m, b)]
    return None if pieces else False


def reference_forall(less, var, lo, hi, budget=64):
    """Is f = lhs - rhs of a comparison of polynomials in ``var``
    negative on all of [lo, hi]?  By bisection: False once f >= 0 at lo,
    at hi or at the midpoint of a piece, True once the centred form f(m)
    + spread < 0 (``centred_form``) shows f < 0 on every piece, None
    when ``budget`` pieces decide neither."""
    for q in lo, hi:
        value, _ = centred_form(less, {var: GInterval(q, q)})
        if value >= 0:
            return False
    pieces = [(lo, hi)]
    for _ in range(budget):
        if not pieces:
            return True
        a, b = pieces.pop()
        value, spread = centred_form(less, {var: GInterval(a, b)})
        if value >= 0:
            return False
        if value + spread >= 0:
            m = (a + b) / 2
            pieces += [(a, m), (m, b)]
    return None if pieces else True


# --- car kinematics (w=10, eps=1, T=4, a_max=2, a_min=-3) --------------------

CAR_W = F(10)
CAR_EPS = F(1)
CAR_T = F(4)
CAR_A_MAX = F(2)
CAR_A_MIN = F(-3)


def a_go(x, v):
    raw = 2 * (CAR_W + CAR_EPS - x - v * CAR_T) / CAR_T ** 2
    return max(F(0), raw)


def a_stop(x, v):
    return v * v / (2 * (x + CAR_EPS))


def pos_at_red(x, v, a):
    """Position when the light turns red; velocity clamps at zero."""
    x, v, a = F(x), F(v), F(a)
    if a < 0 and -v / a <= CAR_T:
        t_stop = -v / a
        return x + v * t_stop + a * t_stop ** 2 / 2
    return x + v * CAR_T + a * CAR_T ** 2 / 2


def car_is_safe(x, v, a, margin=F(0)):
    pos = pos_at_red(x, v, a)
    return pos <= -margin or pos >= CAR_W + margin


def car_guards(x, v):
    """Which controller branches apply at a state, per the closed forms."""
    return (a_go(x, v) < CAR_A_MAX, a_stop(x, v) > CAR_A_MIN)


# --- session helpers -----------------------------------------------------------

def session_from(*sources):
    """Build a session by executing whole programs in order."""
    state = SessionState()
    for source in sources:
        for item in parse_program(source):
            state, _ = execute_item(state, item)
    return state


def eval_outcome(state, source, precision=None, max_steps=None,
                 witness_log=None):
    """Evaluate one expression inside a session, returning the Outcome."""
    expr = parse_expression(source)
    infer_type(state.type_context(), expr)
    wrapped = _wrap_definitions(state, expr)
    return run(wrapped,
               precision=precision if precision is not None
               else state.precision,
               max_steps=max_steps if max_steps is not None
               else state.step_budget,
               witness_log=witness_log)
