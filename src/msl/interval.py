"""Exact generalized-interval arithmetic on integer tuples.

An interval is the tuple ``(a, b, c, d)`` of <a/b, c/d>.  Endpoints are
arbitrary-precision rationals extended with -inf and +inf; no floating
point is used anywhere, and nothing is rounded.  A finite endpoint n/d
has d > 0 and need not be reduced by a gcd; an infinite one is +-1 over
0.  An interval may be *improper* (left endpoint above the right one):
proper intervals carry the usual "some point in the range" reading,
improper ones the dualized "every point of the reversed range" reading,
and the dual <c/d, a/b> swaps the two.

``add``, ``sub``, ``mul``, ``power``, ``div`` and ``below`` (the naive
comparison test) are the operations.  Multiplication follows the
sign-class table for generalized (Kaucher) products (``_MUL_ENDS``).
Two facts pin the table down, and the test suite checks them against an
independent reference: on proper operands it equals the min/max of the
four endpoint products, and the dual of every result is the result of
the duals.  Order tests cross-multiply, and sign tests read the
numerator.

Infinity conventions: endpoint products use inf * 0 == 0 (so unbounded
ranges stay informative against exact zeros); an indeterminate
inf + -inf endpoint makes the whole sum the no-information interval
``ENTIRE``; and -inf < finite < +inf.  Division requires a divisor with
finite, nonzero endpoints of one sign and raises
``DivisionIndeterminate`` otherwise; the caller decides which
orientation of "no information" fits its context.  An infinite endpoint
of a result can only come from an infinite operand, so an operation
finds one by a zero denominator of its result, and the finite path
pays for no other test.

At the boundary, ``XRat`` is an extended rational, the endpoint type of
a parsed range, and ``box`` builds the tuple of two of them.
``GInterval`` is a tuple reduced by ``interval_of``, with ``XRat`` views
of its endpoints; its operators are the operations above.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


class DivisionIndeterminate(ArithmeticError):
    """Divisor endpoints touch or straddle zero (or are not finite)."""


@dataclass(frozen=True, slots=True)
class XRat:
    """A rational extended with -inf and +inf, totally ordered.

    ``sign`` is -1 for -inf, +1 for +inf, 0 for a finite value held in
    ``q`` as an exact ``Fraction`` in lowest terms.
    """

    q: Fraction | None = 0
    sign: int = 0

    def __post_init__(self):
        if self.sign:
            object.__setattr__(self, "sign", 1 if self.sign > 0 else -1)
            object.__setattr__(self, "q", None)
        elif isinstance(self.q, float):
            raise TypeError("floats are not exact; pass a Fraction")
        elif not isinstance(self.q, Fraction):
            object.__setattr__(self, "q", Fraction(self.q))

    @property
    def is_finite(self):
        return self.sign == 0

    def _key(self):
        # (-1, _) < (0, q) < (1, _): tuple compare gives the total order.
        return (self.sign, self.q if self.sign == 0 else 0)

    # a > b and a >= b reflect to b < a and b <= a.

    def __lt__(self, other):
        return self._key() < other._key()

    def __le__(self, other):
        return self._key() <= other._key()

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


def _end(v):
    """The reduced pair (numerator, denominator) of the ``XRat`` or
    rational ``v``: +-1 over 0 at infinity."""
    if not isinstance(v, XRat):
        v = XRat(v)
    if v.sign:
        return v.sign, 0
    return v.q.numerator, v.q.denominator


def _xrat(n, d):
    return XRat(Fraction(n, d)) if d else XRat(sign=n)


class GInterval(tuple):
    """Generalized interval: the reduced integer tuple of two extended
    rationals ``lo`` and ``hi``.

    No ordering constraint between the endpoints; ``lo <= hi`` is a
    proper interval, ``lo > hi`` an improper (back-to-front) one.
    """

    __slots__ = ()

    def __new__(cls, lo, hi):
        return tuple.__new__(cls, _end(lo) + _end(hi))

    @staticmethod
    def point(q):
        return GInterval(q, q)

    @property
    def lo(self):
        return _xrat(self[0], self[1])

    @property
    def hi(self):
        return _xrat(self[2], self[3])

    @property
    def is_proper(self):
        return self.lo <= self.hi

    @property
    def is_finite(self):
        return bool(self[1] and self[3])

    def dual(self):
        return interval_of(self[2:] + self[:2])

    def __add__(self, other):
        return interval_of(add(self, other))

    def __neg__(self):
        return interval_of(sub((0, 1, 0, 1), self))

    def __sub__(self, other):
        return interval_of(sub(self, other))

    def __mul__(self, other):
        return interval_of(mul(self, other))

    def __truediv__(self, other):
        return interval_of(div(self, other))

    def __pow__(self, k):
        return interval_of(power(self, k) if k else (1, 1, 1, 1))

    def __repr__(self):
        return f"GInterval({self.lo!r}, {self.hi!r})"


def interval_of(x):
    """The ``GInterval`` of an integer tuple: its endpoints reduced."""
    a, b, c, d = x
    g, h = gcd(a, b), gcd(c, d)
    return tuple.__new__(GInterval, (a // g, b // g, c // h, d // h))


#: The mode-agnostic no-information interval.
ENTIRE = GInterval(NEG_INF, POS_INF)


def box(lo, hi):
    """The integer tuple <lo, hi> of two ``XRat`` endpoints."""
    if lo.sign or hi.sign:
        return _end(lo) + _end(hi)
    p, q = lo.q, hi.q
    return p.numerator, p.denominator, q.numerator, q.denominator


def _sum(a, b, c, d):
    """The sum <a/b, c/d> of operands with an infinite endpoint: an
    endpoint 0/0 is inf + -inf and makes it ``ENTIRE``, any other over 0
    is +-1 over 0."""
    if not b:
        if not a:
            return ENTIRE
        a = 1 if a > 0 else -1
    if not d:
        if not c:
            return ENTIRE
        c = 1 if c > 0 else -1
    return a, b, c, d


def add(x, y):
    a, b, c, d = x
    e, f, g, h = y
    if b == f:
        a += e
    else:
        a, b = a * f + e * b, b * f
    if d == h:
        c += g
    else:
        c, d = c * h + g * d, d * h
    return (a, b, c, d) if b and d else _sum(a, b, c, d)


def sub(x, y):
    """x - y, endpoint by endpoint: <x.lo - y.hi, x.hi - y.lo>."""
    a, b, c, d = x
    e, f, g, h = y
    if b == h:
        a -= g
    else:
        a, b = a * h - g * b, b * h
    if d == f:
        c -= e
    else:
        c, d = c * f - e * d, d * f
    return (a, b, c, d) if b and d else _sum(a, b, c, d)


# Sign classes for the generalized product: P has both endpoints >= 0,
# N both < 0, Z straddles zero the proper way (lo < 0 <= hi) and ZD the
# improper way (hi < 0 <= lo).
_P, _N, _Z, _ZD = range(4)

# The tuple offsets (0 lo, 2 hi) of the factors of a product's lo and
# hi, for each pair of sign classes (index 4 * x's + y's): the Kaucher
# table.  None where it takes a min and a max (Z x Z, ZD x ZD) or gives
# zero (Z x ZD, ZD x Z).
_MUL_ENDS = (
    (0, 0, 2, 2), (2, 0, 0, 2), (2, 0, 2, 2), (0, 0, 0, 2),  # P x P N Z ZD
    (0, 2, 2, 0), (2, 2, 0, 0), (0, 2, 0, 0), (2, 2, 2, 0),  # N x
    (0, 2, 2, 2), (2, 0, 0, 0), None, None,                  # Z x
    (0, 0, 2, 0), (2, 2, 0, 2), None, None,                  # ZD x
)


def _times(n, d):
    """The endpoint product n/d, where d == 0 comes from an infinite
    factor: inf * 0 == 0, else +-1 over 0."""
    if d:
        return n, d
    return (1 if n > 0 else -1, 0) if n else (0, 1)


def _below(p, q):
    """p <= q for pairs (numerator, denominator >= 0), but for two
    infinite ones, which are taken as equal."""
    return p[0] * q[1] <= q[0] * p[1]


def mul(x, y):
    """The generalized product, by the table ``_MUL_ENDS``."""
    # The sign class: hi < 0 gives 1, mixed signs 2.
    cx = (x[2] < 0) + 2 * ((x[0] < 0) != (x[2] < 0))
    cy = (y[2] < 0) + 2 * ((y[0] < 0) != (y[2] < 0))
    t = _MUL_ENDS[4 * cx + cy]
    if t is not None:
        i, j, k, m = t
        b, d = x[i + 1] * y[j + 1], x[k + 1] * y[m + 1]
        if b and d:
            return x[i] * y[j], b, x[k] * y[m], d
        return _times(x[i] * y[j], b) + _times(x[k] * y[m], d)
    if cx != cy:
        return 0, 1, 0, 1
    a, b, c, d = x
    e, f, g, h = y
    ad, bc, ac, bd = (a * g, b * h), (c * e, d * f), (a * e, b * f), \
        (c * g, d * h)
    if not (b and d and f and h):
        # Both products of a min or a max have one sign, so two
        # infinite ones are equal.
        ad, bc, ac, bd = (_times(*p) for p in (ad, bc, ac, bd))
    if cx == _Z:  # <min(A*D, B*C), max(A*C, B*D)>
        return (ad if _below(ad, bc) else bc) + (bd if _below(ac, bd) else ac)
    # ZD x ZD: <max(A*C, B*D), min(A*D, B*C)>
    return (bd if _below(ac, bd) else ac) + (ad if _below(ad, bc) else bc)


def power(x, k):
    """x ** k for k >= 1: the power of each endpoint, and for an even k
    of a proper x the range of t ** k over it (of an improper one the
    dual of the dual's)."""
    a, b, c, d = x
    r = a ** k, b ** k, c ** k, d ** k
    if k % 2:
        return r
    proper = a * d <= c * b if b or d else a <= c
    if not proper:  # the dual of the power of the dual
        a, c = c, a
        r = r[2:] + r[:2]
    if a < 0 < c:  # the range straddles 0
        r = (0, 1) + (r[:2] if _below(r[2:], r[:2]) else r[2:])
    elif a < 0:  # hi <= 0
        r = r[2:] + r[:2]
    return r if proper else r[2:] + r[:2]


def div(x, y):
    """x / y; raises ``DivisionIndeterminate`` unless y's endpoints are
    finite, nonzero and of one sign."""
    e, f, g, h = y
    if not (e and g and f and h) or (e > 0) != (g > 0):
        raise DivisionIndeterminate("divisor touches zero or is unbounded")
    # x * <1/D, 1/C>, each reciprocal with its sign on the numerator
    return mul(x, (h, g, f, e) if g > 0 else (-h, -g, -f, -e))


def below(x, y):
    """x.hi < y.lo: the naive test of a comparison x < y."""
    return x[2] * y[1] < y[0] * x[3] or not (x[3] or y[1]) and x[2] < y[0]
