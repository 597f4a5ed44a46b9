"""Exact generalized-interval arithmetic over extended rationals.

Endpoints are arbitrary-precision rationals extended with -inf/+inf; no
floating point is used anywhere, and nothing is rounded.  An interval
may be *improper* (left endpoint above the right one): proper intervals
carry the usual "some point in the range" reading, improper ones the
dualized "every point of the reversed range" reading, and ``dual()``
swaps the two.

Multiplication follows the sign-class table for generalized (Kaucher)
products.  The table is pinned down by two facts the test suite checks
exhaustively: on proper operands it equals the min/max of the four
endpoint products, and ``dual(x * y) == dual(x) * dual(y)`` holds for
every operation.

Infinity conventions: endpoint products use inf * 0 == 0 (so unbounded
ranges stay informative against exact zeros); an indeterminate
inf + -inf endpoint collapses the sum to the no-information interval
``ENTIRE``.  Division requires a divisor with finite, nonzero endpoints
of one sign and raises ``DivisionIndeterminate`` otherwise; the caller
decides which orientation of "no information" fits its context.

``GInterval`` is the reference semantics and the boundary of the
evaluator's readers of compiled programs, which compute on plain ints
(``add``, ``sub``, ``mul``, ``power``, ``div``, ``below``): a finite
interval is the tuple ``(a, b, c, d)`` of <a/b, c/d>, with b, d > 0 and
nothing reduced by a gcd.  Order tests cross-multiply, and sign tests
read the numerator.  ``box`` builds the tuple of two finite endpoints,
as an environment binds a finite box and a reader takes a cut's range;
``ends`` takes a ``GInterval`` binding in, and ``interval_of`` hands a
result out, the one place where a tuple is normalized to ``Fraction``
endpoints.  An interval with an infinite endpoint (an unbounded cut, no
information) stays a ``GInterval``, and any operation on one goes
through the ``GInterval`` operator, so each value is that of the
reference.
"""

from __future__ import annotations

from fractions import Fraction


class IndeterminateSum(ArithmeticError):
    """inf + -inf has no meaningful value."""


class DivisionIndeterminate(ArithmeticError):
    """Divisor endpoints touch or straddle zero (or are not finite)."""


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


# ---------------------------------------------------------------------------
# Integer tuples (see the module docstring).  Each operation takes the
# integer route when both operands are tuples, else the GInterval one.


def box(lo, hi):
    """The interval <lo, hi> of two XRat endpoints: its integer tuple
    when both are finite, else a ``GInterval``."""
    if lo.sign or hi.sign:
        return GInterval(lo, hi)
    p, q = lo.q, hi.q
    return p.numerator, p.denominator, q.numerator, q.denominator


def ends(g):
    """The integer tuple of a finite GInterval ``g``; a tuple, or a
    GInterval with an infinite endpoint, as it is."""
    if type(g) is tuple or g.lo.sign or g.hi.sign:
        return g
    p, q = g.lo.q, g.hi.q
    return p.numerator, p.denominator, q.numerator, q.denominator


def interval_of(x):
    """The GInterval of an integer tuple (reduced), or ``x`` itself."""
    if type(x) is not tuple:
        return x
    a, b, c, d = x
    return GInterval(Fraction(a, b), Fraction(c, d))


def add(x, y):
    if type(x) is not tuple or type(y) is not tuple:
        return interval_of(x) + interval_of(y)
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
    return a, b, c, d


def sub(x, y):
    """x - y, endpoint by endpoint: <x.lo - y.hi, x.hi - y.lo>."""
    if type(x) is not tuple or type(y) is not tuple:
        return interval_of(x) - interval_of(y)
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
    return a, b, c, d


# The tuple offsets (0 lo, 2 hi) of the factors of a product's lo and
# hi, for each pair of sign classes (index 4 * x's + y's), as in
# ``GInterval.__mul__``.  None where that table takes a min and a max
# (Z x Z, ZD x ZD) or gives zero (Z x ZD, ZD x Z).
_MUL_ENDS = (
    (0, 0, 2, 2), (2, 0, 0, 2), (2, 0, 2, 2), (0, 0, 0, 2),  # P x P N Z ZD
    (0, 2, 2, 0), (2, 2, 0, 0), (0, 2, 0, 0), (2, 2, 2, 0),  # N x
    (0, 2, 2, 2), (2, 0, 0, 0), None, None,                  # Z x
    (0, 0, 2, 0), (2, 2, 0, 2), None, None,                  # ZD x
)


def _below(p, q):
    """p <= q for pairs (numerator, denominator > 0)."""
    return p[0] * q[1] <= q[0] * p[1]


def mul(x, y):
    """The generalized product, by the table of ``GInterval.__mul__``."""
    if type(x) is not tuple or type(y) is not tuple:
        return interval_of(x) * interval_of(y)
    # The sign class (``_sign_class``): hi < 0 gives 1, mixed signs 2.
    cx = (x[2] < 0) + 2 * ((x[0] < 0) != (x[2] < 0))
    cy = (y[2] < 0) + 2 * ((y[0] < 0) != (y[2] < 0))
    t = _MUL_ENDS[4 * cx + cy]
    if t is not None:
        i, j, k, m = t
        return (x[i] * y[j], x[i + 1] * y[j + 1],
                x[k] * y[m], x[k + 1] * y[m + 1])
    if cx != cy:
        return 0, 1, 0, 1
    a, b, c, d = x
    e, f, g, h = y
    ad, bc, ac, bd = (a * g, b * h), (c * e, d * f), (a * e, b * f), \
        (c * g, d * h)
    if cx == _Z:  # <min(A*D, B*C), max(A*C, B*D)>
        return (ad if _below(ad, bc) else bc) + (bd if _below(ac, bd) else ac)
    # ZD x ZD: <max(A*C, B*D), min(A*D, B*C)>
    return (bd if _below(ac, bd) else ac) + (ad if _below(ad, bc) else bc)


def power(x, k):
    """x ** k for k >= 1, as ``GInterval.__pow__`` computes it."""
    if type(x) is not tuple:
        return x ** k
    a, b, c, d = x
    r = a ** k, b ** k, c ** k, d ** k
    if k % 2:
        return r
    proper = a * d <= c * b
    if not proper:  # the dual of the power of the dual
        a, c = c, a
        r = r[2:] + r[:2]
    if a < 0 < c:  # the range straddles 0
        r = (0, 1) + (r[:2] if _below(r[2:], r[:2]) else r[2:])
    elif a < 0:  # hi <= 0
        r = r[2:] + r[:2]
    return r if proper else r[2:] + r[:2]


def div(x, y):
    """x / y; raises ``DivisionIndeterminate`` as ``__truediv__`` does."""
    if type(x) is not tuple or type(y) is not tuple:
        return interval_of(x) / interval_of(y)
    e, f, g, h = y
    if e == 0 or g == 0 or (e > 0) != (g > 0):
        raise DivisionIndeterminate("divisor touches zero")
    # x * <1/D, 1/C>, each reciprocal with its sign on the numerator
    return mul(x, (h, g, f, e) if g > 0 else (-h, -g, -f, -e))


def below(x, y):
    """x.hi < y.lo: the naive test of a comparison x < y."""
    if type(x) is not tuple or type(y) is not tuple:
        return interval_of(x).hi < interval_of(y).lo
    return x[2] * y[1] < y[0] * x[3]
