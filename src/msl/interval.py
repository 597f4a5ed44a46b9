"""Exact generalized-interval arithmetic over extended rationals.

Endpoints are arbitrary-precision rationals extended with -inf/+inf; no
floating point is used anywhere.  An interval may be *improper* (left
endpoint above the right one): proper intervals carry the usual "some
point in the range" reading, improper ones the dualized "every point of
the reversed range" reading, and ``dual()`` swaps the two.

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

    # When either operand is infinite, the order is that of the signs.
    # Finite operands compare by cross-multiplication (denominators are
    # positive), which skips building the _key tuples.

    def __lt__(self, other):
        if self.sign or other.sign:
            return self.sign < other.sign
        a, b = self.q, other.q
        return a.numerator * b.denominator < b.numerator * a.denominator

    def __le__(self, other):
        if self.sign or other.sign:
            return self.sign <= other.sign
        a, b = self.q, other.q
        return a.numerator * b.denominator <= b.numerator * a.denominator

    def __gt__(self, other):
        if self.sign or other.sign:
            return self.sign > other.sign
        a, b = self.q, other.q
        return a.numerator * b.denominator > b.numerator * a.denominator

    def __ge__(self, other):
        if self.sign or other.sign:
            return self.sign >= other.sign
        a, b = self.q, other.q
        return a.numerator * b.denominator >= b.numerator * a.denominator

    def __hash__(self):
        return hash(self._key())

    def __neg__(self):
        if self.sign:
            return NEG_INF if self.sign > 0 else POS_INF
        return _finite(-self.q)

    def __add__(self, other):
        if self.sign == 0 and other.sign == 0:
            return _finite(self.q + other.q)
        if self.sign == 0:
            return other
        if other.sign == 0 or other.sign == self.sign:
            return self
        raise IndeterminateSum("inf + -inf")

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.sign == 0 and other.sign == 0:
            return _finite(self.q * other.q)
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
            return _finite(self.q ** k)
        if self.sign > 0 or k % 2 == 0:
            return POS_INF
        return NEG_INF

    def reciprocal(self):
        if self.sign or self.q == 0:
            raise ZeroDivisionError("reciprocal needs a finite nonzero value")
        return _finite(1 / self.q)

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

# Results built from values that are already exact skip the checks and
# conversions of the public constructors: the slot descriptors fill a
# bare instance directly.
_new = object.__new__
_set_sign = XRat.sign.__set__
_set_q = XRat.q.__set__


def _finite(q):
    """The finite XRat of a Fraction ``q``."""
    x = _new(XRat)
    _set_sign(x, 0)
    _set_q(x, q)
    return x


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
        return _interval(q, q)

    @property
    def is_proper(self):
        return self.lo <= self.hi

    @property
    def is_finite(self):
        return self.lo.is_finite and self.hi.is_finite

    def dual(self):
        return _interval(self.hi, self.lo)

    def __eq__(self, other):
        if not isinstance(other, GInterval):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __add__(self, other):
        try:
            return _interval(self.lo + other.lo, self.hi + other.hi)
        except IndeterminateSum:
            # No-information fallback; only reachable when mixing
            # opposite-orientation unbounded intervals directly.
            return ENTIRE

    def __neg__(self):
        return _interval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        ca, cb = _sign_class(self), _sign_class(other)
        if ca == _P:
            if cb == _P:
                return _interval(a * c, b * d)
            if cb == _Z:
                return _interval(b * c, b * d)
            if cb == _N:
                return _interval(b * c, a * d)
            return _interval(a * c, a * d)
        if ca == _Z:
            if cb == _P:
                return _interval(a * d, b * d)
            if cb == _Z:
                return _interval(min(a * d, b * c), max(a * c, b * d))
            if cb == _N:
                return _interval(b * c, a * c)
            return _interval(ZERO, ZERO)
        if ca == _N:
            if cb == _P:
                return _interval(a * d, b * c)
            if cb == _Z:
                return _interval(a * d, a * c)
            if cb == _N:
                return _interval(b * d, a * c)
            return _interval(b * d, b * c)
        # ca == _ZD
        if cb == _P:
            return _interval(a * c, b * c)
        if cb == _Z:
            return _interval(ZERO, ZERO)
        if cb == _N:
            return _interval(b * d, a * d)
        return _interval(max(a * c, b * d), min(a * d, b * c))

    def __truediv__(self, other):
        lo, hi = other.lo, other.hi
        if not (lo.is_finite and hi.is_finite):
            raise DivisionIndeterminate("unbounded divisor")
        if lo.q == 0 or hi.q == 0 or (lo.q > 0) != (hi.q > 0):
            raise DivisionIndeterminate("divisor touches zero")
        return self * _interval(hi.reciprocal(), lo.reciprocal())

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a natural number")
        if k == 0:
            return _interval(ONE, ONE)
        if k % 2 == 1:
            return _interval(self.lo ** k, self.hi ** k)
        if not self.is_proper:
            return (self.dual() ** k).dual()
        lo_k, hi_k = self.lo ** k, self.hi ** k
        if self.lo <= ZERO <= self.hi:
            m = ZERO
        else:
            m = min(lo_k, hi_k)
        return _interval(m, max(lo_k, hi_k))

    def __str__(self):
        return f"<{self.lo}, {self.hi}>"

    def __repr__(self):
        return f"GInterval({self.lo!r}, {self.hi!r})"


_set_lo = GInterval.lo.__set__
_set_hi = GInterval.hi.__set__


def _interval(lo, hi):
    """The GInterval of two XRat endpoints."""
    g = _new(GInterval)
    _set_lo(g, lo)
    _set_hi(g, hi)
    return g


#: The mode-agnostic no-information interval.
ENTIRE = GInterval(NEG_INF, POS_INF)
