"""Unit and property tests for generalized interval arithmetic.

The integer-tuple operations of ``msl.interval`` are compared with the
reference arithmetic of ``oracles`` (``R``), endpoint by endpoint, on
proper, improper, point and unbounded intervals; the properties that pin
the Kaucher table down are checked on the reference.  ``GInterval``
(``I``) is the interpreter's boundary type, whose operators are the
tuple operations.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from msl.interval import (
    DivisionIndeterminate, ENTIRE, GInterval, NEG_INF, POS_INF, XRat, add,
    below, box, div, interval_of, mul, power, sub,
)
from msl.evaluator import LOWER, UPPER, prop_approx, real_approx
from msl.syntax import Arith, Less, Pow, RatLit, Var

from oracles import (
    centred_form, contains, contains_interval, reference,
    reference_real_approx,
)

I = GInterval
R = oracles.GInterval
F = Fraction


def rationals():
    return st.fractions(max_denominator=50,
                        min_value=F(-20), max_value=F(20))


def intervals():
    return st.builds(I, rationals(), rationals())


def proper_intervals():
    return intervals().map(lambda i: i if i.is_proper else i.dual())


def any_intervals():
    """Proper, dual, point and unbounded intervals."""
    ends = st.one_of(rationals(), rationals(), st.sampled_from((NEG_INF,
                                                                POS_INF)))
    return st.one_of(intervals(), intervals(), rationals().map(I.point),
                     st.builds(I, ends, ends))


# --- XRat ------------------------------------------------------------------

def test_xrat_total_order():
    assert NEG_INF < XRat(-100) < XRat(0) < XRat(F(1, 3)) < POS_INF
    assert XRat(F(2, 4)) == XRat(F(1, 2))
    assert hash(XRat(F(2, 4))) == hash(XRat(F(1, 2)))


def test_xrat_rejects_floats():
    with pytest.raises(TypeError):
        XRat(0.1)
    with pytest.raises(TypeError):
        I(0.5, 1)


def test_xrat_saturating_arithmetic():
    # The reference's endpoint arithmetic: msl's XRat does none.
    X, pos, neg = oracles.XRat, oracles.POS_INF, oracles.NEG_INF
    assert pos + X(5) == pos
    assert neg + neg == neg
    assert -pos == neg
    assert pos * X(-2) == neg
    assert pos * oracles.ZERO == oracles.ZERO
    assert neg ** 2 == pos
    assert neg ** 3 == neg
    with pytest.raises(oracles.IndeterminateSum):
        pos + neg


# --- addition / negation ----------------------------------------------------

def test_add_endpoints():
    assert I(1, 2) + I(3, 4) == I(4, 6)


def test_add_identity():
    assert I(0, 0) + I(F(-1, 3), F(7, 2)) == I(F(-1, 3), F(7, 2))


def test_add_saturates_at_infinity():
    assert I(NEG_INF, 0) + I(1, 1) == I(NEG_INF, 1)


def test_add_indeterminate_collapses():
    assert I(NEG_INF, 0) + I(POS_INF, 0) == ENTIRE


def test_neg():
    assert -I(1, 2) == I(-2, -1)
    assert -I(2, 1) == I(-1, -2)
    assert -I(0, 0) == I(0, 0)


# --- multiplication ---------------------------------------------------------

def _oracle_mul(x, y):
    products = [x.lo.q * y.lo.q, x.lo.q * y.hi.q,
                x.hi.q * y.lo.q, x.hi.q * y.hi.q]
    return R(min(products), max(products))


def test_mul_examples():
    assert I(1, 2) * I(3, 4) == I(3, 8)
    assert I(-1, 2) * I(-3, 4) == I(-6, 8)
    # improper product from the dual homomorphism applied to the first
    assert I(2, 1) * I(4, 3) == (I(1, 2) * I(3, 4)).dual()
    assert I(2, 1) * I(4, 3) == I(8, 3)


def test_mul_zero_classes():
    assert I(-1, 2) * I(1, -1) == I(0, 0)     # Z x dualZ
    assert I(2, -1) * I(-1, 1) == I(0, 0)     # dualZ x Z
    assert I(1, -1) * I(2, -2) == I(max(F(2), F(2)), min(F(-2), F(-2)))


def test_mul_infinite_against_zero_point():
    assert ENTIRE * I(0, 0) == I(0, 0)
    assert I(0, POS_INF) * I(0, 0) == I(0, 0)


# The facts that pin the Kaucher table down, on the reference: the tuple
# operations match it (``test_integer_operations_match_ginterval``).

@given(proper_intervals(), proper_intervals())
def test_mul_proper_matches_minmax_oracle(x, y):
    assert reference(x) * reference(y) == _oracle_mul(x, y)


@given(intervals(), intervals())
def test_mul_dual_homomorphism(x, y):
    x, y = reference(x), reference(y)
    assert (x * y).dual() == x.dual() * y.dual()


@given(intervals(), intervals())
def test_add_dual_homomorphism(x, y):
    x, y = reference(x), reference(y)
    assert (x + y).dual() == x.dual() + y.dual()


@given(intervals())
def test_neg_dual_homomorphism(x):
    x = reference(x)
    assert (-x).dual() == -(x.dual())


@given(intervals(), st.integers(min_value=0, max_value=5))
def test_pow_dual_homomorphism(x, k):
    x = reference(x)
    assert (x ** k).dual() == x.dual() ** k


def polynomial_terms(names, ops="+-*"):
    """Real terms over ``names`` with no Cut or Restrict, combined by
    powers and by the operators in ``ops``."""
    variables = st.sampled_from(names).map(Var)
    leaves = st.one_of(variables, variables, rationals().map(RatLit))
    return st.recursive(leaves, lambda kids: st.one_of(
        st.builds(Arith, st.sampled_from(ops), kids, kids),
        st.builds(Pow, kids, st.integers(min_value=0, max_value=3))),
        max_leaves=8)


def narrow_intervals():
    """Proper intervals of width 1/64, 1/8 or 1/2 near 0, where the
    centred form of a small polynomial is often tighter than the naive
    enclosure."""
    return st.builds(lambda lo, w: I(lo, lo + w),
                     st.fractions(min_value=-2, max_value=2,
                                  max_denominator=8),
                     st.sampled_from((F(1, 64), F(1, 8), F(1, 2))))


def divides(t):
    """Does the term ``t`` hold a division, even under a power 0?"""
    if isinstance(t, Arith):
        return t.op == "/" or divides(t.lhs) or divides(t.rhs)
    return isinstance(t, Pow) and divides(t.base)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_polynomial_upper_enclosure_is_dual_of_lower(data):
    # Upper mode binds every quantified variable to a dual box, so by the
    # dual homomorphisms above the upper-mode enclosure of a polynomial
    # is the dual of its enclosure over the proper boxes.  This is what
    # makes any tighter proper enclosure (the centred form) usable in
    # upper mode.  Division is dual-homomorphic too, and a quotient
    # whose divisor touches zero is no information in each mode: ENTIRE
    # and its dual.
    names = data.draw(st.sampled_from((("x",), ("x", "y"))))
    t = data.draw(polynomial_terms(names, "+-*/"))
    boxes = {v: data.draw(st.one_of(proper_intervals(), narrow_intervals(),
                                    narrow_intervals())) for v in names}
    duals = {v: box.dual() for v, box in boxes.items()}
    assert real_approx(t, duals, UPPER) == real_approx(t, boxes, LOWER).dual()
    # So the centred test of a comparison reads upper mode's dual boxes
    # undualized, and in both modes it decides as the Fraction centred
    # form over the proper boxes does.  The bound c is drawn at the ends
    # of that form's enclosure f(m) +- spread, or inside a gap between
    # them and the naive enclosure, where only the centred test decides.
    if divides(t):
        return  # a division: the naive test alone
    mid, spread = centred_form(Less(t, RatLit(F(0))), boxes)
    naive = reference_real_approx(t, boxes, LOWER)
    u = data.draw(st.sampled_from((F(0), F(1, 64), F(1, 2))))
    c = data.draw(st.sampled_from((
        mid, mid + spread + u * max(naive.hi.q - mid - spread, F(0)),
        mid - spread - u * max(mid - spread - naive.lo.q, F(0)))))
    less, f = Less(t, RatLit(c)), mid - c
    proof = naive.hi.q < c or (f < 0 and f + spread < 0)
    refutation = naive.lo.q >= c or (f >= 0 and f - spread >= 0)
    assert prop_approx(less, boxes, LOWER) is proof
    assert prop_approx(less, duals, UPPER) is not refutation


@given(proper_intervals(), proper_intervals(), st.data())
def test_mul_sound_on_samples(x, y, data):
    r = data.draw(st.fractions(min_value=x.lo.q, max_value=x.hi.q,
                               max_denominator=64))
    s = data.draw(st.fractions(min_value=y.lo.q, max_value=y.hi.q,
                               max_denominator=64))
    assert contains(x * y, r * s)
    assert contains(x + y, r + s)


def unreduced(x, data):
    """The integer tuple of ``x`` with each finite endpoint's numerator
    and denominator scaled by a drawn factor; an infinite endpoint is +-1
    over 0."""
    a, b, c, d = x
    k, m = (data.draw(st.integers(min_value=1, max_value=6)) if den else 1
            for den in (b, d))
    return a * k, b * k, c * m, d * m


@settings(derandomize=True, max_examples=100)
@given(any_intervals(), st.data())
def test_box_and_interval_of_give_the_reduced_tuple(x, data):
    # ``box`` builds the integer tuple of two XRat endpoints, an infinite
    # one as +-1 over 0, and ``interval_of`` reduces any tuple to the
    # GInterval that is that tuple reduced.
    t = unreduced(x, data)
    assert box(x.lo, x.hi) == tuple(x) == interval_of(t)
    assert type(interval_of(t)) is GInterval
    assert reference(t) == reference(x) == R(oracles.reference_end(x.lo),
                                              oracles.reference_end(x.hi))


@settings(derandomize=True, max_examples=300)
@given(any_intervals(), any_intervals(), st.integers(min_value=1,
                                                     max_value=5), st.data())
def test_integer_operations_match_ginterval(x, y, k, data):
    # Each tuple operation, an infinite endpoint included, against the
    # reference arithmetic.
    tx, ty = unreduced(x, data), unreduced(y, data)
    rx, ry = reference(x), reference(y)
    assert reference(add(tx, ty)) == rx + ry
    assert reference(sub(tx, ty)) == rx - ry
    assert reference(mul(tx, ty)) == rx * ry
    assert reference(power(tx, k)) == rx ** k
    assert below(tx, ty) is (rx.hi < ry.lo)
    try:
        quotient = rx / ry
    except DivisionIndeterminate:
        with pytest.raises(DivisionIndeterminate):
            div(tx, ty)
    else:
        assert reference(div(tx, ty)) == quotient


# --- division ----------------------------------------------------------------

def test_div_point():
    assert I(1, 1) / I(2, 2) == I(F(1, 2), F(1, 2))


def test_div_negative_divisor():
    assert I(1, 2) / I(-4, -2) == I(-1, F(-1, 4))


def test_div_zero_straddling_divisor():
    with pytest.raises(DivisionIndeterminate):
        I(1, 2) / I(-1, 1)
    with pytest.raises(DivisionIndeterminate):
        I(1, 2) / I(0, 3)
    with pytest.raises(DivisionIndeterminate):
        I(1, 2) / I(1, POS_INF)


@given(proper_intervals(), proper_intervals(), st.data())
def test_div_sound_on_samples(x, y, data):
    if y.lo.q == 0 or y.hi.q == 0 or (y.lo.q > 0) != (y.hi.q > 0):
        with pytest.raises(DivisionIndeterminate):
            x / y
        return
    r = data.draw(st.fractions(min_value=x.lo.q, max_value=x.hi.q,
                               max_denominator=64))
    s = data.draw(st.fractions(min_value=min(y.lo.q, y.hi.q),
                               max_value=max(y.lo.q, y.hi.q),
                               max_denominator=64))
    assert contains(x / y, r / s)


# --- powers -------------------------------------------------------------------

def test_pow_examples():
    assert I(-1, 1) ** 2 == I(0, 1)
    assert I(2, 3) ** 3 == I(8, 27)
    assert I(F(5), F(-7, 2)) ** 0 == I(1, 1)


@given(proper_intervals())
def test_pow_square_at_least_as_tight_as_mul(x):
    sq, mul = x ** 2, x * x
    assert contains_interval(mul, sq)


@given(proper_intervals(), st.integers(min_value=0, max_value=4), st.data())
def test_pow_sound_on_samples(x, k, data):
    r = data.draw(st.fractions(min_value=x.lo.q, max_value=x.hi.q,
                               max_denominator=64))
    assert contains(x ** k, r ** k)


# --- dual ----------------------------------------------------------------------

def test_dual():
    assert I(3, 8).dual() == I(8, 3)
    assert I(3, 8).dual().dual() == I(3, 8)


# --- comparison and sign-class fast paths --------------------------------------

def xrats():
    return st.one_of(rationals().map(XRat), st.sampled_from([NEG_INF, POS_INF]))


@given(xrats(), xrats(), st.booleans())
def test_xrat_order_matches_key_order(a, b, same):
    if same:
        b = XRat(a.q) if a.is_finite else a  # equal values, distinct objects
    ka, kb = a._key(), b._key()
    assert (a < b) == (ka < kb)
    assert (a <= b) == (ka <= kb)
    assert (a > b) == (ka > kb)
    assert (a >= b) == (ka >= kb)
    assert (a == b) == (ka == kb)
    if a == b:
        assert hash(a) == hash(b)


@given(st.one_of(intervals(), st.builds(I, xrats(), xrats())))
def test_sign_class_matches_nonnegative_endpoints(i):
    # The reference's sign classes, which its product table reads.
    from oracles import _N, _P, _Z, _ZD, _sign_class
    i, zero = reference(i), oracles.ZERO._key()
    a_nonneg, b_nonneg = i.lo._key() >= zero, i.hi._key() >= zero
    expected = {(True, True): _P, (False, False): _N,
                (False, True): _Z, (True, False): _ZD}[a_nonneg, b_nonneg]
    assert _sign_class(i) == expected


def test_computed_values_stay_immutable():
    i = I(1, 2) * I(3, 4)
    x = i.hi
    assert x == XRat(8) and x.is_finite
    with pytest.raises(AttributeError):
        x.q = F(0)
    with pytest.raises(AttributeError):
        i.lo = XRat(0)
