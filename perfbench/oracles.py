"""Exact-rational oracles for the benchmark's items.

Nothing here imports msl: every check recomputes the expected answer
from the item's own parameters with ``fractions.Fraction`` and compares
it with the text the interpreter printed (``SessionState(fmt="interval")``
renders a real as ``[lo, hi]`` with exact fractions).

Each check returns ``None`` when the answer is acceptable, else a short
reason.  A reason starting with ``"unsound"`` marks a wrong answer; one
starting with ``"undecided"`` an item left without an answer.
"""

from __future__ import annotations

from fractions import Fraction


def parse_answer(text):
    """The value part of the last rendered line: ``real = [1/2, 3/4]`` ->
    ``("real", "[1/2, 3/4]")``."""
    line = text.strip().splitlines()[-1] if text.strip() else ""
    head, sep, value = line.rpartition(" = ")
    if not sep:
        return None, line
    return head.rpartition(" ")[2], value


def parse_ball(value):
    """``[lo, hi]`` -> (lo, hi) as Fractions, or None."""
    if not (value.startswith("[") and value.endswith("]")):
        return None
    lo, sep, hi = value[1:-1].partition(", ")
    if not sep:
        return None
    return Fraction(lo), Fraction(hi)


def _undecided(value):
    return value.startswith("no result within")


def _ball(out, precision):
    """(lo, hi) of a real answer that is narrower than ``precision``, or a
    failure reason."""
    ty, value = parse_answer(out)
    if ty == "real" and _undecided(value):
        return None, "undecided: " + value
    if ty != "real":
        return None, f"unsound: expected a real, got {ty} = {value}"
    ball = parse_ball(value)
    if ball is None:
        return None, f"unsound: unreadable real {value!r}"
    lo, hi = ball
    if not lo <= hi:
        return None, f"unsound: improper ball {value}"
    if hi - lo >= precision:
        return None, f"unsound: width {hi - lo} not below {precision}"
    return ball, None


# ---------------------------------------------------------------------------
# cuts


def _poly(coeffs, x):
    """sum(c * x**i) for coefficients listed from the constant term up."""
    return sum(Fraction(c) * x ** i for i, c in enumerate(coeffs))


def _root_le(x, root):
    """Is x <= the root y >= 0 of P(y) = k?  P has nonnegative
    coefficients and P(0) <= k, so it increases through the root."""
    coeffs, k = root
    return x <= 0 or _poly(coeffs, x) <= Fraction(k)


def _root_ge(x, root):
    """Is x >= the root y >= 0 of P(y) = k?"""
    coeffs, k = root
    return x >= 0 and _poly(coeffs, x) >= Fraction(k)


def check_cut(item, out):
    """Containment of a polynomial root, of max/min of two roots, or of
    a plain rational, checked exactly at the ball's endpoints."""
    precision = Fraction(item["precision"])
    ball, why = _ball(out, precision)
    if why:
        return why
    lo, hi = ball
    o = item["oracle"]
    kind = o["kind"]
    if kind == "root":
        inside = _root_le(lo, o["root"]) and _root_ge(hi, o["root"])
    elif kind in ("max", "min"):
        a, b = o["roots"]
        le_a, le_b = _root_le(lo, a), _root_le(lo, b)
        ge_a, ge_b = _root_ge(hi, a), _root_ge(hi, b)
        if kind == "max":
            inside = (le_a or le_b) and ge_a and ge_b
        else:
            inside = le_a and le_b and (ge_a or ge_b)
    else:  # exact rational value
        v = Fraction(o["value"])
        inside = lo <= v <= hi
    return None if inside else f"unsound: [{lo}, {hi}] misses the value"


# ---------------------------------------------------------------------------
# quantifiers


def quad_extrema(p, r, s, a, b):
    """Exact (min, max) of p*x^2 + r*x + s over [a, b]."""
    f = lambda x: (p * x + r) * x + s  # noqa: E731
    values = [f(a), f(b)]
    if p != 0:
        c = -r / (2 * p)
        if a <= c <= b:
            values.append(f(c))
    return min(values), max(values)


def expected_prop(o):
    """The truth of a quantified comparison, from exact extrema, or None
    when the item is boundary-degenerate (not decidable by refinement)."""
    total_min = total_max = Fraction(0)
    for p, r, s, a, b in o["quads"]:
        lo, hi = quad_extrema(*(Fraction(v) for v in (p, r, s, a, b)))
        total_min += lo
        total_max += hi
    bound = Fraction(o["bound"])
    q, op = o["quant"], o["op"]
    if q == "forall" and op == "<":
        gap = bound - total_max      # true iff sup < bound
    elif q == "forall":
        gap = total_min - bound      # true iff inf > bound
    elif op == ">":
        gap = total_max - bound      # exists: true iff sup > bound
    else:
        gap = bound - total_min      # exists: true iff inf < bound
    if gap == 0:
        return None
    return gap > 0


def check_prop(item, out):
    """Margin items must be decided correctly; degenerate ones may stay
    undecided but must never answer True."""
    ty, value = parse_answer(out)
    want = expected_prop(item["oracle"])
    if ty != "prop":
        return f"unsound: expected a prop, got {ty} = {value}"
    if value == "True":
        got = True
    elif value == "False (proven)":
        got = False
    elif _undecided(value):
        return None if want is None else "undecided: " + value
    else:
        return f"unsound: unreadable prop {value!r}"
    if want is None:
        return "unsound: degenerate item answered True" if got else None
    return None if got == want else f"unsound: answered {value}"


# ---------------------------------------------------------------------------
# session


W, EPS, T, A_MAX, A_MIN = 10, 1, 4, 2, -3


def car_branches(x, v):
    """(guard holds, acceleration) of the go and stop branches of car.msl."""
    a_go = max(Fraction(0), 2 * (W + EPS - x - v * T) / (T * T))
    a_stop = v * v / (2 * (x + EPS))
    return [(a_go < A_MAX, a_go), (a_stop > A_MIN, a_stop)]


def check_car(item, out):
    o = item["oracle"]
    ball, why = _ball(out, Fraction(item["precision"]))
    if why:
        return why
    lo, hi = ball
    x, v = Fraction(o["x"]), Fraction(o["v"])
    if any(holds and lo <= a <= hi for holds, a in car_branches(x, v)):
        return None
    return f"unsound: [{lo}, {hi}] is no branch's acceleration"


def min_abs_quad(p, r, s):
    """Exact min |p*x^2 + r*x + s| over [0, 1]."""
    lo, hi = quad_extrema(p, r, s, Fraction(0), Fraction(1))
    if lo <= 0 <= hi:
        return Fraction(0)
    return min(abs(lo), abs(hi))


def check_roots(item, out):
    """tt needs |f| < eps somewhere on [0, 1]; ff needs f != 0 there."""
    ty, value = parse_answer(out)
    o = item["oracle"]
    m = min_abs_quad(*(Fraction(c) for c in o["coeffs"]))
    eps = Fraction(o["eps"])
    allowed = set()
    if m < eps:
        allowed.add("tt")
    if m > 0:
        allowed.add("ff")
    if ty == "bool" and value in allowed:
        return None
    if ty == "bool" and _undecided(value):
        return "undecided: " + value
    return f"unsound: {ty} = {value}, min |f| = {m}"


def check_silent(item, out):
    """Definitions and directives print nothing, not even an error."""
    return None if not out.strip() else f"unsound: printed {out.strip()!r}"


def check_deep(item, out):
    """Deeply nested parentheses around a rational: its value, or a
    reported error; anything but a crash."""
    lines = out.strip().splitlines()
    if lines and all(line.startswith("error: ") for line in lines):
        return None
    return check_cut(item, out)


CHECKS = {
    "cut": check_cut,
    "prop": check_prop,
    "car": check_car,
    "roots": check_roots,
    "silent": check_silent,
    "deep": check_deep,
}


def check(item, out, crash):
    """Failure reason for one executed item, or None."""
    if crash is not None:
        return "crashed: " + crash
    return CHECKS[item["check"]](item, out)
