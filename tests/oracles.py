"""Independent oracles shared by the unit and acceptance suites.

Everything here is computed by a route unrelated to the interpreter:
bisection, grid search over exact rationals, closed-form kinematics, and
interval arithmetic by structural recursion instead of compiled programs.
The one exception is the cut narrowing over ``Fraction``s, the
interpreter's earlier version, kept as the reference for its integer
arithmetic.
"""

from fractions import Fraction

from msl.cli import SessionState, _wrap_definitions, execute_item
from msl.evaluator import (
    LOWER, PROBE_BITS_PER_SWEEP, _comparisons, compile_term, prop_approx, run,
)
from msl.interval import ENTIRE, DivisionIndeterminate, GInterval, XRat, ends
from msl.syntax import (
    Arith, Cut, Less, Pow, RatLit, Restrict, TrueLit, Var, free_vars,
    parse_expression, parse_program,
)
from msl.typecheck import infer_type

F = Fraction


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
    return iv.lo <= XRat(q) <= iv.hi


def contains_interval(outer, inner):
    """Whether the proper reading of ``outer`` includes that of ``inner``."""
    return outer.lo <= inner.lo and inner.hi <= outer.hi


def grid_min_abs(f, lo, hi, steps):
    """Minimum of |f| over an inclusive rational grid."""
    lo, hi = F(lo), F(hi)
    step = (hi - lo) / steps
    return min(abs(f(lo + k * step)) for k in range(steps + 1))


def reference_real_approx(e, env, mode):
    """Interval approximation of a real term by recursion over its tree:
    literals, variables, ``+ - * /``, powers, cuts (their range, dual in
    upper mode) and restrictions under a literal guard."""
    no_info = ENTIRE if mode is LOWER else ENTIRE.dual()
    if isinstance(e, RatLit):
        return GInterval.point(e.value)
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Cut):
        box = GInterval(e.range.lo, e.range.hi)
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


# --- cut narrowing over Fractions --------------------------------------------
# The narrowing of a finite cut as it was written over ``Fraction``s,
# before it moved to plain ints: the reference for ``msl.evaluator``'s
# ``_narrow``, ``_newton_points`` and ``_value_and_slope``, which must
# give the same values.  It probes with ``prop_approx`` under
# ``GInterval`` points and reads the compiled programs, as it did.


def reference_narrow(e, a, b, n):
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

    points = reference_newton_points(e, a, b, n)
    lo = next((p for p in reversed(points) if holds(e.left, p)), None)
    if lo is None:
        q1 = (2 * a + b) / 3
        lo = q1 if holds(e.left, q1) else a
    hi = next((p for p in points if p > lo and holds(e.right, p)), None)
    if hi is None:
        q2 = (a + 2 * b) / 3
        hi = q2 if holds(e.right, q2) else b
    return lo, hi


def reference_newton_points(e, a, b, n):
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
        if less not in sides and Less(less.rhs, less.lhs) not in sides:
            sides.append(less)
    points = []
    for less in sides:
        f = reference_value_and_slope(less, e.var, m)
        if f is None or not f[1]:
            continue
        r = m - f[0] / f[1]
        slack = f[2]
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


def reference_value_and_slope(t, var, x):
    """(t, dt/dvar, slack) at var = x as Fractions: the program of ``t``,
    a term or a comparison, read in forward mode over integer pairs
    (numerator, denominator > 0), each value as (f, g, p, q) for f/g and
    its slope p/q.

    A closed cut with a finite range is the constant at its midpoint and
    adds its width to ``slack``.  None when ``t`` has another free
    variable or another opaque leaf, or divides by zero.
    """
    vals, sn, sd = [], 0, 1
    for op, u, w in compile_term(t):
        if op == "v":
            if u != var:
                return None
            vals.append((x.numerator, x.denominator, 1, 1))
        elif op == "q":
            vals.append((u[0], u[1], 0, 1))
        elif op == "o":
            if not isinstance(u, Cut) or free_vars(u) \
                    or not u.range.is_finite:
                return None
            a, b, c, d = ends(GInterval(u.range.lo, u.range.hi))
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
    return Fraction(f, g), Fraction(p, q), Fraction(sn, sd)



def centred_form(less, boxes):
    """f(m) and the spread sum_i r_i * max|d_i f(X)| of f = lhs - rhs of
    a comparison of polynomials over the proper ``boxes`` (name ->
    GInterval) with midpoint m, r_i the half-width of box i: f(m) is
    exact in ``Fraction``s, and the partial derivatives are enclosed by
    forward differentiation in ``GInterval`` arithmetic, by recursion
    over the tree.  A variable bound to a point counts as a constant."""
    def walk(t):  # (value at m, {name: enclosure of d_name t})
        if isinstance(t, RatLit):
            return F(t.value), {}
        if isinstance(t, Var):
            box = boxes[t.name]
            slope = {} if box.lo == box.hi else {t.name: GInterval(1, 1)}
            return (box.lo.q + box.hi.q) / 2, slope
        if isinstance(t, Pow):  # d(u^k) = k * u^(k-1) * du
            u, du = walk(t.base)
            if t.exp == 0:
                return F(1), {}
            scale = GInterval.point(t.exp) * \
                reference_real_approx(t.base, boxes, LOWER) ** (t.exp - 1)
            return u ** t.exp, {v: scale * g for v, g in du.items()}
        u, du = walk(t.lhs)
        w, dw = walk(t.rhs)
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

    value, grad = walk(Arith("-", less.lhs, less.rhs))
    spread = sum(((boxes[v].hi.q - boxes[v].lo.q) / 2 * max(-g.lo.q, g.hi.q)
                  for v, g in grad.items()), F(0))
    return value, spread


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
