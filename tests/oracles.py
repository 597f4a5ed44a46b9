"""Independent oracles shared by the unit and acceptance suites.

Everything here is computed by a route unrelated to the interpreter:
bisection, grid search over exact rationals, closed-form kinematics, and
interval arithmetic by structural recursion instead of compiled programs.
"""

from fractions import Fraction

from msl.cli import SessionState, _wrap_definitions, execute_item
from msl.evaluator import LOWER, run
from msl.interval import ENTIRE, DivisionIndeterminate, GInterval, XRat
from msl.syntax import (
    Arith, Cut, Pow, RatLit, Restrict, TrueLit, Var, parse_expression,
    parse_program,
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
