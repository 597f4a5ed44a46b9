"""Command-line front end and REPL.

Items end with ";;".  Definitions accumulate in the session; evaluating
an expression wraps it in let-bindings for the definitions it uses (so
each nondeterministic definition commits one choice per evaluation),
type-checks it, runs the refinement loop, and renders the outcome.

Directives: #precision <rational>, #use "<path>", #trace on|off.
Flags: --precision, --max-steps, --format {decimal,interval},
--trace-witness, --no-repl, plus source files executed in order before
the REPL starts.  Exit status: 1 after any parse/type error, else 2 if
any batch evaluation diverged, else 0; 130 when Ctrl-C stops the files.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .evaluator import (
    BoolFF, BoolTT, DEFAULT_MAX_STEPS, DEFAULT_PRECISION, Diverged,
    FunctionValue, PropFalseProven, PropTrue, RealBall, TupleOf, run,
)
from .prelude import asset_path
from .syntax import (
    Def, Directive, Eval, Let, SourceError, Var, free_vars, parse_program,
    type_str,
)
from .typecheck import infer_type

MAX_USE_DEPTH = 16


@dataclass
class SessionState:
    definitions: dict = field(default_factory=dict)  # name -> (expr, ty)
    precision: Fraction = DEFAULT_PRECISION
    step_budget: int = DEFAULT_MAX_STEPS
    trace: bool = False
    fmt: str = "decimal"
    base_dirs: tuple = (os.curdir,)
    use_depth: int = 0
    divergences: int = 0  # Diverged outcomes, #use'd files included

    def type_context(self):
        return {name: ty for name, (_, ty) in self.definitions.items()}


def execute_item(state, item):
    """Execute one item, returning (state, rendered text or None)."""
    if isinstance(item, Directive):
        return _directive(state, item)
    if isinstance(item, Def):
        ty = infer_type(state.type_context(), item.body)
        # Store the right-hand side closed over the definitions it uses,
        # so later rebindings of those names (or of this one) cannot
        # change its meaning.
        state.definitions[item.name] = (_wrap_definitions(state, item.body),
                                        ty)
        return state, None
    assert isinstance(item, Eval)
    ty = infer_type(state.type_context(), item.expr)
    wrapped = _wrap_definitions(state, item.expr)
    witnesses = [] if state.trace else None
    outcome = run(wrapped, precision=state.precision,
                  max_steps=state.step_budget, witness_log=witnesses)
    if isinstance(outcome, Diverged):
        state.divergences += 1
    label = item.expr.name + " : " if isinstance(item.expr, Var) else ""
    lines = []
    try:
        for var, lo, hi in witnesses or ():
            lines.append(f"(witness {var} in [{lo}, {hi}])")
        lines.append(f"{label}{type_str(ty)} = {render(outcome, state.fmt)}")
    except ValueError:  # an integer past sys.get_int_max_str_digits()
        raise SourceError("the result has too many digits to print",
                          item.loc) from None
    return state, "\n".join(lines)


def _wrap_definitions(state, expr):
    """Let-bind every definition the expression uses (stored ones are
    already closed, so one layer suffices)."""
    needed = free_vars(expr)
    wrapped = expr
    for name in reversed(state.definitions):
        if name in needed:
            wrapped = Let(name, state.definitions[name][0], wrapped)
    return wrapped


def _directive(state, item):
    if item.name == "precision":
        if item.arg <= 0:
            raise SourceError("precision must be positive", item.loc)
        state.precision = Fraction(item.arg)
        return state, None
    if item.name == "trace":
        state.trace = item.arg
        return state, None
    assert item.name == "use"
    if state.use_depth >= MAX_USE_DEPTH:
        raise SourceError("#use nesting too deep", item.loc)
    path = _resolve_use(state, item.arg)
    if path is None:
        raise SourceError(f'cannot find "{item.arg}"', item.loc)
    items = parse_program(_read_source(path, item.arg, item.loc))
    saved_dirs, saved_depth = state.base_dirs, state.use_depth
    state.base_dirs = (os.path.dirname(path) or os.curdir,) + saved_dirs
    state.use_depth += 1
    rendered = []
    try:
        for sub in items:
            state, text = execute_item(state, sub)
            if text is not None:
                rendered.append(text)
    finally:
        state.base_dirs, state.use_depth = saved_dirs, saved_depth
    return state, "\n".join(rendered) if rendered else None


def _read_source(path, name, loc=None):
    """The text of a UTF-8 source file, or a SourceError saying why not."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise SourceError(f'cannot read "{name}": {reason}', loc) from None


def _resolve_use(state, name):
    if os.path.isabs(name):
        return name if os.path.exists(name) else None
    for base in state.base_dirs:
        cand = os.path.join(base, name)
        if os.path.exists(cand):
            return cand
    for cand in (asset_path(name), asset_path(os.path.basename(name))):
        if os.path.exists(cand):
            return cand
    return None


# ---------------------------------------------------------------------------
# Rendering


def render(outcome, fmt="decimal"):
    """Render an outcome as text ("decimal" or "interval" for balls)."""
    if isinstance(outcome, RealBall):
        if fmt == "interval":
            lo = outcome.center - outcome.radius
            hi = outcome.center + outcome.radius
            return f"[{lo}, {hi}]"
        return f"{decimal_str(outcome.center)} ± {decimal_str(outcome.radius)}"
    if isinstance(outcome, PropTrue):
        return "True"
    if isinstance(outcome, PropFalseProven):
        return "False (proven)"
    if isinstance(outcome, BoolTT):
        return "tt"
    if isinstance(outcome, BoolFF):
        return "ff"
    if isinstance(outcome, TupleOf):
        return "(" + ", ".join(render(i, fmt) for i in outcome.items) + ")"
    if isinstance(outcome, Diverged):
        return f"no result within {outcome.steps} steps"
    if isinstance(outcome, FunctionValue):
        return "<fun>"
    raise TypeError(f"render: {type(outcome).__name__}")


def decimal_str(q):
    """Exact decimal expansion, or the fraction itself when it has none."""
    q = Fraction(q)
    den = q.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return str(q)
    digits = max(twos, fives)
    if digits == 0:
        return str(q.numerator)
    scaled = abs(q.numerator) * 10 ** digits // q.denominator
    text = str(scaled).rjust(digits + 1, "0")
    sign = "-" if q < 0 else ""
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


# ---------------------------------------------------------------------------
# Driver


def execute_source(state, source, out=None, err=None):
    """Run every item of a source text; returns (had_error, had_divergence)."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        items = parse_program(source)
    except SourceError as exc:
        print(f"error: {exc.format()}", file=err)
        return True, False
    had_error = False
    divergences = state.divergences
    for item in items:
        try:
            state, rendered = execute_item(state, item)
        except SourceError as exc:
            print(f"error: {exc.format()}", file=err)
            had_error = True
            continue
        except RecursionError:
            exc = SourceError("expression too deeply nested", item.loc)
            print(f"error: {exc.format()}", file=err)
            had_error = True
            continue
        if rendered is not None:
            print(rendered, file=out)
    return had_error, state.divergences > divergences


def repl(state, stdin=None, out=None, err=None):
    stdin = sys.stdin if stdin is None else stdin
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    buffer = ""
    prompt = "msl> " if stdin.isatty() else ""
    while True:
        if prompt:
            out.write(prompt)
            out.flush()
        line = stdin.readline()
        if not line:
            break
        buffer += line
        while ";;" in buffer:
            split = buffer.index(";;") + 2
            chunk, buffer = buffer[:split], buffer[split:]
            try:
                execute_source(state, chunk, out=out, err=err)
            except KeyboardInterrupt:
                print("interrupted", file=err)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="msl",
        description="Interpreter for a small language of exact real "
                    "arithmetic with partiality and nondeterminism.")
    parser.add_argument("files", nargs="*", help="source files to execute")
    parser.add_argument("--precision", default=None,
                        help="target precision as a rational, e.g. 1/1000000")
    parser.add_argument("--max-steps", type=int, default=None,
                        help="refinement step budget per evaluation")
    parser.add_argument("--format", choices=("decimal", "interval"),
                        default="decimal", help="how to render real balls")
    parser.add_argument("--trace-witness", action="store_true",
                        help="report witness sub-intervals of existentials")
    parser.add_argument("--no-repl", action="store_true",
                        help="exit after executing the files")
    args = parser.parse_args(argv)

    state = SessionState(fmt=args.format, trace=args.trace_witness)
    if args.precision is not None:
        try:
            state.precision = Fraction(args.precision)
        except (ValueError, ZeroDivisionError):
            parser.error(f"invalid precision {args.precision!r}")
        if state.precision <= 0:
            parser.error("precision must be positive")
    if args.max_steps is not None:
        if args.max_steps < 1:
            parser.error("--max-steps must be at least 1")
        state.step_budget = args.max_steps

    had_error = had_divergence = False
    try:
        for path in args.files:
            try:
                source = _read_source(path, path)
            except SourceError as exc:
                print(f"error: {exc}", file=sys.stderr)
                had_error = True
                continue
            state.base_dirs = (os.path.dirname(path) or os.curdir, os.curdir)
            err, div = execute_source(state, source)
            had_error = had_error or err
            had_divergence = had_divergence or div
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    state.base_dirs = (os.curdir,)

    if not args.no_repl:
        repl(state)
    if had_error:
        return 1
    if had_divergence:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
