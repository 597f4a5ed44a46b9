"""Command-line front end and REPL.

Items end with ";;".  Definitions accumulate in the session; evaluating
an expression wraps it in let-bindings for the definitions it uses (so
each nondeterministic definition commits one choice per evaluation),
type-checks it, runs the refinement loop, and renders the outcome.

Directives: #precision <rational>, #use "<path>", #trace on|off.
Flags: --precision, --max-steps, --format {decimal,interval},
--trace-witness, --no-repl, plus source files executed in order before
the REPL starts.  Only those files' items set the exit status, not the
REPL's, piped stdin included: 1 after any parse/type error, else 2 if
any evaluation diverged, else 0; 130 when Ctrl-C stops the files.
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
    Def, Directive, Eval, Let, LexError, SourceError, Var, free_vars, keep,
    parse_program, tokenize, type_str,
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
    """Execute one item, returning (state, rendered text or None); a
    ``#use`` runs all its file's items, then raises their first error."""
    if isinstance(item, Directive) and item.name == "use":
        results = list(_use(state, item))
        for _, error in results:
            if error is not None:
                raise SourceError(error)
        return state, "\n".join(text for text, _ in results) or None
    if isinstance(item, Directive):
        return _directive(state, item)
    if isinstance(item, Def):
        ty = infer_type(state.type_context(), item.body)
        # Store the right-hand side closed over the definitions it uses,
        # so later rebindings of those names (or of this one) cannot
        # change its meaning.  Closed, it keeps the type just checked.
        wrapped = _wrap_definitions(state, item.body)
        keep(wrapped, "_ty", ty)
        state.definitions[item.name] = (wrapped, ty)
        return state, None
    assert isinstance(item, Eval)
    ty = infer_type(state.type_context(), item.expr)
    wrapped = _wrap_definitions(state, item.expr)
    keep(wrapped, "_ty", ty)  # so ``run`` does not type it again
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
    assert item.name == "trace"
    state.trace = item.arg
    return state, None


def _run_source(state, source, where="", start=None):
    """Execute the items of a source text in order, yielding (rendered
    text, None) per answer and (None, error text) per error.  An error
    ends its own item, a parse error the whole text.  ``where`` ("" or
    the ``#use`` argument and a colon) names the file in error texts;
    ``start``, when given, is the location of the text in its input.  An
    item too deep for Python's recursion limit, or that exhausts memory,
    is a located error too."""
    try:
        # perfbench's counting pass wraps ``parse_program`` in a function
        # of one argument, and runs no text with a ``start``.
        items = parse_program(source) if start is None else \
            parse_program(source, start)
    except SourceError as exc:
        yield None, where + exc.format()
        return
    for item in items:
        try:
            if isinstance(item, Directive) and item.name == "use":
                yield from _use(state, item)
                continue
            state, text = execute_item(state, item)
            if text is not None:
                yield text, None
        except SourceError as exc:
            yield None, where + exc.format()
        except RecursionError:
            exc = SourceError("expression too deeply nested", item.loc)
            yield None, where + exc.format()
        except MemoryError:
            exc = SourceError("out of memory", item.loc)
            yield None, where + exc.format()


def _use(state, item):
    """The results of a ``#use`` directive (see ``_run_source``)."""
    if state.use_depth >= MAX_USE_DEPTH:
        raise SourceError("#use nesting too deep", item.loc)
    path = _resolve_use(state, item.arg)
    if path is None:
        raise SourceError(f'cannot find "{item.arg}"', item.loc)
    source = _read_source(path, item.arg, item.loc)
    saved_dirs, saved_depth = state.base_dirs, state.use_depth
    state.base_dirs = (os.path.dirname(path) or os.curdir,) + saved_dirs
    state.use_depth += 1
    try:
        yield from _run_source(state, source, f"{item.arg}:")
    finally:
        state.base_dirs, state.use_depth = saved_dirs, saved_depth


def _read_source(path, name, loc=None):
    """The text of a UTF-8 source file, less a leading byte-order mark, or
    a SourceError saying why not."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
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


def execute_source(state, source, out=None, err=None, start=None):
    """Run every item of a source text; returns (had_error,
    had_divergence).  Error locations count from ``start``, the (line,
    column) of the text in a longer input, or from (1, 1)."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    had_error = False
    divergences = state.divergences
    for text, error in _run_source(state, source, start=start):
        if error is None:
            print(text, file=out)
        else:
            print(f"error: {error}", file=err)
            had_error = True
    return had_error, state.divergences > divergences


def repl(state, stdin=None, out=None, err=None):
    stdin = sys.stdin if stdin is None else stdin
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    buffer, start = "", (1, 1)  # start: the location of the buffer
    prompt = "msl> " if stdin.isatty() else ""
    while True:
        if prompt:
            out.write(prompt)
            out.flush()
        line = stdin.readline()
        if not buffer and start == (1, 1):  # drop a BOM, as from a file
            line = line.removeprefix("\ufeff")
        buffer += line
        # A ";;" token never spans lines, so only a line that holds one
        # can end an item: the buffer is scanned once per item, not once
        # per line.
        split = (len(buffer) if not line
                 else _item_end(buffer) if ";;" in line else None)
        while split:
            # At end of input the rest is run as a last item: a comment
            # or blanks print nothing, an item without ';;' is an error.
            chunk, buffer = buffer[:split], buffer[split:]
            try:
                execute_source(state, chunk, out=out, err=err, start=start)
            except KeyboardInterrupt:
                print("interrupted", file=err)
            start = _past(chunk, start)
            split = _item_end(buffer)
        if not line:
            return 0


def _item_end(text):
    """The offset just past the first ``;;`` token of ``text``, or None
    while there is none or a comment is still open.  Past a lexical
    error, the item ends at the next ``;;`` characters."""
    try:
        tokens, error = tokenize(text), None
    except LexError as exc:
        error = exc
        tokens = tokenize(text[:_offset(text, exc.loc)])
    for tok in tokens:
        if tok.kind == ";;":
            return _offset(text, tok.loc) + 2
    if error is None or error.message == "unterminated comment":
        return None
    end = text.find(";;", _offset(text, error.loc))
    return None if end < 0 else end + 2


def _past(text, loc):
    """The location just past ``text`` when it starts at ``loc``."""
    lines = text.count("\n")
    if lines:
        return loc[0] + lines, len(text) - text.rindex("\n")
    return loc[0], loc[1] + len(text)


def _offset(text, loc):
    """The offset in ``text`` of a (line, column) location."""
    line, col = loc
    start = 0
    for _ in range(line - 1):
        start = text.index("\n", start) + 1
    return start + col - 1


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
