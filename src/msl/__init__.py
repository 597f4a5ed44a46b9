"""msl: an interpreter for a small language of exact real arithmetic
with partiality and nondeterminism.

Reals are Dedekind cuts narrowed by interval refinement, props are
semi-decidable observations with lower/upper approximants, booleans are
pairs of props that may overlap (nondeterminism) or leave gaps
(partiality), and ``||`` joins guarded branches any of which may answer.
"""

from .cli import SessionState, execute_item, main, render
from .evaluator import (
    BoolFF, BoolTT, Diverged, FunctionValue, LOWER, Mode, Outcome, PRUNED,
    PropFalseProven, PropTrue, RealBall, TupleOf, UPPER, evaluate_step,
    prop_approx, real_approx, refine_step, run,
)
from .interval import (
    DivisionIndeterminate, ENTIRE, GInterval, NEG_INF, POS_INF, XRat,
)
from .normalize import normalize
from .prelude import load_prelude
from .syntax import (
    LexError, ParseError, SourceError, parse_expression, parse_program,
    pretty_print, tokenize,
)
from .typecheck import TypecheckError, infer_type, is_base

__all__ = [
    "BoolFF", "BoolTT", "Diverged", "DivisionIndeterminate", "ENTIRE",
    "FunctionValue", "GInterval", "LOWER", "LexError",
    "Mode", "NEG_INF", "Outcome", "POS_INF", "PRUNED", "ParseError",
    "PropFalseProven", "PropTrue", "RealBall", "SessionState",
    "SourceError", "TupleOf", "TypecheckError", "UPPER", "XRat",
    "evaluate_step", "execute_item", "infer_type", "is_base",
    "load_prelude", "main", "normalize", "parse_expression",
    "parse_program", "prelude", "pretty_print", "prop_approx",
    "real_approx", "refine_step", "render", "run", "tokenize",
]
