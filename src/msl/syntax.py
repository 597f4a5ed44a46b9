"""Surface syntax of the language: AST, lexer, parser, printer.

A program is a sequence of items, each terminated by ";;":

    let <name> = <expr> ;;          top-level definition
    <expr> ;;                       evaluate and print
    #precision <rational> ;;        set the target precision
    #use "<path>" ;;                load another source file
    #trace on|off ;;                toggle witness tracing

Expression grammar, loosest binding first; binders (fun, cut, exists,
forall, let-in) extend as far right as possible:

    e ::= e "||" e || ...           nondeterministic choice
        | e "~>" e                  restriction: guard ~> body
        | e "\\/" ... "\\/" e       disjunction
        | e "/\\" ... "/\\" e      conjunction
        | e "<" e  |  e ">" e       order (> flips to <)
        | e "+" e  |  e "-" e  |  "-" e
        | e "*" e  |  e "/" e
        | e "^" <nat>               power, exponent at most 100000
        | e e  |  e "#" <nat>       application, tuple projection
        | x | <rational> | True | False
        | "(" e ")" | "(" e "," ... "," e ")"
        | "fun" x ":" t "=>" e
        | "cut" x ":" r "left" e "right" e
        | "exists" x ":" r "," e  |  "forall" x ":" r "," e
        | "let" x "=" e "in" e
        | "mkbool" e e | "is_true" e | "is_false" e

    t ::= "real" | "prop" | "bool" | t "*" ... "*" t | t "->" t | "(" t ")"
    r ::= ("[" | "(") limit "," limit ("]" | ")")     limit ::= -inf | inf | q

Comments are "(* ... *)" and nest.  Decimal literals are exact
rationals: 0.1 parses to 1/10.  A literal quotient such as 1/10 and a
negated literal such as -3 are folded to single rational literals.

The lexer finds each token, and the blanks before it, by one match of
one regular expression (``_TOKEN``) at the current offset; the named
group that matched is the token's class, and its offset gives its line
and column.

One precedence climb (``_Parser.expr``) reads every operator level,
from "||" to prefix "-", "^ k", application and "#k", and the printer
brackets from the same tables (``_BINARY``, ``_PREFIX``, ``_CHAINS``
and ``_SIDES``): each operator's token, level and grouping is written
once.  So is each keyword form's concrete syntax (``_FORMS``): its
keyword, its level and the token before each field, which one reader
(``_Parser.form``) and the printer both follow, reading or writing each
field by its kind.  A parenthesis and a keyword form each cost the
parser two Python frames.

The node shapes (``children``, ``rebuild``) serve every traversal that
only needs to know where a node's children are: ``free_vars``,
``normalize._nf`` and ``evaluator._refine``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from fractions import Fraction
from operator import attrgetter, is_
from typing import NamedTuple

from .interval import NEG_INF, POS_INF, XRat

Loc = tuple  # (line, column), 1-based


class SourceError(Exception):
    """An error with an optional source location."""

    def __init__(self, message, loc=None):
        self.message = message
        self.loc = loc
        super().__init__(self.format())

    def format(self):
        if self.loc:
            return f"{self.loc[0]}:{self.loc[1]}: {self.message}"
        return self.message


class LexError(SourceError):
    pass


class ParseError(SourceError):
    pass


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Expr:
    loc: Loc | None = field(default=None, compare=False, repr=False, kw_only=True)

    # Facts that depend on a node alone are computed on first use and
    # kept on the node (see ``keep``).  They are class attributes, not
    # dataclass fields, so equality, hashing, repr and
    # ``dataclasses.fields`` ignore them, and ``dataclasses.replace``
    # makes a node that has none yet.  A fact may hold any of equal
    # nodes: the closed cuts in ``_nform`` are the ones ``normalize``
    # interned, one object for equal cuts.
    _fv = None  # free_vars
    _settled = None  # evaluator._settled_size
    _lower = None  # evaluator.prop_approx of a closed prop in a sweep
    _upper = None
    _ends = None  # evaluator._split_quantifier: the ends (lo, hi) of a
    # closed quantifier's range that it need not read: read without a
    # decision, or read first by the left half beside it (the split
    # point: a midpoint, or a quadratic universal's stationary point)
    _code = None  # evaluator.compile_term of a real term or a comparison
    _polynomial = None  # evaluator._centred_decides: a comparison's
    # program has no opaque leaf and no division
    _ty = None  # typecheck.infer_type of a closed let-bound
    _nform = None  # normalize._nf of a closed node: its disjuncts
    _sides = None  # evaluator._sides of a closed cut, on its left:
    # the comparisons that give it Newton steps
    _hash = None  # hash(node), structural (see ``_shape``)


def keep(e, attr, value):
    """Keep ``value`` on node ``e`` as its cached ``attr``; return it."""
    object.__setattr__(e, attr, value)
    return value


@dataclass(frozen=True)
class Var(Expr):
    name: str = ""


@dataclass(frozen=True)
class TrueLit(Expr):
    pass


@dataclass(frozen=True)
class FalseLit(Expr):
    pass


@dataclass(frozen=True)
class RatLit(Expr):
    value: Fraction = Fraction(0)


@dataclass(frozen=True)
class Range:
    lo: XRat
    hi: XRat
    lo_open: bool = False
    hi_open: bool = False

    @property
    def is_finite(self):
        return self.lo.is_finite and self.hi.is_finite


@dataclass(frozen=True)
class Cut(Expr):
    var: str = ""
    range: Range = None
    left: Expr = None
    right: Expr = None


@dataclass(frozen=True)
class And(Expr):
    items: tuple = ()


@dataclass(frozen=True)
class Or(Expr):
    items: tuple = ()


@dataclass(frozen=True)
class Less(Expr):
    lhs: Expr = None
    rhs: Expr = None


@dataclass(frozen=True)
class Exists(Expr):
    var: str = ""
    range: Range = None
    body: Expr = None


@dataclass(frozen=True)
class Forall(Expr):
    var: str = ""
    range: Range = None
    body: Expr = None


@dataclass(frozen=True)
class Tuple(Expr):
    items: tuple = ()


@dataclass(frozen=True)
class Proj(Expr):
    tuple_: Expr = None
    index: int = 1  # 1-based


@dataclass(frozen=True)
class Lambda(Expr):
    var: str = ""
    var_ty: Ty = None
    body: Expr = None


@dataclass(frozen=True)
class App(Expr):
    fn: Expr = None
    arg: Expr = None


@dataclass(frozen=True)
class Arith(Expr):
    op: str = "+"  # one of + - * /
    lhs: Expr = None
    rhs: Expr = None


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr = None
    exp: int = 1


@dataclass(frozen=True)
class Let(Expr):
    var: str = ""
    bound: Expr = None
    body: Expr = None


@dataclass(frozen=True)
class Restrict(Expr):
    guard: Expr = None
    body: Expr = None


@dataclass(frozen=True)
class Join(Expr):
    items: tuple = ()


@dataclass(frozen=True)
class MkBool(Expr):
    if_true: Expr = None
    if_false: Expr = None


@dataclass(frozen=True)
class IsTrue(Expr):
    arg: Expr = None


@dataclass(frozen=True)
class IsFalse(Expr):
    arg: Expr = None


# Node shapes.  A field annotated ``Expr`` holds a child and ``items`` a
# tuple of children; every other field, ``loc`` included, is data.
# ``_shape`` derives each class's shape once, as class attributes:
# ``_kids`` holds the children, ``_kid_names`` and ``_data`` name fields,
# and ``_compared`` the fields equality compares, which the hash reads.

#: The nodes that bind ``var`` in all their children (``Let``: its body).
BINDERS = (Lambda, Cut, Exists, Forall)

_new = object.__new__
_set = object.__setattr__


#: ``children(e)``: the child expressions of node ``e`` in field order, as
#: a tuple.  A getter, not a function: most nodes then need no Python frame.
children = attrgetter("_kids")


def rebuild(e, kids):
    """A node of the same kind, data and ``loc`` as ``e`` with the
    children ``kids``.  That is ``e`` itself, with what is kept on it,
    when every child is the one it has; a new node keeps nothing."""
    old = e._kids
    if len(kids) == len(old) and all(map(is_, kids, old)):
        return e
    # Set each field as the constructor does, minus its argument handling;
    # touching either node's ``__dict__`` would slow every later read of it.
    cls = type(e)
    new = _new(cls)
    for name in cls._data:
        _set(new, name, getattr(e, name))
    if cls._kid_names == ("items",):
        kids = (tuple(kids),)
    for name, kid in zip(cls._kid_names, kids):
        _set(new, name, kid)
    return new


def _hash(e):
    """The structural hash of ``e``, kept on it: a child's is computed
    once, however many enclosing nodes are hashed (``_dedup`` and the
    interning of closed cuts in ``normalize`` hash whole trees)."""
    h = e._hash
    if h is None:
        h = keep(e, "_hash", hash(e._compared))
    return h


def _shape(cls):
    names = tuple(f.name for f in fields(cls)
                  if f.type == "Expr" or f.name == "items")
    cls._kid_names = names
    cls._data = tuple(f.name for f in fields(cls) if f.name not in names)
    if len(names) > 1 or names == ("items",):
        cls._kids = property(attrgetter(*names))  # a tuple already
    elif names:
        get = attrgetter(*names)
        cls._kids = property(lambda e: (get(e),))
    else:
        cls._kids = ()
    compared = [f.name for f in fields(cls) if f.compare]
    cls._compared = property(attrgetter(*compared)) if compared else ()
    cls.__hash__ = _hash


for _cls in Expr.__subclasses__():
    _shape(_cls)


# Types


@dataclass(frozen=True)
class Ty:
    pass


@dataclass(frozen=True)
class BaseTy(Ty):
    word: str = ""


@dataclass(frozen=True)
class ProductTy(Ty):
    items: tuple = ()


@dataclass(frozen=True)
class ArrowTy(Ty):
    arg: Ty = None
    result: Ty = None


REAL, PROP, BOOL = BaseTy("real"), BaseTy("prop"), BaseTy("bool")


# Top-level items


@dataclass(frozen=True)
class Def:
    name: str
    body: Expr
    loc: Loc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Eval:
    expr: Expr
    loc: Loc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Directive:
    name: str  # precision | use | trace
    arg: object
    loc: Loc | None = field(default=None, compare=False)


# ---------------------------------------------------------------------------
# Lexer
#
# One pattern, matched once per token, finds the next token: it skips the
# blanks before it (its leading ``[ \t\r\n]*``), and the named group that
# matched is the token's class; the end of the input is one of them, and
# so is any other character, which is an error.  Code finishes what the
# pattern cannot say: a comment's nesting, that a word or a directive
# starts with a letter or "_" (``\w`` also matches "²", which is not
# ``isalpha``), numeral conversion, and every error.  A token's column is
# its offset less ``base``, the offset of the last newline before it (on
# the first line, minus the start column); ``line`` and ``base`` move
# only over skipped text, blanks or a comment, that holds a newline.  A
# ``Token`` is a named tuple, and a numeral without a point is converted
# through ``int``: both cost a fraction of a frozen dataclass and of
# ``Fraction``'s string parser.

# Multi-character symbols first so the pattern takes the longest match.
_TOKEN = re.compile(r"""
    [ \t\r\n]*
    (?: (?P<comment>\(\*)
      | (?P<string>"[^"\n]*"?)
      | (?P<proj>\#\d+)
      | (?P<directive>\#\w*)
      | (?P<rat>\d+(?:\.\d+)?)
      | (?P<word>\w[\w']*)
      | (?P<symbol>;; | ~> | => | -> | \\/ | /\\ | \|\| | [\[\](),:=<>+\-*/^])
      | (?P<end>\Z)
      | (?P<other>.) )
""", re.VERBOSE)
_NESTING = re.compile(r"\(\*|\*\)")


class Token(NamedTuple):
    kind: str  # IDENT RAT STRING PROJ DIRECTIVE EOF or a symbol/keyword
    value: object
    loc: Loc


def tokenize(source, start=(1, 1)):
    """Scan source text into a token list (comments stripped).  ``start``
    is the (line, column) of its first character."""
    toks = []
    append = toks.append
    match = _TOKEN.match
    i = skipped = 0  # the offsets of the next match and of skipped text
    line, base = start[0], -start[1]
    while True:
        m = match(source, i)
        kind = m.lastgroup
        j, i = m.span(kind)
        if "\n" in source[skipped:j]:
            line += source.count("\n", skipped, j)
            base = source.rindex("\n", skipped, j)
        skipped = i
        loc = (line, j - base)
        text = source[j:i]
        if kind == "symbol":
            append(Token(text, text, loc))
        elif kind == "word" and (text[0].isalpha() or text[0] == "_"):
            append(Token(text if text in KEYWORDS else "IDENT", text, loc))
        elif kind == "rat":
            append(Token("RAT", _number(Fraction, text, loc), loc))
        elif kind == "end":
            append(Token("EOF", None, loc))
            return toks
        elif kind == "comment":
            depth = 1
            for mark in _NESTING.finditer(source, i):
                depth += 1 if mark.group() == "(*" else -1
                if not depth:
                    i = mark.end()
                    break
            else:
                raise LexError("unterminated comment", loc)
            skipped = j  # the next token's line and column count it
        elif kind == "string":
            if text == '"' or text[-1] != '"':
                raise LexError("unterminated string", loc)
            append(Token("STRING", text[1:-1], loc))
        elif kind == "proj":
            append(Token("PROJ", _number(int, text[1:], loc), loc))
        elif kind == "directive":
            if not (text[1:2].isalpha() or text[1:2] == "_"):
                raise LexError("expected digits or a name after '#'", loc)
            append(Token("DIRECTIVE", text[1:], loc))
        else:
            raise LexError(f"illegal character {text[0]!r}", loc)


def _number(kind, text, loc):
    """``kind(text)`` for a numeral, or a LexError where Python refuses to
    convert that many digits (``sys.get_int_max_str_digits``).  A numeral
    without a point goes through ``int``, which gives the same value and
    refuses the same lengths."""
    try:
        return kind(text) if "." in text else kind(int(text))
    except ValueError:
        raise LexError(f"number of {len(text)} characters is too long",
                       loc) from None


# ---------------------------------------------------------------------------
# Parser

#: Operator levels, loosest first; the parser and the printer share them.
_JOIN, _RESTRICT, _OR, _AND, _CMP, _ADD, _MUL, _UNARY, _POW, _APP, _ATOM = range(11)

#: The token kind of an application: any atom that follows an operand.
_APPLY = "APPLY"

#: The level of each token that may follow an operand: a binary operator,
#: "^ k", an application, or a projection "#k" (``PROJ``).
_BINARY = {"||": _JOIN, "~>": _RESTRICT, "\\/": _OR, "/\\": _AND,
           "<": _CMP, ">": _CMP, "+": _ADD, "-": _ADD, "*": _MUL, "/": _MUL,
           "^": _POW, _APPLY: _APP, "PROJ": _ATOM}

#: The level of each prefix operator token.
_PREFIX = {"-": _UNARY}

#: The largest exponent of "^", and of the product of the exponents of a
#: power of a power: a larger one is a located error, not a power of
#: unbounded size computed before the first step.
MAX_EXPONENT = 100_000

#: The operator whose literal operands the parser folds into one literal.
_QUOTIENT = "/"

#: The operators whose chains are one n-ary node.
_CHAINS = {"||": Join, "\\/": Or, "/\\": And}

#: The levels of the left and right operands of an operator at each
#: level: "~>" groups to the right, chains and comparisons not at all,
#: and every tighter operator to the left.
_SIDES = [(op + 1, op) if op == _RESTRICT
          else (op + 1, op + 1) if op < _ADD
          else (op, op + 1)
          for op in range(_ATOM + 1)]

#: The keyword forms: each one's keyword, the level its text is read
#: at, and the token before each of its fields ("" for none).  A binder
#: (level ``_JOIN``) reads its operands at ``_JOIN``, so its body extends
#: as far right as it can; mkbool, is_true and is_false take atoms, as an
#: application does; a constant has no field.  The parser and the
#: printer read each field by its kind (``_KINDS``).
_FORMS = {
    TrueLit: ("True", _ATOM, ()),
    FalseLit: ("False", _ATOM, ()),
    Lambda: ("fun", _JOIN, ("", ":", "=>")),
    Cut: ("cut", _JOIN, ("", ":", "left", "right")),
    Exists: ("exists", _JOIN, ("", ":", ",")),
    Forall: ("forall", _JOIN, ("", ":", ",")),
    Let: ("let", _JOIN, ("", "=", "in")),
    MkBool: ("mkbool", _APP, ("", "")),
    IsTrue: ("is_true", _APP, ("",)),
    IsFalse: ("is_false", _APP, ("",)),
}

#: The keywords that are types.
_BASE_TYPES = {ty.word: ty for ty in (REAL, PROP, BOOL)}

#: The words the lexer reads as keywords, not names: each keyword form's
#: keyword and the names among the tokens before its fields, the base
#: types, and "inf" of a range limit.
KEYWORDS = {"inf", *_BASE_TYPES, *(
    word for keyword, _, tokens in _FORMS.values()
    for word in (keyword, *tokens) if word.isidentifier())}

#: The tokens that start an atom, and so an application's argument.
_ATOM_STARTS = {"IDENT", "RAT", "("} | {word for word, _, _ in _FORMS.values()}


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {self._show(tok)}", tok.loc)
        return self.next()

    @staticmethod
    def _show(tok):
        return "end of input" if tok.kind == "EOF" else repr(str(tok.value))

    # Items -----------------------------------------------------------------

    def program(self):
        items = []
        while self.peek().kind != "EOF":
            items.append(self.item())
        return items

    def item(self):
        tok = self.peek()
        try:
            if tok.kind == "DIRECTIVE":
                item = self.directive()
            elif tok.kind == _FORMS[Let][0]:
                item = self.form(item=True)
                if isinstance(item, Let):
                    item = Eval(item, loc=tok.loc)
            else:
                item = Eval(self.expr(), loc=tok.loc)
        except RecursionError:
            raise ParseError("expression too deeply nested", tok.loc) from None
        if self.peek().kind != ";;":
            raise ParseError("expected ';;' to end the item", self.peek().loc)
        self.next()
        return item

    def directive(self):
        tok = self.expect("DIRECTIVE")
        name = tok.value
        if name == "precision":
            arg = self.rational_arg()
        elif name == "use":
            arg = self.expect("STRING").value
        elif name == "trace":
            word = self.name()
            if word not in ("on", "off"):
                raise ParseError("expected 'on' or 'off' after #trace", tok.loc)
            arg = word == "on"
        else:
            raise ParseError(f"unknown directive #{name}", tok.loc)
        return Directive(name, arg, loc=tok.loc)

    def rational_arg(self):
        if self.peek().kind == "-":
            self.next()
            return -self.rational_limit()
        return self.rational_limit()

    # Expressions -----------------------------------------------------------

    def expr(self, level=_JOIN):
        """An expression whose operators all bind at ``level`` or tighter,
        by precedence climbing: ``prec`` is the level of what has been
        read, and an operator may take it as its left operand when that
        side of it (``_SIDES``) binds no tighter.  An infix or chain node
        is located at the expression's first token, a negation at its
        "-", and an application, power or projection at the token after
        its left operand."""
        tok = self.peek()
        loc = tok.loc
        if tok.kind in _PREFIX and level <= _PREFIX[tok.kind]:
            self.next()
            prec = _PREFIX[tok.kind]
            arg = self.expr(prec)
            if isinstance(arg, RatLit):
                e = RatLit(-arg.value, loc=loc)
            else:
                e = Arith(tok.kind, RatLit(Fraction(0), loc=loc), arg, loc=loc)
        else:
            e = self.form() if tok.kind in _FORM_OF else self.primary_expr()
            prec = _ATOM
        while True:
            tok = self.peek()
            kind = _APPLY if tok.kind in _ATOM_STARTS else tok.kind
            op = _BINARY.get(kind)
            if op is None or op < level:
                return e
            left, right = _SIDES[op]
            if left > prec:  # what has been read binds too loosely
                return e
            prec = op
            if op == _APP:  # the atom is the argument
                e = App(e, self.expr(right), loc=tok.loc)
                continue
            self.next()
            if op == _ATOM:
                if tok.value < 1:
                    raise ParseError("projection index starts at 1", tok.loc)
                e = Proj(e, tok.value, loc=tok.loc)
            elif op == _POW:
                k = self.expect("RAT").value
                if k.denominator != 1 or k < 0:
                    raise ParseError("exponent must be a natural number",
                                     tok.loc)
                if k > MAX_EXPONENT:
                    raise ParseError(
                        f"exponent must be at most {MAX_EXPONENT}", tok.loc)
                total, base = k, e
                while isinstance(base, Pow):  # a power of a power
                    total, base = total * base.exp, base.base
                if total > MAX_EXPONENT:
                    raise ParseError(
                        "exponents of a power of a power must multiply to "
                        f"at most {MAX_EXPONENT}", tok.loc)
                e = Pow(e, int(k), loc=tok.loc)
            elif kind in _CHAINS:  # one n-ary node for the whole chain
                items = [e, self.expr(right)]
                while self.peek().kind == kind:
                    self.next()
                    items.append(self.expr(right))
                e = _CHAINS[kind](tuple(items), loc=loc)
            elif op == _CMP:  # e < rhs, or e > rhs read as rhs < e
                rhs = self.expr(right)
                e = Less(*((e, rhs) if kind == "<" else (rhs, e)), loc=loc)
            elif op == _RESTRICT:
                e = Restrict(e, self.expr(right), loc=loc)
            else:  # + - * /
                rhs = self.expr(right)
                if (kind == _QUOTIENT and isinstance(e, RatLit)
                        and isinstance(rhs, RatLit) and rhs.value != 0):
                    e = RatLit(e.value / rhs.value, loc=loc)
                else:
                    e = Arith(kind, e, rhs, loc=loc)

    def primary_expr(self):
        tok = self.peek()
        kind = tok.kind
        if kind == "IDENT":
            self.next()
            return Var(tok.value, loc=tok.loc)
        if kind == "RAT":
            self.next()
            return RatLit(tok.value, loc=tok.loc)
        if kind == "(":
            self.next()
            items = [self.expr()]
            while self.peek().kind == ",":
                self.next()
                items.append(self.expr())
            self.expect(")")
            if len(items) == 1:
                return items[0]
            return Tuple(tuple(items), loc=tok.loc)
        raise ParseError(f"unexpected {self._show(tok)}", tok.loc)

    def form(self, item=False):
        """A keyword form, read from ``_FORMS``: each field after the
        token before it.  At the top of an item, "let x = e" without its
        last field, "in e", is a definition."""
        tok = self.next()
        cls, operand, steps = _FORM_OF[tok.kind]
        args = []
        for before, _, read, _ in steps:
            if before:
                if (item and len(args) == len(steps) - 1
                        and self.peek().kind != before):
                    return Def(*args, loc=tok.loc)
                self.expect(before)
            args.append(self.expr(operand) if read is None else read(self))
        return cls(*args, loc=tok.loc)

    def name(self):
        return self.expect("IDENT").value

    # Types and ranges -------------------------------------------------------

    def type_expr(self):
        """A product ``t * ... * t``, or an arrow from one, which nests
        to the right."""
        items = [self.atom_type()]
        while self.peek().kind == "*":
            self.next()
            items.append(self.atom_type())
        ty = items[0] if len(items) == 1 else ProductTy(tuple(items))
        if self.peek().kind == "->":
            self.next()
            return ArrowTy(ty, self.type_expr())
        return ty

    def atom_type(self):
        tok = self.next()
        if tok.kind in _BASE_TYPES:
            return _BASE_TYPES[tok.kind]
        if tok.kind == "(":
            ty = self.type_expr()
            self.expect(")")
            return ty
        raise ParseError(f"expected a type, found {self._show(tok)}", tok.loc)

    def range_expr(self):
        open_tok = self.next()
        if open_tok.kind not in ("[", "("):
            raise ParseError("expected a range", open_tok.loc)
        lo = self.range_limit()
        self.expect(",")
        hi = self.range_limit()
        close_tok = self.next()
        if close_tok.kind not in ("]", ")"):
            raise ParseError("expected ']' or ')' to close the range",
                             close_tok.loc)
        lo_open = open_tok.kind == "("
        hi_open = close_tok.kind == ")"
        if not lo.is_finite and not lo_open:
            raise ParseError("an infinite limit needs an open bracket",
                             open_tok.loc)
        if not hi.is_finite and not hi_open:
            raise ParseError("an infinite limit needs an open bracket",
                             close_tok.loc)
        if lo.is_finite and hi.is_finite and lo > hi:
            raise ParseError("empty range: lower limit above upper",
                             open_tok.loc)
        return Range(lo, hi, lo_open, hi_open)

    def range_limit(self):
        tok = self.peek()
        if tok.kind == "-":
            self.next()
            if self.peek().kind == "inf":
                self.next()
                return NEG_INF
            return XRat(-self.rational_limit())
        if tok.kind == "inf":
            self.next()
            return POS_INF
        return XRat(self.rational_limit())

    def rational_limit(self):
        num = self.expect("RAT").value
        if self.peek().kind == "/":
            self.next()
            den = self.expect("RAT")
            if den.value == 0:
                raise ParseError("zero denominator", den.loc)
            num = num / den.value
        return num


def parse_program(source, start=(1, 1)):
    """Parse a whole program into a list of top-level items; ``start`` is
    as in ``tokenize``."""
    return _Parser(tokenize(source, start)).program()


def parse_expression(source):
    """Parse a single expression (no trailing ';;')."""
    p = _Parser(tokenize(source))
    e = p.expr()
    if p.peek().kind != "EOF":
        raise ParseError(f"trailing input after expression", p.peek().loc)
    return e


# ---------------------------------------------------------------------------
# Printer


def pretty_print(e):
    """Render an expression as source text that re-parses to the same AST."""
    return _pp(e, _JOIN)


#: The operator token of each operator node but ``Arith`` (its ``op``).
_TOKENS = {Restrict: "~>", Less: "<", Pow: "^", App: _APPLY, Proj: "PROJ",
           **{node: tok for tok, node in _CHAINS.items()}}

#: How the printer writes the tokens it does not write as " tok ", the
#: empty token before a keyword form's field included.
_WRITTEN = {_APPLY: " ", "PROJ": "#", ",": ", ", "": " "}


def _pp(e, level):
    """The text of ``e`` where the parser reads an operand at ``level``:
    bracketed when ``e`` binds more loosely."""
    cls = type(e)
    if cls is Var:
        return e.name
    if cls is RatLit:
        # "p/q" re-parses as a quotient and "-n" as a negation, which the
        # parser folds back into one literal.
        text = str(e.value)
        if e.value.denominator != 1:
            return _wrap(text, _BINARY[_QUOTIENT], level)
        return _wrap(text, _PREFIX[text[0]], level) if e.value < 0 else text
    if cls is Tuple:
        return "(" + ", ".join(map(pretty_print, e.items)) + ")"
    if cls in _FORMS:
        word, op, _ = _FORMS[cls]
        _, operand, steps = _FORM_OF[word]
        text = word
        for before, name, _, write in steps:
            x = getattr(e, name)
            text += (_WRITTEN.get(before, f" {before} ")
                     + (_pp(x, operand) if write is None else write(x)))
        return _wrap(text, op, level)
    if (cls is Arith and e.op in _PREFIX and isinstance(e.lhs, RatLit)
            and e.lhs.value == 0 and not isinstance(e.rhs, RatLit)):
        # A negation; its operand is bracketed one level tighter than
        # the parser reads it, so a negated negation prints "-(-x)".
        op = _PREFIX[e.op]
        return _wrap(e.op + _pp(e.rhs, op + 1), op, level)
    tok = e.op if cls is Arith else _TOKENS[cls]
    op = _BINARY[tok]
    left, right = _SIDES[op]
    # A chain's operands are its items, any other node's its last two
    # fields; a power's exponent and a projection's index are numbers.
    first, *rest = e.items if tok in _CHAINS else e._compared[-2:]
    text = _WRITTEN.get(tok, f" {tok} ").join(
        [_pp(first, left)]
        + [_pp(x, right) if isinstance(x, Expr) else str(x) for x in rest])
    # A choice is bracketed wherever it stands.
    return f"({text})" if cls is Join else _wrap(text, op, level)


def _wrap(text, produced, wanted):
    return f"({text})" if produced < wanted else text


def type_str(t):
    if isinstance(t, BaseTy):
        return t.word
    if isinstance(t, ProductTy):
        parts = []
        for item in t.items:
            s = type_str(item)
            if isinstance(item, (ProductTy, ArrowTy)):
                s = f"({s})"
            parts.append(s)
        return " * ".join(parts)
    if isinstance(t, ArrowTy):
        lhs = type_str(t.arg)
        if isinstance(t.arg, ArrowTy):
            lhs = f"({lhs})"
        return f"{lhs} -> {type_str(t.result)}"
    raise TypeError(f"cannot print {type(t).__name__}")


def range_str(r):
    lo = "[" if not r.lo_open else "("
    hi = "]" if not r.hi_open else ")"
    return f"{lo}{r.lo}, {r.hi}{hi}"


#: How the parser reads, and the printer writes, a keyword form's field
#: of each annotated type; an operand (``Expr``) is read and written at
#: the form's operand level.
_KINDS = {"str": (_Parser.name, str), "Ty": (_Parser.type_expr, type_str),
          "Range": (_Parser.range_expr, range_str), "Expr": (None, None)}


def _steps(cls, tokens):
    """A keyword form's fields in order, each as (token before, name,
    reader, writer)."""
    named = [f for f in fields(cls) if f.compare]
    return tuple((before, f.name, *_KINDS[f.type])
                 for before, f in zip(tokens, named, strict=True))


#: Each keyword form by its keyword: its node class, its operand level
#: and its steps.
_FORM_OF = {word: (cls, _JOIN if level == _JOIN else _ATOM,
                   _steps(cls, tokens))
            for cls, (word, level, tokens) in _FORMS.items()}


def free_vars(e):
    """The free variable names of an expression, as a frozenset.

    The set is kept on the node and built from the kept sets of its
    children, so each node's set is computed once.  A node whose set
    equals a child's shares that child's set object.
    """
    fv = e._fv
    if fv is not None:
        return fv
    if isinstance(e, Var):
        fv = frozenset((e.name,))
    elif isinstance(e, Let):
        fv = _union(free_vars(e.bound), _bind_out(free_vars(e.body), e.var))
    else:
        fv = _union(*map(free_vars, children(e)))
        if isinstance(e, BINDERS):
            fv = _bind_out(fv, e.var)
    return keep(e, "_fv", fv)


_NO_VARS = frozenset()


def _union(*sets):
    """The union of frozensets, as one of them when it holds the rest."""
    out = _NO_VARS
    for s in sets:
        if not s <= out:
            out = s if out <= s else out | s
    return out


def _bind_out(fv, var):
    return fv - {var} if var in fv else fv
