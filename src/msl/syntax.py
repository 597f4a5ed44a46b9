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
        | e "^" <nat>
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

The operator levels (``_JOIN`` ... ``_MUL``) drive both the parser and
the printer.  The node shapes (``children``, ``rebuild``) serve every
traversal that only needs to know where a node's children are:
``free_vars``, ``substitute``, ``normalize._nf`` and ``evaluator._refine``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from operator import attrgetter, is_

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
    _ty = None  # typecheck.infer_type of a closed let-bound
    _nform = None  # normalize._nf of a closed node: its disjuncts


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

    _point = None  # evaluator.real_approx


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

    _hash = None

    def __hash__(self):
        # The structural hash, kept on the node: normalize interns
        # closed cuts by equality, and a cut nested in another would
        # otherwise be walked again by every enclosing cut's hash.
        h = self._hash
        if h is None:
            h = keep(self, "_hash",
                     hash((self.var, self.range, self.left, self.right)))
        return h


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

    _poly = None  # evaluator.compile_polynomial


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
    var_ty: "Ty" = None
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
# ``_kids`` holds the children, ``_kid_names`` and ``_data`` name fields.

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


for _cls in Expr.__subclasses__():
    _shape(_cls)


# Types


@dataclass(frozen=True)
class Ty:
    pass


@dataclass(frozen=True)
class RealTy(Ty):
    pass


@dataclass(frozen=True)
class PropTy(Ty):
    pass


@dataclass(frozen=True)
class BoolTy(Ty):
    pass


@dataclass(frozen=True)
class ProductTy(Ty):
    items: tuple = ()


@dataclass(frozen=True)
class ArrowTy(Ty):
    arg: Ty = None
    result: Ty = None


REAL = RealTy()
PROP = PropTy()
BOOL = BoolTy()


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

KEYWORDS = {
    "True", "False", "cut", "left", "right", "exists", "forall", "fun",
    "let", "in", "mkbool", "is_true", "is_false", "inf", "real", "prop",
    "bool",
}

# Multi-character symbols first so the scanner takes the longest match.
SYMBOLS = [
    ";;", "~>", "=>", "->", "\\/", "/\\", "||",
    "(", ")", "[", "]", ",", ":", "=", "<", ">",
    "+", "-", "*", "/", "^",
]


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT RAT STRING PROJ DIRECTIVE EOF or a symbol/keyword
    value: object
    loc: Loc


def tokenize(source):
    """Scan source text into a token list (comments stripped)."""
    toks = []
    i, line, col = 0, 1, 1
    n = len(source)

    def advance(k):
        nonlocal i, line, col
        for _ in range(k):
            if source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        loc = (line, col)
        if source.startswith("(*", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if source.startswith("(*", j):
                    depth += 1
                    j += 2
                elif source.startswith("*)", j):
                    depth -= 1
                    j += 2
                else:
                    j += 1
            if depth:
                raise LexError("unterminated comment", loc)
            advance(j - i)
            continue
        if ch == '"':
            j = i + 1
            while j < n and source[j] != '"':
                if source[j] == "\n":
                    raise LexError("unterminated string", loc)
                j += 1
            if j >= n:
                raise LexError("unterminated string", loc)
            toks.append(Token("STRING", source[i + 1:j], loc))
            advance(j + 1 - i)
            continue
        if ch == "#":
            j = i + 1
            if j < n and source[j].isdigit():
                while j < n and source[j].isdigit():
                    j += 1
                toks.append(Token("PROJ", _number(int, source[i + 1:j], loc),
                                  loc))
            elif j < n and (source[j].isalpha() or source[j] == "_"):
                while j < n and (source[j].isalnum() or source[j] == "_"):
                    j += 1
                toks.append(Token("DIRECTIVE", source[i + 1:j], loc))
            else:
                raise LexError("expected digits or a name after '#'", loc)
            advance(j - i)
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == "." and j + 1 < n and source[j + 1].isdigit():
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            toks.append(Token("RAT", _number(Fraction, source[i:j], loc), loc))
            advance(j - i)
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] in "_'"):
                j += 1
            word = source[i:j]
            toks.append(Token(word if word in KEYWORDS else "IDENT", word, loc))
            advance(j - i)
            continue
        for sym in SYMBOLS:
            if source.startswith(sym, i):
                toks.append(Token(sym, sym, loc))
                advance(len(sym))
                break
        else:
            raise LexError(f"illegal character {ch!r}", loc)
    toks.append(Token("EOF", None, (line, col)))
    return toks


def _number(kind, text, loc):
    """``kind(text)`` for a numeral, or a LexError where Python refuses to
    convert that many digits (``sys.get_int_max_str_digits``)."""
    try:
        return kind(text)
    except ValueError:
        raise LexError(f"number of {len(text)} characters is too long",
                       loc) from None


# ---------------------------------------------------------------------------
# Parser

#: Operator levels, loosest first; the parser and the printer share them.
_JOIN, _RESTRICT, _OR, _AND, _CMP, _ADD, _MUL, _UNARY, _POW, _APP, _ATOM = range(11)

#: The level of each binary operator token.
_BINARY = {"||": _JOIN, "~>": _RESTRICT, "\\/": _OR, "/\\": _AND,
           "<": _CMP, ">": _CMP, "+": _ADD, "-": _ADD, "*": _MUL, "/": _MUL}

#: The operators whose chains are one n-ary node.
_CHAINS = {"||": Join, "\\/": Or, "/\\": And}

_BINDER_STARTS = {"fun", "cut", "exists", "forall", "let"}
_ATOM_STARTS = {"IDENT", "RAT", "True", "False", "(", "mkbool", "is_true",
                "is_false"} | _BINDER_STARTS


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.pos = 0

    def peek(self, k=0):
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

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
            elif tok.kind == "let" and self._is_top_level_def():
                self.next()
                name = self.expect("IDENT").value
                self.expect("=")
                body = self.expr()
                item = Def(name, body, loc=tok.loc)
            else:
                item = Eval(self.expr(), loc=tok.loc)
        except RecursionError:
            raise ParseError("expression too deeply nested", tok.loc) from None
        if self.peek().kind != ";;":
            raise ParseError("expected ';;' to end the item", self.peek().loc)
        self.next()
        return item

    def _is_top_level_def(self):
        # "let x = e ;;" is a definition; "let x = e in e" an expression.
        # Scan ahead for the matching "in" at nesting depth zero.
        depth = 0
        lets = 1
        k = 1
        while True:
            tok = self.peek(k)
            if tok.kind == "EOF" or (tok.kind == ";;" and depth == 0):
                return lets > 0
            if tok.kind == "(":
                depth += 1
            elif tok.kind == ")":
                depth -= 1
            elif tok.kind == "let" and depth == 0:
                lets += 1
            elif tok.kind == "in" and depth == 0:
                lets -= 1
                if lets == 0:
                    return False
            k += 1

    def directive(self):
        tok = self.expect("DIRECTIVE")
        name = tok.value
        if name == "precision":
            arg = self.rational_arg()
        elif name == "use":
            arg = self.expect("STRING").value
        elif name == "trace":
            word = self.expect("IDENT").value
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
        """An expression whose binary operators all bind at ``level`` or
        tighter, by precedence climbing over ``_BINARY``.  Every node it
        builds is located at the expression's first token."""
        loc = self.peek().loc
        e = self.unary_expr()
        top = _MUL  # the tightest level an operator here may still have
        while True:
            kind = self.peek().kind
            op = _BINARY.get(kind)
            if op is None or not level <= op <= top:
                return e
            self.next()
            if op >= _ADD:  # + - * / group to the left
                top = op
                rhs = self.expr(op + 1)
                if (kind == "/" and isinstance(e, RatLit)
                        and isinstance(rhs, RatLit) and rhs.value != 0):
                    e = RatLit(e.value / rhs.value, loc=loc)
                else:
                    e = Arith(kind, e, rhs, loc=loc)
                continue
            top = op - 1  # chains are n-ary, ~> nests right, < > never group
            if op == _CMP:  # e < rhs, or e > rhs read as rhs < e
                rhs = self.expr(_ADD)
                e = Less(*((e, rhs) if kind == "<" else (rhs, e)), loc=loc)
            elif op == _RESTRICT:  # groups to the right
                e = Restrict(e, self.expr(_RESTRICT), loc=loc)
            else:  # one n-ary node for the whole chain
                items = [e, self.expr(op + 1)]
                while self.peek().kind == kind:
                    self.next()
                    items.append(self.expr(op + 1))
                e = _CHAINS[kind](tuple(items), loc=loc)

    def unary_expr(self):
        if self.peek().kind == "-":
            loc = self.next().loc
            arg = self.unary_expr()
            if isinstance(arg, RatLit):
                return RatLit(-arg.value, loc=loc)
            return Arith("-", RatLit(Fraction(0), loc=loc), arg, loc=loc)
        return self.pow_expr()

    def pow_expr(self):
        e = self.app_expr()
        while self.peek().kind == "^":
            loc = self.next().loc
            k = self.expect("RAT").value
            if k.denominator != 1 or k < 0:
                raise ParseError("exponent must be a natural number", loc)
            e = Pow(e, int(k), loc=loc)
        return e

    def app_expr(self):
        e = self.atom_expr()
        while self.peek().kind in _ATOM_STARTS:
            loc = self.peek().loc
            e = App(e, self.atom_expr(), loc=loc)
        return e

    def atom_expr(self):
        e = self.primary_expr()
        while self.peek().kind == "PROJ":
            tok = self.next()
            if tok.value < 1:
                raise ParseError("projection index starts at 1", tok.loc)
            e = Proj(e, tok.value, loc=tok.loc)
        return e

    def primary_expr(self):
        tok = self.peek()
        kind = tok.kind
        if kind == "IDENT":
            self.next()
            return Var(tok.value, loc=tok.loc)
        if kind == "RAT":
            self.next()
            return RatLit(tok.value, loc=tok.loc)
        if kind == "True":
            self.next()
            return TrueLit(loc=tok.loc)
        if kind == "False":
            self.next()
            return FalseLit(loc=tok.loc)
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
        if kind == "fun":
            self.next()
            name = self.expect("IDENT").value
            self.expect(":")
            ty = self.type_expr()
            self.expect("=>")
            return Lambda(name, ty, self.expr(), loc=tok.loc)
        if kind == "cut":
            self.next()
            name = self.expect("IDENT").value
            self.expect(":")
            rng = self.range_expr()
            self.expect("left")
            left = self.expr()
            self.expect("right")
            right = self.expr()
            return Cut(name, rng, left, right, loc=tok.loc)
        if kind in ("exists", "forall"):
            self.next()
            name = self.expect("IDENT").value
            self.expect(":")
            rng = self.range_expr()
            self.expect(",")
            body = self.expr()
            node = Exists if kind == "exists" else Forall
            return node(name, rng, body, loc=tok.loc)
        if kind == "let":
            self.next()
            name = self.expect("IDENT").value
            self.expect("=")
            bound = self.expr()
            self.expect("in")
            return Let(name, bound, self.expr(), loc=tok.loc)
        if kind == "mkbool":
            self.next()
            p = self.atom_expr()
            q = self.atom_expr()
            return MkBool(p, q, loc=tok.loc)
        if kind == "is_true":
            self.next()
            return IsTrue(self.atom_expr(), loc=tok.loc)
        if kind == "is_false":
            self.next()
            return IsFalse(self.atom_expr(), loc=tok.loc)
        raise ParseError(f"unexpected {self._show(tok)}", tok.loc)

    # Types and ranges -------------------------------------------------------

    def type_expr(self):
        first = self.product_type()
        if self.peek().kind == "->":
            self.next()
            return ArrowTy(first, self.type_expr())
        return first

    def product_type(self):
        first = self.atom_type()
        if self.peek().kind != "*":
            return first
        items = [first]
        while self.peek().kind == "*":
            self.next()
            items.append(self.atom_type())
        return ProductTy(tuple(items))

    def atom_type(self):
        tok = self.next()
        if tok.kind == "real":
            return REAL
        if tok.kind == "prop":
            return PROP
        if tok.kind == "bool":
            return BOOL
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
            den = self.expect("RAT").value
            if den == 0:
                raise ParseError("zero denominator", self.peek().loc)
            num = num / den
        return num


def parse_program(source):
    """Parse a whole program into a list of top-level items."""
    return _Parser(tokenize(source)).program()


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


def _pp(e, level):
    if isinstance(e, Var):
        return e.name
    if isinstance(e, TrueLit):
        return "True"
    if isinstance(e, FalseLit):
        return "False"
    if isinstance(e, RatLit):
        # "p/q" re-parses at the quotient level and "-n" at the unary
        # level, where the parser folds them back into one literal.
        if e.value.denominator != 1:
            return _wrap(str(e.value), _MUL, level)
        if e.value < 0:
            return _wrap(str(e.value), _UNARY, level)
        return str(e.value)
    if isinstance(e, Join):
        body = " || ".join(_pp(x, _RESTRICT) for x in e.items)
        return f"({body})"
    if isinstance(e, Restrict):
        body = f"{_pp(e.guard, _OR)} ~> {_pp(e.body, _RESTRICT)}"
        return _wrap(body, _RESTRICT, level)
    if isinstance(e, Or):
        body = " \\/ ".join(_pp(x, _AND) for x in e.items)
        return _wrap(body, _OR, level)
    if isinstance(e, And):
        body = " /\\ ".join(_pp(x, _CMP) for x in e.items)
        return _wrap(body, _AND, level)
    if isinstance(e, Less):
        body = f"{_pp(e.lhs, _ADD)} < {_pp(e.rhs, _ADD)}"
        return _wrap(body, _CMP, level)
    if isinstance(e, Arith):
        if (e.op == "-" and isinstance(e.lhs, RatLit) and e.lhs.value == 0
                and not isinstance(e.rhs, RatLit)):
            return _wrap(f"-{_pp(e.rhs, _UNARY + 1)}", _UNARY, level)
        if e.op in "+-":
            body = f"{_pp(e.lhs, _ADD)} {e.op} {_pp(e.rhs, _ADD + 1)}"
            return _wrap(body, _ADD, level)
        body = f"{_pp(e.lhs, _MUL)} {e.op} {_pp(e.rhs, _MUL + 1)}"
        return _wrap(body, _MUL, level)
    if isinstance(e, Pow):
        return _wrap(f"{_pp(e.base, _POW)} ^ {e.exp}", _POW, level)
    if isinstance(e, App):
        body = f"{_pp(e.fn, _APP)} {_pp(e.arg, _ATOM)}"
        return _wrap(body, _APP, level)
    if isinstance(e, Proj):
        return f"{_pp(e.tuple_, _ATOM)}#{e.index}"
    if isinstance(e, Tuple):
        return "(" + ", ".join(_pp(x, _JOIN) for x in e.items) + ")"
    if isinstance(e, Lambda):
        body = f"fun {e.var} : {type_str(e.var_ty)} => {_pp(e.body, _JOIN)}"
        return _wrap(body, _JOIN, level)
    if isinstance(e, Cut):
        body = (f"cut {e.var} : {range_str(e.range)} left {_pp(e.left, _JOIN)} "
                f"right {_pp(e.right, _JOIN)}")
        return _wrap(body, _JOIN, level)
    if isinstance(e, (Exists, Forall)):
        word = "exists" if isinstance(e, Exists) else "forall"
        body = f"{word} {e.var} : {range_str(e.range)}, {_pp(e.body, _JOIN)}"
        return _wrap(body, _JOIN, level)
    if isinstance(e, Let):
        body = f"let {e.var} = {_pp(e.bound, _JOIN)} in {_pp(e.body, _JOIN)}"
        return _wrap(body, _JOIN, level)
    if isinstance(e, MkBool):
        body = f"mkbool {_pp(e.if_true, _ATOM)} {_pp(e.if_false, _ATOM)}"
        return _wrap(body, _APP, level)
    if isinstance(e, IsTrue):
        return _wrap(f"is_true {_pp(e.arg, _ATOM)}", _APP, level)
    if isinstance(e, IsFalse):
        return _wrap(f"is_false {_pp(e.arg, _ATOM)}", _APP, level)
    raise TypeError(f"cannot print {type(e).__name__}")


def _wrap(text, produced, wanted):
    return f"({text})" if produced < wanted else text


def type_str(t):
    if isinstance(t, RealTy):
        return "real"
    if isinstance(t, PropTy):
        return "prop"
    if isinstance(t, BoolTy):
        return "bool"
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
