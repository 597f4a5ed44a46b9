"""Lexer, parser, and printer tests, including the round-trip property."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from msl.interval import NEG_INF, POS_INF, XRat
from msl.prelude import asset_path
from msl.syntax import (
    KEYWORDS, And, App, Arith, Cut, Def, Directive, Eval, Exists, FalseLit,
    Forall, IsFalse, IsTrue, Join, Lambda, Less, Let, LexError, MkBool, Or,
    ParseError, Pow, Proj, Range, RatLit, REAL, Restrict, Tuple, TrueLit, Var,
    parse_expression, parse_program, pretty_print, tokenize, type_str,
    ArrowTy, PROP, BOOL, ProductTy,
)
from oracles import reference_tokenize

F = Fraction


# --- lexer -------------------------------------------------------------------

def kinds(text):
    return [t.kind for t in tokenize(text)[:-1]]


def test_keywords_are_the_words_of_the_forms_types_and_ranges():
    # The lexer's keyword set is derived from the tables of keyword forms
    # and base types; the reference scanner reads the same set.
    assert KEYWORDS == {
        "True", "False", "cut", "left", "right", "exists", "forall", "fun",
        "let", "in", "mkbool", "is_true", "is_false", "inf", "real", "prop",
        "bool"}


def test_tokenize_decimals_are_exact():
    toks = tokenize("1.5 < x")
    assert [t.kind for t in toks[:-1]] == ["RAT", "<", "IDENT"]
    assert toks[0].value == F(3, 2)
    assert tokenize("0.1")[0].value == F(1, 10)
    assert tokenize("٣.5")[0].value == F(7, 2)  # Arabic-Indic digits


def test_tokenize_restriction_and_join():
    assert kinds("a ~> b || c") == ["IDENT", "~>", "IDENT", "||", "IDENT"]


def test_tokenize_strips_comments():
    assert kinds("(* note *) True") == ["True"]
    assert kinds("(* a (* nested *) b *) 1") == ["RAT"]


def test_tokenize_illegal_character_location():
    # str.isdigit holds for ² (and ³, ①), which int and Fraction refuse:
    # numerals and projection indices are decimal digits only.
    for source, loc, message in (
            ("x +\n  ?", (2, 3), "illegal character '?'"),
            ("2²", (1, 2), "illegal character '²'"),
            ("(1,2)#²", (1, 6), "expected digits or a name after '#'")):
        with pytest.raises(LexError) as err:
            tokenize(source)
        assert (err.value.loc, err.value.message) == (loc, message)


def test_tokenize_projection_vs_directive():
    assert kinds("t#2") == ["IDENT", "PROJ"]
    assert kinds("#precision 1") == ["DIRECTIVE", "RAT"]


def test_tokenize_error_messages_and_locations():
    big = "9" * (sys.get_int_max_str_digits() + 1)
    for source, loc, message in (
            ('#use "lib\n.msl";;', (1, 6), "unterminated string"),
            ('x "ab', (1, 3), "unterminated string"),
            ("1 (* a (* b *)", (1, 3), "unterminated comment"),
            ("(* a *)\n (* b (* c *) *) (* (* *)", (2, 18),
             "unterminated comment"),
            (f"t#{big}", (1, 2),
             f"number of {len(big)} characters is too long")):
        with pytest.raises(LexError) as err:
            tokenize(source)
        assert (err.value.loc, err.value.message) == (loc, message)
    with pytest.raises(ParseError) as err:
        parse_program("#foo 1;;")
    assert (err.value.loc, err.value.message) == ((1, 1),
                                                  "unknown directive #foo")


# Every token class, and the characters where a scanner could go wrong:
# a decimal digit outside ASCII, "²" and "Ⅻ" (alphanumeric, not letters),
# open strings and comments, CR, LF and tab.
_LEXEMES = (" ", "\t", "\r", "\n", "(*", "*)", '"', "#", "0", "7", "٣",
            "²", "Ⅻ", "é", ".", "'", "_", "x", "y2", "precision", "let",
            "True", ";;", ";", "~>", "~", "=>", "->", "\\/", "/\\", "||",
            "|", "(", ")", "[", "]", ",", ":", "=", "<", ">", "+", "-", "*",
            "/", "^", "\\", "?", "\u00a0",
            "9" * (sys.get_int_max_str_digits() + 1))


def _scan(tokenizer, source, start):
    try:
        return [(t.kind, t.value, t.loc) for t in tokenizer(source, start)]
    except LexError as exc:
        return exc.message, exc.loc


@settings(derandomize=True, max_examples=2000, deadline=None)
@given(st.lists(st.sampled_from(_LEXEMES), max_size=12).map("".join),
       st.sampled_from([(1, 1), (3, 7)]))
def test_tokenize_matches_the_reference_scanner(source, start):
    assert (_scan(tokenize, source, start)
            == _scan(reference_tokenize, source, start))


# --- parser ------------------------------------------------------------------

def test_parse_definition():
    items = parse_program("let a = fun x : real => x + 1;;")
    assert items == [Def("a", Lambda("x", REAL,
                                     Arith("+", Var("x"), RatLit(F(1)))))]


def test_parse_let_expression_item():
    items = parse_program("let x = 1 in x;;")
    assert items == [Eval(Let("x", RatLit(F(1)), Var("x")))]


def test_parse_cut_with_flipped_comparison():
    items = parse_program(
        "cut x : [0,2] left x < 0 \\/ x*x < 2 right x > 0 /\\ x*x > 2;;")
    x = Var("x")
    expected = Cut(
        "x", Range(XRat(0), XRat(2)),
        Or((Less(x, RatLit(F(0))), Less(Arith("*", x, x), RatLit(F(2))))),
        And((Less(RatLit(F(0)), x), Less(RatLit(F(2)), Arith("*", x, x)))))
    assert items == [Eval(expected)]


def test_parse_car_controller_shape():
    source = """
    let a_go = fun x : real => fun v : real =>
        max 0 (2 * (w + eps - x - v * T) / (T * T));;
    let a_stop = fun x : real => fun v : real =>
        v * v / (2 * (x + eps));;
    let accel = fun x : real => fun v : real =>
      (  a_go x v   < a_max  ~>  a_go x v
      || a_stop x v > a_min  ~>  a_stop x v );;
    """
    items = parse_program(source)
    assert [type(i) for i in items] == [Def, Def, Def]
    body = items[2].body.body.body  # under fun x => fun v =>
    assert isinstance(body, Join) and len(body.items) == 2
    go, stop = body.items
    assert isinstance(go, Restrict) and isinstance(go.guard, Less)
    assert go.guard.rhs == Var("a_max")
    assert isinstance(stop, Restrict)
    # a_stop x v > a_min flips to a_min < a_stop x v
    assert stop.guard.lhs == Var("a_min")


def test_parse_precedence():
    assert parse_expression("a ~> b || c ~> d") == Join((
        Restrict(Var("a"), Var("b")), Restrict(Var("c"), Var("d"))))
    assert parse_expression("p \\/ q ~> e") == Restrict(
        Or((Var("p"), Var("q"))), Var("e"))
    assert parse_expression("a \\/ b /\\ c") == Or((
        Var("a"), And((Var("b"), Var("c")))))
    assert parse_expression("1 + 2 * 3") == Arith(
        "+", RatLit(F(1)), Arith("*", RatLit(F(2)), RatLit(F(3))))
    assert parse_expression("1 - 2 - 3") == Arith(
        "-", Arith("-", RatLit(F(1)), RatLit(F(2))), RatLit(F(3)))
    assert parse_expression("f x ^ 2") == Pow(App(Var("f"), Var("x")), 2)
    assert parse_expression("f x y") == App(App(Var("f"), Var("x")), Var("y"))
    assert parse_expression("f t#1") == App(Var("f"), Proj(Var("t"), 1))


@pytest.mark.parametrize("source,ast,printed", [
    ("-x ^ 2", Arith("-", RatLit(F(0)), Pow(Var("x"), 2)), "-x ^ 2"),
    ("- - 3", RatLit(F(3)), "3"),
    ("-f x", Arith("-", RatLit(F(0)), App(Var("f"), Var("x"))), "-f x"),
    ("f x ^ 2", Pow(App(Var("f"), Var("x")), 2), "f x ^ 2"),
    ("f x#1", App(Var("f"), Proj(Var("x"), 1)), "f x#1"),
    ("2 * -3", Arith("*", RatLit(F(2)), RatLit(F(-3))), "2 * -3"),
    ("x ^ 2 ^ 3", Pow(Pow(Var("x"), 2), 3), "x ^ 2 ^ 3"),
    ("(f x)#1", Proj(App(Var("f"), Var("x")), 1), "(f x)#1"),
    ("is_true b#1", IsTrue(Proj(Var("b"), 1)), "is_true b#1"),
    ("f -1", Arith("-", Var("f"), RatLit(F(1))), "f - 1"),  # a subtraction
])
def test_parse_and_print_each_level_boundary(source, ast, printed):
    assert parse_expression(source) == ast
    assert pretty_print(ast) == printed


def test_operators_past_the_unary_level_are_located_at_their_token():
    e = parse_expression("- f x#1 ^ 2 + 1")  # (-(((f (x#1)) ^ 2))) + 1
    neg = e.lhs
    power = neg.rhs
    app = power.base
    assert [n.loc for n in (e, neg, neg.lhs, power, app, app.arg)] == \
        [(1, 1), (1, 1), (1, 1), (1, 9), (1, 5), (1, 6)]


@pytest.mark.parametrize("text,ty", [
    ("real * real -> real * bool",
     ArrowTy(ProductTy((REAL, REAL)), ProductTy((REAL, BOOL)))),
    ("(real -> real) -> real", ArrowTy(ArrowTy(REAL, REAL), REAL)),
])
def test_parse_and_print_types(text, ty):
    assert parse_expression(f"fun g : {text} => g").var_ty == ty
    assert type_str(ty) == text


@pytest.mark.parametrize("source,loc,message", [
    ("x ^ 2 #1;;", (1, 7), "expected ';;' to end the item"),
    ("mkbool -1 2;;", (1, 8), "unexpected '-'"),
])
def test_parse_errors_at_level_boundaries(source, loc, message):
    with pytest.raises(ParseError) as err:
        parse_program(source)
    assert (err.value.loc, err.value.message) == (loc, message)


def test_parse_binders_extend_right():
    e = parse_expression("exists x : [0,1], x < 1 /\\ True")
    assert isinstance(e, Exists)
    assert isinstance(e.body, And)
    e = parse_expression("fun x : real => x + 1")
    assert isinstance(e.body, Arith)


def test_parse_literal_folding():
    assert parse_expression("1/10") == RatLit(F(1, 10))
    assert parse_expression("-3") == RatLit(F(-3))
    assert parse_expression("-eps") == Arith("-", RatLit(F(0)), Var("eps"))
    assert parse_expression("3/x") == Arith("/", RatLit(F(3)), Var("x"))


def test_parse_tuples_and_types():
    e = parse_expression("(1, 2, x)")
    assert isinstance(e, Tuple) and len(e.items) == 3
    lam = parse_expression("fun f : real -> real => f 1")
    assert lam.var_ty == ArrowTy(REAL, REAL)
    lam = parse_expression("fun p : real * prop => p#2")
    assert lam.var_ty == ProductTy((REAL, PROP))
    lam = parse_expression("fun b : bool => is_true b")
    assert lam.var_ty == BOOL and isinstance(lam.body, IsTrue)


def test_parse_ranges():
    e = parse_expression("cut z : (-inf, inf) left True right False")
    assert e.range == Range(NEG_INF, POS_INF, True, True)
    e = parse_expression("cut z : [-1/2, 3] left True right False")
    assert e.range == Range(XRat(F(-1, 2)), XRat(3))
    with pytest.raises(ParseError):
        parse_expression("cut z : [-inf, 0] left True right False")
    with pytest.raises(ParseError):
        parse_expression("cut z : [3, 2] left True right False")


def test_parse_directives():
    items = parse_program('#precision 1/1000000;; #use "lib.msl";; #trace on;;')
    assert items[0] == Directive("precision", F(1, 1000000))
    assert items[1] == Directive("use", "lib.msl")
    assert items[2] == Directive("trace", True)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_program("1 + 1")  # missing ;;
    with pytest.raises(ParseError):
        parse_program("let = 3;;")
    with pytest.raises(ParseError):
        parse_expression("(1, )")
    with pytest.raises(ParseError):
        parse_expression("t#0")
    with pytest.raises(ParseError):
        parse_program("let x = (1;;")  # unbalanced paren must not hang
    with pytest.raises(ParseError):
        parse_program("let x = (1")


def test_zero_denominator_is_located_at_the_zero():
    for source, loc in (("#precision 1/0;;", (1, 14)),
                        ("cut x : [0, 1/0] left x < 1 right x > 1;;",
                         (1, 15))):
        with pytest.raises(ParseError) as err:
            parse_program(source)
        assert (err.value.loc, err.value.message) == (loc,
                                                      "zero denominator")


def test_parse_mkbool_forms():
    e = parse_expression("mkbool (x > -1/2) (x < 1/2)")
    assert isinstance(e, MkBool)
    assert isinstance(e.if_true, Less) and isinstance(e.if_false, Less)
    assert parse_expression("is_false b") == IsFalse(Var("b"))


# --- printer round-trip --------------------------------------------------------

def _names():
    return st.sampled_from(["x", "y", "z", "f", "g'"])


def _types():
    return st.recursive(
        st.sampled_from([REAL, PROP, BOOL]),
        lambda inner: st.one_of(
            st.builds(ArrowTy, inner, inner),
            st.lists(inner, min_size=2, max_size=3).map(
                lambda ts: ProductTy(tuple(ts)))),
        max_leaves=3)


def _ranges():
    finite = st.fractions(max_denominator=8, min_value=-4, max_value=4)
    return st.builds(
        lambda a, b: Range(XRat(min(a, b)), XRat(max(a, b))), finite, finite)


def _mk_arith(op, lhs, rhs):
    # Mirror the parser's literal folding so generated trees stay inside
    # the parser's image (the parser cannot produce 1/2 or -(3) unfolded).
    if (op == "/" and isinstance(lhs, RatLit) and isinstance(rhs, RatLit)
            and rhs.value != 0):
        return RatLit(lhs.value / rhs.value)
    if (op == "-" and lhs == RatLit(Fraction(0)) and isinstance(rhs, RatLit)):
        return RatLit(-rhs.value)
    return Arith(op, lhs, rhs)


def _exprs():
    leaves = st.one_of(
        _names().map(Var),
        st.fractions(max_denominator=9, min_value=0, max_value=9).map(RatLit),
        st.just(TrueLit()),
        st.just(FalseLit()),
    )

    def extend(inner):
        pair = st.tuples(inner, inner)
        return st.one_of(
            st.lists(inner, min_size=2, max_size=3).map(
                lambda xs: And(tuple(xs))),
            st.lists(inner, min_size=2, max_size=3).map(
                lambda xs: Or(tuple(xs))),
            st.lists(inner, min_size=2, max_size=3).map(
                lambda xs: Join(tuple(xs))),
            st.lists(inner, min_size=2, max_size=3).map(
                lambda xs: Tuple(tuple(xs))),
            pair.map(lambda p: Less(*p)),
            st.tuples(st.sampled_from("+-*/"), inner, inner).map(
                lambda t: _mk_arith(t[0], t[1], t[2])),
            st.tuples(inner, st.integers(0, 4)).map(lambda t: Pow(*t)),
            pair.map(lambda p: App(*p)),
            st.tuples(inner, st.integers(1, 3)).map(lambda t: Proj(*t)),
            pair.map(lambda p: Restrict(*p)),
            pair.map(lambda p: MkBool(*p)),
            inner.map(IsTrue),
            inner.map(IsFalse),
            st.tuples(_names(), _types(), inner).map(lambda t: Lambda(*t)),
            st.tuples(_names(), _ranges(), inner, inner).map(
                lambda t: Cut(*t)),
            st.tuples(_names(), _ranges(), inner).map(lambda t: Exists(*t)),
            st.tuples(_names(), _ranges(), inner).map(lambda t: Forall(*t)),
            st.tuples(_names(), inner, inner).map(lambda t: Let(*t)),
        )

    return st.recursive(leaves, extend, max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(_exprs())
def test_pretty_print_round_trip(e):
    assert parse_expression(pretty_print(e)) == e


def test_pretty_print_examples():
    assert pretty_print(RatLit(F(3, 2))) == "3/2"
    assert pretty_print(Join((Var("a"), Var("b")))) == "(a || b)"
    assert pretty_print(Or((Var("a"), Var("b")))) == "a \\/ b"
    nested = Or((Or((Var("a"), Var("b"))), Var("c")))
    assert parse_expression(pretty_print(nested)) == nested


@pytest.mark.parametrize("name", ["prelude", "car", "roots"])
def test_every_item_of_a_shipped_example_prints_and_reparses(name):
    with open(asset_path(f"{name}.msl"), encoding="utf-8") as handle:
        items = parse_program(handle.read())
    exprs = [item.body if isinstance(item, Def) else item.expr
             for item in items if not isinstance(item, Directive)]
    assert exprs
    for e in exprs:
        assert parse_expression(pretty_print(e)) == e
