"""Session execution, rendering, directives, REPL, and exit codes."""

import io
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from msl import cli
from msl.cli import (
    SessionState, decimal_str, execute_item, execute_source, main, render,
    repl,
)
from msl.evaluator import (
    BoolFF, BoolTT, Diverged, FunctionValue, PropFalseProven, PropTrue,
    RealBall, TupleOf,
)
from msl.syntax import Less, SourceError, parse_program, tokenize
from oracles import eval_outcome

F = Fraction


def run_script(source, state=None):
    state = state or SessionState()
    out, err = io.StringIO(), io.StringIO()
    had_error, had_div = execute_source(state, source, out=out, err=err)
    return state, out.getvalue(), err.getvalue(), had_error, had_div


# --- rendering -------------------------------------------------------------------

def test_render_real_ball_interval_format():
    assert render(RealBall(F(3, 2), F(1, 4)), "interval") == "[5/4, 7/4]"


def test_render_real_ball_decimal_format():
    assert render(RealBall(F(2), F(0))) == "2 ± 0"
    assert render(RealBall(F(3, 2), F(1, 4))) == "1.5 ± 0.25"
    assert render(RealBall(F(1, 3), F(0))) == "1/3 ± 0"
    assert render(RealBall(F(-7, 20), F(1, 10 ** 6))) == "-0.35 ± 0.000001"


def test_render_simple_outcomes():
    assert render(PropTrue()) == "True"
    assert render(PropFalseProven()) == "False (proven)"
    assert render(BoolTT()) == "tt"
    assert render(BoolFF()) == "ff"
    assert render(Diverged(100000)) == "no result within 100000 steps"
    assert render(FunctionValue()) == "<fun>"
    assert render(TupleOf((RealBall(F(1), F(0)), PropTrue()))) == \
        "(1 ± 0, True)"


def test_decimal_str():
    assert decimal_str(F(1, 10)) == "0.1"
    assert decimal_str(F(-3)) == "-3"
    assert decimal_str(F(1, 3)) == "1/3"
    assert decimal_str(F(1, 2 ** 5)) == "0.03125"


# --- session items ------------------------------------------------------------------

def test_definition_then_named_eval():
    state, out, err, had_error, _ = run_script("let two = 1 + 1;; two;;")
    assert not had_error and err == ""
    assert out == "two : real = 2 ± 0\n"


def test_anonymous_eval_renders_type_only():
    _, out, _, _, _ = run_script("1 + 1;;")
    assert out == "real = 2 ± 0\n"


def test_precision_directive():
    state, out, _, _, _ = run_script("#precision 1/1000000;;")
    assert state.precision == F(1, 1000000)


def test_use_directive_loads_packaged_assets():
    state, out, err, had_error, _ = run_script(
        '#use "roots.msl";; roots_interval (fun x : real => x - 0.5);;')
    assert not had_error, err
    assert out.splitlines()[-1] == "bool = tt"


def test_trace_directive_reports_witnesses():
    state, out, _, _, _ = run_script(
        "#trace on;; exists x : [0,2], x < 1;;")
    lines = out.splitlines()
    assert lines[0] == "(witness x in [0, 2])"
    assert lines[-1] == "prop = True"


def test_trace_reports_subinterval_found_by_splitting():
    # the witness region (2/5, 3/5) excludes the left probe point, so a
    # split must happen before the existential is affirmed
    _, out, _, _, _ = run_script(
        "#trace on;; exists x : [0,1], (x - 1/2)*(x - 1/2) < 1/100;;")
    lines = out.splitlines()
    assert lines[-1] == "prop = True"
    witness = lines[0]
    assert witness.startswith("(witness x in [")
    lo = F(witness.split("[")[1].split(",")[0])
    assert F(2, 5) < lo < F(3, 5)


def test_trace_of_a_shared_cut_prints_each_occurrence():
    # ``half`` is one object in each normal form, refined once per sweep;
    # its witness is still printed once per occurrence, as when every
    # occurrence was a separate copy.
    script = """#use "prelude.msl";; #trace on;;
let half = cut r : [0, 2]
  left (r < 1 /\\ exists y : [0, 1], 1/3 < y /\\ y < 1/2)
  right (1 < r \\/ forall y : [0, 1], y < 2/3);;
half + half;;
max half (half + 1/2);;
"""
    _, out, err, _, _ = run_script(script)
    witness = "(witness y in [3/8, 1/2])\n"
    assert err == ""
    assert out == (2 * witness + "real = 2 ± 0.00000762939453125\n"
                   + 4 * witness + "real = 1.5 ± 0.00000762939453125\n")


@pytest.mark.parametrize("script,out,err", [
    ("#precision 0;;", "", "error: 1:1: precision must be positive\n"),
    ("#precision -1/2;;", "", "error: 1:1: precision must be positive\n"),
    ('1;;\n  #use "nope.msl";; 2;;', "real = 1 ± 0\nreal = 2 ± 0\n",
     'error: 2:3: cannot find "nope.msl"\n'),
])
def test_directive_arguments_are_checked(script, out, err):
    state, got_out, got_err, had_error, _ = run_script(script)
    assert (got_out, got_err, had_error) == (out, err, True)
    assert state.precision == SessionState().precision


def test_use_directive_loads_an_absolute_path(tmp_path):
    path = tmp_path / "two.msl"
    path.write_text("let two = 2;;", encoding="utf-8")
    assert os.path.isabs(path)
    _, out, err, _, _ = run_script(f'#use "{path}";; two;;')
    assert (out, err) == ("two : real = 2 ± 0\n", "")


def test_use_cycle_is_rejected(tmp_path):
    (tmp_path / "a.msl").write_text('#use "b.msl";;', encoding="utf-8")
    (tmp_path / "b.msl").write_text('#use "a.msl";;', encoding="utf-8")
    state = SessionState(base_dirs=(str(tmp_path),))
    _, _, err, had_error, _ = run_script('#use "a.msl";;', state)
    assert had_error and "too deep" in err


def test_unreadable_use_is_a_located_error(tmp_path):
    (tmp_path / "adir").mkdir()
    (tmp_path / "latin1.msl").write_bytes(b"(* caf\xe9 *) 1;;\n")
    state = SessionState(base_dirs=(str(tmp_path),))
    _, out, err, had_error, _ = run_script(
        '#use "adir";;\n#use "latin1.msl";;\n1 + 1;;', state)
    assert had_error
    assert err.splitlines() == [
        'error: 1:1: cannot read "adir": Is a directory',
        'error: 2:1: cannot read "latin1.msl": \'utf-8\' codec can\'t '
        'decode byte 0xe9 in position 6: invalid continuation byte']
    assert out == "real = 2 ± 0\n"


def test_each_item_of_a_used_file_runs_and_its_errors_name_it(tmp_path):
    (tmp_path / "bad.msl").write_text("1 + 1;;\n1 2;;\n3;;\n",
                                      encoding="utf-8")
    state = SessionState(base_dirs=(str(tmp_path),))
    _, out, err, had_error, _ = run_script(
        '0;;\n#use "bad.msl";;\n7;;', state)
    assert had_error
    assert out == "real = 0 ± 0\nreal = 2 ± 0\nreal = 3 ± 0\nreal = 7 ± 0\n"
    assert err == ("error: bad.msl:2:3: applying a non-function of type "
                   "real\n")
    assert state.base_dirs == (str(tmp_path),) and state.use_depth == 0


def test_a_parse_error_rejects_the_whole_used_file_and_names_it(tmp_path):
    (tmp_path / "bad.msl").write_text("1;;\n1 +;;\n2;;\n",
                                      encoding="utf-8")
    state = SessionState(base_dirs=(str(tmp_path),))
    _, out, err, had_error, _ = run_script('#use "bad.msl";;\n3;;', state)
    assert had_error
    assert out == "real = 3 ± 0\n"
    assert err == "error: bad.msl:2:4: unexpected ';;'\n"


def test_a_deep_item_of_a_used_file_is_located_in_it(tmp_path):
    (tmp_path / "deep.msl").write_text(
        "1;;\n" + " + ".join(["1"] * 600) + ";;\n2;;\n", encoding="utf-8")
    (tmp_path / "outer.msl").write_text('5;;\n#use "deep.msl";;\n',
                                        encoding="utf-8")
    state = SessionState(base_dirs=(str(tmp_path),))
    _, out, err, had_error, _ = run_script('#use "outer.msl";;\n3;;', state)
    assert had_error
    assert out == "real = 5 ± 0\nreal = 1 ± 0\nreal = 2 ± 0\nreal = 3 ± 0\n"
    assert err == "error: deep.msl:2:1: expression too deeply nested\n"


def test_execute_item_runs_a_used_file_and_raises_its_first_error(tmp_path):
    (tmp_path / "bad.msl").write_text("let a = 1;;\n1 2;;\nlet b = 2;;\n",
                                      encoding="utf-8")
    state = SessionState(base_dirs=(str(tmp_path),))
    (item,) = parse_program('#use "bad.msl";;')
    with pytest.raises(SourceError) as info:
        execute_item(state, item)
    assert info.value.format() == \
        "bad.msl:2:3: applying a non-function of type real"
    assert list(state.definitions) == ["a", "b"]
    assert state.base_dirs == (str(tmp_path),) and state.use_depth == 0


@pytest.mark.parametrize("script,out,err", [
    ("let x = let y = 1 in y;; x;;", "x : real = 1 ± 0\n", ""),
    ("let x = (let y = 1 in y) in x;;", "real = 1 ± 0\n", ""),
    ("let f = fun a : real => let b = a in b;; f 2;;", "real = 2 ± 0\n", ""),
    ("let x = 1 in 2 in 3;;", "", "error: 1:16: expected ';;' to end the "
                                  "item\n"),
])
def test_a_let_item_is_a_definition_unless_in_follows_its_bound(script, out,
                                                                 err):
    assert run_script(script)[1:3] == (out, err)


def test_nested_restrictions_unwrap():
    _, out, _, had_error, _ = run_script("(1 < 2) ~> ((3 < 4) ~> 7);;")
    assert not had_error
    assert out == "real = 7 ± 0\n"


@pytest.mark.parametrize("source,decimal,interval", [
    # inf * 0 == 0
    ("(cut x : (-inf, inf) left x < 0 right x > 0) * 0",
     "real = 0 ± 0", "real = [0, 0]"),
    # -inf < finite: the naive test holds before the cut finds a bound
    ("(cut x : (0, inf) left x < 1 right x > 1) < 5",
     "prop = True", "prop = True"),
    # each unbounded end meets a finite one, and then none is left
    ("(cut x : (-inf, 0) left x < -1 right x > -1) - "
     "(cut y : (0, inf) left y < 1 right y > 1)",
     "real = -2 ± 0.00000762939453125",
     "real = [-262145/131072, -262143/131072]"),
    # an unbounded divisor is no information until it is bounded
    ("1 / (cut x : (0, inf) left x < 1 right x > 1) < 2",
     "prop = True", "prop = True"),
])
def test_unbounded_cuts_print_their_answers(source, decimal, interval):
    for fmt, expected in (("decimal", decimal), ("interval", interval)):
        state = SessionState(fmt=fmt)
        assert run_script(f"{source};;", state)[1:3] == (expected + "\n", "")


def test_type_error_leaves_session_usable():
    state, out, err, had_error, _ = run_script(
        "let bad = 1 2;; let good = 3;; good;;")
    assert had_error
    assert "error:" in err
    assert "good : real = 3 ± 0" in out
    assert "bad" not in state.definitions


def test_parse_error_reports_location():
    _, _, err, had_error, _ = run_script("let x 3;;")
    assert had_error and "error:" in err


@pytest.mark.parametrize("script,err", [
    ("2 ^ x;;", "1:5: expected 'RAT', found 'x'"),
    ("2 ^ 0.5;;", "1:3: exponent must be a natural number"),
    ("(1, 2)#0;;", "1:7: projection index starts at 1"),
    ("let = 3;;", "1:5: expected 'IDENT', found '='"),
    ("fun x : 3 => x;;", "1:9: expected a type, found '3'"),
    ("exists x : 0, x < 1;;", "1:12: expected a range"),
    ("exists x : [0, 1, x < 1;;",
     "1:17: expected ']' or ')' to close the range"),
    ("cut x : [0, inf] left x < 1 right 1 < x;;",
     "1:16: an infinite limit needs an open bracket"),
    ("cut x : [-inf, 1) left x < 1 right 1 < x;;",
     "1:9: an infinite limit needs an open bracket"),
    ("exists x : [2, 1], x < 1;;",
     "1:12: empty range: lower limit above upper"),
    ("#trace maybe;;", "1:1: expected 'on' or 'off' after #trace"),
])
def test_parse_errors_are_located(script, err):
    _, out, got_err, had_error, _ = run_script(script)
    assert (out, got_err, had_error) == ("", f"error: {err}\n", True)


def test_deep_nesting_is_reported_not_raised():
    _, out, err, had_error, had_div = run_script(
        "(" * 10_000 + "1" + ")" * 10_000 + ";;")
    assert (had_error, had_div) == (True, False)
    assert out == ""
    assert err == "error: 1:1: expression too deeply nested\n"
    for depth in (80, 400):
        _, out, err, had_error, had_div = run_script(
            "(" * depth + "1" + ")" * depth + ";;")
        assert (had_error, had_div) == (False, False)
        assert (out, err) == ("real = 1 ± 0\n", "")


def test_a_deep_item_is_located_and_the_next_one_runs():
    _, out, err, had_error, had_div = run_script(
        "1 + 1;;\n" + " + ".join(["1"] * 600) + ";;\n2 * 3;;")
    assert (had_error, had_div) == (True, False)
    assert err == "error: 2:1: expression too deeply nested\n"
    assert out == "real = 2 ± 0\nreal = 6 ± 0\n"


def test_an_item_out_of_memory_is_located_and_the_next_one_runs(
        monkeypatch):
    # ``2 ^ 10000000000`` is an exact power of some 1.25 GB: the run of
    # the comparison stands in for one that exhausts memory.
    real_run = cli.run

    def run(expr, **kwargs):
        if isinstance(expr, Less):
            raise MemoryError
        return real_run(expr, **kwargs)

    monkeypatch.setattr("msl.cli.run", run)
    _, out, err, had_error, had_div = run_script(
        "1 + 1;;\n2 ^ 10000000000 < 3;;\n2 * 3;;")
    assert (had_error, had_div) == (True, False)
    assert err == "error: 2:1: out of memory\n"
    assert out == "real = 2 ± 0\nreal = 6 ± 0\n"


def test_divergence_is_flagged():
    _, out, _, had_error, had_div = run_script(
        "#precision 1;; (2 < 1) ~> 1;;")
    assert not had_error and had_div
    assert "no result within" in out


def test_redefinition_sees_the_previous_binding():
    state, out, err, had_error, _ = run_script(
        "let x = 1;; let x = x + 1;; x;;")
    assert not had_error, err
    assert out == "x : real = 2 ± 0\n"


def test_redefining_a_dependency_does_not_change_earlier_definitions():
    state, out, err, had_error, _ = run_script(
        "let a = 1;; let f = fun y : real => y + a;; let a = 100;; f 0;;")
    assert not had_error, err
    assert out == "real = 1 ± 0\n"


def test_nondeterministic_defs_commit_once_per_use():
    # f is a function whose body carries a join; each evaluation commits
    # the choice once, so f 0 + f 0 is always even.
    script = "let f = fun x : real => (0 || 1);;"
    state, _, _, _, _ = run_script(script)
    out = eval_outcome(state, "f 0 + f 0", precision=F(1, 100))
    assert out in (RealBall(F(0), F(0)), RealBall(F(2), F(0)))


def test_session_determinism_bytes():
    script = ('#use "roots.msl";; let c = 1/3;; c;; 0 || 1;;'
              " mkbool (0 < 1) (1 < 0);;")
    _, out1, err1, _, _ = run_script(script)
    _, out2, err2, _, _ = run_script(script)
    assert out1 == out2 and err1 == err2


def test_rendered_ball_reparses_and_contains_oracle_value():
    rng = random.Random(99)
    state = SessionState(fmt="interval")
    for _ in range(20):
        num = F(rng.randint(-50, 50), rng.randint(1, 20))
        den = F(rng.randint(1, 40), rng.randint(1, 8))
        expected = num / den + 1
        src = f"({num}) / ({den}) + 1"
        _, out, err, had_error, _ = run_script(f"{src};;", state)
        assert not had_error, err
        rendered = out.strip().split(" = ")[1]
        lo, hi = rendered.strip("[]").split(", ")
        assert F(lo) <= expected <= F(hi)


# --- main / exit codes ----------------------------------------------------------------

def _run_main(args, tmp_path, source=None):
    paths = []
    if source is not None:
        path = tmp_path / "script.msl"
        path.write_text(source, encoding="utf-8")
        paths = [str(path)]
    argv = paths + ["--no-repl"] + args
    out, err = io.StringIO(), io.StringIO()
    stdout, stderr = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(argv)
    finally:
        sys.stdout, sys.stderr = stdout, stderr
    return code, out.getvalue(), err.getvalue()


def test_main_success_exit_zero(tmp_path):
    code, out, err = _run_main([], tmp_path, "1 + 1;;")
    assert code == 0 and "real = 2 ± 0" in out


def test_main_type_error_exit_one(tmp_path):
    code, _, err = _run_main([], tmp_path, "1 2;;")
    assert code == 1 and "error:" in err


def test_main_reports_unreadable_files_and_goes_on(tmp_path, capsys):
    bad = tmp_path / "latin1.msl"
    bad.write_bytes(b"(* caf\xe9 *) 1;;\n")
    good = tmp_path / "good.msl"
    good.write_text("2;;\n", encoding="utf-8")
    assert main([str(bad), str(tmp_path), str(good), "--no-repl"]) == 1
    out, err = capsys.readouterr()
    assert err.splitlines() == [
        f'error: cannot read "{bad}": \'utf-8\' codec can\'t decode byte '
        '0xe9 in position 6: invalid continuation byte',
        f'error: cannot read "{tmp_path}": Is a directory']
    assert out == "real = 2 ± 0\n"


def test_a_leading_byte_order_mark_is_dropped(tmp_path, capsys):
    # Editors on some systems start a UTF-8 file with U+FEFF: it is read
    # as the encoding's mark, not as the first character of the text.
    path = tmp_path / "bom.msl"
    path.write_bytes(b"\xef\xbb\xbf1 + 1;;\n")
    assert main([str(path), "--no-repl"]) == 0
    assert capsys.readouterr() == ("real = 2 ± 0\n", "")
    state = SessionState(base_dirs=(str(tmp_path),))
    _, out, err, had_error, _ = run_script('#use "bom.msl";;', state)
    assert (out, err, had_error) == ("real = 2 ± 0\n", "", False)


def test_the_repl_drops_a_leading_byte_order_mark_as_a_file_does(tmp_path,
                                                                 capsys):
    # Locations count from after the mark, as in a file; a mark past the
    # start of the input is a character of the text.
    def piped(text):
        out, err = io.StringIO(), io.StringIO()
        assert repl(SessionState(), io.StringIO(text), out, err) == 0
        return out.getvalue(), err.getvalue()

    path = tmp_path / "bom.msl"
    for text in ("1 + 1;;\n", "1 +;;\n"):
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        main([str(path), "--no-repl"])
        assert piped("\ufeff" + text) == tuple(capsys.readouterr())
    assert piped("\ufeff1 +;;\n") == ("", "error: 1:4: unexpected ';;'\n")
    assert piped("1;;\n\ufeff2;;\n") == (
        "real = 1 ± 0\n", "error: 2:1: illegal character '\\ufeff'\n")


def test_main_divergence_exit_two(tmp_path):
    code, out, _ = _run_main(["--max-steps", "25"], tmp_path,
                             "(2 < 1) ~> 1;;")
    assert code == 2
    assert "no result within" in out


def test_main_divergence_in_used_file_exit_two(tmp_path):
    (tmp_path / "diverges.msl").write_text("(2 < 1) ~> 1;;\n",
                                           encoding="utf-8")
    code, out, _ = _run_main(["--max-steps", "25"], tmp_path,
                             '#use "diverges.msl";;\n1 + 1;;')
    assert code == 2
    assert out == "real = no result within 1 steps\nreal = 2 ± 0\n"


def test_main_reports_ctrl_c_in_files_and_exits_130(tmp_path, monkeypatch):
    def interrupted(state, source):
        raise KeyboardInterrupt

    monkeypatch.setattr("msl.cli.execute_source", interrupted)
    code, out, err = _run_main([], tmp_path, "1 + 1;;")
    assert (code, out, err) == (130, "", "interrupted\n")


def test_execute_source_reports_divergence_from_outcomes():
    state, out, _, had_error, had_div = run_script("(2 < 1) ~> 1;;")
    assert (had_error, had_div) == (False, True)
    assert state.divergences == 1
    # A later call reports only its own items.
    _, _, _, _, had_div = run_script("1 + 1;;", state)
    assert not had_div


def test_main_flags(tmp_path):
    code, out, _ = _run_main(["--precision", "1/100000", "--format",
                              "interval"], tmp_path, "1/3;;")
    assert code == 0
    assert out.strip() == "real = [1/3, 1/3]"


@pytest.mark.parametrize("args,message", [
    (["--precision", "0"], "precision must be positive"),
    (["--precision", "abc"], "invalid precision 'abc'"),
    (["--max-steps", "0"], "--max-steps must be at least 1"),
])
def test_main_rejects_bad_flags_with_exit_two(args, message, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(args + ["--no-repl"])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"msl: error: {message}\n")


def test_main_trace_flag(tmp_path):
    code, out, _ = _run_main(["--trace-witness"], tmp_path,
                             "exists x : [0,1], x < 1;;")
    assert code == 0
    assert "(witness x in [0, 1])" in out


def test_repl_items_end_at_double_semicolon_tokens():
    # An item ends at its first ";;" token, as in a file: not at ";;"
    # inside a comment, even one left open at the end of a line.
    for source, answers, errors in (
            ("1 +\n  1;;\n", "real = 2 ± 0\n", ""),
            ("(* a ;; b *) 1 + 1;;\n", "real = 2 ± 0\n", ""),
            ("(* a\n;; b *) 1;; (* c\n*) 2;;\n",
             "real = 1 ± 0\nreal = 2 ± 0\n", ""),
            ("1 + ;;\n2;;\n", "real = 2 ± 0\n",
             "error: 1:5: unexpected ';;'\n"),
            ("2 $ 3;; 4;;\n", "real = 4 ± 0\n",
             "error: 1:3: illegal character '$'\n"),
            # Locations count from the start of the input, as in batch
            # mode, not from the start of each item.
            ("1;;\n2;;\n3 +;;\n4;;\n5 + ;;\n",
             "real = 1 ± 0\nreal = 2 ± 0\nreal = 4 ± 0\n",
             "error: 3:4: unexpected ';;'\nerror: 5:5: unexpected ';;'\n"),
            ("1 + 1;; 2 +;;\n", "real = 2 ± 0\n",
             "error: 1:12: unexpected ';;'\n")):
        out, err = io.StringIO(), io.StringIO()
        assert repl(SessionState(), io.StringIO(source), out, err) == 0
        assert (out.getvalue(), err.getvalue()) == (answers, errors)


def test_repl_runs_the_rest_of_its_input_as_a_last_item():
    # An item left without ';;' at end of input is reported, as batch
    # mode reports it, not dropped; a trailing comment stays silent.
    for source, answers, errors in (
            ("1 + 1;;\n2 + 2", "real = 2 ± 0\n",
             "error: 2:6: expected ';;' to end the item\n"),
            ("1 + 1;;\n(* c *)", "real = 2 ± 0\n", ""),
            ("1 + 1;;\n(* c ;; *)\n  \n", "real = 2 ± 0\n", "")):
        out, err = io.StringIO(), io.StringIO()
        assert repl(SessionState(), io.StringIO(source), out, err) == 0
        assert (out.getvalue(), err.getvalue()) == (answers, errors)


def scanned_by_repl(monkeypatch, source):
    """(stdout, stderr, characters handed to the lexer) of ``repl``
    reading ``source``."""
    scanned = []

    def counting_tokenize(source, *args):
        scanned.append(len(source))
        return tokenize(source, *args)

    monkeypatch.setattr("msl.cli.tokenize", counting_tokenize)
    monkeypatch.setattr("msl.syntax.tokenize", counting_tokenize)
    out, err = io.StringIO(), io.StringIO()
    assert repl(SessionState(), io.StringIO(source), out, err) == 0
    return out.getvalue(), err.getvalue(), sum(scanned)


def test_the_repl_scans_a_long_item_once(monkeypatch):
    # Only a line that holds ";;" can end an item, so the REPL scans its
    # buffer once per such line and not once per line: the characters
    # handed to the lexer grow linearly with the item, not quadratically.
    source = ("1\n" + "(* a comment line that goes on for a while *)\n" * 2000
              + ";;\n")
    out, err, scanned = scanned_by_repl(monkeypatch, source)
    assert (out, err) == ("real = 1 ± 0\n", "")
    assert scanned <= 3 * len(source)


def test_the_repl_scans_a_line_of_many_items_once(monkeypatch):
    # One scan of the buffer finds every item that ends in it, so the
    # characters handed to the lexer grow linearly with the number of
    # items on a line, not quadratically.
    source = "1;;" * 2000 + "\n"
    out, err, scanned = scanned_by_repl(monkeypatch, source)
    assert (out, err) == ("real = 1 ± 0\n" * 2000, "")
    assert scanned <= 3 * len(source)


def test_repl_via_subprocess():
    script = "let two = 2;;\ntwo;;\n"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # The child imports msl from this checkout's src only, never an
    # installed copy; both ends of the pipe speak UTF-8 whatever the locale.
    # Where bytecode writing is off, it stays off in the child, which would
    # otherwise leave src/msl/__pycache__ in the checkout.
    env = {"PYTHONPATH": os.path.join(root, "src"), "PATH": "/usr/bin:/bin",
           "PYTHONIOENCODING": "utf-8"}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    proc = subprocess.run(
        [sys.executable, "-m", "msl"], input=script, text=True,
        encoding="utf-8", capture_output=True, timeout=120, cwd=root,
        env=env)
    assert proc.returncode == 0, proc.stderr
    assert "two : real = 2 ± 0" in proc.stdout


def test_deeply_nested_keyword_forms_answer_via_subprocess():
    # A keyword form costs the parser two Python frames, as a parenthesis
    # does, so each nests about as deep under the default recursion
    # limit.  The child is run as in ``test_repl_via_subprocess``.
    script = "".join(f"{text};;\n" for text in (
        "let x = 1 in " * 400 + "x",
        "exists x : [0, 1], " * 400 + "0 < 1",
        "is_true (mkbool " * 150 + "(0 < 1)" + " (1 < 0))" * 150))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {"PYTHONPATH": os.path.join(root, "src"), "PATH": "/usr/bin:/bin",
           "PYTHONIOENCODING": "utf-8"}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    proc = subprocess.run(
        [sys.executable, "-m", "msl"], input=script, text=True,
        encoding="utf-8", capture_output=True, timeout=120, cwd=root,
        env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "real = 1 ± 0\nprop = True\nprop = True\n"


# --- numbers past Python's int/str conversion limit ------------------------------------

BIG = "1" * (sys.get_int_max_str_digits() + 700)


def test_overlong_numbers_are_located_errors():
    for source, col in ((f"{BIG};;", 1), (f"#precision 1/{BIG};;", 14),
                        (f"exists x : [0, {BIG}], x < 1;;", 16)):
        state = SessionState()
        _, out, err, had_error, _ = run_script(source, state)
        assert had_error and out == ""
        assert err == (f"error: 1:{col}: number of {len(BIG)} characters "
                       "is too long\n")
        _, out, err, had_error, _ = run_script("1 + 1;;", state)
        assert (out, err, had_error) == ("real = 2 ± 0\n", "", False)


def test_unprintable_result_is_a_located_error():
    for fmt in ("decimal", "interval"):
        _, out, err, had_error, _ = run_script(
            "1;;\n2 ^ 100000;;\n1 + 1;;", SessionState(fmt=fmt))
        assert had_error
        assert err == "error: 2:1: the result has too many digits to print\n"
        assert out.splitlines() == [render(RealBall(F(n), F(0)), fmt)
                                    .join(("real = ", "")) for n in (1, 2)]
