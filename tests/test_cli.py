"""Session execution, rendering, directives, REPL, and exit codes."""

import io
import os
import random
import subprocess
import sys
from fractions import Fraction

from msl.cli import (
    SessionState, decimal_str, execute_source, main, render,
)
from msl.evaluator import (
    BoolFF, BoolTT, Diverged, FunctionValue, PropFalseProven, PropTrue,
    RealBall, TupleOf,
)
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
    assert out == (2 * witness + "real = 2 ± 0.000274658203125\n"
                   + 4 * witness + "real = 1.5 ± 0.00001049041748046875\n")


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


def test_nested_restrictions_unwrap():
    _, out, _, had_error, _ = run_script("(1 < 2) ~> ((3 < 4) ~> 7);;")
    assert not had_error
    assert out == "real = 7 ± 0\n"


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


def test_deep_nesting_is_reported_not_raised():
    _, out, err, had_error, had_div = run_script(
        "(" * 10_000 + "1" + ")" * 10_000 + ";;")
    assert (had_error, had_div) == (True, False)
    assert out == ""
    assert err == "error: 1:1: expression too deeply nested\n"
    _, out, err, had_error, had_div = run_script(
        "(" * 80 + "1" + ")" * 80 + ";;")
    assert (had_error, had_div) == (False, False)
    assert (out, err) == ("real = 1 ± 0\n", "")


def test_a_deep_item_is_located_and_the_next_one_runs():
    _, out, err, had_error, had_div = run_script(
        "1 + 1;;\n" + " + ".join(["1"] * 600) + ";;\n2 * 3;;")
    assert (had_error, had_div) == (True, False)
    assert err == "error: 2:1: expression too deeply nested\n"
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


def test_main_trace_flag(tmp_path):
    code, out, _ = _run_main(["--trace-witness"], tmp_path,
                             "exists x : [0,1], x < 1;;")
    assert code == 0
    assert "(witness x in [0, 1])" in out


def test_repl_via_subprocess():
    script = "let two = 2;;\ntwo;;\n"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # The child imports msl from this checkout's src only, never an
    # installed copy; both ends of the pipe speak UTF-8 whatever the locale.
    proc = subprocess.run(
        [sys.executable, "-m", "msl"], input=script, text=True,
        encoding="utf-8", capture_output=True, timeout=120, cwd=root,
        env={"PYTHONPATH": os.path.join(root, "src"), "PATH": "/usr/bin:/bin",
             "PYTHONIOENCODING": "utf-8"})
    assert proc.returncode == 0, proc.stderr
    assert "two : real = 2 ± 0" in proc.stdout


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
