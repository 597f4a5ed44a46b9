"""The shipped examples print exactly the bytes committed under
``tests/golden``: ``<name>.<format>.out`` is the standard output of
``msl <name>.msl --no-repl --trace-witness --format <format>`` (witness
tracing on, as ``#trace on;;`` turns it on), and of the same example
piped into the REPL, ``msl --trace-witness --format <format> <
<name>.msl``.  ``benchmark_items.out`` is the transcript of the
benchmark-shaped items below.  A change that is meant to change an
answer updates these files and says which lines moved."""

import io
import os
from fractions import Fraction

import pytest

from msl.cli import SessionState, execute_source, main
from msl.prelude import asset_path

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def assert_prints_golden(capsys, code, name, fmt):
    out, err = capsys.readouterr()
    with open(os.path.join(GOLDEN, f"{name}.{fmt}.out"), encoding="utf-8",
              newline="") as handle:
        assert (code, err, out) == (0, "", handle.read())


@pytest.mark.parametrize("fmt", ["decimal", "interval"])
@pytest.mark.parametrize("name", ["prelude", "car", "roots"])
def test_shipped_example_prints_the_committed_bytes(capsys, name, fmt):
    code = main([asset_path(f"{name}.msl"), "--no-repl", "--trace-witness",
                 "--format", fmt])
    assert_prints_golden(capsys, code, name, fmt)


@pytest.mark.parametrize("fmt", ["decimal", "interval"])
@pytest.mark.parametrize("name", ["prelude", "car", "roots"])
def test_shipped_example_piped_into_the_repl_prints_the_committed_bytes(
        capsys, monkeypatch, name, fmt):
    with open(asset_path(f"{name}.msl"), encoding="utf-8") as handle:
        monkeypatch.setattr("sys.stdin", io.StringIO(handle.read()))
    code = main(["--trace-witness", "--format", fmt])
    assert_prints_golden(capsys, code, name, fmt)


# Benchmark-shaped items: one session per workload, built as the
# benchmark builds it (interval format), and each item run with its own
# precision and step budget.  The committed bytes pin the exact answers
# of the cut, quantifier and session readings of the evaluator.
CUTS_SETUP = """#use "prelude.msl";;
let sqrt = fun a : real =>
  cut y : [0, 64] left (y < 0 \\/ y * y < a) right (y > 0 /\\ y * y > a);;
let cbrt = fun a : real =>
  cut y : [0, 16] left (y ^ 3 < a) right (y ^ 3 > a);;
let golden = fun a : real =>
  cut y : [0, 64] left (y < 0 \\/ y * y + y < a)
                  right (y > 0 /\\ y * y + y > a);;
let sqrt_of = fun a : real =>
  cut r : [0, 64] left (r < 0 \\/ r * r < a) right (r > 0 /\\ r * r > a);;
"""
E6, E45, E48, E100 = ("1/1" + "0" * k for k in (6, 45, 48, 100))
# A cut whose Newton slope goes through a division.
SLOPE_THROUGH_DIVISION = ("cut y : [0, 4] left (y / (y + 1) < 2/3) "
                          "right (y / (y + 1) > 2/3);;")
BENCHMARK_SESSIONS = (
    ("cuts", CUTS_SETUP, (
        ("sqrt 713;;", E6, 100_000),
        ("sqrt 713;;", E48, 100_000),
        ("sqrt_of (sqrt 5);;", E6, 100_000),
        ("sqrt_of (sqrt 5);;", E48, 100_000),
        ("max (sqrt 713) (cbrt 500);;", E6, 100_000),
        ("max (sqrt 713) (cbrt 500);;", E48, 100_000),
        ("min (sqrt 713) (cbrt 9);;", E6, 100_000),
        ("min (sqrt 713) (cbrt 9);;", E48, 100_000),
        ("golden 758;;", E6, 100_000),
        ("golden 758;;", E48, 100_000),
        ("cbrt 146;;", E6, 100_000),
        ("cbrt 146;;", E48, 100_000),
        (SLOPE_THROUGH_DIVISION, E6, 100_000),
        (SLOPE_THROUGH_DIVISION, E48, 100_000),
        ("cut y : (-inf, 0] left (y < (-5)) right (y > (-5));;", E6,
         100_000),
        ("cut x : (-inf, inf) left (x < 2 ^ 300) right (x > 2 ^ 300);;", E6,
         1000),
        # Interval Newton steps paced by the precision: a scaled cut, an
        # exact dyadic root, a deep precision and a comparison.
        ("1000000 * sqrt 2;;", E6, 100_000),
        ("golden 552;;", E45, 100_000),
        ("sqrt 2;;", E100, 100_000),
        ("sqrt 2 < 14142135623731/10000000000000;;", "1/1000", 100_000),
    )),
    ("quantifiers", '#use "prelude.msl";;\n#trace on;;\n', (
        ("forall x : [0, 1], (-1) * x * x + (2/3) * x + (1/4) "
         "< 13/36 + 1/1000;;", "1/1000", 100_000),
        ("forall x : [0, 1], (-1) * x * x + (2/3) * x + (1/4) "
         "< 13/36 - 1/1000;;", "1/1000", 100_000),
        ("exists x : [0, 1], (3/2) * x * x + (-6/5) * x + (1/2) "
         "< 13/50 + 1/100;;", "1/1000", 100_000),
        ("exists x : [0, 1], (3/2) * x * x + (-6/5) * x + (1/2) "
         "< 13/50 - 1/1000;;", "1/1000", 100_000),
        ("exists x : [0, 1], exists y : [0, 1], (-1) * x * x + (2/3) * x "
         "+ (-1) * y * y + (4/5) * y > 61/225 - 1/100;;", "1/1000", 100_000),
        ("forall x : [0, 1], x * (1 - x) < 1/4;;", "1/1000", 20),
    )),
    ("session", '#use "car.msl";;\n#use "roots.msl";;\n', (
        ("accel (-5) 10;;", "1/1000", 100_000),
        ("let x3 = (-27/2);; accel x3 (7/4);;", "1/1000", 100_000),
        ("roots_interval (fun x : real => 2 * x * x + (-3) * x + (1/2));;",
         "1/1000", 100_000),
        ("let f1 = (fun x : real => (-1) * x * x + (1/4) * x + (-5/8));; "
         "roots_interval f1;;", "1/1000", 100_000),
    )),
)


def benchmark_transcript():
    """Each item's source, then what it printed to out and err."""
    lines = []
    for name, setup, items in BENCHMARK_SESSIONS:
        state = SessionState(fmt="interval")
        execute_source(state, setup, out=io.StringIO(), err=io.StringIO())
        for source, precision, steps in items:
            state.precision, state.step_budget = Fraction(precision), steps
            out, err = io.StringIO(), io.StringIO()
            execute_source(state, source, out=out, err=err)
            lines.append(f"## {name}: {source}\n{out.getvalue()}"
                         f"{err.getvalue()}")
    return "".join(lines)


def test_benchmark_shaped_items_print_the_committed_bytes():
    with open(os.path.join(GOLDEN, "benchmark_items.out"), encoding="utf-8",
              newline="") as handle:
        assert benchmark_transcript() == handle.read()
