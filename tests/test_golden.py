"""The shipped examples print exactly the bytes committed under
``tests/golden``: ``<name>.<format>.out`` is the standard output of
``msl <name>.msl --no-repl --trace-witness --format <format>`` (witness
tracing on, as ``#trace on;;`` turns it on).  A change that is meant to
change an answer updates these files and says which lines moved."""

import os

import pytest

from msl.cli import main
from msl.prelude import asset_path

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("fmt", ["decimal", "interval"])
@pytest.mark.parametrize("name", ["prelude", "car", "roots"])
def test_shipped_example_prints_the_committed_bytes(capsys, name, fmt):
    code = main([asset_path(f"{name}.msl"), "--no-repl", "--trace-witness",
                 "--format", fmt])
    out, err = capsys.readouterr()
    with open(os.path.join(GOLDEN, f"{name}.{fmt}.out"), encoding="utf-8",
              newline="") as handle:
        assert (code, err, out) == (0, "", handle.read())
