"""Shipped object-language sources.

The ``.msl`` files under ``msl/examples`` are documentation and the
prelude that ``#use "prelude.msl"`` loads; the tests pin what each of
their evaluations prints (``tests/golden``).
"""

from __future__ import annotations

from importlib import resources

from .syntax import parse_program

ASSET_DIR = resources.files(__package__) / "examples"


def asset_source(name):
    """The text of a shipped ``.msl`` file."""
    return (ASSET_DIR / name).read_text(encoding="utf-8")


def asset_path(name):
    return str(ASSET_DIR / name)


def load_prelude():
    """Parse the shipped prelude (tt/ff, bneg/band/bor, max/min)."""
    return parse_program(asset_source("prelude.msl"))
