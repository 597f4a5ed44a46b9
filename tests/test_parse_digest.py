"""The front end's output, pinned by one digest.

Every text of a fixed corpus is read by the parser, and each reading is
written down in full: every node's class, each of its fields (its data,
its children and its ``loc``), or the error's class, message and
location.  The md5 of all of them is committed as
``tests/golden/parse.total``.  A change to the lexer or the parser that
is meant to leave its output alone keeps that digest; one that moves an
output on purpose updates the file and says what moved.

The corpus: the shipped examples; the setup and every item source of
each benchmark workload at seeds 101 and 5 (read from
``perfbench/workloads.py``, which this test does not change); closed
well-typed terms from ``TypedGen``, printed with ``pretty_print``; and
prefixes of all of these, which end inside a comment, a string, a
numeral or a form, for the error paths.
"""

import hashlib
import os
import random
import sys
from dataclasses import fields, is_dataclass

from msl.prelude import asset_path
from msl.syntax import (
    ArrowTy, BOOL, PROP, ProductTy, REAL, SourceError, parse_expression,
    parse_program, pretty_print,
)
from test_properties import TypedGen

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOTAL = os.path.join(ROOT, "tests", "golden", "parse.total")

SEEDS = (101, 5)
#: A text's prefixes: the first ``len * j // PIECES`` characters, 0 < j.
PIECES = 7


def _workload_texts(monkeypatch):
    """The setup and item sources of every workload at ``SEEDS``."""
    # perfbench has its own ``oracles`` module, which ``workloads`` imports
    # by that name; the tests' ``oracles`` is put back afterwards.
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    monkeypatch.delitem(sys.modules, "oracles", raising=False)
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    from workloads import WORKLOADS
    texts = []
    for seed in SEEDS:
        for name in sorted(WORKLOADS):
            setup, items = WORKLOADS[name](seed)
            texts += [setup, *(item["src"] for item in items)]
    return texts


def _term_texts():
    """Printed closed terms of each generated type."""
    rng = random.Random(2_718)
    gen = TypedGen(rng)
    types = [REAL, PROP, BOOL, ProductTy((REAL, PROP)), ArrowTy(REAL, BOOL)]
    return [pretty_print(gen.expr(rng.choice(types), {}, depth=3))
            for _ in range(300)]


def _dump(x):
    """The whole of a parser output as text: a dataclass by its class and
    every field, ``loc`` included."""
    if is_dataclass(x):
        return (type(x).__name__ + "("
                + ", ".join(f"{f.name}={_dump(getattr(x, f.name))}"
                            for f in fields(x)) + ")")
    if isinstance(x, (tuple, list)):
        return "[" + ", ".join(map(_dump, x)) + "]"
    return f"{type(x).__name__}:{x!r}"


def _reading(read, text):
    """The dump of what ``read`` makes of ``text``, and whether it is an
    error."""
    try:
        return _dump(read(text)), False
    except SourceError as exc:
        return f"{type(exc).__name__} {exc.message!r} {exc.loc!r}", True


def _corpus(monkeypatch):
    programs = []
    for name in ("prelude", "car", "roots"):
        with open(asset_path(f"{name}.msl"), encoding="utf-8") as handle:
            programs.append(handle.read())
    programs += _workload_texts(monkeypatch)
    whole = [(parse_program, t) for t in programs]
    whole += [(parse_expression, t) for t in _term_texts()]
    return whole + [(read, text[:len(text) * j // PIECES])
                    for read, text in whole for j in range(1, PIECES)]


def corpus_digest(monkeypatch):
    """The md5 of every reading of the corpus, and how many of them are
    errors."""
    digest, counts = hashlib.md5(), {"trees": 0, "errors": 0}
    for read, text in _corpus(monkeypatch):
        reading, failed = _reading(read, text)
        counts["errors" if failed else "trees"] += 1
        digest.update(f"{read.__name__} {text!r}\n{reading}\n"
                      .encode("utf-8"))
    return digest.hexdigest(), counts


def test_the_front_end_reads_the_corpus_as_pinned(monkeypatch):
    digest, counts = corpus_digest(monkeypatch)
    assert min(counts.values()) > 500, counts
    with open(TOTAL, encoding="utf-8") as handle:
        assert digest == handle.read().split()[0]
