import collections
import itertools
import os
import random
import sys
from pathlib import Path

import pytest

# ``pythonpath`` in pyproject.toml reaches this process only; the CLI tests
# also start ``python -m tfnpkit`` subprocesses, which read the environment.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

from tfnpkit import Circuit, circuit_from_table, emit_netlist, parse_netlist
from tfnpkit.circuit import OP_AND, OP_CONST, OP_INPUT, OP_NOT, Half, evaluate, successor_table


def naive_evaluate(c: Circuit, x: str) -> str:
    """Independent interpreter: recursive descent from each output, no
    shared pass with the production evaluator."""

    def value(ref: int) -> bool:
        g = c.gates[ref]
        if g.op == OP_INPUT:
            return x[g.a] == "1"
        if g.op == OP_CONST:
            return bool(g.a)
        if g.op == OP_NOT:
            return not value(g.a)
        if g.op == OP_AND:
            return value(g.a) and value(g.b)
        return value(g.a) or value(g.b)

    return "".join("1" if value(r) else "0" for r in c.outputs)


def eval_table(c: Circuit) -> list[int]:
    """Truth table as integers: entry x is the m-bit output on input value x."""
    return [int(word, 2) for word in successor_table(c)]


def iter_tables(n: int):
    """All successor tables on n bits, as lists."""
    space = 1 << n
    return itertools.product(range(space), repeat=space)


def table_circuit(table, n, m=None, name="succ"):
    return circuit_from_table(list(table), n, m if m is not None else n, name=name)


def parsed(c: Circuit) -> Circuit:
    """``c`` read back from its netlist: the same gates, and unlike a
    table-born circuit it carries no truth table."""
    return parse_netlist(emit_netlist(c))


def _count_reads(monkeypatch) -> tuple[collections.Counter, collections.Counter]:
    """Route every toolkit binding of ``evaluate`` through a counter of
    (circuit, point) pairs, and every binding of ``successor_table`` through
    a counter of tabulated circuits; the circuits are kept so that ids stay
    distinct."""
    evaluations: collections.Counter = collections.Counter()
    tables: collections.Counter = collections.Counter()
    kept = {}

    def counting_evaluate(c, x):
        kept[id(c)] = c
        evaluations[id(c), x] += 1
        return evaluate(c, x)

    def counting_table(c):
        kept[id(c)] = c
        tables[id(c)] += 1
        return successor_table(c)

    for name, module in list(sys.modules.items()):
        if name.startswith("tfnpkit"):
            if getattr(module, "evaluate", None) is evaluate:
                monkeypatch.setattr(module, "evaluate", counting_evaluate)
            if getattr(module, "successor_table", None) is successor_table:
                monkeypatch.setattr(module, "successor_table", counting_table)
    return evaluations, tables


def _counting_splits(monkeypatch) -> list:
    """Route ``Half``'s constructor through a recorder of each side it makes,
    as the form split and the rest of its arguments (the bit); the forms
    are kept so that ids stay distinct."""
    made, init = [], Half.__init__

    def recording_init(self, form, *args):
        init(self, form, *args)
        made.append((form, *args))

    monkeypatch.setattr(Half, "__init__", recording_init)
    return made


def _assert_only_roots_read(evaluations, tables, roots) -> None:
    """Each root circuit tabulated at most once (a table-born root, which
    carries its table, never), each point evaluated at most once, and no
    other circuit evaluated or tabulated."""
    assert {c for c, _ in evaluations} | set(tables) <= {id(r) for r in roots}
    assert max(tables.values(), default=0) <= 1
    assert max(evaluations.values(), default=0) <= 1


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
