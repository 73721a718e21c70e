import itertools
import os
import random
from pathlib import Path

import pytest

# ``pythonpath`` in pyproject.toml reaches this process only; the CLI tests
# also start ``python -m tfnpkit`` subprocesses, which read the environment.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

from tfnpkit import Circuit, circuit_from_table
from tfnpkit.circuit import OP_AND, OP_CONST, OP_INPUT, OP_NOT


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


def iter_tables(n: int):
    """All successor tables on n bits, as lists."""
    space = 1 << n
    return itertools.product(range(space), repeat=space)


def table_circuit(table, n, m=None, name="succ"):
    return circuit_from_table(list(table), n, m if m is not None else n, name=name)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
