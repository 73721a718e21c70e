"""The traced benchmark run patches toolkit functions by name; every name it
lists must exist, so a refactor that deletes or renames one fails here."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing_module()
    entries = tracing.SPANS + tracing.COUNTED + tracing.FALLBACKS
    assert entries
    for _, module_name, attr in entries:
        owner = importlib.import_module(f"tfnpkit.{module_name}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"tfnpkit.{module_name}.{attr} is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"tfnpkit.{module_name}.{attr} is not callable"


def test_selftest_binding_resolves():
    """bench/selftest.py checks that the tracer wraps dsr's binding of evaluate."""
    dsr = importlib.import_module("tfnpkit.dsr")
    circuit = importlib.import_module("tfnpkit.circuit")
    assert dsr.evaluate is circuit.evaluate
