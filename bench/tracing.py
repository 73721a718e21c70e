"""Span recorder for the traced benchmark run.

The recorder wraps public functions and methods of the toolkit from the
outside; the toolkit's sources are not changed.  A function is replaced on
its defining module and on every other ``tfnpkit`` module that imported it
by name, so calls made through any binding are seen.  Spans (name, start,
end, parent span, item) are kept in memory and written out at the end; a
span's self time is its duration minus the durations of its direct
children.  Every patched attribute is put back when the recorder closes.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import time
from collections import defaultdict

# (span name, module, attribute; "Class.method" for methods)
SPANS = (
    ("circuit.evaluate", "circuit", "evaluate"),
    ("circuit.restrict_input", "circuit", "restrict_input"),
    ("circuit.project_outputs", "circuit", "project_outputs"),
    ("circuit.validate", "circuit", "Circuit.__post_init__"),
    ("circuit.size", "circuit", "size"),
    ("circuit.circuit_from_table", "circuit", "circuit_from_table"),
    ("circuit.parse_netlist", "circuit", "parse_netlist"),
    ("circuit.emit_netlist", "circuit", "emit_netlist"),
    ("gadgets.freeze_stage", "gadgets", "freeze_stage"),
    ("gadgets.split_pair", "gadgets", "split_pair"),
    ("gadgets.embed", "gadgets", "GateBuilder.embed"),
    ("gadgets.redirect_zero_inputs", "gadgets", "redirect_zero_inputs"),
    ("gadgets.combine_pair", "gadgets", "combine_pair"),
    ("problems.verify_solution", "problems", "verify_solution"),
    ("problems.well_formed", "problems", "well_formed"),
    ("problems.circuit_size", "problems", "circuit_size"),
    ("problems.parse_instance", "problems", "parse_instance"),
    ("problems.emit_instance", "problems", "emit_instance"),
    ("problems.random_instance", "problems", "random_instance"),
    ("solvers.solve_path", "solvers", "solve_path"),
    ("solvers.solve_exhaustive", "solvers", "solve_exhaustive"),
    ("reductions.iter_to_sod", "reductions", "iter_to_sod"),
    ("reductions.sod_to_iter", "reductions", "sod_to_iter"),
    ("reductions.add_source", "reductions", "add_source"),
    ("reductions.drop_source", "reductions", "drop_source"),
    ("dsr.query", "dsr", "MonitoredOracle.__call__"),
    ("dsr.monitor_check", "dsr", "MonitoredOracle.check"),
    ("dsr.run_dsr", "dsr", "run_dsr"),
    ("dsr2pls.compile_pls", "dsr2pls", "compile_pls"),
    ("dsr2pls.successor", "dsr2pls", "StateSpace.successor"),
    ("dsr2pls.is_valid", "dsr2pls", "StateSpace.is_valid"),
    ("svl.position", "svl", "position"),
    ("svl.compile_svl", "svl", "compile_svl"),
    ("svl.check_promise", "svl", "check_promise"),
    ("fixtures.verify", "fixtures", "RecursiveCombineProblem.verify"),
    ("fixtures.verify", "fixtures", "HalvingIterProgram.verify"),
    ("cli.main", "cli", "main"),
)

# Counted but not timed: called too often for a span to be worth its cost.
COUNTED = (("bits.check_bits.calls", "bits", "check_bits"),)

# Calls to the exponential successor walk made through one module's own
# binding: the fallbacks taken when a lift fails.
FALLBACKS = (
    ("dsr.fallback_walks", "dsr", "solve_path"),
    ("reductions.fallback_walks", "reductions", "solve_path"),
    ("fixtures.fallback_walks", "fixtures", "solve_path"),
)

COUNTERS = (
    "circuit.evaluate.gates",
    "gadgets.freeze_stage.gates_out",
    *(name for name, _, _ in COUNTED + FALLBACKS),
)

_REDUCTIONS = ("iter_to_sod", "sod_to_iter", "add_source", "drop_source")

# Every per-layer metric the traced run reports: (name, unit, better).
PER_LAYER = (
    *(
        (f"circuit.{fn}.{m}", "s" if m == "self_s" else "count", "lower")
        for fn, ms in (
            ("evaluate", ("calls", "self_s", "gates")),
            ("restrict_input", ("calls", "self_s")),
            ("project_outputs", ("calls", "self_s")),
            ("validate", ("calls", "self_s")),
            ("size", ("calls", "self_s")),
            ("circuit_from_table", ("calls", "self_s")),
            ("parse_netlist", ("self_s",)),
            ("emit_netlist", ("self_s",)),
        )
        for m in ms
    ),
    *(
        (f"gadgets.{fn}.{m}", "s" if m == "self_s" else "count", "lower")
        for fn, ms in (
            ("freeze_stage", ("calls", "self_s", "gates_out")),
            ("split_pair", ("calls", "self_s")),
            ("embed", ("calls", "self_s")),
            ("redirect_zero_inputs", ("calls", "self_s")),
            ("combine_pair", ("calls", "self_s")),
        )
        for m in ms
    ),
    *(
        (f"problems.{fn}.{m}", "s" if m == "self_s" else "count", "lower")
        for fn, ms in (
            ("verify_solution", ("calls", "self_s")),
            ("well_formed", ("calls", "self_s")),
            ("circuit_size", ("calls", "self_s")),
            ("parse_instance", ("self_s",)),
            ("emit_instance", ("self_s",)),
            ("random_instance", ("self_s",)),
        )
        for m in ms
    ),
    ("solvers.solve_path.calls", "count", "lower"),
    ("solvers.solve_path.self_s", "s", "lower"),
    ("solvers.solve_exhaustive.calls", "count", "lower"),
    ("solvers.solve_exhaustive.self_s", "s", "lower"),
    *((f"reductions.{fn}.self_s", "s", "lower") for fn in _REDUCTIONS),
    ("reductions.pullback.calls", "count", "lower"),
    ("reductions.pullback.self_s", "s", "lower"),
    ("reductions.fallback_walks", "count", "lower"),
    ("dsr.query.calls", "count", "lower"),
    ("dsr.query.self_s", "s", "lower"),
    ("dsr.query.depth_max", "count", "lower"),
    ("dsr.query.size_sum", "count", "lower"),
    ("dsr.query_size_max", "count", "lower"),
    ("dsr.monitor_check.calls", "count", "lower"),
    ("dsr.monitor_check.self_s", "s", "lower"),
    ("dsr.run_dsr.calls", "count", "lower"),
    ("dsr.fallback_walks", "count", "lower"),
    ("dsr.lift_ratio", "ratio", "higher"),
    ("dsr2pls.compile_pls.calls", "count", "lower"),
    ("dsr2pls.compile_pls.self_s", "s", "lower"),
    ("dsr2pls.successor.calls", "count", "lower"),
    ("dsr2pls.successor.self_s", "s", "lower"),
    ("dsr2pls.is_valid.calls", "count", "lower"),
    ("dsr2pls.is_valid.self_s", "s", "lower"),
    ("dsr2pls.state_bits", "bits", "lower"),
    ("svl.position.calls", "count", "lower"),
    ("svl.position.self_s", "s", "lower"),
    ("svl.compile_svl.self_s", "s", "lower"),
    ("svl.check_promise.self_s", "s", "lower"),
    ("fixtures.verify.calls", "count", "lower"),
    ("fixtures.verify.self_s", "s", "lower"),
    ("fixtures.fallback_walks", "count", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("bits.check_bits.calls", "count", "lower"),
    ("trace.items", "count", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.untraced.solve_s.p50", "s", "lower"),
    ("trace.traced.solve_s.p50", "s", "lower"),
    ("trace.overhead.solve_s.p50", "ratio", "lower"),
    ("trace.untraced.items_per_s", "1/s", "higher"),
    ("trace.traced.items_per_s", "1/s", "higher"),
    ("trace.overhead.items_per_s", "ratio", "lower"),
)

ITEM = "item"


class Tracer:
    """Records spans while installed; use as a context manager.

    ``item`` is the identifier stamped on each span; the runner sets it
    before each item, and spans recorded outside any item carry -1.
    """

    def __init__(self, lib):
        self.lib = lib
        self.spans: list = []  # (name, start, end, parent, item), indexed by span id
        self.counts: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.item = -1
        self._stack = [-1]
        self._patches: list = []  # (owner, attribute, original)

    # -- wrappers --

    def _timed(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.item)
            return result if after is None else after(args, result)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, replacement) -> None:
        for module in self.lib.modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, replacement)

    def _after(self, name: str):
        if name == "circuit.evaluate":
            def after(args, result):
                self.counts["circuit.evaluate.gates"] += len(args[0].gates)
                return result
        elif name == "gadgets.freeze_stage":
            def after(args, result):
                self.counts["gadgets.freeze_stage.gates_out"] += len(result.gates)
                return result
        elif name.startswith("reductions."):
            def after(args, result):
                pullback = self._timed("reductions.pullback", result.pullback)
                return dataclasses.replace(result, pullback=pullback)
        else:
            after = None
        return after

    # -- install and restore --

    def __enter__(self) -> "Tracer":
        try:
            for name, module_name, attr in SPANS:
                module = getattr(self.lib, module_name)
                if "." in attr:
                    cls_name, method = attr.split(".")
                    owner = getattr(module, cls_name)
                    self._set(owner, method, self._timed(name, vars(owner)[method], self._after(name)))
                else:
                    original = getattr(module, attr)
                    self._replace_everywhere(original, self._timed(name, original, self._after(name)))
            for name, module_name, attr in COUNTED:
                original = getattr(getattr(self.lib, module_name), attr)
                self._replace_everywhere(original, self._counted(name, original))
            for name, module_name, attr in FALLBACKS:
                module = getattr(self.lib, module_name)
                self._set(module, attr, self._counted(name, getattr(module, attr)))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def run_item(self, index: int, fn, *args) -> None:
        self.item = index
        try:
            self._timed(ITEM, fn)(*args)
        finally:
            self.item = -1

    # -- results --

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: a header, then one
        [id, parent, item, name, start, end] row per span, times in seconds
        from the first span's start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write(json.dumps({"fields": ["id", "parent", "item", "name", "start", "end"]}) + "\n")
            for sid, (name, start, end, parent, item) in enumerate(self.spans):
                out.write(json.dumps([sid, parent, item, name, start - origin, end - origin]) + "\n")


def summarize(spans) -> tuple[dict[str, int], dict[str, float]]:
    """Calls and summed self time per span name."""
    child = [0.0] * len(spans)
    for name, start, end, parent, item in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for sid, (name, start, end, parent, item) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - child[sid]
    return calls, self_s
