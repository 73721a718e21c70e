"""The four benchmark workloads.

Each workload turns a seeded random stream into items.  ``make`` builds one
item's inputs with the toolkit (this is the input generation that set-up
time covers), ``expect`` derives the accepted answers by a route that does
not call the toolkit (see :mod:`oracle`), and ``run`` does the item's work
and checks every answer.  The toolkit is reached only through the module
namespace passed in as ``lib``, and attributes are looked up at call time,
so the traced run sees every call through its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import oracle

MONITOR_MODE = "circuit-dsr-poly-blowup"
MONITOR_C = 2

WORK_DIR = Path(__file__).resolve().parent.parent / ".bench_work"


class Check:
    """Failed checks of one item.

    With ``tamper`` set, the first answer checked is replaced by one that is
    not accepted; the self-test uses this to show that a wrong answer is
    counted as a failure.
    """

    def __init__(self, tamper: bool = False):
        self.tamper = tamper
        self.failures: list[str] = []

    def that(self, ok: bool, label: str) -> None:
        if not ok:
            self.failures.append(label)

    def answer(self, label: str, got: Any, accepted: set[int], width: int) -> None:
        if self.tamper:
            self.tamper = False
            got = next(
                (format(v, f"0{width}b") for v in range(1 << width) if v not in accepted),
                "0" * (width + 1),
            )
        ok = (
            isinstance(got, str)
            and len(got) == width
            and set(got) <= {"0", "1"}
            and int(got, 2) in accepted
        )
        self.that(ok, f"{label}: {got!r} is not an accepted answer")


@dataclass
class Stats:
    """Per-run counts that are not times: query sizes from the public
    ``QueryTrace`` and the state-graph walk."""

    query_size_max: int = 0
    query_size_sum: int = 0
    query_depth_max: int = 0
    walk_steps: int = 0
    walk_s: float = 0.0
    state_bits: int = 0

    def add_queries(self, trace) -> None:
        sizes = [r.query_dims[2] for r in trace.records]
        self.query_size_sum += sum(sizes)
        self.query_size_max = max([self.query_size_max, *sizes])
        self.query_depth_max = max(self.query_depth_max, trace.levels())


@dataclass
class Item:
    kind: str
    n: int
    inst: Any = None
    tables: tuple = ()
    accepted: set[int] = field(default_factory=set)
    extra: dict = field(default_factory=dict)


def _bits(v: int, width: int) -> str:
    return format(v, f"0{width}b")


def _monitored_dsr(lib, inst, stats: Stats) -> str:
    trace = lib.dsr.QueryTrace()
    oracle_ = lib.dsr.monitored(lib.dsr.self_oracle(), MONITOR_MODE, c=MONITOR_C, trace=trace)
    answer = lib.dsr.run_dsr(inst, oracle_)
    stats.add_queries(trace)
    return answer


class _LongPath:
    """A single-solution path instance per item, solved by the monitored
    self-reduction; the accepted answer comes from the generated tables.

    Items alternate between two kinds whose costs differ.  The item count
    is odd, so one kind is in the majority and the median lands inside
    that kind's latencies rather than in the gap between the two kinds,
    where it would swing with the slowest and fastest items.
    """

    def expect(self, lib, item: Item) -> None:
        item.accepted = oracle.solutions(item.kind, item.tables)

    def run(self, lib, item: Item, check: Check, stats: Stats) -> None:
        check.answer("run_dsr", _monitored_dsr(lib, item.inst, stats), item.accepted, item.n)


class SodLongpath(_LongPath):
    """Worst-case sink-of-DAG: the successor visits all 2^n points in a
    seeded order from the all-zero point and stalls at the last; the
    valuation is the index along the path, so the only solution is the
    second-to-last point and the recursion makes 2^m - 2 queries."""

    name = "sod-longpath"
    n = 6
    items = 5
    rounds = 10
    traced_items = 8

    def make(self, lib, rng, index: int) -> Item:
        n, space = self.n, 1 << self.n
        rest = list(range(1, space))
        rng.shuffle(rest)
        path = [0] + rest
        succ = list(range(space))
        val = [0] * space
        for i, p in enumerate(path):
            val[p] = i
        for a, b in zip(path, path[1:]):
            succ[a] = b
        cf = lib.circuit.circuit_from_table
        s = cf(succ, n, n, name="succ")
        v = cf(val, n, n, name="valuation")
        if index % 2 == 0:
            return Item("sink-of-dag", n, lib.problems.SodInstance(s, v), (succ, val))
        inst = lib.problems.SodWithSourceInstance(s, v, _bits(0, n))
        return Item("sink-of-dag-with-source", n, inst, (succ, val))


class IterLongpath(_LongPath):
    """Long ascending iteration paths: from the all-zero point the successor
    visits a seeded nine-in-ten subset of the points in increasing order and
    stalls at the last; every other point is fixed."""

    name = "iter-longpath"
    n = 10
    items = 7
    rounds = 5
    traced_items = 6

    def make(self, lib, rng, index: int) -> Item:
        n, space = self.n, 1 << self.n
        path = [0] + [x for x in range(1, space) if rng.random() < 0.9]
        succ = list(range(space))
        for a, b in zip(path, path[1:]):
            succ[a] = b
        s = lib.circuit.circuit_from_table(succ, n, n, name="succ")
        if index % 2 == 0:
            return Item("iter", n, lib.problems.IterInstance(s), (succ,))
        inst = lib.problems.IterWithSourceInstance(s, _bits(0, n))
        return Item("iter-with-source", n, inst, (succ,))


# reduction name and the kind of its target, per source kind
REDUCTIONS = {
    "iter": (("iter_to_sod", "sink-of-dag"), ("add_source", "iter-with-source")),
    "iter-with-source": (("drop_source", "iter"),),
    "sink-of-dag": (("sod_to_iter", "iter-with-source"), ("add_source", "sink-of-dag-with-source")),
    "sink-of-dag-with-source": (("drop_source", "sink-of-dag"),),
    "end-of-line": (),
}

# Target solutions pulled back per reduction.  When the all-zero point
# already answers a sink-of-DAG source, sod_to_iter emits a trivially
# solvable target on which nearly every point is a solution (1023 of them
# at n = 5); pulling back all of them made a third of the sweeps 60% slower
# and left the median bimodal.
PULLBACKS = 8

_PULLBACK_RE = re.compile(r"^# pullback: target solution \S+ -> source solution (\S+) verified=(\S+)$")
_WALK_RE = re.compile(r"^step=(\d+) position=(\d+) ")


def _spaced(values: list, count: int) -> list:
    """At most ``count`` values, evenly spaced through ``values`` and
    including the first and the last."""
    if len(values) <= count:
        return values
    return [values[round(i * (len(values) - 1) / (count - 1))] for i in range(count)]


def _reduced(lib, inst, fn_name: str, target_kind: str):
    """The reduction's target and up to ``PULLBACKS`` of its solutions, found
    from the target's truth tables with the clock stopped; the timed run
    checks that it builds an equal target and pulls these back."""
    try:
        target = getattr(lib.reductions, fn_name)(inst).target
    except Exception:  # the timed run calls it again and counts the failure
        return fn_name, None, []
    found = oracle.solutions(target_kind, oracle.tables(target, target_kind))
    return fn_name, target, _spaced(sorted(found), PULLBACKS)


def _cli(lib, argv: list[str], check: Check) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(argv)
    check.that(code == 0, f"tfnpkit {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


class SweepSmall:
    """Small random instances pushed through the whole toolkit.

    An item is one sweep, as the acceptance sweeps run them: at each size
    3, 4 and 5, a random instance of each of the five kinds taken through
    every step, then a command-line round trip on a random iter-with-source
    instance.  Single instances range over two orders of magnitude in cost,
    with a bimodal spread inside some kinds, which leaves a median over them
    unsteady from seed to seed; a whole sweep is a sum of many such parts.
    """

    name = "sweep-small"
    sizes = (3, 4, 5)
    items = 8
    rounds = 8
    traced_items = 8

    def make(self, lib, rng, index: int) -> Item:
        random_instance = lib.problems.random_instance
        parts = []
        for n in self.sizes:
            parts += [Item(kind, n, random_instance(kind, n, rng)) for kind in REDUCTIONS]
            gen_seed = rng.randrange(1 << 31)
            inst = random_instance("iter-with-source", n, random.Random(gen_seed))
            text = lib.problems.emit_instance(inst)
            parts.append(Item("cli", n, inst, extra={"gen_seed": gen_seed, "text": text}))
        return Item("sweep", max(self.sizes), extra={"parts": parts})

    def expect(self, lib, item: Item) -> None:
        for part in item.extra["parts"]:
            kind = "iter-with-source" if part.kind == "cli" else part.kind
            part.tables = oracle.tables(part.inst, kind)
            part.accepted = oracle.solutions(kind, part.tables)
            if part.kind != "cli":
                part.extra["reductions"] = [_reduced(lib, part.inst, *r) for r in REDUCTIONS[kind]]

    def run(self, lib, item: Item, check: Check, stats: Stats) -> None:
        for part in item.extra["parts"]:
            if part.kind == "cli":
                self._run_cli(lib, part, check)
            else:
                self._run_instance(lib, part, check, stats)

    def _run_instance(self, lib, item: Item, check: Check, stats: Stats) -> None:
        kind, n, acc = item.kind, item.n, item.accepted
        problems, solvers = lib.problems, lib.solvers
        parsed = problems.parse_instance(problems.emit_instance(item.inst))
        check.that(problems.well_formed(parsed), "parsed instance is not well formed")
        check.that(parsed == item.inst, "round trip changed the instance")
        check.answer("solve_path", solvers.solve_path(parsed), acc, n)
        smallest = solvers.solve_exhaustive(parsed)
        check.that(smallest == _bits(min(acc), n), f"solve_exhaustive: {smallest!r} is not the smallest")
        for fn_name, target, witnesses in item.extra["reductions"]:
            result = getattr(lib.reductions, fn_name)(parsed)
            check.that(result.target == target, f"{fn_name}: target differs from the expected one")
            check.that(bool(witnesses), f"{fn_name}: target has no solution")
            for w in witnesses:
                check.answer(f"{fn_name} pullback", result.pullback(_bits(w, target.succ.n)), acc, n)
        if kind != "end-of-line":
            check.answer("run_dsr", _monitored_dsr(lib, parsed, stats), acc, n)

    def _run_cli(self, lib, item: Item, check: Check) -> None:
        n, acc = item.n, item.accepted
        WORK_DIR.mkdir(exist_ok=True)
        path = WORK_DIR / "sweep-instance.txt"
        text = _cli(lib, ["gen", "--kind", "iter-with-source", "--n", str(n),
                          "--seed", str(item.extra["gen_seed"])], check)
        check.that(text == item.extra["text"], "gen emitted a different instance")
        path.write_text(text, encoding="utf-8")
        check.answer("cli solve", _cli(lib, ["solve", str(path)], check).strip(), acc, n)
        reduced = _cli(lib, ["reduce", str(path), "--to", "iter"], check).splitlines()
        match = next(filter(None, map(_PULLBACK_RE.match, reduced)), None)
        check.that(match is not None and match.group(2) == "True", "reduce printed no verified pullback")
        check.answer("cli reduce", match.group(1) if match else None, acc, n)
        check.answer("cli dsr-run", _cli(lib, ["dsr-run", str(path)], check).strip(), acc, n)
        source = item.inst.source
        program = ["--problem", f"selfhost:{path}", "--x", source]
        compiled = dict(
            line.split("=", 1)
            for line in _cli(lib, ["compile-pls", *program], check).splitlines()
            if "=" in line and not line.startswith("#")
        )
        length = oracle.walk_length(n)
        check.that(compiled.get("path_length") == str(length), "compile-pls path length is wrong")
        lines = _cli(lib, ["walk", *program], check).splitlines()
        steps = [m for m in map(_WALK_RE.match, lines) if m]
        check.that(
            [(int(m.group(1)), int(m.group(2))) for m in steps] == [(i, i + 1) for i in range(length)],
            "walk positions do not rise by one per step",
        )
        answer = lines[-1][len("answer="):] if lines and lines[-1].startswith("answer=") else None
        check.answer("cli walk", answer, acc, n)


class PlsWalk:
    """State-graph compilation and a full walk of the recursive-combine
    fixture, then the verifiable-line promise check on a prefix."""

    name = "pls-walk"
    n = 8
    items = 3
    rounds = 28
    svl_bits = 5
    traced_items = 8

    def make(self, lib, rng, index: int) -> Item:
        return Item("pls", self.n, extra={"x": _bits(rng.randrange(1 << self.n), self.n)})

    def expect(self, lib, item: Item) -> None:
        item.accepted = {int(oracle.combine_answer(item.extra["x"]), 2)}

    def run(self, lib, item: Item, check: Check, stats: Stats) -> None:
        x = item.extra["x"]
        prog = lib.fixtures.RecursiveCombineProblem()
        compiled = lib.dsr2pls.compile_pls(prog, x)
        stats.state_bits = max(stats.state_bits, compiled.machine.width())
        started = time.perf_counter()
        states = 0
        rising = True
        for state in compiled.machine.walk(x):
            states += 1
            rising &= compiled.instance.valuation(state) == states
        stats.walk_s += time.perf_counter() - started
        stats.walk_steps += states - 1
        check.that(rising, "position does not rise by one per step")
        length = oracle.walk_length(self.n)
        check.that(states == length == compiled.path_length, f"walk visited {states} states, not {length}")
        check.answer("extract", compiled.extract(state), item.accepted, self.n)
        check.answer("solution", prog.solution(x), item.accepted, self.n)
        line = lib.svl.compile_svl(prog, x[: self.svl_bits])
        report = lib.svl.check_promise(line)
        check.that(
            report.ok and not report.partial and report.checked == line.target == oracle.walk_length(self.svl_bits),
            f"verifiable-line promise check failed: {report.violations[:2]}",
        )


WORKLOADS = {w.name: w for w in (SodLongpath(), IterLongpath(), SweepSmall(), PlsWalk())}
