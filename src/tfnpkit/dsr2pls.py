"""Compile a downward-query program into an implicit sink-of-DAG instance.

A :class:`DsrProgram` is the replayable protocol of a recursive algorithm:
on a size-k instance it asks exactly ``query_count(k)`` sub-queries of size
k-1, each determined by the instance and the answered prefix, and then
finalizes.  The intermediate configurations of the depth-first run are
encoded as fixed-width bit strings (state tables); the successor function
advances one configuration per step, is the identity on invalid strings,
and loops on the finished configuration.  Following the successor from the
initial state therefore walks a path whose last state carries the answer.
One recursive pass over a table both validates it and computes its
successor, so validity and the step cannot disagree.  The compiled
valuation is the position along the walk, and 0 on any string that is not
a valid table for the compiled instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .bits import check_bits, zeros
from .errors import DimensionError, MalformedInstanceError, SizingError
from .problems import ImplicitSodInstance, SuccessorOracle

Answered = tuple[tuple[str, str], ...]
Path = tuple[int, ...]


class DsrProgram:
    """Deterministic downward-query protocol.

    ``path`` identifies the querying cell as the tuple of 1-based slot
    indices from the root; programs whose relation depends on the position
    in the query tree (rather than on the instance bits alone) may use it,
    all others ignore it.  Replays must be deterministic: the same instance
    and answered prefix always yield the same next query.
    """

    def query_count(self, size: int) -> int:
        raise NotImplementedError

    def solution_len(self, size: int) -> int:
        raise NotImplementedError

    def next_query(self, inst: str, answered: Sequence[tuple[str, str]], path: Path = ()) -> str:
        raise NotImplementedError

    def finalize(self, inst: str, answered: Sequence[tuple[str, str]], path: Path = ()) -> str:
        raise NotImplementedError

    def verify(self, inst: str, sol: str, path: Path = ()) -> bool:
        raise NotImplementedError


_BAD = object()


class StateSpace:
    """Codec and walk semantics for the state tables of one program at one
    top-level size.

    A size-k table is the root cell followed by ``query_count(k)`` row-one
    cells and the shared deeper region, which is exactly a size-(k-1) table
    minus its root cell.  Every cell is [flag][instance bits][flag][solution
    bits]; an absent component has flag 0 and all-zero field bits, and any
    other encoding makes the whole table invalid.

    One recursive pass, :meth:`_step`, both validates a table and advances
    it: :meth:`successor` is the identity where the pass fails and
    :meth:`is_valid` reports whether it succeeds, so invalid strings are
    fixed points by construction.  The valuation :func:`compile_pls` builds
    on these tables is 0 on every string that is not valid for its ``x``.
    """

    def __init__(self, prog: DsrProgram, n: int):
        if n < 1:
            raise DimensionError("state tables need size at least 1")
        self.prog = prog
        self.n = n
        self._p = {k: prog.query_count(k) for k in range(1, n + 1)}
        self._q = {k: prog.solution_len(k) for k in range(1, n + 1)}
        if self._p[1] != 0:
            raise DimensionError("size-1 instances must make no queries")
        self._cw = {k: 2 + k + self._q[k] for k in range(1, n + 1)}
        widths = {1: self._cw[1]}
        for k in range(2, n + 1):
            widths[k] = self._cw[k] + self._p[k] * self._cw[k - 1] + widths[k - 1] - self._cw[k - 1]
        self._width = widths

    def width(self, k: int | None = None) -> int:
        return self._width[self.n if k is None else k]

    # -- cell codec --

    def _make_cell(self, k: int, inst: str | None, sol: str | None) -> str:
        q = self._q[k]
        inst_part = "1" + inst if inst is not None else "0" + zeros(k)
        sol_part = "1" + sol if sol is not None else "0" + zeros(q)
        return inst_part + sol_part

    def _read_cell(self, chunk: str, k: int):
        inst_bits, sol_bits = chunk[1 : 1 + k], chunk[2 + k :]
        inst = inst_bits if chunk[0] == "1" else None
        sol = sol_bits if chunk[1 + k] == "1" else None
        if inst is None and "1" in inst_bits:
            return _BAD
        if sol is None and "1" in sol_bits:
            return _BAD
        if inst is None and sol is not None:
            return _BAD
        return inst, sol

    def root_cell(self, state: str, k: int | None = None):
        k = self.n if k is None else k
        return self._read_cell(state[: self._cw[k]], k)

    def row_one_cells(self, state: str, k: int | None = None):
        k = self.n if k is None else k
        if k == 1:
            return []
        w = self._cw[k - 1]
        base = self._cw[k]
        return [
            self._read_cell(state[base + j * w : base + (j + 1) * w], k - 1)
            for j in range(self._p[k])
        ]

    def row_cells(self, state: str, depth: int):
        """Cells of top-level row ``depth`` (1-based); used by the position
        arithmetic, which scans occupancy without recursing."""
        if not 1 <= depth <= self.n - 1:
            raise DimensionError(f"row {depth} out of range")
        base = self._cw[self.n]
        for i in range(1, depth):
            base += self._p[self.n - i + 1] * self._cw[self.n - i]
        w = self._cw[self.n - depth]
        return [
            self._read_cell(state[base + j * w : base + (j + 1) * w], self.n - depth)
            for j in range(self._p[self.n - depth + 1])
        ]

    def _subtable(self, state: str, j: int, k: int) -> str:
        w = self._cw[k - 1]
        base = self._cw[k]
        cell = state[base + (j - 1) * w : base + j * w]
        tail = state[base + self._p[k] * w :]
        return cell + tail

    def _embed_subtable(self, state: str, j: int, k: int, sub: str) -> str:
        w = self._cw[k - 1]
        base = self._cw[k]
        cell, tail = sub[:w], sub[w:]
        row_rest = state[base + j * w : base + self._p[k] * w]
        return state[: base + (j - 1) * w] + cell + row_rest + tail

    # -- semantics --

    def initial_state(self, x: str) -> str:
        check_bits(x, self.n)
        return self._make_cell(self.n, x, None) + zeros(self.width() - self._cw[self.n])

    def _scan_row_one(self, state: str, x: str, k: int, path: Path):
        """Validity conditions over row one: the filled cells form a prefix,
        their instances replay the program's query schedule, every answer
        verifies, and only the last filled cell may be unanswered.  Returns
        (answered_prefix, pending), where ``pending`` is the instance of an
        unanswered last cell or None, or returns None for an invalid row."""
        answered: list[tuple[str, str]] = []
        pending: str | None = None
        blank_seen = False
        for slot, cell in enumerate(self.row_one_cells(state, k), start=1):
            if cell is _BAD:
                return None
            inst, sol = cell
            if inst is None:
                blank_seen = True
                continue
            if blank_seen or pending is not None:
                return None
            if inst != self.prog.next_query(x, tuple(answered), path):
                return None
            if sol is None:
                pending = inst
            elif not self.prog.verify(inst, sol, path + (slot,)):
                return None
            else:
                answered.append((inst, sol))
        return tuple(answered), pending

    def _step(self, state: str, x: str, k: int, path: Path) -> str | None:
        """Successor of a size-k table for instance ``x``, or None when the
        table is invalid: one pass both validates and advances."""
        root = self.root_cell(state, k)
        if root is _BAD or root[0] != x:
            return None
        sol = root[1]
        if sol is not None:
            if "1" in state[self._cw[k] :] or not self.prog.verify(x, sol, path):
                return None
            return state  # finished: the state is its own successor
        if k == 1:
            return self._make_cell(k, x, self.prog.finalize(x, (), path))
        scan = self._scan_row_one(state, x, k, path)
        if scan is None:
            return None
        answered, pending = scan
        if pending is not None:
            j = len(answered) + 1
            advanced = self._step(self._subtable(state, j, k), pending, k - 1, path + (j,))
            return None if advanced is None else self._embed_subtable(state, j, k, advanced)
        w = self._cw[k - 1]
        if "1" in state[self._cw[k] + self._p[k] * w :]:
            return None
        if len(answered) == self._p[k]:
            y = self.prog.finalize(x, answered, path)
            return self._make_cell(k, x, y) + zeros(self.width(k) - self._cw[k])
        base = self._cw[k] + len(answered) * w
        cell = self._make_cell(k - 1, self.prog.next_query(x, answered, path), None)
        return state[:base] + cell + state[base + w :]

    def _step_top(self, state: str, x: str) -> str | None:
        check_bits(x, self.n)
        if len(state) != self.width() or any(ch not in "01" for ch in state):
            return None
        return self._step(state, x, self.n, ())

    def is_valid(self, state: str, x: str) -> bool:
        return self._step_top(state, x) is not None

    def successor(self, state: str, x: str) -> str:
        nxt = self._step_top(state, x)
        return state if nxt is None else nxt  # invalid strings are isolated fixed points

    def walk(self, x: str, limit: int | None = None):
        """Yield the states from the initial one to the finished one."""
        state = self.initial_state(x)
        yield state
        steps = 0
        while True:
            nxt = self.successor(state, x)
            if nxt == state:
                return
            state = nxt
            yield state
            steps += 1
            if limit is not None and steps > limit:
                raise MalformedInstanceError(f"walk exceeded {limit} steps")


@dataclass(eq=False)
class CompiledPls:
    program: DsrProgram
    x: str
    machine: StateSpace
    instance: ImplicitSodInstance
    path_length: int
    sizing_flags: list[str] = field(default_factory=list)

    def extract(self, state: str) -> str:
        """Answer carried by a finished state; a state one step short of
        finished (its successor finishes) is accepted too, since that is
        what the sink-finding predicate points at."""
        root = self.machine.root_cell(state)
        if root is not _BAD and root[1] is not None:
            return root[1]
        advanced = self.machine.successor(state, self.x)
        root = self.machine.root_cell(advanced)
        if root is _BAD or root[1] is None:
            raise MalformedInstanceError("state does not carry or reach an answer")
        return root[1]


def _check_circuit_sizing(prog: DsrProgram, n: int, exponent: int) -> None:
    dims = prog.circuit_io_dims()
    budget_unit = (dims[0] * dims[1]) ** exponent
    base = prog.query_instance_size(())
    frontier: list[Path] = [()]
    for depth in range(1, n):
        nxt: list[Path] = []
        for path in frontier:
            for j in range(1, prog.query_count(n - depth + 1) + 1):
                sub = path + (j,)
                actual = prog.query_instance_size(sub)
                allowed = base + depth * budget_unit
                if actual > allowed:
                    raise SizingError(
                        f"query at {sub} has size {actual}, over the budget {allowed}"
                    )
                nxt.append(sub)
        frontier = nxt


def compile_pls(
    prog: DsrProgram, x: str, *, mode: str = "dsr", blowup_exponent: int = 2
) -> CompiledPls:
    """Package the program's walk on ``x`` as an implicit sink-of-DAG
    instance: the successor advances state tables, the valuation is the
    position along the unique path (0 for invalid states), and the source is
    the initial state.  The answer is read off the root cell of the final
    state.

    In ``circuit-dsr`` mode, programs that report per-query circuit sizes
    are checked against the declared polynomial growth budget (a violation
    raises :class:`SizingError`); in ``dsr`` mode the state width is
    compared against the query-count * solution-length * size^2 bound and a
    discrepancy is recorded as a flag rather than an error.
    """
    from .svl import _position_for, path_length  # svl builds on this module

    n = len(x)
    machine = StateSpace(prog, n)
    flags: list[str] = []
    if mode == "circuit-dsr":
        if not hasattr(prog, "query_instance_size"):
            raise SizingError("program does not report query sizes for circuit-mode checking")
        _check_circuit_sizing(prog, n, blowup_exponent)
    else:
        bound = prog.query_count(n) * prog.solution_len(n) * n * n
        if machine.width() >= bound:
            flags.append(f"state width {machine.width()} is not below the bound {bound}")

    succ = SuccessorOracle(fn=lambda s: machine.successor(s, x), n=machine.width())
    instance = ImplicitSodInstance(
        succ=succ,
        valuation=lambda s: _position_for(prog, s, machine, x),
        source=machine.initial_state(x),
    )
    return CompiledPls(
        program=prog,
        x=x,
        machine=machine,
        instance=instance,
        path_length=path_length(prog, n),
        sizing_flags=flags,
    )
