"""Compile a downward-query program into a sink-of-DAG instance with a
procedure root, which the sink-of-DAG self-reduction solves in
``circuit-dsr`` mode.

A :class:`DsrProgram` is the replayable protocol of a recursive algorithm:
on a size-k instance it asks exactly ``query_count(k)`` sub-queries of size
k-1, each determined by the instance and the answered prefix, and then
finalizes.  The intermediate configurations of the depth-first run are
encoded as fixed-width bit strings (state tables); the successor function
advances one configuration per step, is the identity on invalid strings,
and loops on the finished configuration.  Following the successor from the
initial state therefore walks a path whose last state carries the answer.
One pass over a table validates it, computes its successor and places it
on the walk, so validity, the step and the position cannot disagree; the
compiled valuation is that position, and 0 on any string that is not a
valid table for the compiled instance.  :class:`StateSpace` describes the
pass, which reads and writes each level in place, and the one pass it
remembers, so that a walk validates each state once.

Only for unique-solution programs are the valid tables exactly the walk of
``x``, which :mod:`tfnpkit.svl` relies on.  Where answers are not unique,
valid tables lie off the walk: for a ``HalvingIterProgram`` on ``x = 010``
that also accepts ``000``, flipping bit 4 (the root's answer flag) of the
initial state gives a finished root cell carrying ``000``.  Each such table
lies on a path whose position rises by one per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, product
from typing import Sequence

from .bits import check_bits, is_bits, zeros
from .errors import DimensionError, MalformedInstanceError, SizingError, SolveBoundError
from .problems import SodInstance, SuccessorOracle, circuit_size, io_dims

Path = tuple[int, ...]
_BLOWUP_EXPONENT = 2  # circuit sizing: each query level may add (inputs*outputs)**2


class DsrProgram:
    """Deterministic downward-query protocol.

    ``path`` identifies the querying cell as the tuple of 1-based slot
    indices from the root; programs whose relation depends on the position
    in the query tree (rather than on the instance bits alone) may use it,
    all others ignore it.  Replays must be deterministic: the same instance
    and answered prefix always yield the same next query, and the same
    answer always verifies or always fails.
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

    Every cell is addressed by its offset in the one state string.  A level
    is two offsets: ``at``, where its root cell starts, and ``rows``, where
    its row one starts; its deeper cells run to the end of the string.  The
    top level is ``(0, c_n)``, c_k being the width of a size-k cell, and the
    child of slot j of a size-k level is ``(rows + (j-1)*c_{k-1}, rows +
    query_count(k)*c_{k-1})``.

    One pass, :meth:`_step`, validates a table, advances it and places it
    on the walk.  It is one loop that follows the pending cells down from
    the root, each read once, by its parent's row scan, to the level that
    acts.  :meth:`successor` is the identity where the pass fails,
    :meth:`is_valid` reports whether it succeeds, and :meth:`position` is
    the 1-based index on the walk, or 0 where it fails.
    So invalid strings are fixed points by construction, and the valuation
    :func:`compile_pls` builds on these tables is 0 on every string that is
    not valid for its ``x``.

    The space remembers its last valid pass: its ``(state, x)`` pair, the
    state's value as a binary number, the pass's result and its trail, one
    record per scanned level.  :meth:`walk`
    yields a state and then asks its successor, so a caller that reads the
    yielded state's position in between pays one pass per state, not two.
    A pass for the same ``x`` keeps the records of the levels whose row one
    ends at or before the first character where its table differs from the
    remembered one, and resumes below the deepest of them.  A level's scan
    reads the table only up to the end of its own row one, and replays are
    deterministic, so a kept record is the scan the new table would make;
    the level that acts checks the new table.  A walk step writes the
    deepest rows, so its next pass scans the row it wrote and at most one
    row of a level it has just opened, and no other.  An invalid table
    never replaces the remembered pass, so one-bit flips asked in between,
    as a promise check asks them, cost the next on-path state nothing.
    Only that one pass is kept: a memo of every placed state would grow
    with the walk.
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
        row_widths = (self._p[k + 1] * self._cw[k] for k in range(n - 1, 0, -1))
        # offsets of top-level rows 1 .. n-1, then the end of the table
        *self._rows, self._width = accumulate(row_widths, initial=self._cw[n])
        self._length = {1: 2}
        for k in range(2, n + 1):  # initial and finished, plus one sub-walk per query
            self._length[k] = 2 + self._p[k] * self._length[k - 1]
        # the last valid pass: (state, its value, x, result, trail); no pair matches _BAD
        self._last: tuple = (_BAD, 0, _BAD, None, [])

    def width(self) -> int:
        return self._width

    def path_length(self, k: int | None = None) -> int:
        """Number of states on the walk of a size-k instance."""
        return self._length[self.n if k is None else k]

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

    def root_cell(self, state: str):
        return self._read_cell(state[: self._cw[self.n]], self.n)

    def row_cells(self, state: str, depth: int):
        """Cells of top-level row ``depth`` (1-based); used by the position
        arithmetic, which scans occupancy without recursing."""
        if not 1 <= depth <= self.n - 1:
            raise DimensionError(f"row {depth} out of range")
        k, at = self.n - depth, self._rows[depth - 1]
        w = self._cw[k]
        return [self._read_cell(state[c : c + w], k) for c in range(at, at + self._p[k + 1] * w, w)]

    def occupancy(self, state: str, depth: int) -> int:
        """Number of filled cells in top-level row ``depth`` of a valid
        state: the instance flags, the first character of each cell."""
        if not 1 <= depth <= self.n - 1:
            raise DimensionError(f"row {depth} out of range")
        k, at = self.n - depth, self._rows[depth - 1]
        return state[at : at + self._p[k + 1] * self._cw[k] : self._cw[k]].count("1")

    # -- semantics --

    def initial_state(self, x: str) -> str:
        check_bits(x, self.n)
        return self._make_cell(self.n, x, None) + zeros(self._width - self._cw[self.n])

    def _scan_row_one(self, state: str, rows: int, deeper: int, x: str, k: int, path: Path):
        """Validity conditions over the cells of a size-k level's row one,
        ``state[rows:deeper]``: the filled cells form a prefix, their
        instances replay the program's query schedule, every answer
        verifies, and only the last filled cell may be unanswered.  Returns
        (answered_prefix, pending), where ``pending`` is the instance of an
        unanswered last cell or None, or None if invalid."""
        answered: list[tuple[str, str]] = []
        pending: str | None = None
        blank_seen = False
        w = self._cw[k - 1]
        for slot, c in enumerate(range(rows, deeper, w), start=1):
            cell = self._read_cell(state[c : c + w], k - 1)
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

    def _step(self, state: str, x: str) -> tuple[str, int] | None:
        """Whole successor string and 1-based walk position of a table for
        ``x``, or None when it is invalid.  One loop reads the top root cell,
        then follows the pending cells down, carrying the level's size k,
        instance ``inst``, slot ``path``, offsets ``(at, rows)`` and
        ``pos``, the count of walk states before its own sub-walk.  A
        pending cell is read once, by its parent's scan.  The level with no
        pending cell, or a size-1 leaf, acts and returns.

        Each scanned level leaves a record in the pass's trail: where its
        row one ends, then the loop's values after its scan.  A pass for the
        remembered ``x`` resumes after the deepest record it keeps."""
        _, last_value, last_x, _, trail = self._last
        value = int(state, 2)
        if x == last_x:
            first = len(state) - (value ^ last_value).bit_length()
            keep = len(trail)
            while keep and trail[keep - 1][0] > first:
                keep -= 1
            trail = trail[:keep]
        else:
            trail = []
        if trail:
            deeper, k, inst, path, at, rows, pos, answered, pending = trail[-1]
        else:
            k, inst, path, at, rows, pos = self.n, x, (), 0, self._cw[self.n], 0
            root = self._read_cell(state[:rows], k)
            if root is _BAD or root[0] != x:
                return None
            if root[1] is not None:
                if "1" in state[rows:] or not self.prog.verify(x, root[1], path):
                    return None
                placed = state, self._length[k]  # finished: the state is its own successor
                self._last = state, value, x, placed, trail
                return placed
            answered = None  # the top level is not scanned yet
        while True:
            if answered is not None:  # level k is scanned: it acts, or its pending cell opens
                if pending is None:
                    break
                j = len(answered) + 1
                k, inst, path, at, rows = k - 1, pending, path + (j,), rows + (j - 1) * self._cw[k - 1], deeper
            if k == 1:
                break
            deeper = rows + self._p[k] * self._cw[k - 1]
            scan = self._scan_row_one(state, rows, deeper, inst, k, path)
            if scan is None:
                return None
            answered, pending = scan
            # the root's state, then one whole sub-walk per answered query
            pos += 1 + len(answered) * self._length[k - 1]
            trail.append((deeper, k, inst, path, at, rows, pos, answered, pending))
        if k == 1:
            cell = self._make_cell(1, inst, self.prog.finalize(inst, (), path))
            placed = state[:at] + cell + state[at + self._cw[1] :], pos + 1
        elif "1" in state[deeper:]:
            return None
        elif len(answered) == self._p[k]:
            cell = self._make_cell(k, inst, self.prog.finalize(inst, answered, path))
            placed = state[:at] + cell + state[at + self._cw[k] : rows] + zeros(len(state) - rows), pos
        else:
            slot = rows + len(answered) * self._cw[k - 1]
            cell = self._make_cell(k - 1, self.prog.next_query(inst, answered, path), None)
            placed = state[:slot] + cell + state[slot + self._cw[k - 1] :], pos
        self._last = state, value, x, placed, trail
        return placed

    def _step_top(self, state: str, x: str) -> tuple[str, int] | None:
        last_state, _, last_x, placed, _ = self._last
        if x != last_x:
            check_bits(x, self.n)  # a compiled walk keeps one ``x``, checked at its first pass
        elif state == last_state:
            return placed  # the pass just made for this pair
        if len(state) != self._width or not is_bits(state):
            return None
        return self._step(state, x)

    def is_valid(self, state: str, x: str) -> bool:
        return self._step_top(state, x) is not None

    def successor(self, state: str, x: str) -> str:
        nxt = self._step_top(state, x)
        return state if nxt is None else nxt[0]  # invalid strings are isolated fixed points

    def position(self, state: str, x: str) -> int:
        """1-based index of ``state`` on the walk of ``x``; 0 for any string
        that is not a valid table for ``x``."""
        placed = self._step_top(state, x)
        return 0 if placed is None else placed[1]

    def walk(self, x: str, limit: int | None = None):
        """Yield the states from the initial one to the finished one.  With
        a ``limit``, a walk of more than ``limit`` steps yields its first
        ``limit + 1`` states and then raises :class:`SolveBoundError`, before
        the state past the limit."""
        state = self.initial_state(x)
        yield state
        steps = 0
        while True:
            nxt = self.successor(state, x)
            if nxt == state:
                return
            steps += 1
            if limit is not None and steps > limit:
                raise SolveBoundError(f"walk exceeded {limit} steps")
            state = nxt
            yield state


@dataclass(eq=False)
class CompiledPls:
    x: str
    machine: StateSpace
    instance: SodInstance  # a procedure root: the successor oracle, the position, the initial state
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


def check_circuit_sizing(prog: DsrProgram, n: int) -> None:
    """Circuit-DSR sizing of a program's size-``n`` query tree, measured on
    the program's own instances (``instance_for(path)``), each sized as its
    circuit plus a source as wide as the instance: the query at every slot
    path of depth d may be at most d * (inputs*outputs)**2 larger than the
    root, inputs and outputs being the root's.  A query over that budget, or
    a program with no per-path instances, raises :class:`SizingError`."""
    if not hasattr(prog, "instance_for"):
        raise SizingError("program has no per-path instances for circuit sizing")

    def sized(path: Path) -> int:
        inst = prog.instance_for(path)
        return circuit_size(inst) + inst.n

    inputs, outputs = io_dims(prog.instance_for(()))
    base, unit = sized(()), (inputs * outputs) ** _BLOWUP_EXPONENT
    for depth in range(1, n):  # depth by depth, each depth's paths in slot order
        allowed = base + depth * unit
        for path in product(*(range(1, prog.query_count(n - level) + 1) for level in range(depth))):
            if (actual := sized(path)) > allowed:
                raise SizingError(f"query at {path} has size {actual}, over the budget {allowed}")


def compile_pls(prog: DsrProgram, x: str) -> CompiledPls:
    """Package the program's walk on ``x`` as a sink-of-DAG instance with a
    procedure root: the successor advances state tables, the valuation is
    the position along the unique path (0 for invalid states), as wide as
    the path length, and the source is the initial state.  The answer is
    read off the root cell of the final state.

    The program is asked every width up to ``len(x)`` at once, so a
    program that refuses a width refuses the compile.  The state width is
    compared against the query-count * solution-length * size^2 bound and
    a discrepancy is recorded as a flag rather than an error; the circuit
    growth budget is :func:`check_circuit_sizing`'s.
    """
    n = len(x)
    machine = StateSpace(prog, n)
    flags: list[str] = []
    bound = prog.query_count(n) * prog.solution_len(n) * n * n
    if machine.width() >= bound:
        flags.append(f"state width {machine.width()} is not below the bound {bound}")
    succ = SuccessorOracle(fn=partial(machine.successor, x=x), n=machine.width())
    length, valuation = machine.path_length(), partial(machine.position, x=x)
    instance = SodInstance.from_procedure(succ, valuation, length.bit_length(), machine.initial_state(x))
    return CompiledPls(x=x, machine=machine, instance=instance, path_length=length, sizing_flags=flags)
