"""Path arithmetic over compiled walks and the verifiable-line construction
for unique-solution programs.

Positions are 1-based indices along the walk of a compiled program.  The
occupancy of a valid state determines its position: each level contributes
one step for its open cell plus a full sub-path length for every completed
cell before it.  Two independent implementations (an occupancy scan and a
sub-table recursion) are exposed and must agree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .bits import all_bitstrings
from .errors import InvalidStateError, PromiseViolation
from .dsr2pls import _BAD, DsrProgram, StateSpace
from .problems import SuccessorOracle, SvlInstance


def path_length(prog: DsrProgram, size: int) -> int:
    """Total number of states on the walk of a size-``size`` instance: two
    (initial and finished) plus one full sub-walk per query."""

    def pi(k: int) -> int:
        p = prog.query_count(k) if k >= 1 else 0
        if k <= 1 or p == 0:
            return 2
        return 2 + p * pi(k - 1)

    return pi(size)


def _require_valid(prog: DsrProgram, state: str, machine: StateSpace):
    root = machine.root_cell(state)
    if root is _BAD or root[0] is None or not machine.is_valid(state, root[0]):
        raise InvalidStateError("position is defined only for valid states")
    return machine, root


def position(prog: DsrProgram, state: str, machine: StateSpace) -> int:
    """Occupancy form: scan each row's filled prefix without recursing."""
    machine, root = _require_valid(prog, state, machine)
    n = machine.n
    if root[1] is not None:
        return path_length(prog, n)
    total = 1
    for depth in range(1, n):
        cells = machine.row_cells(state, depth)
        filled = [c for c in cells if c is not _BAD and c[0] is not None]
        if not filled:
            break
        j = len(filled)
        total += 1 + (j - 1) * path_length(prog, n - depth)
        if filled[-1][1] is not None:
            # the active cell is already answered: its whole sub-walk is behind us
            total += path_length(prog, n - depth) - 1
            break
    return total


def _position_for(prog: DsrProgram, state: str, machine: StateSpace, x: str) -> int:
    """Position of a state on the walk of ``x``, or 0 for any string that is
    not valid for ``x``.  Matching the root instance against ``x`` first
    leaves the one validity check to :func:`position`."""
    if len(state) != machine.width():
        return 0
    root = machine.root_cell(state)
    if root is _BAD or root[0] != x:
        return 0
    try:
        return position(prog, state, machine)
    except InvalidStateError:
        return 0


def position_recursive(prog: DsrProgram, state: str, machine: StateSpace) -> int:
    """Sub-table form: one level's position is one (for its root) plus the
    full sub-paths of the completed queries plus the recursive position of
    the active sub-table."""
    machine, root = _require_valid(prog, state, machine)

    def go(state: str, k: int) -> int:
        root = machine.root_cell(state, k)
        if root[1] is not None:
            return path_length(prog, k)
        cells = machine.row_one_cells(state, k)
        filled = [c for c in cells if c is not _BAD and c[0] is not None]
        if not filled:
            return 1
        j = len(filled)
        return 1 + (j - 1) * path_length(prog, k - 1) + go(machine._subtable(state, j, k), k - 1)

    return go(state, machine.n)


def _unique_solution(prog: DsrProgram, inst: str, path) -> str:
    sols = [
        y
        for y in all_bitstrings(prog.solution_len(len(inst)))
        if prog.verify(inst, y, path)
    ]
    if len(sols) != 1:
        raise PromiseViolation(
            f"instance {inst!r} at {path} has {len(sols)} solutions, not exactly one",
            report={"instance": inst, "path": path, "solutions": sols},
        )
    return sols[0]


def assert_unique_solutions(prog: DsrProgram, x: str, path=()) -> str:
    """Desk-scale sweep of the whole query tree under ``x``: every instance
    must have exactly one accepted solution, and the program's own answer
    must be that solution.  Returns the answer for ``x``."""
    sol = _unique_solution(prog, x, path)
    answered = []
    for slot in range(1, prog.query_count(len(x)) + 1):
        sub = prog.next_query(x, tuple(answered), path)
        sub_sol = assert_unique_solutions(prog, sub, path + (slot,))
        answered.append((sub, sub_sol))
    final = prog.finalize(x, tuple(answered), path)
    if final != sol:
        raise PromiseViolation(
            f"program answers {final!r} for {x!r} but the unique solution is {sol!r}",
            report={"instance": x, "path": path, "answer": final, "solution": sol},
        )
    return sol


def compile_svl(prog: DsrProgram, x: str, *, check_uniqueness: bool = True) -> SvlInstance:
    """Verifiable-line instance of the program's walk on ``x``: the verifier
    accepts a state at index i exactly when the state is valid and its
    position is i.  Uniqueness of solutions across the whole query tree
    makes valid states of one position unique, which is the promise; it is
    asserted at desk scale up front."""
    if check_uniqueness:
        assert_unique_solutions(prog, x)
    n = len(x)
    machine = StateSpace(prog, n)
    target = path_length(prog, n)

    def verifier(state: str, index: int) -> bool:
        if not isinstance(index, int) or not 1 <= index <= target:
            return False
        return _position_for(prog, state, machine, x) == index

    succ = SuccessorOracle(fn=lambda s: machine.successor(s, x), n=machine.width())
    return SvlInstance(succ=succ, source=machine.initial_state(x), target=target, verifier=verifier)


@dataclass
class PromiseReport:
    ok: bool
    checked: int
    target: int
    partial: bool
    violations: list[str] = field(default_factory=list)


def check_promise(
    inst: SvlInstance,
    budget: int | None = None,
    samples_per_index: int = 10,
    rng: random.Random | None = None,
) -> PromiseReport:
    """Walk the line and check the verifier both ways at each index: the
    on-path state must verify at its index and nowhere else (sampled), and
    sampled off-path strings must fail.  A budget below the target yields a
    partial report."""
    rng = rng or random.Random(0)
    limit = inst.target if budget is None else min(inst.target, budget)
    violations: list[str] = []
    state = inst.source
    width = inst.n
    for index in range(1, limit + 1):
        if not inst.verifier(state, index):
            violations.append(f"on-path state at index {index} rejected")
        for _ in range(3):
            wrong = rng.randrange(1, inst.target + 1)
            if wrong != index and inst.verifier(state, wrong):
                violations.append(f"on-path state of index {index} accepted at {wrong}")
        for _ in range(samples_per_index):
            if rng.random() < 0.5:
                sample = "".join(rng.choice("01") for _ in range(width))
            else:
                flip = rng.randrange(width)
                sample = state[:flip] + ("1" if state[flip] == "0" else "0") + state[flip + 1 :]
            if sample != state and inst.verifier(sample, index):
                violations.append(f"off-path sample accepted at index {index}")
        if index < limit:
            state = inst.succ(state)
    return PromiseReport(
        ok=not violations,
        checked=limit,
        target=inst.target,
        partial=limit < inst.target,
        violations=violations,
    )
