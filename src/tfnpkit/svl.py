"""Path arithmetic over compiled walks and the verifiable-line construction
for unique-solution programs.

Positions are 1-based indices along the walk of a compiled program.  The
occupancy of a valid state determines its position: each level contributes
one step for its open cell plus a full sub-path length for every completed
cell before it.  :func:`position` computes it by an occupancy scan over
the rows, without recursing; it must agree with the position that the
validating pass of :class:`~tfnpkit.dsr2pls.StateSpace` computes while it
advances a table, which ``StateSpace.position`` returns.
The verifiable line is built from the compiled walk of
:func:`~tfnpkit.dsr2pls.compile_pls`: its successor, source, target and
valuation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .bits import all_bitstrings
from .errors import InvalidStateError, PromiseViolation
from .dsr2pls import _BAD, DsrProgram, StateSpace, compile_pls
from .problems import SvlInstance

_SAMPLES_PER_INDEX = 10  # off-path strings checked at each index of a promise check


def path_length(prog: DsrProgram, size: int) -> int:
    """Total number of states on the walk of a size-``size`` instance: two
    (initial and finished) plus one full sub-walk per query."""
    return StateSpace(prog, size).path_length()


def position(prog: DsrProgram, state: str, machine: StateSpace) -> int:
    """Occupancy form: scan each row's filled prefix without recursing.
    Raises unless the state is valid on the walk of its own root instance."""
    root = machine.root_cell(state)
    if root is _BAD or root[0] is None or machine.position(state, root[0]) == 0:
        raise InvalidStateError("position is defined only for valid states")
    n = machine.n
    length = machine.path_length
    if root[1] is not None:
        return length(n)
    total = 1
    for depth in range(1, n):
        cells = machine.row_cells(state, depth)
        filled = [c for c in cells if c is not _BAD and c[0] is not None]
        if not filled:
            break
        j = len(filled)
        total += 1 + (j - 1) * length(n - depth)
        if filled[-1][1] is not None:
            # the active cell is already answered: its whole sub-walk is behind us
            total += length(n - depth) - 1
            break
    return total


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


def compile_svl(prog: DsrProgram, x: str) -> SvlInstance:
    """Verifiable-line instance of the program's walk on ``x``: the verifier
    accepts a state at index i exactly when the state is valid and its
    position is i.  Uniqueness of solutions across the whole query tree
    makes valid states of one position unique, which is the promise; it is
    asserted at desk scale once ``compile_pls`` has accepted the width of ``x``."""
    compiled = compile_pls(prog, x)
    assert_unique_solutions(prog, x)
    walk, target = compiled.instance, compiled.path_length

    def verifier(state: str, index: int) -> bool:
        if not isinstance(index, int) or not 1 <= index <= target:
            return False
        return walk.valuation(state) == index

    return SvlInstance(succ=walk.succ, source=walk.source, target=target, verifier=verifier)


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
    rng: random.Random | None = None,
) -> PromiseReport:
    """Walk the line and check the verifier both ways at each index: the
    on-path state must verify at its index and nowhere else (sampled), and
    sampled off-path strings must fail.  A budget below the target yields a
    partial report.  The line advances right after the on-path checks, so a
    compiled line steps on the pass its verifier just made."""
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
        nxt = inst.succ(state) if index < limit else state
        for _ in range(_SAMPLES_PER_INDEX):
            if rng.random() < 0.5:
                sample = format(rng.getrandbits(width), f"0{width}b")
            else:
                flip = rng.randrange(width)
                sample = state[:flip] + ("1" if state[flip] == "0" else "0") + state[flip + 1 :]
            if sample != state and inst.verifier(sample, index):
                violations.append(f"off-path sample accepted at index {index}")
        state = nxt
    return PromiseReport(
        ok=not violations,
        checked=limit,
        target=inst.target,
        partial=limit < inst.target,
        violations=violations,
    )
