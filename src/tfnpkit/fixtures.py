"""Deterministic downward-query test programs.

``RecursiveCombineProblem`` is a toy unique-solution problem built to
exercise the state-graph and verifiable-line pipelines end to end: it is
not hard, and without the recursion there is no obvious fast verifier; it
exists purely as plumbing ballast.  ``HalvingIterProgram`` runs the
iteration self-reduction's case analysis, the core that
``dsr_iter_with_source`` runs, over one fixed top-level instance, with
cells carrying source words, the sub-instance determined by the cell's
slot path, and each query answered by its slot.
"""

from __future__ import annotations

from .bits import complement, parity, xor_bits, zeros
from .dsr import _dsr_iter_from
from .dsr2pls import DsrProgram, Path
from .errors import SolveBoundError
from .problems import IterInstance, verify_solution
from .solvers import solve_path  # unused here; bench/tracing.py counts walks through this binding


class RecursiveCombineProblem(DsrProgram):
    """Unique-solution fixture.

    The answer for a single bit is that bit; the answer for a longer word is
    the answer for its prefix XOR the answer for the prefix's complement,
    with the word's parity bit appended.  Exactly two sub-queries per level,
    answers as long as their instances.  Words wider than ``max_bits`` are
    refused with :class:`SolveBoundError`, by :meth:`solution_len` too, so
    the state space of a wider word is refused when it is built.
    """

    def __init__(self, max_bits: int = 12):
        self.max_bits = max_bits
        self._memo: dict[str, str] = {}

    def solution(self, x: str) -> str:
        """Independent answer oracle via memoized recursion."""
        if len(x) > self.max_bits:
            raise SolveBoundError(f"fixture answers are memoized only up to {self.max_bits} bits")
        if x in self._memo:
            return self._memo[x]
        if len(x) == 1:
            result = x
        else:
            prefix = x[:-1]
            result = xor_bits(self.solution(prefix), self.solution(complement(prefix))) + parity(x)
        self._memo[x] = result
        return result

    def query_count(self, size: int) -> int:
        return 2 if size >= 2 else 0

    def solution_len(self, size: int) -> int:
        if size > self.max_bits:
            raise SolveBoundError(f"the combine fixture answers at most {self.max_bits} bits, not {size}")
        return size

    def next_query(self, inst: str, answered, path: Path = ()) -> str:
        return inst[:-1] if not answered else complement(inst[:-1])

    def finalize(self, inst: str, answered, path: Path = ()) -> str:
        if len(inst) == 1:
            return inst
        return xor_bits(answered[0][1], answered[1][1]) + parity(inst)

    def verify(self, inst: str, sol: str, path: Path = ()) -> bool:
        return sol == self.solution(inst)


class _Unanswered(Exception):
    """Raised by a replay's query at the first slot with no answer yet; its
    args are the slot and the start of the slot's query."""


class HalvingIterProgram(DsrProgram):
    """The halving self-reduction of one iteration-with-source instance as a
    replayable query program.

    A cell's slot path fixes its instance (slot 1 the lower half of its
    parent's, slot 2 the upper, see :meth:`IterInstance.half`) and its bits
    are the source.  A replay runs the iteration case analysis,
    :func:`~tfnpkit.dsr._dsr_iter_from`, on the path's instance from the
    cell's source, and answers its query on the half with leading bit b
    from slot b + 1 of the answered prefix.  The state space has already
    made the checks the algorithm's entry point would repeat: a cell is
    replayed only when it ascends (:meth:`verify`, the guarantee), and every
    answered cell passed :meth:`verify` on its slot's instance, the
    predicate an oracle answer is checked with.  Only the padding rules are
    the program's own: a slot the algorithm does not need holds the
    all-zero source, and a source with no ascent is answered by the
    all-zero word, which keeps the relation total over every word.  Circuit
    sizing reads :meth:`instance_for`; the program reports no sizes.
    """

    def __init__(self, top: IterInstance):
        self.top = top
        self._instances: dict[Path, IterInstance] = {(): top}

    def instance_for(self, path: Path) -> IterInstance:
        """The path's instance, one per path, so each half is made once.
        Its source is never read: the replay and :meth:`verify` take the
        cell word as the source."""
        if path not in self._instances:
            self._instances[path] = self.instance_for(path[:-1]).half(path[-1] - 1)
        return self._instances[path]

    def query_count(self, size: int) -> int:
        return 2 if size >= 2 else 0

    def solution_len(self, size: int) -> int:
        return size

    def _ascending(self, inst: str, path: Path) -> IterInstance | None:
        """The path's instance when it ascends from the cell word ``inst``,
        else None (the padded case).  The state space has checked ``inst``."""
        here = self.instance_for(path)
        return here if here.step(inst) > inst else None

    def _replay(self, inst: str, answered, path: Path) -> str | None:
        """The algorithm's answer at source ``inst``, or None in the padded
        case; raises :class:`_Unanswered` at the first unanswered query."""
        here = self._ascending(inst, path)
        if here is None:
            return None

        def query(bit: int, start: str) -> str:
            if bit >= len(answered):
                raise _Unanswered(bit + 1, start)
            return answered[bit][1]

        return _dsr_iter_from(here, inst, query)

    def next_query(self, inst: str, answered, path: Path = ()) -> str:
        try:
            self._replay(inst, answered, path)
        except _Unanswered as pending:
            slot, source = pending.args
            if slot == len(answered) + 1:
                return source
        return zeros(len(inst) - 1)

    def finalize(self, inst: str, answered, path: Path = ()) -> str:
        answer = self._replay(inst, answered, path)
        return zeros(len(inst)) if answer is None else answer

    def verify(self, inst: str, sol: str, path: Path = ()) -> bool:
        here = self._ascending(inst, path)
        return sol == zeros(len(inst)) if here is None else verify_solution(here, sol)
