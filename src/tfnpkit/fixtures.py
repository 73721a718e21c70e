"""Deterministic downward-query test programs.

``RecursiveCombineProblem`` is a toy unique-solution problem built to
exercise the state-graph and verifiable-line pipelines end to end: it is
not hard, and without the recursion there is no obvious fast verifier; it
exists purely as plumbing ballast.  ``HalvingIterProgram`` wraps the
iteration problem's halving self-reduction over one fixed top-level
instance, with cells carrying source words and the circuit tree determined
by the cell's slot path.
"""

from __future__ import annotations

from .bits import complement, parity, xor_bits, zeros
from .circuit import Circuit, evaluate, size as circuit_size
from .dsr import _circuit_step, _half_restriction, _lower_query_source, _upper_start
from .dsr2pls import DsrProgram, Path
from .errors import SolveBoundError
from .problems import IterInstance
from .solvers import solve_path


class RecursiveCombineProblem(DsrProgram):
    """Unique-solution fixture.

    The answer for a single bit is that bit; the answer for a longer word is
    the answer for its prefix XOR the answer for the prefix's complement,
    with the word's parity bit appended.  Exactly two sub-queries per level,
    answers as long as their instances.
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
        return size

    def next_query(self, inst: str, answered, path: Path = ()) -> str:
        return inst[:-1] if not answered else complement(inst[:-1])

    def finalize(self, inst: str, answered, path: Path = ()) -> str:
        if len(inst) == 1:
            return inst
        return xor_bits(answered[0][1], answered[1][1]) + parity(inst)

    def verify(self, inst: str, sol: str, path: Path = ()) -> bool:
        return sol == self.solution(inst)


class HalvingIterProgram(DsrProgram):
    """The halving self-reduction of one iteration-with-source instance as a
    replayable query program.

    A cell's slot path fixes its circuit (slot 1 restricts the leading bit
    to 0, slot 2 to 1, composed along the path); the cell's bits are the
    source word.  Slots whose query the algorithm does not need are padded
    with the all-zero source; sources for which the circuit has no ascent
    are solved by the canonical all-zero answer, which keeps the relation
    total over every word.
    """

    def __init__(self, top: IterInstance):
        self.top = top
        self._circuits: dict[Path, Circuit] = {(): top.succ}

    def circuit_for(self, path: Path) -> Circuit:
        if path not in self._circuits:
            parent = self.circuit_for(path[:-1])
            self._circuits[path] = _half_restriction(parent, path[-1] - 1)
        return self._circuits[path]

    def query_count(self, size: int) -> int:
        return 2 if size >= 2 else 0

    def solution_len(self, size: int) -> int:
        return size

    @staticmethod
    def _ascends(c: Circuit, source: str) -> bool:
        return evaluate(c, source) > source

    def _low_answer(self, c: Circuit, inst: str, answered) -> str | None:
        """The slot-1 answer when slot 1 was a real query, else None."""
        if _lower_query_source(_circuit_step(c), inst) is None:
            return None
        return answered[0][1]

    def next_query(self, inst: str, answered, path: Path = ()) -> str:
        pad = zeros(len(inst) - 1)
        c = self.circuit_for(path)
        if not self._ascends(c, inst):
            return pad
        if not answered:
            low = _lower_query_source(_circuit_step(c), inst)
            return pad if low is None else low
        kind, value = _upper_start(_circuit_step(c), inst, self._low_answer(c, inst, answered))
        return pad if kind == "solution" else value[1:]

    def finalize(self, inst: str, answered, path: Path = ()) -> str:
        c = self.circuit_for(path)
        if not self._ascends(c, inst):
            return zeros(len(inst))
        if len(inst) == 1:
            return "0"
        kind, value = _upper_start(_circuit_step(c), inst, self._low_answer(c, inst, answered))
        if kind == "solution":
            return value
        pivot = value
        candidate = "1" + answered[1][1]
        if self.verify(inst, candidate, path):
            return candidate
        return solve_path(IterInstance(c, pivot))

    def verify(self, inst: str, sol: str, path: Path = ()) -> bool:
        if len(sol) != len(inst):
            return False
        c = self.circuit_for(path)
        if not self._ascends(c, inst):
            return sol == zeros(len(inst))
        step = evaluate(c, sol)
        return step > sol and evaluate(c, step) <= step

    # circuit-mode sizing report for the compiler's growth check
    def circuit_io_dims(self) -> tuple[int, int]:
        return self.top.succ.n, self.top.succ.m

    def query_instance_size(self, path: Path) -> int:
        c = self.circuit_for(path)
        return circuit_size(c) + (self.top.succ.n - len(path))
