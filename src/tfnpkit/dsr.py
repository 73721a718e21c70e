"""Downward self-reductions: the halving algorithms, the recursive
self-oracle, and query-discipline monitors.

Each algorithm takes one kind (any other raises :class:`DimensionError`)
and solves it with at most two queries to an oracle for strictly smaller
instances.  Iteration with a source halves the vertex space on the leading
bit: a query is a half (:meth:`IterInstance.half`), input 1 fixed and
output 1 dropped, sized and read with no gate built.  Source-free iteration
runs the same case analysis on the instance itself, from the all-zero word: a
query from the all-zero word is the source-free half, and only a query
from another start is asked as the :func:`~tfnpkit.reductions.drop_source`
target of that half, which reads the half's points.  At one bit the
iteration algorithm answers its source: a well-formed one-bit instance
steps from 0 to 1, so 0 is its only solution, and no search is made.
The sink-of-DAG problems halve the valuation range on its leading bit, and
both kinds share one case analysis too: the single-valuation-bit base
case, the query without the leading valuation bit, and the pivot, its
answer's step; they differ only in the query asked from the pivot.  A
sink-of-DAG query is composed over the instance that asks it
(:meth:`SodInstance.dropped`, :meth:`SodInstance.frozen`) and sized with
no circuit built; a procedure root, as ``compile_pls`` emits, is solved
alike in ``circuit-dsr`` mode.  Each oracle answer is verified on the
instance asked, no other (a bad answer raises :class:`OracleContractError`).

The case analyses lift almost every sub-answer directly, unverified: the
reads that choose it prove it (see ``_upper_start``).  One lift is not
universally sound when the oracle may return *any* valid sub-solution
rather than one reachable from the sub-instance's start: the iteration
upper-half answer, whose true successor may dip into the lower half.  That
lift alone is verified, and on failure the algorithm finishes by walking
the original instance from its pivot, so the returned word always verifies.
The sink-of-DAG lifts are sound by construction and never walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .bits import zeros
from .circuit import evaluate  # unused here; bench/selftest.py checks the tracer wraps this binding
from .errors import DimensionError, MalformedInstanceError, MonitorViolation, OracleContractError, SizingError
from .problems import (
    KIND_ITER,
    KIND_ITER_WS,
    KIND_SOD,
    KIND_SOD_WS,
    CircuitInstance,
    IterInstance,
    SodInstance,
    circuit_size,
    io_dims,
    kind_of,
    source_bits,
    verify_solution,
    well_formed,
)
from .reductions import drop_source
from .solvers import solve_path

Oracle = Callable[..., str]

MODE_DSR = "dsr"
MODE_CIRCUIT = "circuit-dsr"
MODE_CIRCUIT_POLY = "circuit-dsr-poly-blowup"
MODES = (MODE_DSR, MODE_CIRCUIT, MODE_CIRCUIT_POLY)


def _require(inst: CircuitInstance, kind: str) -> None:
    """Raise unless ``inst`` is of ``kind`` and satisfies its guarantee."""
    if kind_of(inst) != kind:
        raise DimensionError(f"{kind} self-reduction needs kind {kind}, got {kind_of(inst)}")
    if not well_formed(inst):
        raise MalformedInstanceError(f"{kind} instance violates its guarantee")


def _ask(oracle: Oracle, sub: CircuitInstance, parent: CircuitInstance) -> str:
    """The oracle's answer to ``sub``, verified on ``sub``."""
    answer = oracle(sub, parent)
    if not verify_solution(sub, answer):
        raise OracleContractError(
            f"oracle answer {answer!r} does not verify on the queried {kind_of(sub)} instance"
        )
    return answer


def _ensure(inst: CircuitInstance, candidate: str, restart: str) -> str:
    if verify_solution(inst, candidate):
        return candidate
    return solve_path(inst.with_source(restart))


# --- iteration problems ------------------------------------------------------


def _upper_start(inst: IterInstance, source: str, low_answer: str | None) -> tuple[str, str]:
    """After the lower-half phase, either ('solution', v) or ('upper', u)
    where u lies in the upper half with a strictly ascending step.

    Every v solves (S(v) > v and S(S(v)) <= S(v)), so it is not verified
    again.  A word 1... is above every word 0..., and ``here = S(prev)`` is
    above ``prev``: the source steps to 1... (else the lower half was
    asked), and the lifted 0w, w a verified answer of the lower half H
    (S on 0... without its leading bit), steps to 1... or to 0H(w) > 0w.
    From 0H(w) a step to 0H(H(w)) <= 0H(w) makes 0w a solution, and a step
    to 1... rises.  Then ``prev`` solves iff the step at ``here`` stalls."""
    if source[0] == "1":
        return "upper", source
    step = inst.step
    prev = source if low_answer is None else "0" + low_answer
    here = step(prev)
    if here[0] == "0":
        after = step(here)
        if after[0] == "0":
            return "solution", prev
        prev, here = here, after
    return ("solution", prev) if step(here) <= here else ("upper", here)


def _dsr_iter_from(inst: IterInstance, source: str, query: Callable[[int, str], str]) -> str:
    """The case analysis from ``source``, shared by both iteration kinds:
    ``query(bit, start)`` answers the half whose leading bit is ``bit``
    from ``start``, its verified answer a word of the half."""
    if inst.n <= 1:
        # S(src) > src makes src = 0 and S(0) = 1, and S(1) <= 1: 0 solves
        return source
    low_answer = None
    if source[0] == "0" and inst.step(source)[0] == "0":
        # a walk that starts in or at once enters the upper half has no lower query
        low_answer = query(0, source[1:])
    kind, value = _upper_start(inst, source, low_answer)
    if kind == "solution":
        return value
    pivot = value
    return _ensure(inst, "1" + query(1, pivot[1:]), pivot)


def dsr_iter_with_source(inst: IterInstance, oracle: Oracle) -> str:
    _require(inst, KIND_ITER_WS)
    return _dsr_iter_from(inst, inst.source, lambda bit, start: _ask(oracle, inst.half(bit, start), inst))


def dsr_iter(inst: IterInstance, oracle: Oracle) -> str:
    """The with-source algorithm run on this instance from the all-zero
    word, each query asked of a source-free instance, so its answer needs
    no pullback.  A query from the all-zero word is the source-free half
    itself: it steps as the half with that source does, and
    ``verify_solution`` ignores the source, so the two have the same
    solutions.  A query from any other start is asked through
    :func:`drop_source`: the target T is asked, and its answer is verified
    on T.  For the half with successor S and source src, T has T(0) = src
    and T(w) = S(w) elsewhere, and every solution of T solves the half: 0
    solves no T, as T(src) = S(src) > src = T(0) (the half is well formed);
    and for w != 0 with S(w) > w >= 1, T(S(w)) = S(S(w)), so w solves T
    exactly when it solves S, and the answer lifts to the half as is."""
    _require(inst, KIND_ITER)

    def query(bit: int, start: str) -> str:
        if "1" not in start:
            return _ask(oracle, inst.half(bit), inst)
        return _ask(oracle, drop_source(inst.half(bit, start)).target, inst)

    return _dsr_iter_from(inst, zeros(inst.n), query)


# --- sink-of-DAG problems ----------------------------------------------------


def _dsr_sod_from(inst: SodInstance, oracle: Oracle, start: str, last: Callable[[str], str]) -> str:
    """The case analysis from ``start``, shared by both sink-of-DAG kinds.
    With a single valuation bit the start answers, or else its step (proved
    below).  Otherwise the dropped query is asked first; its answer solves the
    instance, or its step is the pivot, whose valuation has the leading bit
    set and whose own step moves, and ``last(pivot)`` answers from there."""
    if inst.value_bits == 1:
        # ``_require`` saw the start move.  If the start does not solve, its
        # step moves and has valuation 1, which no later step can exceed, so
        # the step solves.
        return start if verify_solution(inst, start) else inst.step_and_value(start)[0]
    first = _ask(oracle, inst.dropped(inst.source), inst)
    if verify_solution(inst, first):
        return first
    return last(inst.step_and_value(first)[0])


def dsr_sod_with_source(inst: SodInstance, oracle: Oracle) -> str:
    """Every point the frozen query moves has valuation at least the pivot's,
    which has the leading bit set, so a sub-solution's step is frozen (lower
    valuation), a sink, or no higher in the full valuation: it lifts as is."""
    _require(inst, KIND_SOD_WS)
    last = lambda pivot: _ask(oracle, inst.frozen(inst.step_and_value(pivot)[1], source=pivot), inst)
    return _dsr_sod_from(inst, oracle, inst.source, last)


def dsr_sod(inst: SodInstance, oracle: Oracle) -> str:
    """As with a source, except the frozen query starts at the all-zero
    word.  When that word's valuation is at least the pivot's, the word
    serves as pivot and threshold itself, with no redirect.  Otherwise the
    query redirects it to the pivot, and a step onto the all-zero word
    lowers the valuation: every sub-solution lifts (the pivot stands for the
    all-zero answer), and a pivot that steps onto the all-zero word already
    solves the instance."""
    _require(inst, KIND_SOD)
    start = zeros(inst.n)

    def last(pivot: str) -> str:
        step, threshold = inst.step_and_value(pivot)
        start_value = inst.step_and_value(start)[1]
        if start_value >= threshold:
            return _ask(oracle, inst.frozen(start_value), inst)
        if step == start:
            return pivot
        second = _ask(oracle, inst.frozen(threshold, redirect_to=pivot), inst)
        return pivot if second == start else second

    return _dsr_sod_from(inst, oracle, start, last)


_DISPATCH = {
    KIND_ITER: dsr_iter,
    KIND_ITER_WS: dsr_iter_with_source,
    KIND_SOD: dsr_sod,
    KIND_SOD_WS: dsr_sod_with_source,
}


def run_dsr(inst: CircuitInstance, oracle: Oracle) -> str:
    fn = _DISPATCH.get(kind_of(inst))
    if fn is None:
        raise DimensionError(f"no self-reduction for {kind_of(inst)}")
    return fn(inst, oracle)


# --- oracles and monitoring --------------------------------------------------


class SelfReductionOracle:
    """Answers queries by recursively running the matching algorithm, which
    ends in its own base case: at one bit the iteration problems answer
    their source, the only solution of a well-formed one-bit instance (it
    steps from 0 to 1), and sink-of-DAG uses the single-valuation-bit rule.
    The recursion asks its queries of ``entry``, the outermost layer that
    handed this query down (a monitor, or what wraps one), else of itself."""

    def __call__(self, inst: CircuitInstance, parent: CircuitInstance | None = None, entry: Oracle | None = None) -> str:
        return run_dsr(inst, entry or self)


def self_oracle() -> SelfReductionOracle:
    return SelfReductionOracle()


Dims = tuple[int, int, int | None]  # (inputs, outputs, circuit size)


@dataclass
class QueryRecord:
    parent_dims: Dims | None
    query_dims: Dims
    depth: int
    answer: str | None = None


@dataclass
class QueryTrace:
    records: list[QueryRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def levels(self) -> int:
        """Number of nested query levels observed."""
        return 1 + max((r.depth for r in self.records), default=-1)


class MonitoredOracle:
    """Forwards queries, recording a trace and enforcing the size discipline
    of the chosen mode.

    ``dsr`` requires every query's encoded size (circuit measure plus source
    bits) to be strictly below its parent's.  ``circuit-dsr`` requires the
    input and output bit counts to be component-wise bounded and strictly
    smaller in total.  ``circuit-dsr-poly-blowup`` additionally bounds the
    query's circuit size by the parent's plus (inputs*outputs)**c.  An
    instance with no circuit (a procedure-rooted sink-of-DAG one) is recorded
    with size None in ``circuit-dsr`` mode; the others raise :class:`SizingError`.

    The inner oracle is called as ``inner(inst, parent, entry=...)``, with
    ``entry`` the outermost layer: this monitor, or the layer that passed
    its own ``entry`` in.  A recursive inner oracle asks its queries of it.
    """

    def __init__(self, inner: Oracle, mode: str, c: int = 2, trace: QueryTrace | None = None):
        if mode not in MODES:
            raise ValueError(f"unknown monitor mode {mode!r}")
        self.inner = inner
        self.mode = mode
        self.c = c
        self.trace = trace if trace is not None else QueryTrace()
        self._depth = 0

    def _dims(self, inst: CircuitInstance) -> Dims:
        nu, mu = io_dims(inst)
        try:
            return nu, mu, circuit_size(inst)
        except SizingError:
            if self.mode != MODE_CIRCUIT:
                raise
            return nu, mu, None

    def check(self, parent: CircuitInstance, sub: CircuitInstance) -> tuple[Dims, Dims]:
        """Raise on a query that breaks the mode's size discipline; return the
        dimensions of parent and query, each instance sized once."""
        parent_dims, sub_dims = self._dims(parent), self._dims(sub)
        (pn, pm, parent_size), (sn, sm, sub_size) = parent_dims, sub_dims
        if self.mode == MODE_DSR:
            parent_encoded = parent_size + source_bits(parent)
            sub_encoded = sub_size + source_bits(sub)
            if sub_encoded >= parent_encoded:
                raise MonitorViolation(
                    f"query of encoded size {sub_encoded} is not below the parent's {parent_encoded}"
                )
        elif sn > pn or sm > pm or sn + sm >= pn + pm:
            raise MonitorViolation(
                f"query shape ({sn},{sm}) does not shrink the parent shape ({pn},{pm})"
            )
        elif self.mode == MODE_CIRCUIT_POLY:
            # (pn*pm)**c >= 2**c > growth once c reaches growth's bit length: build no huge power
            growth, base = sub_size - parent_size, pn * pm
            if (base < 2 or self.c < growth.bit_length()) and growth > base ** self.c:
                budget = parent_size + base ** self.c
                raise MonitorViolation(
                    f"query circuit size {sub_size} exceeds the blowup budget {budget}"
                    f" (parent size {parent_size})"
                )
        return parent_dims, sub_dims

    def __call__(self, inst: CircuitInstance, parent: CircuitInstance | None = None, entry: Oracle | None = None) -> str:
        if parent is None:
            parent_dims, query_dims = None, self._dims(inst)
        else:
            parent_dims, query_dims = self.check(parent, inst)
        record = QueryRecord(parent_dims=parent_dims, query_dims=query_dims, depth=self._depth)
        self.trace.records.append(record)
        self._depth += 1
        try:
            answer = self.inner(inst, parent, entry=entry or self)
        finally:
            self._depth -= 1
        record.answer = answer
        return answer


def monitored(oracle: Oracle, mode: str, c: int = 2, trace: QueryTrace | None = None) -> MonitoredOracle:
    return MonitoredOracle(oracle, mode, c=c, trace=trace)
