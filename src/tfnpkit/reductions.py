"""Inter-reductions among the four sink-finding problems, each paired with a
solution pullback.

Every pullback first checks that its argument verifies on the target
instance (raising :class:`PullbackContractError` otherwise) and always
returns a candidate that verifies on the source.  Where the textbook
construction admits target solutions with no local counterpart on the
source side (a descending point of an iteration instance, or the artificial
edge endpoint of a source-removal), the pullback falls back to following
the source instance's own successor walk, which is total at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .bits import zeros
from .circuit import constant_circuit, evaluate
from .errors import DimensionError, PullbackContractError
from .gadgets import GateBuilder
from .problems import (
    IterInstance,
    ProblemInstance,
    SodInstance,
    kind_of,
    verify_solution,
    well_formed,
)
from .solvers import solve_path


@dataclass(frozen=True, eq=False)
class ReductionResult:
    target: ProblemInstance
    pullback: Callable[[str], str]


def _checked_pullback(source, target, lift):
    def pullback(w: str) -> str:
        if not verify_solution(target, w):
            raise PullbackContractError("pullback argument does not verify on the target")
        v = lift(w)
        if not verify_solution(source, v):
            raise PullbackContractError("construction produced a non-verifying source candidate")
        return v

    return pullback


def iter_to_sod(inst: IterInstance) -> ReductionResult:
    """The successor doubles as its own valuation.  A target solution whose
    step descends is not an iteration solution; those pull back by walking
    the source from the all-zero word."""
    succ = inst.succ
    target = SodInstance(succ, succ)

    def lift(w: str) -> str:
        if verify_solution(inst, w):
            return w
        return solve_path(inst)

    return ReductionResult(target, _checked_pullback(inst, target, lift))


def sod_to_iter(inst: SodInstance) -> ReductionResult:
    """Track the valuation in the high-order bits so the walk increases
    lexicographically; off-rail points are isolated fixed points.

    When the all-zero word already answers the source (its valuation does
    not rise), the canonical start would violate the target guarantee, so a
    trivially solvable target is emitted and the pullback is constant.
    """
    succ, val = inst.succ, inst.valuation
    n, m = succ.n, val.m

    builder = GateBuilder(m + n)
    y_refs, x_refs = builder.inputs[:m], builder.inputs[m:]
    v_refs = builder.embed(val, x_refs)
    on_rail = builder.eq_refs(y_refs, v_refs)
    s_refs = builder.embed(succ, x_refs)
    v_next = builder.embed(val, s_refs)
    outs = builder.mux(on_rail, v_next + s_refs, list(builder.inputs))
    lifted = builder.circuit(outs, name="succ")
    start = evaluate(val, zeros(n)) + zeros(n)
    target = IterInstance(lifted, start)

    if not well_formed(target):
        # the start itself is stuck, which certifies the all-zero source answer
        trivial = IterInstance(constant_circuit(m + n, "1" * (m + n), name="succ"), zeros(m + n))
        return ReductionResult(trivial, _checked_pullback(inst, trivial, lambda w: zeros(n)))

    def lift(w: str) -> str:
        x = w[m:]
        if verify_solution(inst, x):
            return x
        return evaluate(succ, x)

    return ReductionResult(target, _checked_pullback(inst, target, lift))


def add_source(inst: IterInstance | SodInstance) -> ReductionResult:
    """The all-zero word is already a guaranteed start; solution sets coincide."""
    if inst.source is not None:
        raise DimensionError(f"add_source needs an instance without a source, got {kind_of(inst)}")
    target = inst.with_source(zeros(inst.n))
    return ReductionResult(target, _checked_pullback(inst, target, lambda w: w))


def drop_source(inst: IterInstance | SodInstance) -> ReductionResult:
    """Splice an artificial edge from the all-zero word to the declared
    source.  Solutions other than the artificial endpoint pull back
    unchanged; a solution at the all-zero word is an artifact of the new
    edge and pulls back by walking the source instance."""
    src = inst.source
    if src is None:
        raise DimensionError(f"drop_source needs an instance with a source, got {kind_of(inst)}")
    n = len(src)

    if src == zeros(n):
        target = inst.with_source(None)
        return ReductionResult(target, _checked_pullback(inst, target, lambda w: w))

    b = GateBuilder(n)
    patched = b.circuit(b.redirect_zero(src, b.embed(inst.succ, b.inputs)), name="succ")
    if isinstance(inst, IterInstance):
        target = IterInstance(patched)
    else:
        target = SodInstance(patched, inst.valuation)

    def lift(w: str) -> str:
        if verify_solution(inst, w):
            return w
        return solve_path(inst)

    return ReductionResult(target, _checked_pullback(inst, target, lift))
