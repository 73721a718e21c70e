"""Inter-reductions among the four sink-finding problems, each paired with a
solution pullback.

Every pullback is a local map: the identity, a projection, a constant, or
the swap of two words.  Each target is built so that its solutions are
exactly the source's under that map, or a subset of the points the map
sends to source solutions; each function's docstring proves it.  Every
pullback also checks that its argument verifies on the target instance and
that its result verifies on the source (raising
:class:`PullbackContractError` otherwise), so a construction defect cannot
pass unnoticed.  No pullback walks the source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .bits import from_int, zeros
from .circuit import constant_circuit
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
from .solvers import solve_path  # unused here; bench/tracing.py counts walks through this binding


@dataclass(frozen=True, eq=False)
class ReductionResult:
    target: ProblemInstance
    pullback: Callable[[str], str]


def _identity(w: str) -> str:
    return w


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
    """Freeze every step that does not ascend, and let the frozen successor
    S'(x) = S(x) if S(x) > x, else x, be both successor and valuation (as an
    n-bit number); the source, if any, is kept.

    The solutions coincide, so the pullback is the identity.  A target
    solution v moves, so S(v) > v and S'(v) = S(v).  Its step S(v) is frozen
    or its valuation does not rise, and as S'(S(v)) is either S(v) or
    S(S(v)) > S(v), both say S'(S(v)) = S(v), that is S(S(v)) <= S(v): v
    solves the source.  Conversely a source solution v has S(v) > v and
    S'(S(v)) = S(v), so it moves on the target and its step is frozen.  The
    start moves on the target exactly when it ascends on the source, so the
    target is well formed exactly when the source is.
    """
    b = GateBuilder(inst.n)
    s_refs = b.embed(inst.succ, b.inputs)
    frozen = b.mux(b.lt_refs(b.inputs, s_refs), s_refs, b.inputs)
    target = SodInstance.from_pair(b.circuit(frozen + frozen, name="pair"), inst.source)
    return ReductionResult(target, _checked_pullback(inst, target, _identity))


def sod_to_iter(inst: SodInstance) -> ReductionResult:
    """Track the valuation in the high-order bits so the walk increases
    lexicographically: a point (y, x) is on the rail when y = V(x), steps to
    (V(S(x)), S(x)) there, and is a fixed point off it.

    The pullback of a target solution (y, x) is x or S(x), whichever solves
    the source.  The point ascends, so it is on the rail and either
    V(S(x)) > V(x), or V(S(x)) = V(x) with S(x) > x, and then x solves the
    source.  In the first case S(x) != x, and its step (V(S(S(x))), S(S(x)))
    does not ascend: S(S(x)) = S(x) makes x a solution, and otherwise
    V(S(S(x))) <= V(S(x)) makes S(x) one.

    When the all-zero word already answers the source (its valuation does
    not rise), the canonical start would violate the target guarantee, so a
    trivially solvable target is emitted and the pullback is constant.  The
    rail starts at the all-zero word, so an instance with a source is
    refused.
    """
    if inst.source is not None:
        raise DimensionError(f"sod_to_iter needs an instance without a source, got {kind_of(inst)}")
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
    start = from_int(inst.step_and_value(zeros(n))[1], m) + zeros(n)
    target = IterInstance(lifted, start)

    if not well_formed(target):
        # the start itself is stuck, which certifies the all-zero source answer
        trivial = IterInstance(constant_circuit(m + n, "1" * (m + n), name="succ"), zeros(m + n))
        return ReductionResult(trivial, _checked_pullback(inst, trivial, lambda w: zeros(n)))

    def lift(w: str) -> str:
        x = w[m:]
        if verify_solution(inst, x):
            return x
        return inst.step_and_value(x)[0]

    return ReductionResult(target, _checked_pullback(inst, target, lift))


def add_source(inst: IterInstance | SodInstance) -> ReductionResult:
    """The all-zero word is already a guaranteed start; solution sets coincide."""
    if inst.source is not None:
        raise DimensionError(f"add_source needs an instance without a source, got {kind_of(inst)}")
    target = inst.with_source(zeros(inst.n))
    return ReductionResult(target, _checked_pullback(inst, target, _identity))


def drop_source(inst: IterInstance | SodInstance) -> ReductionResult:
    """Move the source to the all-zero word.  A source that is the all-zero
    word already is dropped, and the pullback is the identity.

    Iteration: the target steps the all-zero word to the source and every
    other word as the source instance does (:meth:`IterInstance.redirected`),
    and its solutions are exactly the source's other than the all-zero word,
    so the pullback is the identity.  The all-zero word solves no target, as
    T(src) = S(src) > src = T(0^n) for a well-formed instance; and for
    w != 0^n with S(w) > w, S(w) != 0^n, so T(S(w)) = S(S(w)).

    Sink-of-DAG: relabel the instance by the swap pi of the all-zero word and
    the source, S' = pi S pi and V' = V pi.  Since pi is its own inverse,
    S'(w) = w iff S(pi w) = pi w, S'(S'(w)) = pi S(S(pi w)) and
    V'(S'(w)) = V(S(pi w)), so w solves the target iff pi(w) solves the
    source, and the pullback is pi.  The target is well formed exactly when
    the source is: S'(0^n) = pi(S(src)), which is 0^n only if S(src) = src.
    """
    src = inst.source
    if src is None:
        raise DimensionError(f"drop_source needs an instance with a source, got {kind_of(inst)}")
    n = len(src)
    zero = zeros(n)

    if src == zero:
        target, lift = inst.with_source(None), _identity
    elif isinstance(inst, IterInstance):
        target, lift = inst.redirected(), _identity
    else:
        b = GateBuilder(n)
        refs = b.embed(inst.pair, b.swap_zero(src, b.inputs))
        target = SodInstance.from_pair(b.circuit(b.swap_zero(src, refs[:n]) + refs[n:], name="pair"))

        def lift(w: str) -> str:
            return src if w == zero else zero if w == src else w

    return ReductionResult(target, _checked_pullback(inst, target, lift))
