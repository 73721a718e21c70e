"""Reference solvers establishing ground truth at desk scale."""

from __future__ import annotations

from .bits import all_bitstrings, zeros
from .circuit import _TABLE_MAX_INPUTS, evaluate
from .errors import MalformedInstanceError, SolveBoundError
from .problems import (
    ImplicitSodInstance,
    IterInstance,
    ProblemInstance,
    SodInstance,
    SvlInstance,
    instance_bits,
    verify_solution,
)


def _stepper(inst: ProblemInstance):
    if isinstance(inst, SodInstance):
        return lambda x: inst.step_and_value(x)[0]
    if isinstance(inst, IterInstance):
        return inst.step
    if isinstance(inst, (ImplicitSodInstance, SvlInstance)):
        return inst.succ
    succ = inst.succ
    return lambda x: evaluate(succ, x)


def start_point(inst: ProblemInstance) -> str:
    """Where path solving begins: the instance's source, else the all-zero
    word (also for end-of-line, which has no source)."""
    source = getattr(inst, "source", None)
    return zeros(inst.n) if source is None else source


def solve_path(inst: ProblemInstance, budget: int | None = None) -> str:
    """Iterate the successor from the source until the solution predicate
    holds; the step budget (default 2^n) turns guarantee violations into
    explicit errors instead of non-termination."""
    n = instance_bits(inst)
    if budget is None:
        budget = 1 << n
    step = _stepper(inst)
    x = start_point(inst)
    for _ in range(budget + 1):
        if verify_solution(inst, x):
            return x
        nxt = step(x)
        if nxt == x:
            break  # a non-verifying fixed point can never progress
        x = nxt
    raise MalformedInstanceError(
        f"no verifying candidate within {budget} steps; the instance guarantee must be violated"
    )


def solve_exhaustive(inst: ProblemInstance, bound: int = _TABLE_MAX_INPUTS) -> str:
    """Smallest verifying candidate in lexicographic order; refuses above
    ``bound`` input bits."""
    n = instance_bits(inst)
    if n > bound:
        raise SolveBoundError(f"exhaustive scan refused: {n} bits exceeds bound {bound}")
    for cand in all_bitstrings(n):
        if verify_solution(inst, cand):
            return cand
    raise MalformedInstanceError("no candidate verifies; the instance guarantee must be violated")


def enumerate_solutions(inst: ProblemInstance, bound: int = _TABLE_MAX_INPUTS) -> list[str]:
    """All verifying candidates in lexicographic order."""
    n = instance_bits(inst)
    if n > bound:
        raise SolveBoundError(f"exhaustive scan refused: {n} bits exceeds bound {bound}")
    return [cand for cand in all_bitstrings(n) if verify_solution(inst, cand)]
