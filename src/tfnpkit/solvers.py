"""Reference solvers establishing ground truth at desk scale."""

from __future__ import annotations

from .bits import all_bitstrings, zeros
from .circuit import _TABLE_MAX_INPUTS, evaluate
from .errors import MalformedInstanceError, SolveBoundError
from .problems import (
    EolInstance,
    IterInstance,
    ProblemInstance,
    SodInstance,
    eol_solution,
    verify_solution,
)


def _path_step(inst: ProblemInstance):
    """Map a point to None where it solves the instance, else to its
    successor.  An end-of-line point is evaluated once in each direction,
    and its forward word is the step."""
    if isinstance(inst, EolInstance):
        succ, pred = inst.succ, inst.pred

        def eol_step(x):
            fwd = evaluate(succ, x)
            return None if eol_solution(x, fwd, evaluate(pred, x)) else fwd

        return eol_step
    if isinstance(inst, SodInstance):
        step = lambda x: inst.step_and_value(x)[0]
    elif isinstance(inst, IterInstance):
        step = inst.step
    else:
        step = inst.succ
    return lambda x: None if verify_solution(inst, x) else step(x)


def start_point(inst: ProblemInstance) -> str:
    """Where path solving begins: the instance's source, else the all-zero
    word (also for end-of-line, which has no source)."""
    source = getattr(inst, "source", None)
    return zeros(inst.n) if source is None else source


def solve_path(inst: ProblemInstance) -> str:
    """Iterate the successor from the source until the solution predicate
    holds; the step budget of 2^n turns guarantee violations into explicit
    errors instead of non-termination."""
    budget = 1 << inst.n
    step = _path_step(inst)
    x = start_point(inst)
    for _ in range(budget + 1):
        nxt = step(x)
        if nxt is None:
            return x
        if nxt == x:
            break  # a non-verifying fixed point can never progress
        x = nxt
    raise MalformedInstanceError(
        f"no verifying candidate within {budget} steps; the instance guarantee must be violated"
    )


def solve_exhaustive(inst: ProblemInstance, bound: int = _TABLE_MAX_INPUTS) -> str:
    """Smallest verifying candidate in lexicographic order; refuses above
    ``bound`` input bits."""
    n = inst.n
    if n > bound:
        raise SolveBoundError(f"exhaustive scan refused: {n} bits exceeds bound {bound}")
    for cand in all_bitstrings(n):
        if verify_solution(inst, cand):
            return cand
    raise MalformedInstanceError("no candidate verifies; the instance guarantee must be violated")


def enumerate_solutions(inst: ProblemInstance, bound: int = _TABLE_MAX_INPUTS) -> list[str]:
    """All verifying candidates in lexicographic order."""
    n = inst.n
    if n > bound:
        raise SolveBoundError(f"exhaustive scan refused: {n} bits exceeds bound {bound}")
    return [cand for cand in all_bitstrings(n) if verify_solution(inst, cand)]
