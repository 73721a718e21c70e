"""Independent answer checks for the benchmark.

Nothing here calls into ``tfnpkit``: truth tables are computed from a
circuit's public gate list by a word-parallel pass written for the
benchmark, and solution sets are enumerated from those tables with the
problem definitions spelled out again.  A defect in the toolkit's own
evaluator, verifiers or solvers therefore cannot hide a wrong answer.
"""

from __future__ import annotations


def _input_mask(n: int, k: int) -> int:
    """Bit x of the result is input bit k (most significant first) of x:
    runs of ``block`` zeros then ``block`` ones, repeated 2^k times."""
    block = 1 << (n - 1 - k)
    period = 2 * block
    piece = ((1 << block) - 1) << block
    return piece * ((1 << (1 << n)) - 1) // ((1 << period) - 1)


def truth_table(c) -> list[int]:
    """Entry x is the circuit's output word on input value x."""
    full = (1 << (1 << c.n)) - 1
    vals: list[int] = []
    for g in c.gates:
        if g.op == "input":
            vals.append(_input_mask(c.n, g.a))
        elif g.op == "const":
            vals.append(full if g.a else 0)
        elif g.op == "not":
            vals.append(full ^ vals[g.a])
        elif g.op == "and":
            vals.append(vals[g.a] & vals[g.b])
        elif g.op == "or":
            vals.append(vals[g.a] | vals[g.b])
        else:
            raise ValueError(f"unknown gate op {g.op!r}")
    table = [0] * (1 << c.n)
    for r in c.outputs:
        mask = vals[r]
        table = [(v << 1) | ((mask >> x) & 1) for x, v in enumerate(table)]
    return table


# Which circuits of an instance each problem kind reads, in order.
ROLES = {
    "iter": ("succ",),
    "iter-with-source": ("succ",),
    "sink-of-dag": ("succ", "valuation"),
    "sink-of-dag-with-source": ("succ", "valuation"),
    "end-of-line": ("succ", "pred"),
}


def tables(inst, kind: str) -> tuple[list[int], ...]:
    return tuple(truth_table(getattr(inst, role)) for role in ROLES[kind])


def iter_solutions(succ: list[int]) -> set[int]:
    """Points whose step ascends and whose step's step does not."""
    return {v for v, w in enumerate(succ) if w > v and succ[w] <= w}


def sod_solutions(succ: list[int], val: list[int]) -> set[int]:
    """Points that move and whose step is a sink or does not raise the valuation."""
    return {
        v
        for v, w in enumerate(succ)
        if w != v and (succ[w] == w or val[w] <= val[v])
    }


def eol_solutions(succ: list[int], pred: list[int]) -> set[int]:
    """Sources other than the all-zero point, and sinks."""
    return {
        v
        for v in range(len(succ))
        if (v != 0 and succ[v] != v and pred[v] == v) or (pred[v] != v and succ[v] == v)
    }


def solutions(kind: str, tabs: tuple[list[int], ...]) -> set[int]:
    if kind in ("iter", "iter-with-source"):
        return iter_solutions(*tabs)
    if kind in ("sink-of-dag", "sink-of-dag-with-source"):
        return sod_solutions(*tabs)
    return eol_solutions(*tabs)


def combine_answer(x: str) -> str:
    """Answer of the recursive-combine fixture: a single bit answers
    itself; a longer word answers with the XOR of the answers for its
    prefix and for the prefix's complement, followed by its parity bit."""
    if len(x) == 1:
        return x
    prefix = x[:-1]
    flipped = prefix.translate(str.maketrans("01", "10"))
    a, b = combine_answer(prefix), combine_answer(flipped)
    xor = "".join("1" if p != q else "0" for p, q in zip(a, b))
    return xor + str(x.count("1") & 1)


def walk_length(n: int) -> int:
    """States on the compiled walk of a two-query-per-level program of size n."""
    return (1 << (n + 1)) - 2
