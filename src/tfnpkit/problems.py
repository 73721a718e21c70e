"""Instance types, well-formedness checks, and solution verifiers.

Five circuit-backed search problems are represented, plus procedure-backed
instances used by the state-graph compiler and the verifiable-line
construction.  All verifiers are total predicates; shape violations raise,
semantic failures return False.

A sink-of-DAG instance is one circuit, ``pair``, on n inputs: its outputs
are the n successor bits, then the valuation bits.  One evaluation reads
both, and it is measured once, so the shared input ports count once.

The sink-finding solution predicate requires a candidate to move
(``succ(v) != v``) in both disjuncts: a point that is already a fixed point
of the successor is never accepted.  Fixed points trivially satisfy the
stalled-valuation clause, and admitting them would let the frozen points
introduced by the halving constructions masquerade as solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

from .bits import check_bits, from_int, to_int, zeros
from .circuit import Circuit, emit_netlist, evaluate, parse_netlist
from .circuit import circuit_from_table, size as circuit_gate_size
from .errors import DimensionError, NetlistError
from .gadgets import combine_pair, split_pair

KIND_ITER = "iter"
KIND_ITER_WS = "iter-with-source"
KIND_SOD = "sink-of-dag"
KIND_SOD_WS = "sink-of-dag-with-source"
KIND_EOL = "end-of-line"


def _require_square(c: Circuit, role: str) -> None:
    if c.n != c.m:
        raise DimensionError(f"{role} circuit must have n == m, got {c.n} -> {c.m}")


@dataclass(frozen=True)
class IterInstance:
    succ: Circuit

    def __post_init__(self):
        _require_square(self.succ, "successor")


@dataclass(frozen=True)
class IterWithSourceInstance:
    succ: Circuit
    source: str

    def __post_init__(self):
        _require_square(self.succ, "successor")
        check_bits(self.source, self.succ.n)


class _SodPair:
    """Successor and valuation of a sink-of-DAG instance, stored as the one
    circuit ``pair``.  ``succ`` and ``valuation`` are views: the circuits
    the instance was built from, or slices of the pair cut on first read."""

    def _init(self, pair: Circuit, **fields):
        """Set ``pair`` and any further fields on the frozen instance."""
        if pair.m <= pair.n:
            raise DimensionError("pair circuit needs at least one valuation output")
        vars(self).update(pair=pair, **fields)
        return self

    @property
    def n(self) -> int:
        return self.pair.n

    @property
    def value_bits(self) -> int:
        return self.pair.m - self.pair.n

    @cached_property
    def _views(self) -> tuple[Circuit, Circuit]:
        return split_pair(self.pair, self.value_bits)

    @property
    def succ(self) -> Circuit:
        return self._views[0]

    @property
    def valuation(self) -> Circuit:
        return self._views[1]

    def step_and_value(self, x: str) -> tuple[str, int]:
        """Successor word and valuation at ``x``, from one evaluation."""
        out = evaluate(self.pair, x)
        return out[: self.n], to_int(out[self.n :])


@dataclass(frozen=True, init=False)
class SodInstance(_SodPair):
    pair: Circuit

    def __init__(self, succ: Circuit, valuation: Circuit):
        self._init(combine_pair(succ, valuation), _views=(succ, valuation))

    @classmethod
    def from_pair(cls, pair: Circuit) -> "SodInstance":
        return cls.__new__(cls)._init(pair)


@dataclass(frozen=True, init=False)
class SodWithSourceInstance(_SodPair):
    pair: Circuit
    source: str

    def __init__(self, succ: Circuit, valuation: Circuit, source: str):
        views = (succ, valuation)
        self._init(combine_pair(*views), _views=views, source=check_bits(source, succ.n))

    @classmethod
    def from_pair(cls, pair: Circuit, source: str) -> "SodWithSourceInstance":
        return cls.__new__(cls)._init(pair, source=check_bits(source, pair.n))


@dataclass(frozen=True)
class EolInstance:
    succ: Circuit
    pred: Circuit

    def __post_init__(self):
        _require_square(self.succ, "successor")
        _require_square(self.pred, "predecessor")
        if self.pred.n != self.succ.n:
            raise DimensionError("successor and predecessor must share the input width")


@dataclass(frozen=True, eq=False)
class SuccessorOracle:
    """Deterministic, length-preserving next-step map, backed either by a
    circuit or by an arbitrary procedure."""

    fn: Callable[[str], str]
    n: int

    def __call__(self, x: str) -> str:
        check_bits(x, self.n)
        out = self.fn(x)
        return check_bits(out, self.n)

    @classmethod
    def from_circuit(cls, c: Circuit) -> "SuccessorOracle":
        _require_square(c, "successor")
        return cls(fn=lambda x: evaluate(c, x), n=c.n)


@dataclass(frozen=True, eq=False)
class ImplicitSodInstance:
    """Sink-finding instance whose successor and valuation are procedures
    rather than circuits."""

    succ: SuccessorOracle
    valuation: Callable[[str], int]
    source: str

    def __post_init__(self):
        check_bits(self.source, self.succ.n)

    @property
    def n(self) -> int:
        return self.succ.n


@dataclass(frozen=True, eq=False)
class SvlInstance:
    """Verifiable-line instance.  The promise that the verifier accepts
    exactly the i-th point of the successor walk cannot be checked in
    general; a desk-scale checker lives in :mod:`tfnpkit.svl`."""

    succ: SuccessorOracle
    source: str
    target: int
    verifier: Callable[[str, int], bool]

    def __post_init__(self):
        check_bits(self.source, self.succ.n)
        if self.target < 1:
            raise DimensionError("target index must be at least 1")

    @property
    def n(self) -> int:
        return self.succ.n


CircuitInstance = Union[
    IterInstance, IterWithSourceInstance, SodInstance, SodWithSourceInstance, EolInstance
]
ProblemInstance = Union[CircuitInstance, ImplicitSodInstance, SvlInstance]

_KIND_OF = {
    IterInstance: KIND_ITER,
    IterWithSourceInstance: KIND_ITER_WS,
    SodInstance: KIND_SOD,
    SodWithSourceInstance: KIND_SOD_WS,
    EolInstance: KIND_EOL,
}


def kind_of(inst: ProblemInstance) -> str:
    return _KIND_OF.get(type(inst), type(inst).__name__)


def instance_bits(inst: ProblemInstance) -> int:
    """Width of candidate solutions."""
    if isinstance(inst, (_SodPair, ImplicitSodInstance, SvlInstance)):
        return inst.n
    return inst.succ.n


def io_dims(inst: CircuitInstance) -> tuple[int, int]:
    """Total input and output bit counts, reading a multi-circuit instance
    as one circuit with shared inputs and concatenated outputs."""
    if isinstance(inst, _SodPair):
        return inst.pair.n, inst.pair.m
    if isinstance(inst, EolInstance):
        return inst.succ.n, inst.succ.m + inst.pred.m
    return inst.succ.n, inst.succ.m


def circuit_size(inst: CircuitInstance) -> int:
    """Circuit size; a sink-of-DAG instance is measured once, as its pair."""
    if isinstance(inst, _SodPair):
        return circuit_gate_size(inst.pair)
    if isinstance(inst, EolInstance):
        return circuit_gate_size(inst.succ) + circuit_gate_size(inst.pred)
    return circuit_gate_size(inst.succ)


def instance_size(inst: CircuitInstance) -> int:
    """Encoded size stand-in: circuit size plus any explicit source bits."""
    extra = len(inst.source) if isinstance(inst, (IterWithSourceInstance, SodWithSourceInstance)) else 0
    return circuit_size(inst) + extra


def well_formed(inst: ProblemInstance) -> bool:
    """Does the instance satisfy the guarantee its kind promises?"""
    if isinstance(inst, IterInstance):
        start = zeros(inst.succ.n)
        return evaluate(inst.succ, start) > start
    if isinstance(inst, IterWithSourceInstance):
        return evaluate(inst.succ, inst.source) > inst.source
    if isinstance(inst, _SodPair):
        start = inst.source if isinstance(inst, SodWithSourceInstance) else zeros(inst.n)
        return inst.step_and_value(start)[0] != start
    if isinstance(inst, EolInstance):
        start = zeros(inst.succ.n)
        return evaluate(inst.succ, start) != start and evaluate(inst.pred, start) == start
    if isinstance(inst, ImplicitSodInstance):
        return inst.succ(inst.source) != inst.source
    if isinstance(inst, SvlInstance):
        return bool(inst.verifier(inst.source, 1))
    raise TypeError(f"unknown instance type: {type(inst).__name__}")


def verify_solution(inst: ProblemInstance, cand: str) -> bool:
    """Does ``cand`` satisfy the solution predicate?  Costs at most two
    successor evaluations (plus two valuation reads where applicable)."""
    check_bits(cand, instance_bits(inst))
    if isinstance(inst, (IterInstance, IterWithSourceInstance)):
        step = evaluate(inst.succ, cand)
        if step <= cand:
            return False
        return evaluate(inst.succ, step) <= step
    if isinstance(inst, _SodPair):
        step, value = inst.step_and_value(cand)
        if step == cand:
            return False
        after, step_value = inst.step_and_value(step)
        return after == step or step_value <= value
    if isinstance(inst, ImplicitSodInstance):
        step = inst.succ(cand)
        if step == cand:
            return False
        if inst.succ(step) == step:
            return True
        return inst.valuation(step) <= inst.valuation(cand)
    if isinstance(inst, EolInstance):
        start = zeros(inst.succ.n)
        fwd = evaluate(inst.succ, cand)
        back = evaluate(inst.pred, cand)
        is_source = cand != start and fwd != cand and back == cand
        is_sink = back != cand and fwd == cand
        return is_source or is_sink
    if isinstance(inst, SvlInstance):
        return bool(inst.verifier(cand, inst.target))
    raise TypeError(f"unknown instance type: {type(inst).__name__}")


# --- instance envelope files -------------------------------------------------
#
#   problem <kind>
#   circuit succ inputs=<n> outputs=<n>
#   ...
#   circuit valuation inputs=<n> outputs=<m>   (sink-of-dag kinds)
#   circuit pred inputs=<n> outputs=<n>        (end-of-line)
#   source=<bits>                              (with-source kinds)

_ROLES = {
    KIND_ITER: ("succ",),
    KIND_ITER_WS: ("succ",),
    KIND_SOD: ("succ", "valuation"),
    KIND_SOD_WS: ("succ", "valuation"),
    KIND_EOL: ("succ", "pred"),
}
_WITH_SOURCE = (KIND_ITER_WS, KIND_SOD_WS)


def emit_instance(inst: CircuitInstance) -> str:
    kind = kind_of(inst)
    if kind not in _ROLES:
        raise TypeError(f"{type(inst).__name__} has no file form")
    parts = [f"problem {kind}"]
    for role in _ROLES[kind]:
        c: Circuit = getattr(inst, "pred" if role == "pred" else role)
        parts.append(emit_netlist(Circuit(c.n, c.m, c.gates, c.outputs, name=role)).rstrip("\n"))
    if kind in _WITH_SOURCE:
        parts.append(f"source={inst.source}")
    return "\n".join(parts) + "\n"


def parse_instance(text: str) -> CircuitInstance:
    lines = text.splitlines()
    kind: str | None = None
    blocks: dict[str, Circuit] = {}
    starts: dict[str, int] = {}
    source: str | None = None
    source_line: int | None = None
    block_start: int | None = None

    def close_block(end: int) -> None:
        nonlocal block_start
        if block_start is None:
            return
        c = parse_netlist("\n".join(lines[block_start - 1 : end]), first_line=block_start)
        if c.name in blocks:
            raise NetlistError(f"duplicate circuit block {c.name!r}", block_start)
        blocks[c.name] = c
        starts[c.name] = block_start
        block_start = None

    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("problem "):
            close_block(lineno - 1)
            if kind is not None:
                raise NetlistError("duplicate problem line", lineno)
            kind = stripped.split(None, 1)[1].strip()
            if kind not in _ROLES:
                raise NetlistError(f"unknown problem kind {kind!r}", lineno)
            continue
        if stripped.startswith("circuit "):
            close_block(lineno - 1)
            block_start = lineno
            continue
        if stripped.startswith("source="):
            close_block(lineno - 1)
            if source is not None:
                raise NetlistError("duplicate source line", lineno)
            source = stripped[len("source=") :].strip()
            source_line = lineno
            continue
        if block_start is None:
            raise NetlistError(f"unexpected line outside circuit block: {stripped!r}", lineno)
    close_block(len(lines))

    if kind is None:
        raise NetlistError("missing problem line")
    roles = _ROLES[kind]
    missing = [r for r in roles if r not in blocks]
    if missing:
        raise NetlistError(f"missing circuit block(s): {missing}")
    extra = [name for name in blocks if name not in roles]
    if extra:
        raise NetlistError(f"unexpected circuit block(s): {extra}")
    if kind in _WITH_SOURCE:
        if source is None:
            raise NetlistError("missing source line")
    elif source is not None:
        raise NetlistError(f"problem kind {kind} takes no source")

    try:
        if kind == KIND_ITER:
            return IterInstance(blocks["succ"])
        if kind == KIND_ITER_WS:
            return IterWithSourceInstance(blocks["succ"], source)
        if kind == KIND_SOD:
            return SodInstance(blocks["succ"], blocks["valuation"])
        if kind == KIND_SOD_WS:
            return SodWithSourceInstance(blocks["succ"], blocks["valuation"], source)
        return EolInstance(blocks["succ"], blocks["pred"])
    except DimensionError as exc:
        raise NetlistError(str(exc), _misfit_line(blocks, starts, source_line)) from None


def _misfit_line(blocks: dict[str, Circuit], starts: dict[str, int], source_line: int | None) -> int | None:
    """Line of the first block, in file order, whose shape does not fit the
    successor's n inputs (only a valuation may have a different output
    count); the source line when every block fits."""
    n = blocks["succ"].n
    for role, c in blocks.items():
        if c.n != n or (role != "valuation" and c.m != n):
            return starts[role]
    return source_line


# --- random generation -------------------------------------------------------


def random_instance(kind: str, n: int, rng, m: int | None = None) -> CircuitInstance:
    """Random well-formed instance built from a random function table via the
    multiplexer synthesiser; rejection-samples until the guarantee holds."""
    if n < 1 or n > 12:
        raise DimensionError("random instances support 1 <= n <= 12")
    m = n if m is None else m
    space = 1 << n
    if kind == KIND_ITER:
        while True:
            table = [rng.randrange(space) for _ in range(space)]
            if table[0] > 0:
                return IterInstance(circuit_from_table(table, n, n, name="succ"))
    if kind == KIND_ITER_WS:
        while True:
            table = [rng.randrange(space) for _ in range(space)]
            starts = [x for x in range(space) if table[x] > x]
            if starts:
                src = rng.choice(starts)
                return IterWithSourceInstance(
                    circuit_from_table(table, n, n, name="succ"), from_int(src, n)
                )
    if kind in (KIND_SOD, KIND_SOD_WS):
        while True:
            table = [rng.randrange(space) for _ in range(space)]
            values = [rng.randrange(1 << m) for _ in range(space)]
            succ = circuit_from_table(table, n, n, name="succ")
            val = circuit_from_table(values, n, m, name="valuation")
            if kind == KIND_SOD:
                if table[0] != 0:
                    return SodInstance(succ, val)
                continue
            starts = [x for x in range(space) if table[x] != x]
            if starts:
                return SodWithSourceInstance(succ, val, from_int(rng.choice(starts), n))
    if kind == KIND_EOL:
        # a consistent directed path from the all-zero node; everything else
        # is an isolated fixed point of both circuits
        nodes = list(range(1, space))
        rng.shuffle(nodes)
        length = rng.randrange(1, space)
        path = [0] + nodes[:length]
        succ_table = list(range(space))
        pred_table = list(range(space))
        for a, b in zip(path, path[1:]):
            succ_table[a] = b
            pred_table[b] = a
        return EolInstance(
            circuit_from_table(succ_table, n, n, name="succ"),
            circuit_from_table(pred_table, n, n, name="pred"),
        )
    raise ValueError(f"unknown problem kind {kind!r}")
