"""Small gate-level building blocks shared by the reductions.

All builders work on a :class:`GateBuilder`, which accumulates a gate list
with inputs first and hands out integer references.  The builder is
hash-consed (structural hashing, as in AIG packages): asking for a gate it
has already built, with AND/OR operands in either order, returns the
existing reference, so embedded circuits that repeat each other's logic,
such as the successor and valuation minterm trees of a sink-of-DAG pair,
are built once.  The library covers the pieces the constructions need:
compare-to-constant, vector equality and order, redirect-on-match input
stages, the swap of the all-zero word with another, and value-threshold
freezes.
"""

from __future__ import annotations

import copy
from typing import Callable, Sequence

from .bits import check_bits, from_int
from .circuit import (
    AND,
    CONST,
    INPUT,
    NOT,
    OP_AND,
    OP_CONST,
    OP_INPUT,
    OP_NOT,
    OR,
    Circuit,
    GATE_COST,
    Gate,
    _derived,
    project_outputs,
)
from .errors import DimensionError


class GateBuilder:
    def __init__(self, n: int):
        self.n = n
        self.gates: list[Gate] = []
        self._refs: dict[Gate, int] = {}
        self.inputs = [self.add(INPUT(k)) for k in range(n)]

    def add(self, gate: Gate) -> int:
        """Reference to ``gate``: the existing one when an equal gate was
        built before, else a new one.  ``and_`` and ``or_`` put the smaller
        operand first, so AND/OR operands in either order find one gate."""
        ref = self._refs.get(gate)
        if ref is None:
            ref = self._refs[gate] = len(self.gates)
            self.gates.append(gate)
        return ref

    def const(self, bit: int) -> int:
        return self.add(CONST(bit))

    def not_(self, a: int) -> int:
        return self.add(NOT(a))

    def and_(self, a: int, b: int) -> int:
        return self.add(AND(a, b) if a <= b else AND(b, a))

    def or_(self, a: int, b: int) -> int:
        return self.add(OR(a, b) if a <= b else OR(b, a))

    def and_all(self, refs: Sequence[int]) -> int:
        if not refs:
            return self.const(1)
        acc = refs[0]
        for r in refs[1:]:
            acc = self.and_(acc, r)
        return acc

    def or_all(self, refs: Sequence[int]) -> int:
        if not refs:
            return self.const(0)
        acc = refs[0]
        for r in refs[1:]:
            acc = self.or_(acc, r)
        return acc

    def eq_zero(self, refs: Sequence[int]) -> int:
        return self.and_all([self.not_(r) for r in refs])

    def eq_refs(self, a_refs: Sequence[int], b_refs: Sequence[int]) -> int:
        if len(a_refs) != len(b_refs):
            raise DimensionError("vector equality needs equal widths")
        bits = []
        for a, b in zip(a_refs, b_refs):
            both = self.and_(a, b)
            neither = self.and_(self.not_(a), self.not_(b))
            bits.append(self.or_(both, neither))
        return self.and_all(bits)

    def lt_const(self, refs: Sequence[int], bits: str) -> int:
        """Reference that is true iff the value on ``refs`` (MSB first) is
        strictly below the constant ``bits``."""
        check_bits(bits, len(refs))
        terms = []
        prefix: int | None = None
        for r, b in zip(refs, bits):
            if b == "1":
                low = self.not_(r)
                terms.append(low if prefix is None else self.and_(prefix, low))
            eq = r if b == "1" else self.not_(r)
            prefix = eq if prefix is None else self.and_(prefix, eq)
        return self.or_all(terms)

    def lt_refs(self, a_refs: Sequence[int], b_refs: Sequence[int]) -> int:
        """Reference that is true iff the value on ``a_refs`` is strictly
        below the value on ``b_refs`` (both MSB first)."""
        if len(a_refs) != len(b_refs):
            raise DimensionError("vector comparison needs equal widths")
        terms = []
        prefix: int | None = None
        for a, b in zip(a_refs, b_refs):
            na, nb = self.not_(a), self.not_(b)
            below = self.and_(na, b)
            terms.append(below if prefix is None else self.and_(prefix, below))
            eq = self.or_(self.and_(a, b), self.and_(na, nb))
            prefix = eq if prefix is None else self.and_(prefix, eq)
        return self.or_all(terms)

    def mux(self, sel: int, then_refs: Sequence[int], else_refs: Sequence[int]) -> list[int]:
        if len(then_refs) != len(else_refs):
            raise DimensionError("mux arms need equal widths")
        nsel = self.not_(sel)
        return [
            self.or_(self.and_(sel, t), self.and_(nsel, e))
            for t, e in zip(then_refs, else_refs)
        ]

    def redirect_zero(self, bits: str, refs: Sequence[int]) -> list[int]:
        """``refs`` on every input except the all-zero one, where the
        result carries the hardcoded word ``bits`` instead."""
        return self.mux_const(self.eq_zero(self.inputs), bits, refs)

    def swap_zero(self, bits: str, refs: Sequence[int]) -> list[int]:
        """``refs`` with the all-zero word and the word ``bits`` exchanged:
        either of the two is XORed with ``bits``, every other word passes."""
        check_bits(bits, len(refs))
        is_word = self.and_all([r if b == "1" else self.not_(r) for r, b in zip(refs, bits)])
        sel = self.or_(self.eq_zero(refs), is_word)
        nsel = self.not_(sel)
        return [
            self.or_(self.and_(sel, self.not_(r)), self.and_(nsel, r)) if b == "1" else r
            for r, b in zip(refs, bits)
        ]

    def mux_const(self, sel: int, bits: str, else_refs: Sequence[int]) -> list[int]:
        """Mux whose selected arm is a hardcoded word: bit 1 becomes OR with
        the selector, bit 0 an AND with its negation."""
        check_bits(bits, len(else_refs))
        nsel = self.not_(sel)
        out = []
        for b, e in zip(bits, else_refs):
            out.append(self.or_(sel, e) if b == "1" else self.and_(nsel, e))
        return out

    def embed(self, c: Circuit, input_refs: Sequence[int]) -> list[int]:
        """Append a copy of ``c`` reading its inputs from ``input_refs``;
        returns the references carrying its outputs."""
        if len(input_refs) != c.n:
            raise DimensionError("embedding needs one reference per input")
        refs: list[int] = []
        for op, a, b in c.gates:
            if op == OP_INPUT:
                refs.append(input_refs[a])
            elif op == OP_CONST:
                refs.append(self.const(a))
            elif op == OP_NOT:
                refs.append(self.not_(refs[a]))
            elif op == OP_AND:
                refs.append(self.and_(refs[a], refs[b]))
            else:
                refs.append(self.or_(refs[a], refs[b]))
        return [refs[r] for r in c.outputs]

    def circuit(self, outputs: Sequence[int], name: str = "c") -> Circuit:
        return _derived(self.n, tuple(self.gates), tuple(outputs), name)


# No caller in the toolkit; read by SPANS in bench/tracing.py and by the gadget tests.
def redirect_zero_inputs(c: Circuit, target: str, name: str | None = None) -> Circuit:
    """Wrap ``c`` with an input stage mapping the all-zero input to the
    hardcoded ``target`` word and passing every other input through."""
    b = GateBuilder(c.n)
    outs = b.embed(c, b.redirect_zero(target, b.inputs))
    return b.circuit(outs, name=name or c.name)


def redirect_zero_outputs(c: Circuit, word: str, name: str | None = None) -> Circuit:
    """Wrap ``c`` with an output stage giving the hardcoded ``word`` on the
    all-zero input and ``c``'s outputs on every other input."""
    b = GateBuilder(c.n)
    return b.circuit(b.redirect_zero(word, b.embed(c, b.inputs)), name=name or c.name)


def combine_pair(succ: Circuit, valuation: Circuit, name: str = "pair") -> Circuit:
    """One circuit computing successor and valuation on shared inputs, with
    the successor bits first.  The valuation's gates follow, renumbered; its
    INPUT gates read the successor's (one is appended for an input the
    successor has no gate for), so the pair has no duplicate inputs."""
    if succ.n != succ.m:
        raise DimensionError(f"successor circuit must have n == m, got {succ.n} -> {succ.m}")
    if valuation.n != succ.n:
        raise DimensionError("valuation must read the same inputs as the successor")
    gates = list(succ.gates)
    input_refs: dict[int, int] = {}
    for idx, (op, a, _) in enumerate(gates):
        if op == OP_INPUT:
            input_refs.setdefault(a, idx)
    refs: list[int] = []
    for g in valuation.gates:
        op, a, b = g
        if op == OP_INPUT:
            if a in input_refs:
                refs.append(input_refs[a])
                continue
            input_refs[a] = len(gates)
        elif op == OP_NOT:
            g = NOT(refs[a])
        elif op != OP_CONST:
            g = Gate(op, refs[a], refs[b])
        refs.append(len(gates))
        gates.append(g)
    outputs = succ.outputs + tuple(refs[r] for r in valuation.outputs)
    return _derived(succ.n, tuple(gates), outputs, name)


def split_pair(combined: Circuit, value_bits: int) -> tuple[Circuit, Circuit]:
    """Slice a combined successor/valuation circuit back into the two views."""
    n = combined.n
    if combined.m != n + value_bits:
        raise DimensionError("combined circuit has the wrong output count")
    succ = project_outputs(combined, range(n))
    valuation = project_outputs(combined, range(n, n + value_bits))
    return succ, valuation


def freeze_stage(
    combined: Circuit,
    frozen_below: int,
    *,
    redirect_to: str | None = None,
    name: str = "frozen",
) -> Circuit:
    """Next combined circuit of the valuation-halving step.

    Drops the valuation's most significant bit, freezes every point whose
    full valuation is strictly below ``frozen_below`` (the successor outputs
    the point itself there), and optionally redirects the all-zero input to
    ``redirect_to`` before anything else runs.  The valuation is computed
    once and shared between the threshold comparison and the remaining
    valuation outputs, so the size grows only by the gadget overhead.
    """
    b = GateBuilder(combined.n)
    outs = _freeze(b, lambda staged: (staged, b.embed(combined, staged)), frozen_below, redirect_to)
    return b.circuit(outs, name=name)


def _freeze(
    b: GateBuilder,
    embed: Callable[[list[int]], tuple[list[int], list[int]]],
    frozen_below: int,
    redirect_to: str | None,
) -> list[int]:
    """The freeze step's one sequence: stage, embed, threshold, mux.

    ``embed(staged)`` makes the parent read the staged inputs and returns
    the references that then carry the staged words and the parent's
    outputs; the result is the references of the frozen outputs."""
    n = b.n
    staged = b.inputs if redirect_to is None else b.redirect_zero(redirect_to, b.inputs)
    staged, refs = embed(staged)
    s_refs, v_refs = refs[:n], refs[n:]
    if len(v_refs) < 2:
        raise DimensionError("freezing needs at least two valuation bits")
    frozen = b.lt_const(v_refs, from_int(frozen_below, len(v_refs)))
    return b.mux(frozen, staged, s_refs) + v_refs[1:]


def _operands(g: Gate) -> tuple[int, ...]:
    op, a, b = g
    if op not in GATE_COST:
        return ()
    return (a,) if op == OP_NOT else (a, b)


class Net(GateBuilder):
    """A hash-consed gate table with reference counts: the form in which a
    sink-of-DAG query holds its circuit.

    Nodes are never renumbered.  A node is counted once for each node that
    reads it and once for each output that names it; a node other than an
    INPUT whose count is 0 is dead, and stays until the next :meth:`drop`
    deletes every dead node, as ``project_outputs`` would.  The table holds
    exactly the gates of the circuit the builder path makes for the same
    steps (``freeze_stage`` and ``restrict_output``, from a parent that is
    hash-consed), so ``size`` equals that circuit's ``size()``.
    """

    def __init__(self, n: int):
        self.counts: list[int] = []
        self.dead: set[int] = set()
        self.cost = 0
        self.outputs: list[int] = []
        super().__init__(n)

    @classmethod
    def of(cls, c: Circuit) -> "Net":
        """The net of ``c`` hash-consed: one node per distinct gate.  A gate
        of ``c`` that feeds no output stays, dead, until the next drop, as
        it does in a builder that embeds ``c``."""
        net = cls(c.n)
        net._set_outputs(net.embed(c, net.inputs))
        return net

    @property
    def size(self) -> int:
        """``size()`` of the circuit the table stands for."""
        return self.cost + self.n + len(self.outputs)

    def add(self, gate: Gate) -> int:
        ref = super().add(gate)
        if ref == len(self.counts):  # a new node
            self.counts.append(0)
            g = self.gates[ref]
            if g.op != OP_INPUT:
                self.dead.add(ref)
                self.cost += GATE_COST.get(g.op, 0)
                for operand in _operands(g):
                    self._hold(operand)
        return ref

    def drop(self, position: int) -> "Net":
        """A copy without output ``position`` (0-based) and without every
        gate that then feeds no output; INPUT nodes stay."""
        net = self._copy()
        net._release(net.outputs.pop(position))
        while net.dead:
            ref = net.dead.pop()
            g = net.gates[ref]
            net.gates[ref] = None
            del net._refs[g]
            net.cost -= GATE_COST.get(g.op, 0)
            for operand in _operands(g):
                net._release(operand)
        return net

    def freeze(self, frozen_below: int, redirect_to: str | None = None) -> "Net":
        """A copy after ``freeze_stage``'s step.  The redirect stage reads
        new INPUT nodes, and the old INPUT nodes take over the staged gates
        (the substitution is injective on a hash-consed table, so no other
        node changes); only the threshold and mux gates are looked up."""
        net = self._copy()
        held = net.inputs
        if redirect_to is not None:
            for k in range(net.n):
                del net._refs[INPUT(k)]
            net.inputs = [net.add(INPUT(k)) for k in range(net.n)]

        def embed(staged: list[int]) -> tuple[list[int], list[int]]:
            for old, new in zip(held, staged):
                if old != new:
                    net._take_over(old, new)
            return held, net.outputs

        net._set_outputs(_freeze(net, embed, frozen_below, redirect_to))
        return net

    def _copy(self) -> "Net":
        net = copy.copy(self)
        net.gates = self.gates.copy()
        net._refs = self._refs.copy()
        net.counts = self.counts.copy()
        net.dead = self.dead.copy()
        net.outputs = self.outputs.copy()
        return net

    def _take_over(self, old: int, new: int) -> None:
        """Node ``old`` becomes the fresh, unread node ``new``, which goes."""
        g = self.gates[old] = self.gates[new]
        self.gates[new] = None
        self._refs[g] = old
        self.dead.discard(new)
        if self.counts[old] == 0:
            self.dead.add(old)

    def _set_outputs(self, refs: list[int]) -> None:
        for ref in refs:
            self._hold(ref)
        for ref in self.outputs:
            self._release(ref)
        self.outputs = refs

    def _hold(self, ref: int) -> None:
        if self.counts[ref] == 0:
            self.dead.discard(ref)
        self.counts[ref] += 1

    def _release(self, ref: int) -> None:
        self.counts[ref] -= 1
        if self.counts[ref] == 0 and self.gates[ref].op != OP_INPUT:
            self.dead.add(ref)
