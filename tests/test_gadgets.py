import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from tfnpkit import gadgets
from tfnpkit.bits import all_bitstrings, from_int, to_int
from tfnpkit.circuit import (
    CONST,
    INPUT,
    OP_AND,
    OP_INPUT,
    OP_NOT,
    OP_OR,
    Circuit,
    Gate,
    evaluate,
    output_masks,
    random_circuit,
    restrict_output,
    size,
)
from tfnpkit.gadgets import GateBuilder, combine_pair, freeze_stage, redirect_zero_inputs
from tfnpkit.problems import SodInstance, circuit_size


class PlainBuilder(GateBuilder):
    """Reference builder without sharing: every gate asked for is appended."""

    def add(self, gate: Gate) -> int:
        self.gates.append(gate)
        return len(self.gates) - 1


def concatenated(succ: Circuit, valuation: Circuit) -> Circuit:
    """Reference pair: the valuation's gates, its INPUT gates included,
    appended with every reference shifted."""
    offset = len(succ.gates)
    gates = list(succ.gates)
    for g in valuation.gates:
        if g.op == OP_NOT:
            g = Gate(OP_NOT, g.a + offset)
        elif g.op in (OP_AND, OP_OR):
            g = Gate(g.op, g.a + offset, g.b + offset)
        gates.append(g)
    outputs = succ.outputs + tuple(r + offset for r in valuation.outputs)
    return Circuit(succ.n, len(outputs), tuple(gates), outputs)


def normalised(g: Gate) -> tuple[str, int, int]:
    if g.op in (OP_AND, OP_OR):
        return g.op, min(g.a, g.b), max(g.a, g.b)
    return g.op, g.a, g.b


def input_gates(c: Circuit) -> list[int]:
    return [g.a for g in c.gates if g.op == OP_INPUT]


def embedded(c: Circuit) -> Circuit:
    b = gadgets.GateBuilder(c.n)  # looked up per call, so the reference run gets PlainBuilder
    return b.circuit(b.embed(c, b.inputs))


def assert_shares(built: Circuit, reference: Circuit) -> None:
    assert output_masks(built) == output_masks(reference)
    assert len(built.gates) <= len(reference.gates)
    keys = [normalised(g) for g in built.gates]
    assert len(set(keys)) == len(keys)


@st.composite
def circuits(draw, extra_outputs: int = 0):
    n = draw(st.integers(1, 4))
    m = n + extra_outputs
    return random_circuit(random.Random(draw(st.integers(0, 2**32))), n, m, draw(st.integers(0, 40)))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(circuits(), st.data())
def test_builder_gadgets_share_every_repeated_gate(c, data):
    n = c.n
    target = from_int(data.draw(st.integers(0, (1 << n) - 1)), n)
    with mock.patch.object(gadgets, "GateBuilder", PlainBuilder):
        plain_embed = embedded(c)
        plain_redirect = redirect_zero_inputs(c, target)
    assert_shares(embedded(c), plain_embed)
    assert_shares(redirect_zero_inputs(c, target), plain_redirect)

    b = GateBuilder(n)
    first = b.embed(c, b.inputs)
    count = len(b.gates)
    assert b.embed(c, b.inputs) == first and len(b.gates) == count


def test_vector_comparison_and_zero_swap_are_exact():
    """``lt_refs`` orders two k-bit vectors, k = 1..3, and ``swap_zero``
    exchanges the all-zero word with each word at n = 1..4, on every input."""
    for k in (1, 2, 3):
        b = GateBuilder(2 * k)
        c = b.circuit([b.lt_refs(b.inputs[:k], b.inputs[k:])])
        for x in all_bitstrings(2 * k):
            assert evaluate(c, x) == str(int(x[:k] < x[k:]))
    for n in (1, 2, 3, 4):
        zero = from_int(0, n)
        for word in all_bitstrings(n):
            b = GateBuilder(n)
            c = b.circuit(b.swap_zero(word, b.inputs))
            for x in all_bitstrings(n):
                assert evaluate(c, x) == (word if x == zero else zero if x == word else x)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(circuits(extra_outputs=2), st.data())
def test_freeze_stage_shares_every_repeated_gate(pair, data):
    n, value_bits = pair.n, pair.m - pair.n
    frozen_below = data.draw(st.integers(0, (1 << value_bits) - 1))
    redirect_to = data.draw(st.one_of(st.none(), st.integers(0, (1 << n) - 1).map(lambda v: from_int(v, n))))
    with mock.patch.object(gadgets, "GateBuilder", PlainBuilder):
        plain = freeze_stage(pair, frozen_below, redirect_to=redirect_to)
    assert_shares(freeze_stage(pair, frozen_below, redirect_to=redirect_to), plain)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(circuits(), st.integers(1, 3), st.integers(0, 2**32))
def test_combine_pair_reads_the_successors_inputs(succ, value_bits, seed):
    """A plain concatenation without duplicate INPUT gates: the same truth
    tables and no more gates than the reference, one INPUT gate per input."""
    valuation = random_circuit(random.Random(seed), succ.n, value_bits, 20)
    pair = combine_pair(succ, valuation)
    reference = concatenated(succ, valuation)
    assert output_masks(pair) == output_masks(reference)
    assert len(pair.gates) == len(reference.gates) - succ.n
    assert sorted(input_gates(pair)) == list(range(succ.n))


def test_combine_pair_adds_inputs_the_successor_lacks():
    succ = Circuit(2, 2, (CONST(0),), (0, 0))  # no INPUT gates at all
    valuation = Circuit(2, 1, (INPUT(0), INPUT(1)), (1,))
    pair = combine_pair(succ, valuation)
    assert input_gates(pair) == [0, 1]
    assert output_masks(pair) == output_masks(concatenated(succ, valuation))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.integers(2, 5), st.data())
def test_composed_queries_match_the_builder_path(value_bits, data):
    """Chains of drops and freezes composed over a raw pair (duplicate,
    constant and dead gates included): at every step the net's size is the
    ``size()`` of the circuit ``restrict_output``/``freeze_stage`` build,
    and ``step_and_value`` agrees with evaluating that circuit."""
    pair = data.draw(circuits(extra_outputs=value_bits))
    n = pair.n
    inst, built = SodInstance.from_pair(pair), pair
    for _ in range(data.draw(st.integers(1, value_bits - 1))):
        m = built.m - n
        if data.draw(st.booleans()):
            inst, built = inst.dropped(), restrict_output(built, n + 1)
        else:
            frozen_below = data.draw(st.integers(0, (1 << m) - 1))
            redirect_to = data.draw(st.one_of(st.none(), st.integers(0, (1 << n) - 1).map(lambda v: from_int(v, n))))
            inst = inst.frozen(frozen_below, redirect_to=redirect_to)
            built = freeze_stage(built, frozen_below, redirect_to=redirect_to)
        assert type(inst) is SodInstance
        assert circuit_size(inst) == size(built)
        for x in all_bitstrings(n):
            out = evaluate(built, x)
            assert inst.step_and_value(x) == (out[:n], to_int(out[n:]))
        assert inst.pair == built
