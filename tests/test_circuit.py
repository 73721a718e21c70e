import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfnpkit import (
    AND,
    CONST,
    INPUT,
    NOT,
    OR,
    Circuit,
    Gate,
    circuit_from_table,
    emit_netlist,
    evaluate,
    identity_circuit,
    layers,
    output_masks,
    parse_netlist,
    random_circuit,
    restrict_half,
    restrict_input,
    restrict_output,
    size,
    successor_table,
)
from tfnpkit.bits import all_bitstrings, splice
from tfnpkit.circuit import constant_circuit, eval_table, pad_with_dead_gates, project_outputs
from tfnpkit.errors import DimensionError, NetlistError, RestrictionError
from tfnpkit.gadgets import combine_pair, freeze_stage, redirect_zero_outputs
from tfnpkit.problems import SodInstance

from conftest import naive_evaluate


def test_identity_passthrough():
    c = identity_circuit(2)
    assert evaluate(c, "10") == "10"


def test_single_not():
    c = Circuit(1, 1, (INPUT(0), NOT(0)), (1,))
    assert evaluate(c, "0") == "1"
    assert evaluate(c, "1") == "0"


def test_evaluate_matches_naive_interpreter(rng):
    for _ in range(40):
        c = random_circuit(rng, 4, 3, 8)
        for x in all_bitstrings(4):
            assert evaluate(c, x) == naive_evaluate(c, x)


def test_output_masks_match_evaluate(rng):
    for n in (1, 5, 9):
        for c in [identity_circuit(n)] + [random_circuit(rng, n, 2, 12) for _ in range(25)]:
            masks = output_masks(c)
            for value, x in enumerate(all_bitstrings(n)):
                got = "".join(str((m >> value) & 1) for m in masks)
                assert got == evaluate(c, x)


def test_evaluate_arity_error():
    with pytest.raises(DimensionError):
        evaluate(identity_circuit(2), "101")


def test_restrict_input_passthrough_rule():
    # AND(x1,x2) with x1 fixed to 1 collapses to the remaining input
    c = Circuit(2, 1, (INPUT(0), INPUT(1), AND(0, 1)), (2,))
    r = restrict_input(c, 1, 1)
    assert r.n == 1
    assert evaluate(r, "0") == "0" and evaluate(r, "1") == "1"
    assert not any(g.op == "and" for g in r.gates)


def test_restrict_input_short_circuit_rule():
    c = Circuit(2, 1, (INPUT(0), INPUT(1), AND(0, 1)), (2,))
    r = restrict_input(c, 1, 0)
    assert evaluate(r, "0") == "0" and evaluate(r, "1") == "0"


def test_restrict_input_semantics_exhaustive(rng):
    for _ in range(60):
        c = random_circuit(rng, 5, 3, 10)
        for i in range(1, c.n + 1):
            for b in (0, 1):
                r = restrict_input(c, i, b)
                assert r.n == c.n - 1 and r.m == c.m
                for y in all_bitstrings(c.n - 1):
                    assert evaluate(r, y) == evaluate(c, splice(y, i, b))
                assert size(r) < size(c)


def test_restrict_input_shrinks_even_unused_and_direct_outputs():
    # unused input: nothing propagates, only the port disappears
    c = Circuit(2, 1, (INPUT(0), INPUT(1)), (1,))
    assert size(restrict_input(c, 1, 0)) < size(c)
    # output reads the restricted input directly: a constant residue remains
    ident = identity_circuit(2)
    r = restrict_input(ident, 1, 0)
    assert evaluate(r, "1") == "01"
    assert size(r) < size(ident)


def test_restrict_output_drops_exclusive_cone():
    c = Circuit(1, 2, (INPUT(0), NOT(0)), (0, 1))
    r = restrict_output(c, 2)
    assert r.m == 1 and evaluate(r, "1") == "1"
    assert not any(g.op == "not" for g in r.gates)
    assert size(r) < size(c)


def test_restrict_output_shared_cone_keeps_gates():
    c = Circuit(2, 2, (INPUT(0), INPUT(1), AND(0, 1)), (2, 2))
    r = restrict_output(c, 1)
    assert sum(1 for g in r.gates if g.op == "and") == 1
    assert size(r) < size(c)  # the output wire itself is gone


def test_restrict_output_semantics(rng):
    for _ in range(60):
        c = random_circuit(rng, 4, 4, 10)
        for j in range(1, c.m + 1):
            r = restrict_output(c, j)
            for x in all_bitstrings(c.n):
                full = evaluate(c, x)
                assert evaluate(r, x) == full[: j - 1] + full[j:]
            assert size(r) <= size(c)


def test_restriction_errors():
    c = identity_circuit(2)
    with pytest.raises(RestrictionError):
        restrict_input(c, 0, 1)
    with pytest.raises(RestrictionError):
        restrict_input(c, 3, 1)
    with pytest.raises(RestrictionError):
        restrict_output(c, 5)
    one = Circuit(1, 1, (INPUT(0),), (0,))
    with pytest.raises(RestrictionError):
        restrict_output(one, 1)


def test_layers_property(rng):
    for _ in range(25):
        c = random_circuit(rng, 4, 2, 12)
        lay = layers(c)
        for idx, g in enumerate(c.gates):
            if g.op == "not":
                assert lay[idx] > lay[g.a]
            elif g.op in ("and", "or"):
                assert lay[idx] > max(lay[g.a], lay[g.b])
            else:
                assert lay[idx] == 1


def test_project_outputs_agrees_with_iterated_restriction(rng):
    for _ in range(20):
        c = random_circuit(rng, 4, 4, 9)
        direct = project_outputs(c, [0, 2])
        via = restrict_output(restrict_output(c, 4), 2)
        assert eval_table(direct) == eval_table(via)


def reference_restrict_input(c: Circuit, position: int, bit: int) -> Circuit:
    """The constant-folding loop as it stood before the one-pass restriction:
    ``("c", bit)`` constants and a Gate for every surviving value."""
    k0 = position - 1
    gates: list[Gate] = []

    def emit(g: Gate) -> tuple[str, int]:
        gates.append(g)
        return ("g", len(gates) - 1)

    vals: list[tuple[str, int]] = []
    for g in c.gates:
        if g.op == "input":
            if g.a == k0:
                vals.append(("c", bit))
            else:
                vals.append(emit(INPUT(g.a - 1 if g.a > k0 else g.a)))
        elif g.op == "const":
            vals.append(emit(g))
        elif g.op == "not":
            va = vals[g.a]
            vals.append(("c", va[1] ^ 1) if va[0] == "c" else emit(NOT(va[1])))
        else:
            va, vb = vals[g.a], vals[g.b]
            short = 0 if g.op == "and" else 1
            if va[0] == "c" and vb[0] == "c":
                folded = (va[1] & vb[1]) if g.op == "and" else (va[1] | vb[1])
                vals.append(("c", folded))
            elif va[0] == "c":
                vals.append(("c", short) if va[1] == short else vb)
            elif vb[0] == "c":
                vals.append(("c", short) if vb[1] == short else va)
            else:
                vals.append(emit(Gate(g.op, va[1], vb[1])))
    const_refs: dict[int, int] = {}
    outs = []
    for r in c.outputs:
        v = vals[r]
        if v[0] == "c":
            if v[1] not in const_refs:
                const_refs[v[1]] = emit(CONST(v[1]))[1]
            outs.append(const_refs[v[1]])
        else:
            outs.append(v[1])
    return Circuit(c.n - 1, c.m, tuple(gates), tuple(outs), name=c.name)


def reference_project_outputs(c: Circuit, keep) -> Circuit:
    """The dead-gate sweep as it stood before the one-pass restriction."""
    refs = [c.outputs[j] for j in keep]
    live = [False] * len(c.gates)
    for r in refs:
        live[r] = True
    for idx in range(len(c.gates) - 1, -1, -1):
        if live[idx]:
            g = c.gates[idx]
            if g.op == "not":
                live[g.a] = True
            elif g.op in ("and", "or"):
                live[g.a] = True
                live[g.b] = True
    remap: dict[int, int] = {}
    gates: list[Gate] = []
    for idx, g in enumerate(c.gates):
        if g.op == "input" or live[idx]:
            if g.op == "not":
                g = NOT(remap[g.a])
            elif g.op in ("and", "or"):
                g = Gate(g.op, remap[g.a], remap[g.b])
            remap[idx] = len(gates)
            gates.append(g)
    return Circuit(c.n, len(refs), tuple(gates), tuple(remap[r] for r in refs), name=c.name)


@st.composite
def restrictable(draw):
    """A random circuit with at least two outputs, grown by a duplicate of an
    earlier gate, two gates that fold once input 1 is fixed (AND(g0, g0) to
    the bit, its NOT to the complement) and a NOT that feeds nothing unless
    an output picks it.  Output 1 reads a gate that folds, and another
    output may read one that folds to the same constant or to the other."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(2, 5))
    base = random_circuit(random.Random(draw(st.integers(0, 2**32))), n, m, draw(st.integers(0, 30)))
    gates = list(base.gates)
    gates.append(gates[draw(st.integers(0, len(gates) - 1))])
    same = len(gates)
    gates += [AND(0, 0), NOT(same)]
    gates.append(NOT(draw(st.integers(0, len(gates) - 1))))
    outs = list(base.outputs)
    outs[0] = draw(st.sampled_from([0, same]))
    if draw(st.booleans()):
        outs[draw(st.integers(1, m - 1))] = draw(st.sampled_from([0, same, same + 1]))
    return Circuit(n, m, tuple(gates), tuple(outs))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(restrictable(), st.data())
def test_one_pass_restrictions_match_the_two_loops(c, data):
    """``restrict_half`` is gate for gate the two-step composition, and
    ``restrict_input`` and ``project_outputs`` are gate for gate the loops
    they replaced, for both bits, constant output 1 included."""
    keep = data.draw(st.lists(st.integers(0, c.m - 1), min_size=1, max_size=c.m + 1))
    assert project_outputs(c, keep) == reference_project_outputs(c, keep)
    position = data.draw(st.integers(1, c.n))
    for bit in (0, 1):
        two_step = restrict_output(restrict_input(c, 1, bit), 1)
        assert restrict_half(c, bit) == two_step
        assert two_step == reference_project_outputs(reference_restrict_input(c, 1, bit), range(1, c.m))
        fixed = restrict_input(c, position, bit)
        assert fixed == reference_restrict_input(c, position, bit)
        assert project_outputs(fixed, keep) == reference_project_outputs(fixed, keep)


def test_restrict_half_keeps_a_shared_constant_of_output_one():
    """Output 1 and output 2 both fold to the fixed bit: the one CONST gate
    made for them survives the drop of output 1."""
    c = Circuit(2, 3, (INPUT(0), INPUT(1), AND(0, 0), OR(0, 1)), (0, 2, 3))
    for bit in (0, 1):
        half = restrict_half(c, bit)
        assert half == restrict_output(restrict_input(c, 1, bit), 1)
        assert half.gates[half.outputs[0]] == CONST(bit)
        assert [evaluate(half, x) for x in "01"] == [str(bit) + (str(bit) if bit else x) for x in "01"]


def test_restrict_half_errors():
    with pytest.raises(RestrictionError):
        restrict_half(Circuit(1, 1, (INPUT(0),), (0,)), 0)
    with pytest.raises(RestrictionError):
        restrict_half(Circuit(0, 2, (CONST(0),), (0, 0)), 0)
    with pytest.raises(RestrictionError):
        restrict_half(identity_circuit(2), 2)


def test_netlist_roundtrip_simple():
    c = identity_circuit(1)
    text = emit_netlist(c)
    assert "circuit id inputs=1 outputs=1" in text
    assert parse_netlist(text) == c


def test_netlist_roundtrip_random(rng):
    for _ in range(1000):
        c = random_circuit(rng, rng.randrange(1, 6), rng.randrange(1, 4), rng.randrange(0, 14))
        assert parse_netlist(emit_netlist(c)) == c


def test_netlist_errors_name_lines():
    with pytest.raises(NetlistError) as err:
        parse_netlist("circuit c inputs=1 outputs=1\ng0 = FROB 1\noutput 0 = g0\n")
    assert "line 2" in str(err.value)
    with pytest.raises(NetlistError, match="forward reference"):
        parse_netlist("circuit c inputs=1 outputs=1\ng1 = NOT g0\ng0 = INPUT 0\noutput 0 = g1\n")
    with pytest.raises(NetlistError, match="dangling"):
        parse_netlist("circuit c inputs=1 outputs=1\ng0 = NOT g9\noutput 0 = g0\n")
    with pytest.raises(NetlistError, match="missing output"):
        parse_netlist("circuit c inputs=1 outputs=2\ng0 = INPUT 0\noutput 0 = g0\n")
    for header in ("inputs=1 outputs=4000000", "inputs=99999999999 outputs=1", "inputs=65 outputs=1"):
        with pytest.raises(NetlistError, match="line 1: declared width"):
            parse_netlist(f"circuit c {header}\ng0 = INPUT 0\noutput 0 = g0\n")
    with pytest.raises(NetlistError) as err:
        parse_netlist("circuit c inputs=1 outputs=64\ng0 = INPUT 0\noutput 0 = g0\n")
    message = str(err.value)
    assert "63 of 64" in message and "1, 2, 3" in message
    assert len(message) < 120
    wide = "circuit c inputs=64 outputs=64\ng0 = INPUT 63\n" + "".join(
        f"output {j} = g0\n" for j in range(64)
    )
    assert parse_netlist(wide).n == 64


def test_circuit_from_table_roundtrip(rng):
    for _ in range(30):
        n = rng.randrange(0, 5)
        m = rng.randrange(1, 4)
        table = [rng.randrange(1 << m) for _ in range(1 << n)]
        c = circuit_from_table(table, n, m)
        assert eval_table(c) == table


def test_successor_table(rng):
    c = circuit_from_table([1, 2, 3, 3], 2, 2)
    assert successor_table(c) == ["01", "10", "11", "11"]


def test_pad_with_dead_gates_preserves_behaviour(rng):
    c = random_circuit(rng, 3, 2, 6)
    padded = pad_with_dead_gates(c, 25)
    assert eval_table(padded) == eval_table(c)
    assert size(padded) > size(c)


def test_gate_validation():
    with pytest.raises(DimensionError):
        Circuit(1, 1, (INPUT(2),), (0,))
    with pytest.raises(DimensionError):
        Circuit(1, 1, (INPUT(0), NOT(1)), (1,))
    with pytest.raises(DimensionError):
        Circuit(1, 2, (INPUT(0),), (0,))
    for unused in (Gate("input", 0, 5), Gate("const", 1, 5), Gate("not", 0, 5)):
        with pytest.raises(DimensionError, match="no second operand"):
            Circuit(1, 1, (INPUT(0), unused), (1,))


def _revalidated(c: Circuit) -> Circuit:
    """``c`` after the check every derived circuit skips: built again through
    ``Circuit(...)``, which must accept it and equal it, gate type included."""
    assert all(type(g) is Gate for g in c.gates)
    checked = Circuit(c.n, c.m, c.gates, c.outputs, name=c.name)
    assert checked == c and checked.name == c.name
    return c


@settings(max_examples=200, derandomize=True, deadline=None)
@given(restrictable(), st.data())
def test_derived_circuits_pass_the_boundary_check(c, data):
    """Every producer that skips validation (restrictions, builders, the
    synthesisers and composed sink-of-DAG queries) makes circuits that the
    validating constructor accepts unchanged."""
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    bit = data.draw(st.integers(0, 1))
    word = "".join(rng.choice("01") for _ in range(c.m))
    _revalidated(restrict_input(c, data.draw(st.integers(1, c.n)), bit))
    _revalidated(project_outputs(c, data.draw(st.lists(st.integers(0, c.m - 1), min_size=1, max_size=c.m + 1))))
    _revalidated(restrict_half(c, bit))
    _revalidated(redirect_zero_outputs(c, word))
    _revalidated(pad_with_dead_gates(c, data.draw(st.integers(0, 3))))
    _revalidated(circuit_from_table([rng.randrange(1 << c.m) for _ in range(1 << c.n)], c.n, c.m))
    constant = _revalidated(circuit_from_table([rng.randrange(1 << c.m)], 0, c.m))
    assert eval_table(constant) == [int(evaluate(constant, ""), 2)]
    _revalidated(random_circuit(rng, 0, c.m, data.draw(st.integers(1, 12))))
    with pytest.raises(DimensionError):
        random_circuit(rng, 0, c.m, 0)
    _revalidated(identity_circuit(c.n))
    _revalidated(constant_circuit(c.n, word))
    n, value_bits = data.draw(st.integers(1, 3)), data.draw(st.integers(2, 4))
    succ = _revalidated(random_circuit(rng, n, n, data.draw(st.integers(0, 12))))
    valuation = _revalidated(random_circuit(rng, n, value_bits, data.draw(st.integers(0, 12))))
    pair = _revalidated(combine_pair(succ, valuation))
    redirect = data.draw(st.sampled_from([None, "".join(rng.choice("01") for _ in range(n))]))
    _revalidated(freeze_stage(pair, rng.randrange(1 << value_bits), redirect_to=redirect))
    inst = SodInstance(succ, valuation)
    while inst.value_bits > 1:
        if data.draw(st.booleans()):
            inst = inst.dropped()
        else:
            inst = inst.frozen(rng.randrange(1 << inst.value_bits), redirect_to=redirect)
        _revalidated(inst.pair)
