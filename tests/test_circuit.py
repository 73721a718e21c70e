import pytest

from tfnpkit import (
    AND,
    INPUT,
    NOT,
    Circuit,
    circuit_from_table,
    emit_netlist,
    evaluate,
    identity_circuit,
    layers,
    output_masks,
    parse_netlist,
    random_circuit,
    restrict_input,
    restrict_output,
    size,
    successor_table,
)
from tfnpkit.bits import all_bitstrings, splice
from tfnpkit.circuit import eval_table, pad_with_dead_gates, project_outputs
from tfnpkit.errors import DimensionError, NetlistError, RestrictionError

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
    for _ in range(25):
        c = random_circuit(rng, 5, 2, 12)
        masks = output_masks(c)
        for value, x in enumerate(all_bitstrings(5)):
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
        n = rng.randrange(1, 5)
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
