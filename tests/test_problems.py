import gc
import itertools
import random
import re
import weakref
from functools import partial
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tfnpkit import (
    AND,
    CONST,
    NOT,
    OR,
    Circuit,
    EolInstance,
    INPUT,
    IterInstance,
    SodInstance,
    SuccessorOracle,
    emit_instance,
    evaluate,
    identity_circuit,
    instance_size,
    io_dims,
    kind_of,
    parse_instance,
    parse_netlist,
    random_instance,
    verify_solution,
    well_formed,
)
from tfnpkit.bits import all_bitstrings, from_int, to_int
from tfnpkit.circuit import Gate, project_outputs, restrict_half, restrict_input, restrict_output, size
from tfnpkit.errors import DimensionError, NetlistError, RestrictionError
from tfnpkit.gadgets import combine_pair, redirect_zero_outputs
from tfnpkit import circuit, problems
from tfnpkit.reductions import drop_source
from tfnpkit.solvers import solve_exhaustive, solve_path

from conftest import _count_reads, _counting_splits, eval_table, parsed, table_circuit


def test_constant_ones_successor_is_well_formed():
    ones = Circuit(2, 2, (INPUT(0), INPUT(1), CONST(1)), (2, 2))
    assert well_formed(IterInstance(ones))


def test_identity_successor_is_not_well_formed():
    assert not well_formed(IterInstance(identity_circuit(2)))


def test_well_formed_matches_direct_evaluation(rng):
    for _ in range(60):
        n = rng.randrange(1, 4)
        table = [rng.randrange(1 << n) for _ in range(1 << n)]
        c = table_circuit(table, n)
        assert well_formed(IterInstance(c)) == (evaluate(c, "0" * n) > "0" * n)
        assert well_formed(SodInstance(c, c)) == (evaluate(c, "0" * n) != "0" * n)


def test_iter_verify_worked_example():
    # 00->01, 01->01, 10->10, 11->11
    c = table_circuit([1, 1, 2, 3], 2)
    inst = IterInstance(c)
    assert verify_solution(inst, "00")  # steps to 01, which stalls
    assert not verify_solution(inst, "10")  # fixed point fails the first clause


def test_sod_embedding_accepts_iter_solutions(rng):
    for _ in range(200):
        inst = random_instance("iter", 3, rng)
        embedded = SodInstance(inst.succ, inst.succ)
        for cand in (c for c in _all(3)):
            if verify_solution(inst, cand):
                assert verify_solution(embedded, cand)


def _all(n):
    from tfnpkit.bits import all_bitstrings

    return all_bitstrings(n)


def test_sod_fixed_points_are_not_solutions():
    c = table_circuit([1, 1, 2, 3], 2)
    inst = SodInstance(c, c)
    assert not verify_solution(inst, "10")
    assert not verify_solution(inst, "11")


def test_eol_source_and_sink_clauses():
    # 0^n -> 100, everything else fixed; predecessor reversed
    succ = table_circuit([4, 1, 2, 3, 4, 5, 6, 7], 3)
    pred = table_circuit([0, 1, 2, 3, 0, 5, 6, 7], 3)
    inst = EolInstance(succ, pred)
    assert well_formed(inst)
    assert verify_solution(inst, "100")  # a sink: moves backward, not forward
    assert not verify_solution(inst, "000")  # the given start does not count
    assert not verify_solution(inst, "011")  # isolated fixed point


def test_verify_dimension_mismatch():
    inst = IterInstance(table_circuit([1, 1, 2, 3], 2))
    with pytest.raises(DimensionError):
        verify_solution(inst, "0")


def test_successor_oracle_checks_lengths():
    oracle = SuccessorOracle(fn=lambda x: x[::-1], n=3)
    assert oracle("011") == "110"
    with pytest.raises(DimensionError):
        oracle("01")
    bad = SuccessorOracle(fn=lambda x: x + "0", n=2)
    with pytest.raises(DimensionError):
        bad("01")


def test_implicit_instance_verifier():
    oracle = SuccessorOracle(fn=lambda x: "11" if x != "11" else "11", n=2)
    inst = SodInstance.from_procedure(oracle, lambda x: int(x, 2), 2, "00")
    assert well_formed(inst)
    assert verify_solution(inst, "01")  # steps to the sink
    assert not verify_solution(inst, "11")  # the sink itself is a fixed point


def test_iter_halves_restrict_their_parent_without_being_kept(rng):
    """A half's circuit is its parent's with the leading input fixed and
    output 1 dropped, and the parent does not keep it alive."""
    inst = random_instance("iter-with-source", 4, rng)
    low = inst.half(0, "000")
    assert [evaluate(low.succ, x) for x in all_bitstrings(3)] == [
        evaluate(inst.succ, "0" + x)[1:] for x in all_bitstrings(3)
    ]
    held = weakref.ref(low.succ)
    del low
    gc.collect()
    assert held() is None


def test_io_dims_and_size():
    succ = table_circuit([1, 1, 2, 3], 2)
    val = table_circuit([0, 1, 2, 3], 2, m=3, name="valuation")
    inst = SodInstance(succ, val)
    assert io_dims(inst) == (2, 5)
    ws = SodInstance(succ, val, "01")
    assert instance_size(ws) == instance_size(SodInstance(succ, val)) + 2
    # one circuit, input ports counted once
    assert instance_size(inst) == size(combine_pair(succ, val))
    assert instance_size(ws) == size(combine_pair(succ, val)) + 2
    assert instance_size(inst) == size(succ) + size(val) - 2


def _per_view_solutions(succ_table, val_table):
    """The solution predicate read from the successor's and the valuation's
    own truth tables, each evaluated as a separate circuit."""
    return {
        from_int(v, 2)
        for v, w in enumerate(succ_table)
        if w != v and (succ_table[w] == w or val_table[w] <= val_table[v])
    }


def test_pair_instances_match_per_view_verifier_exhaustive_n2():
    succs = [table_circuit(t, 2) for t in itertools.product(range(4), repeat=4)]
    vals = [
        table_circuit(t, 2, m=m, name="valuation")
        for m in (1, 2)
        for t in itertools.product(range(1 << m), repeat=4)
    ]
    assert len(succs) * len(vals) == 256 * (16 + 256)
    succ_tables = [[to_int(evaluate(s, x)) for x in all_bitstrings(2)] for s in succs]
    val_tables = [[to_int(evaluate(v, x)) for x in all_bitstrings(2)] for v in vals]
    for val, val_table in zip(vals, val_tables):
        for succ, succ_table in zip(succs, succ_tables):
            expected = _per_view_solutions(succ_table, val_table)
            built = SodInstance(succ, val)
            from_pair = SodInstance.from_pair(combine_pair(succ, val))
            for inst in (built, from_pair):
                assert {c for c in all_bitstrings(2) if verify_solution(inst, c)} == expected


def test_pair_views_keep_truth_tables(rng):
    for _ in range(10):
        inst = random_instance("sink-of-dag", 3, rng, m=2)
        derived = SodInstance.from_pair(inst.pair)
        assert derived == inst
        assert eval_table(derived.succ) == eval_table(inst.succ)
        assert eval_table(derived.valuation) == eval_table(inst.valuation)
        assert derived.source is None
        sourced = derived.with_source("000")
        assert sourced != derived and kind_of(sourced) == "sink-of-dag-with-source"
        assert sourced.with_source(None) == derived
        assert hash(sourced.with_source(None)) == hash(derived)


def test_envelope_roundtrip_all_kinds(rng):
    kinds = ["iter", "iter-with-source", "sink-of-dag", "sink-of-dag-with-source", "end-of-line"]
    for kind in kinds:
        for _ in range(10):
            inst = random_instance(kind, 3, rng)
            again = parse_instance(emit_instance(inst))
            assert again == inst and hash(again) == hash(inst)
            assert kind_of(inst) == kind_of(again) == kind
            assert well_formed(again)


def test_envelope_errors():
    with pytest.raises(NetlistError, match="missing problem"):
        parse_instance("circuit succ inputs=1 outputs=1\ng0 = INPUT 0\noutput 0 = g0\n")
    with pytest.raises(NetlistError, match="unknown problem kind"):
        parse_instance("problem nonsense\n")
    good = emit_instance(IterInstance(table_circuit([1, 1, 2, 3], 2)))
    with pytest.raises(NetlistError, match="missing circuit"):
        parse_instance("problem iter\n")
    with pytest.raises(NetlistError, match="takes no source"):
        parse_instance(good + "source=00\n")
    with pytest.raises(NetlistError, match="line 2: declared width"):
        parse_instance("problem iter\ncircuit succ inputs=1 outputs=4000000\ng0 = INPUT 0\noutput 0 = g0\n")
    with pytest.raises(NetlistError, match="line 2: declared width"):
        parse_instance("problem iter\ncircuit succ inputs=99999999999 outputs=1\ng0 = INPUT 0\noutput 0 = g0\n")
    # shape errors name the block that does not fit
    square = good.splitlines()[1:]
    narrow = "circuit succ inputs=2 outputs=1\ng0 = INPUT 0\noutput 0 = g0\n"
    with pytest.raises(NetlistError, match="line 2: successor circuit must have n == m"):
        parse_instance("problem iter\n" + narrow)
    wide_val = "circuit valuation inputs=3 outputs=1\ng0 = INPUT 2\noutput 0 = g0\n"
    text = "problem sink-of-dag\n" + "\n".join(square) + "\n" + wide_val
    with pytest.raises(NetlistError, match=f"line {len(square) + 2}: valuation must read"):
        parse_instance(text)
    with pytest.raises(NetlistError, match=f"line {len(square) + 2}: expected 2 bits"):
        parse_instance("problem iter-with-source\n" + "\n".join(square) + "\nsource=011\n")


_SQUARE = "circuit succ inputs=1 outputs=1\ng0 = INPUT 0\noutput 0 = g0\n"  # three lines


@pytest.mark.parametrize("space", ["\t", "\t ", "\x0c", "\u2028"])
def test_instance_marks_take_any_whitespace(space):
    """``problem`` and ``circuit`` take any whitespace after them, as the
    netlist header does."""
    square = _SQUARE.replace("circuit ", "circuit" + space, 1).replace("inputs=", space + "inputs=")
    inst = parse_instance(f"problem{space}iter-with-source\n{square}source=0\n")
    assert inst == parse_instance("problem iter-with-source\n" + _SQUARE + "source=0\n")


@pytest.mark.parametrize(
    "text, line",
    [
        ("problems iter\n" + _SQUARE, 1),
        ("problem iter\ncircuitx succ inputs=1 outputs=1\n", 2),
        ("problem iter\nproblems iter\n" + _SQUARE, 2),
        ("problem\n" + _SQUARE, 1),
        ("problem iter\ncircuit\n" + _SQUARE, 2),
    ],
)
def test_instance_marks_need_their_whole_word(text, line):
    """A line that only starts like a mark is stray, refused at its line."""
    with pytest.raises(NetlistError, match=f"line {line}: unexpected line outside circuit block"):
        parse_instance(text)
_ONE_BIT = "circuit c inputs=1 outputs=1\ng0 = INPUT 0\n"  # two lines, outputs to come


@pytest.mark.parametrize(
    "read, error, line",
    [
        (partial(parse_instance, "problem iter\nproblem iter\n" + _SQUARE), NetlistError, 2),
        (partial(parse_instance, "problem iter-with-source\n" + _SQUARE + "source=0\nsource=0\n"), NetlistError, 6),
        (partial(parse_instance, "problem iter\n" + _SQUARE + _SQUARE), NetlistError, 5),
        (partial(parse_instance, "problem iter\n" + _SQUARE + _SQUARE.replace("succ", "pred")), NetlistError, None),
        (partial(parse_instance, "problem iter-with-source\n" + _SQUARE), NetlistError, None),
        (partial(parse_netlist, _ONE_BIT + "output 1 = g0\n"), NetlistError, 3),
        (partial(parse_netlist, _ONE_BIT + "output 0 = g0\noutput 0 = g0\n"), NetlistError, 4),
        (partial(Circuit, 1, 1, (CONST(2),), (0,)), DimensionError, None),
        (partial(Circuit, 1, 1, (Gate("xor", 0, 0),), (0,)), DimensionError, None),
        (partial(Circuit, 1, 1, (INPUT(0),), (1,)), DimensionError, None),
        (partial(project_outputs, identity_circuit(2), [2]), RestrictionError, None),
        (partial(project_outputs, identity_circuit(2), []), RestrictionError, None),
    ],
    ids=[
        "duplicate-problem", "duplicate-source", "duplicate-block", "unexpected-block", "missing-source",
        "output-out-of-range", "duplicate-output", "const-not-a-bit", "unknown-op", "output-reference",
        "project-out-of-range", "project-nothing",
    ],
)
def test_text_readers_refuse_with_their_error_and_line(read, error, line):
    """Each refusal raises its own error type; a netlist error names the
    line it found, or no line for a whole-file fault."""
    with pytest.raises(error) as caught:
        read()
    if error is NetlistError:
        assert caught.value.line == line


def test_random_instances_are_well_formed(rng):
    for kind in ("iter", "iter-with-source", "sink-of-dag", "sink-of-dag-with-source", "end-of-line"):
        for _ in range(25):
            assert well_formed(random_instance(kind, 3, rng))


def test_sink_of_dag_draws_are_checked_before_synthesis(monkeypatch, rng):
    """A rejected draw builds no circuit: at n = 1 half the sink-of-DAG
    tables step 0 to itself, yet each returned instance costs exactly two
    syntheses, its successor's and its valuation's."""
    synthesise, calls = problems.circuit_from_table, []

    def counting(*args, **kwargs):
        calls.append(args)
        return synthesise(*args, **kwargs)

    monkeypatch.setattr(problems, "circuit_from_table", counting)
    for kind in ("sink-of-dag", "sink-of-dag-with-source"):
        for _ in range(20):
            calls.clear()
            assert well_formed(random_instance(kind, 1, rng))
            assert len(calls) == 2


def test_eol_generator_builds_consistent_paths(rng):
    inst = random_instance("end-of-line", 3, rng)
    succ, pred = eval_table(inst.succ), eval_table(inst.pred)
    for x in range(8):
        if succ[x] != x:
            assert pred[succ[x]] == x


_KINDS = ("iter", "iter-with-source", "sink-of-dag", "sink-of-dag-with-source", "end-of-line")
_ENVELOPES = [emit_instance(random_instance(kind, n, random.Random(n))) for kind in _KINDS for n in (1, 2)]
_NUMBERS = st.sampled_from(["0", "1", "2", "64", "65", "99999999999", "9" * 5000, "\u00b2", "\u0663"])
_PIECES = st.sampled_from(
    ["", "\n", " ", "#", "=", "-", "g", "source=", "problem ", "circuit ", "INPUT", "NOT", "AND", "CONST"]
)


@st.composite
def _mutated_envelopes(draw):
    """A valid envelope with up to two lines dropped and one to four edits:
    a number replaced, or a piece spliced into the text between numbers."""
    lines = draw(st.sampled_from(_ENVELOPES)).splitlines(keepends=True)
    for _ in range(draw(st.integers(0, 2))):
        del lines[draw(st.integers(0, len(lines) - 1))]
    tokens = re.split(r"(\d+)", "".join(lines))  # numbers at odd indices
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(tokens) - 1))
        if at % 2:
            tokens[at] = draw(_NUMBERS)
        else:
            text = tokens[at]
            cut = draw(st.integers(0, len(text)))
            tokens[at] = text[:cut] + draw(_PIECES) + text[cut + draw(st.integers(0, 3)) :]
    return "".join(tokens)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(st.text(), _mutated_envelopes()))
@example("problem iter\ncircuit succ inputs=0 outputs=0\n")
@example("problem iter\ncircuit succ inputs=1 outputs=1\ng0 = INPUT \u00b2\noutput 0 = g0\n")
@example("problem iter\ncircuit succ inputs=1 outputs=1\ng0 = CONST 2\noutput 0 = g0\n")
def test_parsers_raise_only_netlist_errors(text):
    """On any text, both parsers return or raise NetlistError: shape and
    number errors never escape as another exception.  Every block the
    netlist parser accepts, alone or inside an envelope, is accepted by the
    validating constructor unchanged: the parser's checks are its checks."""
    accepted = []

    def recording(read, *args):
        accepted.append(read(*args))
        return accepted[-1]

    # the netlist parser gets the text after the problem line: the first block;
    # an envelope's blocks go to the row reader behind it
    with mock.patch.object(problems, "_read_rows", partial(recording, circuit._read_rows)):
        for parse in (parse_instance, lambda t: recording(parse_netlist, "\n".join(t.splitlines()[1:]))):
            try:
                parse(text)
            except NetlistError:
                pass
    for c in accepted:
        assert Circuit(c.n, c.m, c.gates, c.outputs, name=c.name) == c


@st.composite
def _gate_lists(draw, min_n: int = 1, max_n: int = 8):
    """``min_n`` to ``max_n`` inputs and a gate list that mixes INPUT gates
    (duplicates included), CONST gates and logic gates in any order."""
    n = draw(st.integers(min_n, max_n))
    rng = random.Random(draw(st.integers(0, 2**32)))
    gates = []
    for _ in range(draw(st.integers(1, 60))):
        op = rng.choice(("input", "input", "const", "not", "and", "or") if gates else ("input", "const"))
        if op == "input":
            gates.append(INPUT(rng.randrange(n)))
        elif op == "const":
            gates.append(CONST(rng.randrange(2)))
        elif op == "not":
            gates.append(NOT(rng.randrange(len(gates))))
        else:
            gates.append((AND if op == "and" else OR)(rng.randrange(len(gates)), rng.randrange(len(gates))))
    return n, tuple(gates), rng


def _circuit(gate_list, m: int) -> Circuit:
    """A circuit on the drawn gates whose ``m`` outputs name random gates,
    so that some gates feed nothing."""
    n, gates, rng = gate_list
    return Circuit(n, m, gates, tuple(rng.randrange(len(gates)) for _ in range(m)))


def _roots(gate_list, value_bits: int):
    """An iteration root and a sink-of-DAG root on the drawn gates, each
    with the circuit it reads."""
    n = gate_list[0]
    succ, pair = _circuit(gate_list, n), _circuit(gate_list, n + value_bits)
    return [(IterInstance(succ), succ), (SodInstance.from_pair(pair), pair)]


def _assert_steps_like_evaluate(inst, c, x) -> None:
    out = evaluate(c, x)
    if isinstance(inst, IterInstance):
        assert inst.step(x) == out
    else:
        assert inst.step_and_value(x) == (out[: inst.n], to_int(out[inst.n :]))


def _points(inst):
    """The points cached on the circuit that ``inst`` reads, None before
    its first point."""
    return vars(inst.succ if isinstance(inst, IterInstance) else inst.pair).get("_points")


def _read_at(inst, x):
    return inst.step(x) if isinstance(inst, IterInstance) else inst.step_and_value(x)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_gate_lists(), st.integers(1, 3), st.data())
def test_root_points_match_evaluate_from_the_table(gate_list, value_bits, data):
    """A root of up to 16 inputs builds its table at the first point and
    keeps no memo; ``step``/``step_and_value`` then equal ``evaluate`` at
    every point, asked in any order.  ``with_source`` copies share it."""
    order = data.draw(st.permutations(list(all_bitstrings(gate_list[0]))))
    for inst, c in _roots(gate_list, value_bits):
        assert _points(inst) is None
        _assert_steps_like_evaluate(inst, c, order[0])
        table = _points(inst)
        assert type(table) is str
        for x in order * 2:
            _assert_steps_like_evaluate(inst, c, x)
            assert _points(inst) is table
        copy = inst.with_source(order[0])
        _read_at(copy, order[-1])
        assert _points(copy) is table


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_gate_lists(17, 20), st.integers(1, 3), st.data())
def test_wide_roots_evaluate_each_point_once(gate_list, value_bits, data):
    """A root wider than 16 inputs never builds a table: it evaluates each
    point asked for once and remembers it, and so does a chain of its
    halves, which reads it."""
    n = gate_list[0]
    xs = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8))
    xs = [from_int(x, n) for x in xs]
    for inst, c in _roots(gate_list, value_bits):
        for x in xs * 2:
            _assert_steps_like_evaluate(inst, c, x)
        memo = _points(inst)
        assert type(memo) is dict and set(memo) == set(xs)
        copy = inst.with_source(xs[0])
        _read_at(copy, xs[-1])
        assert _points(copy) is memo and set(memo) == set(xs)
    root = inst = built = _roots(gate_list, value_bits)[0][0]
    for width in range(n - 1, n - 4, -1):
        bit = data.draw(st.integers(0, 1))
        inst, built = inst.half(bit), IterInstance(restrict_half(built.succ, bit))
        for x in xs:
            _assert_steps_like_evaluate(inst, built.succ, x[n - width :])
        assert _points(inst) is None
    assert type(_points(root)) is dict


def test_circuits_are_tabulated_once_whatever_holds_them(monkeypatch, rng):
    """The points live on the circuit, not on the instance: instances built
    separately on one parsed circuit object, with and without a source,
    build one table between them.  A table-born circuit, and a pair of two,
    carries its table and builds none.  Nothing is evaluated."""
    evaluations, tables = _count_reads(monkeypatch)
    born_succ = random_instance("iter", 4, rng).succ
    born = random_instance("sink-of-dag", 4, rng, m=3)
    succ, pair = parsed(born_succ), combine_pair(parsed(born.succ), parsed(born.valuation))
    xs = list(all_bitstrings(4))
    for source in (None, xs[5], None, xs[5]):
        for step_circuit, pair_circuit in ((succ, pair), (born_succ, born.pair)):
            inst = IterInstance(step_circuit, source)
            assert [inst.step(x) for x in xs] == [evaluate(step_circuit, x) for x in xs]
            inst = SodInstance.from_pair(pair_circuit, source)
            assert [inst.step_and_value(x)[0] for x in xs] == [evaluate(pair_circuit, x)[:4] for x in xs]
    assert not evaluations and tables == {id(succ): 1, id(pair): 1}


def test_end_of_line_reads_evaluate_and_cache_nothing(monkeypatch, rng):
    """End-of-line checks and walks read each point once or twice, so they
    evaluate: ``verify_solution`` costs one evaluation of each circuit and
    builds no table, and nothing is cached on the circuits, table-born
    (which carry their table from the start) or parsed, so a walk keeps no
    visited points.  A table-born circuit's gates are written once, at its
    first evaluation or file form, and are all it gains."""
    evaluations, tables = _count_reads(monkeypatch)
    writes, write = [], circuit._write_table_gates

    def recording_write(c, words):
        writes.append(c)
        return write(c, words)

    monkeypatch.setattr(circuit, "_write_table_gates", recording_write)
    eols = [random_instance("end-of-line", n, rng) for n in (1, 3, 5)]
    eols.append(EolInstance(parsed(eols[1].succ), parsed(eols[1].pred)))
    held = [(c, set(vars(c))) for inst in eols for c in (inst.succ, inst.pred)]
    for inst in eols:
        assert well_formed(inst)
        assert verify_solution(inst, solve_exhaustive(inst)) and verify_solution(inst, solve_path(inst))
        evaluations.clear()
        x = from_int(1, inst.n)
        verify_solution(inst, x)
        assert evaluations == {(id(inst.succ), x): 1, (id(inst.pred), x): 1}
    assert not tables
    assert all(set(vars(c)) - {"gates"} == names - {"gates"} for c, names in held)
    assert sorted(map(id, writes)) == sorted(id(c) for inst in eols[:3] for c in (inst.succ, inst.pred))
    assert not any("_points" in vars(c) for c in (eols[-1].succ, eols[-1].pred))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_gate_lists(), st.data())
def test_half_chains_step_like_their_restrict_half_chain(gate_list, data):
    """A chain of ``half`` calls down to one input, with ``drop_source``
    redirects spliced in, steps at every point like ``evaluate`` on the
    chain of circuits that ``restrict_half`` and ``drop_source`` build."""
    n = gate_list[0]
    inst = built = IterInstance(_circuit(gate_list, n))
    for width in range(n - 1, 0, -1):
        bit = data.draw(st.integers(0, 1))
        inst, built = inst.half(bit), IterInstance(restrict_half(built.succ, bit))
        if data.draw(st.booleans()):
            source = from_int(data.draw(st.integers(0, (1 << width) - 1)), width)
            inst = drop_source(inst.with_source(source)).target
            built = drop_source(built.with_source(source)).target
        assert inst.succ == built.succ
        for x in all_bitstrings(width):
            assert inst.step(x) == evaluate(built.succ, x)


@st.composite
def _halving_roots(draw):
    """A square circuit on 2 to 6 inputs whose gates mix duplicate INPUT
    gates, CONST gates mid-circuit (the fold keeps them as entries) and
    logic gates, some of which feed nothing.  For each input k, AND(k, k)
    and its NOT fold to the two constants once input k is fixed, and the
    outputs pick them, each other, or random gates: so outputs share one
    gate, and output 1 folds to a constant that a later output shares after
    one with the other constant (the order the CONST gates are made in)."""
    n = draw(st.integers(2, 6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    gates = [INPUT(k) for k in range(n)]
    folds = []
    for k in range(n):
        gates.append(AND(k, k))
        gates.append(NOT(len(gates) - 1))
        folds.append((len(gates) - 2, len(gates) - 1))
    for _ in range(draw(st.integers(0, 40))):
        op = rng.choice(("input", "const", "not", "and", "or"))
        top = len(gates)
        if op == "input":
            gates.append(INPUT(rng.randrange(n)))
        elif op == "const":
            gates.append(CONST(rng.randrange(2)))
        elif op == "not":
            gates.append(NOT(rng.randrange(top)))
        else:
            gates.append((AND if op == "and" else OR)(rng.randrange(top), rng.randrange(top)))
    outs = []
    for j in range(n):
        pick = draw(st.sampled_from(("gate", "fold", "not-fold", "previous") if j else ("gate", "fold")))
        if pick == "gate":
            outs.append(rng.randrange(len(gates)))
        elif pick == "previous":
            outs.append(outs[-1])
        else:
            outs.append(folds[rng.randrange(n)][pick == "not-fold"])
    if n >= 3 and draw(st.booleans()):
        same, other = folds[0]
        outs[0], outs[1], outs[-1] = same, other, same
    return Circuit(n, n, tuple(gates), tuple(outs))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_halving_roots(), st.data())
def test_measured_halves_are_the_restrict_half_chain(root, data):
    """A chain of ``half`` calls down to one input, some links through
    ``redirected``: at every step the half's size, read before its circuit
    is built, is ``size()`` of the ``restrict_half`` chain's circuit, which
    is the two-step restriction; ``succ`` read afterwards is that circuit
    gate for gate, and ``step`` is ``evaluate`` of it at every point."""
    inst, built = IterInstance(root), root
    for width in range(root.n - 1, 0, -1):
        bit = data.draw(st.integers(0, 1))
        inst, chained = inst.half(bit), restrict_half(built, bit)
        assert chained == restrict_output(restrict_input(built, 1, bit), 1)
        built = chained
        assert instance_size(inst) == size(built) and io_dims(inst) == (width, width)
        assert "succ" not in vars(inst)  # measured, not built
        for x in all_bitstrings(width):
            assert inst.step(x) == evaluate(built, x)
        assert inst.succ == built
        if data.draw(st.booleans()):
            source = from_int(data.draw(st.integers(0, (1 << width) - 1)), width)
            inst = inst.with_source(source).redirected()
            built = redirect_zero_outputs(built, source, name="succ")
            assert inst.succ == built and instance_size(inst) == size(built)
            for x in all_bitstrings(width):
                assert inst.step(x) == evaluate(built, x)


def test_half_calls_keep_no_state(monkeypatch):
    """``half`` keeps nothing between calls, below a table-born root and a
    parsed one: a bit asked for twice gives two equal halves, asking for
    bit 1 makes no side-0 half, an instance keeps no half it made, a half
    keeps neither its parent instance nor its parent's form alive, and
    bit 2 is refused."""
    made = _counting_splits(monkeypatch)
    born = table_circuit([1, 2, 3, 4, 5, 6, 7, 7], 3)
    for root in (IterInstance(born), IterInstance(parsed(born))):
        low, again = root.half(0), root.half(0)
        assert again._half is not low._half
        assert (again.succ, again.size, again.n) == (low.succ, low.size, low.n)
        made.clear()
        high = root.half(1, "00")
        assert [bits for _, *bits in made] == [[1]] and made[0][0] is root._form
        assert high.succ == restrict_half(root.succ, 1)
        quarter = low.half(1)
        held = weakref.ref(low), weakref.ref(low._half), weakref.ref(again._half)
        del low, again
        made.clear()  # the recorder keeps each form it saw split
        gc.collect()
        assert [ref() for ref in held] == [None, None, None]
        assert quarter.n == 1 and quarter.succ == restrict_half(restrict_half(root.succ, 0), 1)
        with pytest.raises(RestrictionError):
            root.half(2)
