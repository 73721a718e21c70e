import gc
import random
import re
import weakref

import pytest
from hypothesis import example, given, settings
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
    emit_instance,
    emit_netlist,
    evaluate,
    identity_circuit,
    output_masks,
    parse_instance,
    parse_netlist,
    random_circuit,
    random_instance,
    restrict_half,
    restrict_input,
    restrict_output,
    size,
    successor_table,
)
from tfnpkit.bits import all_bitstrings, splice
from tfnpkit.circuit import (
    OP_CONST,
    OP_INPUT,
    OP_NOT,
    _TABLE_BORN,
    _TABLE_MAX_INPUTS,
    Half,
    _check_shape,
    _derived,
    _table_layout,
    _table_size,
    _table_words,
    constant_circuit,
    pad_with_dead_gates,
    point,
    project_outputs,
)
from tfnpkit.errors import DimensionError, NetlistError, RestrictionError, SizingError
from tfnpkit.gadgets import GateBuilder, combine_pair, freeze_stage, redirect_zero_outputs
from tfnpkit.problems import IterInstance, SodInstance

from conftest import eval_table, naive_evaluate, parsed


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
    # the first offending row in file order, though a later row repeats an id
    with pytest.raises(NetlistError, match="line 2: forward reference g1"):
        parse_netlist("circuit c inputs=1 outputs=1\ng0 = NOT g1\ng1 = INPUT 0\ng1 = INPUT 0\noutput 0 = g0\n")
    with pytest.raises(NetlistError, match="line 2: forward reference g0"):
        parse_netlist("circuit c inputs=1 outputs=1\ng0 = NOT g0\noutput 0 = g0\n")
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
    # each gate form's arguments, and the duplicate id checked before them
    for row, message in (
        ("g1 = AND g0", "bad AND arguments: 'g0'"),
        ("g1 = INPUT 0 0", "bad INPUT arguments: '0 0'"),
        ("g1 = CONST 2", "bad CONST arguments: '2'"),
        ("g1 = NOT 0", "bad NOT arguments: '0'"),
        ("g0 = AND g0", "duplicate gate id g0"),
    ):
        with pytest.raises(NetlistError) as err:
            parse_netlist(f"circuit c inputs=1 outputs=1\ng0 = INPUT 0\n{row}\noutput 0 = g0\n")
        assert str(err.value) == f"line 3: {message}"
    glued = parse_netlist("circuit c inputs=1 outputs=1\ng0 = INPUT 0\ng1 = ANDg0 g0\noutput 0 = g1\n")
    assert glued.gates == (INPUT(0), AND(0, 0))


_ROW_NUMBER = re.compile("[0-9]{1,18}")
_GATE_SHAPE = re.compile(r"g([0-9]{1,18})\s*=\s*([A-Z]+)\s*(.*)")


def _split_read_row(row: str, n: int, defined: dict[int, int], below=(2,)) -> Gate | str:
    """The gate row ``g2 = ...`` read by splitting its arguments on
    whitespace and checking each token: the gate, or the error message.  A
    reference to an id in ``below``, the ids defined on this row or further
    down, is forward; to any other undefined id, dangling."""
    shape = _GATE_SHAPE.fullmatch(row)
    if shape is None:
        return f"unparseable line: {row!r}"
    op, rest = shape[2], shape[3].strip()
    args = rest.split()
    if op not in ("INPUT", "CONST", "NOT", "AND", "OR"):
        return f"unknown gate op {op!r}"
    bad = f"bad {op} arguments: {rest!r}"
    if op == "INPUT":
        if len(args) != 1 or not _ROW_NUMBER.fullmatch(args[0]):
            return bad
        k = int(args[0])
        return INPUT(k) if k < n else f"input index {k} out of range"
    if op == "CONST":
        return CONST(int(args[0])) if args in (["0"], ["1"]) else bad
    if len(args) != (1 if op == "NOT" else 2):
        return bad
    if not all(a.startswith("g") and _ROW_NUMBER.fullmatch(a[1:]) for a in args):
        return bad
    refs = []
    for a in args:
        gid = int(a[1:])
        if gid not in defined:
            return f"{'forward' if gid in below else 'dangling'} reference g{gid}"
        refs.append(defined[gid])
    return Gate(op.lower(), *refs)


_ROW_OPS = st.sampled_from(["INPUT", "CONST", "NOT", "AND", "OR", "and", "FROB"])
_ROW_SEPARATORS = st.sampled_from(["", " ", "\t", "\u00a0", "\u2003", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
#: A number, a reference (g0, g00, g2 on its own row, g1...1 dangling) or a
#: near miss: 19 digits, non-ASCII digits, a bare ``g``.
_ROW_TOKENS = st.builds(
    str.__add__,
    st.sampled_from(["g", ""]),
    st.sampled_from(["0", "00", "1", "2", "1" * 18, "1" * 19, "\u00b2", "\u0663", ""]),
)


@settings(max_examples=600, derandomize=True, deadline=None)
@given(
    _ROW_OPS,
    st.lists(st.tuples(_ROW_SEPARATORS, _ROW_TOKENS), max_size=3),
    _ROW_SEPARATORS,
)
@example("AND", [("", "g0"), (" ", "g0")], " ")
@example("AND", [(" ", "g0"), ("", "g0")], " ")
@example("INPUT", [(" ", "1" * 19)], " ")
def test_gate_rows_read_as_split_tokens(op, args, after_equals):
    """A one-gate row, its arguments glued or split by any whitespace, reads
    as a reader that splits on whitespace and checks each token reads it:
    the same gate, or the same message."""
    row = f"g2 ={after_equals}{op}" + "".join(sep + token for sep, token in args)
    text = f"circuit c inputs=2 outputs=1\ng0 = INPUT 0\ng1 = INPUT 1\n{row}\noutput 0 = g0\n"
    want = _split_read_row(row, 2, {0: 0, 1: 1})
    if isinstance(want, Gate):
        assert parse_netlist(text).gates[2] == want
    else:
        with pytest.raises(NetlistError) as err:
            parse_netlist(text)
        assert str(err.value) == f"line 4: {want}"


def test_lines_end_at_newline_only():
    """Only "\n" ends a line.  The other ``str.splitlines`` breaks are
    whitespace between tokens, and they do not move an error's line."""
    head = "circuit c inputs=1 outputs=1\ng0 = INPUT 0\n"
    for row in ("g1 = NOT\x0cg0", "g1 =\x0bNOT g0", "g1\x85= NOT\u2028g0", "g1 = NOT\rg0"):
        assert parse_netlist(f"{head}{row}\noutput 0 = g1\n").gates == (INPUT(0), NOT(0))
    dangling = "circuit c inputs=1 outputs=1\ng0 = INPUT\x0c0\ng1 = NOT g0\noutput 0 = g7\n"
    for read, text in ((parse_netlist, dangling), (parse_instance, "problem iter\n" + dangling)):
        with pytest.raises(NetlistError) as err:
            read(text)
        assert str(err.value) == f"line {4 if read is parse_netlist else 5}: dangling reference g7"
    crlf = "problem iter\r\ncircuit succ inputs=1 outputs=1\r\ng0 = INPUT 0\r\noutput 0 = g0\r\n"
    assert parse_instance(crlf).succ == identity_circuit(1)


def _split_read_block(rows: list[tuple[int, str]]) -> Circuit | str:
    """A netlist block's ``(lineno, row)`` rows, header first, read by
    splitting each row into tokens: the circuit, or the error as printed."""
    (line, header), body = rows[0], rows[1:]
    words = header.split()
    if not (
        len(words) == 4 and words[0] == "circuit" and words[2].startswith("inputs=")
        and words[3].startswith("outputs=") and _ROW_NUMBER.fullmatch(words[2][7:])
        and _ROW_NUMBER.fullmatch(words[3][8:])
    ):
        return f"line {line}: bad circuit header: {header!r}"
    name, n, m = words[1], int(words[2][7:]), int(words[3][8:])
    if max(n, m) > 64:
        return f"line {line}: declared width inputs={n} outputs={m} exceeds the limit of 64"
    if m == 0:
        return f"line {line}: a circuit needs at least one output"
    gates, defined, outputs = [], {}, {}
    for pos, (line, row) in enumerate(body):
        below = {int(s[1]) for _, later in body[pos:] if (s := _GATE_SHAPE.fullmatch(later))}
        shape = _GATE_SHAPE.fullmatch(row)
        if shape:
            if int(shape[1]) in defined:
                return f"line {line}: duplicate gate id g{int(shape[1])}"
            gate = _split_read_row(row, n, defined, below)
            if isinstance(gate, str):
                return f"line {line}: {gate}"
            defined[int(shape[1])] = len(gates)
            gates.append(gate)
            continue
        head, _, ref = row.partition("=")
        words, ref = head.split(), ref.split()
        if not (
            len(words) == 2 and words[0] == "output" and _ROW_NUMBER.fullmatch(words[1])
            and len(ref) == 1 and ref[0].startswith("g") and _ROW_NUMBER.fullmatch(ref[0][1:])
        ):
            return f"line {line}: unparseable line: {row!r}"
        j, gid = int(words[1]), int(ref[0][1:])
        if j >= m:
            return f"line {line}: output index {j} out of range"
        if j in outputs:
            return f"line {line}: duplicate output {j}"
        if gid not in defined:
            return f"line {line}: {'forward' if gid in below else 'dangling'} reference g{gid}"
        outputs[j] = defined[gid]
    missing = [j for j in range(m) if j not in outputs]
    if missing:
        shown = ", ".join(map(str, missing[:8])) + (", ..." if len(missing) > 8 else "")
        return f"line {rows[-1][0]}: missing output declarations: {len(missing)} of {m} ({shown})"
    return Circuit(n, m, tuple(gates), tuple(outputs[j] for j in range(m)), name=name)


def _split_read_blocks(lines: list[str]) -> dict[str, Circuit] | str:
    """The circuit blocks of a file's lines, each read by
    ``_split_read_block``, or the first block's error.  Every line outside a
    block is a problem or source line, or empty."""
    rows = [(at, row) for at, line in enumerate(lines, 1) if (row := line.partition("#")[0].strip())]
    marks = [k for k, (_, row) in enumerate(rows) if row.startswith(("circuit ", "source="))]
    blocks = {}
    for start, end in zip(marks, [*marks[1:], len(rows)]):
        if rows[start][1].startswith("circuit "):
            c = _split_read_block(rows[start:end])
            if isinstance(c, str):
                return c
            blocks[c.name] = c
    return blocks


#: Whitespace a mutation puts between two tokens, or none.
_MUTATION_SPACES = ["", " ", "\t", "\x0b", "\x0c", "\r", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"]


def _mutate(rng: random.Random, lines: list[str]) -> None:
    """One seeded edit of an emitted file's lines.  Problem and source lines
    and the start of each header stay as they are, so every file keeps its
    blocks, and any refusal comes from a block."""
    rows = [at for at, line in enumerate(lines) if line.startswith(("g", "output"))]
    at = rng.choice(rows)
    edit = rng.randrange(8)
    if edit == 0:  # tokens glued or split by other whitespace, in a row or a header
        at = rng.choice([at, *(k for k, line in enumerate(lines) if line.startswith("circuit "))])
        first, *rest = lines[at].split()
        seps = [" " if k == 0 and first == "circuit" else rng.choice(_MUTATION_SPACES) for k in range(len(rest))]
        lines[at] = first + "".join(map(str.__add__, seps, rest))
    elif edit == 1:
        lines[at] += rng.choice(["#", " # note", "\t#g0 = INPUT 0"])
    elif edit == 2:
        lines.insert(at, rng.choice(["", "  \t", "# note", "\x0c"]))
    elif edit in (3, 4):  # a leading zero, or another number: out of range, dangling or forward
        numbers = list(re.finditer("[0-9]+", lines[at]))
        number = rng.choice(numbers)
        new = "0" + number[0] if edit == 3 else rng.choice(["0", "1", "2", "3", "5", "9", "64", "1" * 19])
        lines[at] = lines[at][: number.start()] + new + lines[at][number.end() :]
    elif edit == 5:
        del lines[at]
    elif edit == 6:
        other = rng.choice(rows)
        lines[at], lines[other] = lines[other], lines[at]
    else:
        lines.insert(rng.choice(rows), lines[at])


def test_readers_match_a_split_token_reader_on_mutated_files():
    """Seeded mutations of emitted files read as ``_split_read_block`` reads
    them, block by block: the same circuits, or the same message at the same
    line, from both ``parse_instance`` and ``parse_netlist``."""
    rng = random.Random(31)
    kinds = ("iter", "iter-with-source", "sink-of-dag", "sink-of-dag-with-source", "end-of-line")
    files = [emit_instance(random_instance(kind, n, rng)).split("\n") for kind in kinds for n in (1, 2, 3)]
    accepted = 0
    for _ in range(400):
        lines = list(rng.choice(files))
        for _ in range(rng.randint(1, 3)):
            _mutate(rng, lines)
        ends = [k for k in range(2, len(lines)) if lines[k].startswith(("circuit ", "source="))]
        first_block = ["", *lines[1 : min(ends, default=len(lines))]]  # line numbers kept
        for read, text, want in (
            (parse_instance, "\n".join(lines), _split_read_blocks(lines)),
            (parse_netlist, "\n".join(first_block), _split_read_blocks(first_block)),
        ):
            if isinstance(want, str):
                with pytest.raises(NetlistError) as err:
                    read(text)
                assert str(err.value) == want, text
                continue
            got = read(text)
            circuits = [got] if read is parse_netlist else [getattr(got, role) for role in want]
            assert [(c, c.name) for c in circuits] == [(c, c.name) for c in want.values()], text
            accepted += 1
    assert 200 < accepted < 600


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


def _fresh_ops(c: Circuit) -> Circuit:
    """``c`` with each op string built anew: equal to the ``OP_*`` constants
    without being the same objects."""
    gates = tuple(Gate("".join(list(op)), a, b) for op, a, b in c.gates)
    assert not any(g.op is h.op for g, h in zip(gates, c.gates))
    return Circuit(c.n, c.m, gates, c.outputs, name=c.name)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(restrictable(), st.data())
def test_ops_are_compared_by_equality(c, data):
    """A valid circuit may carry op strings that equal the canonical ones
    without being them.  Its input restrictions are those of the canonical
    circuit; its halves are checked against the canonical circuit's by
    ``test_each_side_of_a_split_is_the_two_step_restriction``."""
    fresh = _fresh_ops(c)
    position = data.draw(st.integers(1, c.n))
    for bit in (0, 1):
        assert restrict_input(fresh, position, bit) == restrict_input(c, position, bit)


def _assert_split_is_two_step(parent: Circuit | Half, canonical: Circuit) -> None:
    """Each side of ``parent``'s split sweeps, gate for gate and with equal
    ``size``, to ``restrict_output(restrict_input(canonical, 1, b), 1)``, and
    so do the splits of each side, down to a parent of one input."""
    for bit in (0, 1):
        half, want = Half(parent, bit), restrict_output(restrict_input(canonical, 1, bit), 1)
        assert half.circuit == want and half.size == size(want)
        assert (half.n, half.m) == (want.n, want.m)
        if half.n and half.m >= 2:
            _assert_split_is_two_step(half, want)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(restrictable())
def test_each_side_of_a_split_is_the_two_step_restriction(c):
    """One fold makes each half of a circuit, and of a half, for its side
    alone: each is its parent's single restriction at input 1 with output 1
    dropped, for the circuit and for its copy with op strings built anew."""
    for parent in (c, _fresh_ops(c)):
        _assert_split_is_two_step(parent, c)


@st.composite
def table_roots(draw, ns=st.integers(1, 8), ms=st.integers(2, 9)) -> Circuit:
    """A table-born circuit on n in ``ns`` inputs and m in ``ms`` outputs, by
    default n = 1..8 and m = 2..9, so that some splits reach halves with no
    input left; its table is uniform, all zero, ``x mod 2^m``, sparse or
    one-hot (one output 1 per row)."""
    n, m = draw(ns), draw(ms)
    rng = random.Random(draw(st.integers(0, 2**32)))
    form = draw(st.sampled_from(("uniform", "zero", "modular", "sparse", "one-hot")))
    if form == "uniform":
        table = [rng.randrange(1 << m) for _ in range(1 << n)]
    elif form == "zero":
        table = [0] * (1 << n)
    elif form == "modular":
        table = [x % (1 << m) for x in range(1 << n)]
    elif form == "one-hot":
        table = [1 << rng.randrange(m) for _ in range(1 << n)]
    else:
        table = [rng.randrange(1 << m) if rng.random() < 0.1 else 0 for _ in range(1 << n)]
    return circuit_from_table(table, n, m)


def _assert_reads_are_the_fold(half: Half, want: Half) -> None:
    """``half``'s circuit, its embedding into a fresh builder and its
    redirect to a word are those of ``want``, gate for gate; its written
    rows hold no dead row."""
    assert half.circuit == want.circuit and None not in [op for op, _, _ in half.rows]
    built = [GateBuilder(half.n) for _ in range(2)]
    outs = [b.embed(h, b.inputs) for b, h in zip(built, (half, want))]
    assert outs[0] == outs[1] and built[0].gates == built[1].gates
    word = format(half.size % (1 << half.m), f"0{half.m}b")
    assert redirect_zero_outputs(half, word) == redirect_zero_outputs(want, word)


def _assert_table_split_is_the_fold(parent: Circuit | Half, folded: Circuit | Half) -> int:
    """Each half of a table-born ``parent``'s split is made with no rows
    and the ``size`` of the same half of ``folded``, which the fold makes,
    and its circuit, embedding and redirect are that half's gate for gate.
    The low half is read after its own halves are split and read, the high
    half before.  Returns the halves checked."""
    checked = 0
    for bit in (0, 1):
        half, want = Half(parent, bit), Half(folded, bit)
        assert not hasattr(half, "rows") and hasattr(want, "rows")
        assert (half.n, half.m, half.size) == (want.n, want.m, want.size)
        if bit:
            _assert_reads_are_the_fold(half, want)
        if half.n and half.m >= 2:
            checked += _assert_table_split_is_the_fold(half, want)
        if not bit:
            _assert_reads_are_the_fold(half, want)
        checked += 1
    return checked


@settings(max_examples=100, derandomize=True, deadline=None)
@given(table_roots())
def test_table_born_halves_are_sized_exactly_without_a_fold(c):
    """Every half of a table-born circuit's full split tree, down to those
    with no input left, is sized by the table rule exactly as the fold sizes
    the same half of its parsed copy, and sweeps to the same circuit."""
    assert _assert_table_split_is_the_fold(c, parsed(c)) >= 2


def _table_of(n: int, ones: list[set[int]]) -> list[int]:
    """The n-input table whose output j (the first most significant) is 1
    on the points ``ones[j]``."""
    m = len(ones)
    return [sum(1 << m - 1 - j for j, points in enumerate(ones) if x in points) for x in range(1 << n)]


@pytest.mark.parametrize(
    "n, ones, path, ops, outputs",
    [
        # The root's CONST 0 sits in the slot of its first never-1 output, here
        # output 0, which the split drops: before every kept chain.
        (3, [set(), {1, 2, 3}, set(), {0, 3}], [0], "iinnaaaa0ooo", (10, 8, 11)),
        # ... and here output 2, which the split keeps: between the chains.
        (3, [{5}, {1, 2, 3}, set(), {0, 3}], [0], "iinnaaaaoo0o", (9, 10, 11)),
        # Outputs 1 and 2 go to 0 at depth 1 and share its CONST 0; output 3
        # goes to 0 at depth 2 and reads a second one, after the first.
        (3, [{7}, {6}, {4}, {2}, {0, 1}], [0], "iinnaaao0", (8, 8, 6, 7)),
        (3, [{7}, {6}, {4}, {2}, {0, 1}], [0, 0], "ino00", (3, 4, 2)),
        # No input left: the constants are made in the order of the parent's
        # outputs, the dropped one first (CONST 1 on the high side, 0 on the low).
        (1, [{1}, {0}, {1}], [1], "10", (1, 0)),
        (1, [{1}, {0}, {1}], [0], "01", (1, 0)),
        # The root's CONST 0, one from depth 1, then depth 2's 0 and 1.
        (2, [{1}, set(), {3}, {0}, {1, 2}, set()], [0, 1], "0001", (1, 2, 3, 0)),
    ],
)
def test_written_halves_place_their_constants_as_the_fold_does(n, ones, path, ops, outputs):
    """Hand-built tables for each CONST entry a half below a table-born root
    reads: the half down ``path`` has the gates (each op by its initial, a
    CONST by its bit) and outputs given, and every half of the split tree is
    read as the fold makes it."""
    c = circuit_from_table(_table_of(n, ones), n, len(ones))
    half = c
    for bit in path:
        half = Half(half, bit)
    written = "".join(str(g.a) if g.op == OP_CONST else g.op[0] for g in half.circuit.gates)
    assert (written, half.circuit.outputs) == (ops, outputs)
    assert _assert_table_split_is_the_fold(c, parsed(c)) >= 2


def test_a_wrong_table_size_is_refused_where_the_fold_fills_the_half(monkeypatch):
    """Where a fold fills a table-sized half, its liveness size is checked
    against its table size: with the rule off by one, reading the half's
    ``succ`` raises ``SizingError``, which ``python -O`` keeps."""
    monkeypatch.setattr("tfnpkit.circuit._table_size", lambda masks, w: _table_size(masks, w) + 1)
    inst = IterInstance(circuit_from_table([min(x + 1, 7) for x in range(8)], 3, 3))
    half = inst.half(0)
    assert half.size == size(restrict_half(parsed(inst.succ), 0)) + 1
    with pytest.raises(SizingError, match="its table gives"):
        half.succ


@settings(max_examples=80, derandomize=True, deadline=None)
@given(table_roots(st.integers(0, 10), st.integers(1, 9)))
def test_table_born_gates_are_written_on_first_read_as_the_eager_layout(c):
    """A table-born circuit is made with the outputs and size of the gate
    loop's circuit on its table but no gates; before they are written, it
    equals and hashes as that circuit's parsed copy, and once read, its
    gates are the loop's, gate for gate."""
    words, m = vars(c)["_points"], c.m
    table = [int(words[x * m : x * m + m], 2) for x in range(1 << c.n)]
    eager = _loop_circuit_from_table(table, c.n, m, c.name)
    assert (c.outputs, size(c)) == (eager.outputs, size(eager)) and ("gates" in vars(c)) == (c.n == 0)
    copy = parsed(eager)
    assert hash(circuit_from_table(table, c.n, m)) == hash(copy)
    assert c == copy
    _assert_same_build(c, eager)


def test_a_wrong_table_born_size_is_refused_when_its_gates_are_written(monkeypatch):
    """Where a table-born circuit's gates are written, their size is checked
    against the layout rule's: with the rule off by one, reading the gates
    raises ``SizingError``, which ``python -O`` keeps, and writes none."""

    def off_by_one(words: str, n: int, m: int):
        outputs, rule_size = _table_layout(words, n, m)
        return outputs, rule_size + 1

    monkeypatch.setattr("tfnpkit.circuit._table_layout", off_by_one)
    table = [min(x + 1, 7) for x in range(8)]
    c = circuit_from_table(table, 3, 3)
    assert size(c) == size(_loop_circuit_from_table(table, 3, 3)) + 1
    with pytest.raises(SizingError, match="its table gives"):
        c.gates
    assert "gates" not in vars(c)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.integers(0, 6), st.integers(1, 4), st.data())
def test_table_born_circuits_carry_their_points(n, m, data):
    """A table-born circuit's points are its gates' truth table, and so are
    the points a pair of two table-born circuits joins; a pair with a
    parsed half holds none until it is read."""
    table = data.draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1 << n, max_size=1 << n))
    c = circuit_from_table(table, n, m)
    assert vars(c)["_points"] == "".join(successor_table(c))
    if n:
        steps = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1 << n, max_size=1 << n))
        succ = circuit_from_table(steps, n, n)
        pair = combine_pair(succ, c)
        assert vars(pair)["_points"] == "".join(successor_table(pair))
        assert "_points" not in vars(combine_pair(succ, parsed(c)))


def test_wide_table_born_circuits_read_through_the_memo(monkeypatch):
    """A table-born circuit too wide to read a table gets no seed, nor does
    a pair of two: each reads its points through the memo.  Such a circuit
    has its gates written when it is made."""
    monkeypatch.setattr("tfnpkit.circuit._TABLE_MAX_INPUTS", 2)
    succ = circuit_from_table([(3 * x + 1) % 8 for x in range(8)], 3, 3)
    assert "gates" in vars(succ) and size(succ) == size(parsed(succ))
    pair = combine_pair(succ, circuit_from_table([x % 4 for x in range(8)], 3, 2))
    for c in (succ, pair):
        assert "_points" not in vars(c)
        xs = list(all_bitstrings(3))
        assert [point(c, x) for x in xs] == [evaluate(c, x) for x in xs]
        assert vars(c)["_points"] == {x: evaluate(c, x) for x in xs}


# Gate-by-gate references for the table synthesiser and the pair join: the
# bulk builders must match them gate for gate.


def _loop_circuit_from_table(table, n: int, m: int, name: str = "t") -> Circuit:
    _check_shape(n, m)
    if len(table) != 1 << n:
        raise DimensionError(f"table must have {1 << n} entries")
    for v in table:
        if not 0 <= v < 1 << m:
            raise DimensionError(f"table entry {v} does not fit in {m} bits")
    if n == 0:
        return _loop_seeded(constant_circuit(0, format(table[0], f"0{m}b"), name), table)
    gates: list[Gate] = [INPUT(k) for k in range(n)]
    neg = []
    for k in range(n):
        gates.append(NOT(k))
        neg.append(len(gates) - 1)
    minterm = []
    for x in range(1 << n):
        lits = [(k if (x >> (n - 1 - k)) & 1 else neg[k]) for k in range(n)]
        acc = lits[0]
        for lit in lits[1:]:
            gates.append(AND(acc, lit))
            acc = len(gates) - 1
        minterm.append(acc)
    outs = []
    zero_ref = None
    for j in range(m):
        rows = [x for x in range(1 << n) if (table[x] >> (m - 1 - j)) & 1]
        if not rows:
            if zero_ref is None:
                gates.append(CONST(0))
                zero_ref = len(gates) - 1
            outs.append(zero_ref)
            continue
        acc = minterm[rows[0]]
        for x in rows[1:]:
            gates.append(OR(acc, minterm[x]))
            acc = len(gates) - 1
        outs.append(acc)
    return _loop_seeded(_derived(n, tuple(gates), tuple(outs), name), table)


def _loop_seeded(c: Circuit, table) -> Circuit:
    if c.n <= _TABLE_MAX_INPUTS:
        top = 1 << c.m  # a 1 above the word's m bits: bin() then keeps its zeros
        vars(c)["_points"] = "".join([bin(v | top)[3:] for v in table])
    return c


def _loop_combine_pair(succ: Circuit, valuation: Circuit, name: str = "pair") -> Circuit:
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
    pair = _derived(succ.n, tuple(gates), outputs, name)
    s_words, v_words = _table_words(succ), _table_words(valuation)
    if s_words is not None and v_words is not None:
        n, m = succ.m, valuation.m
        vars(pair)["_points"] = "".join(
            [s_words[x * n : x * n + n] + v_words[x * m : x * m + m] for x in range(1 << succ.n)]
        )
    return pair


def _assert_same_build(got: Circuit, want: Circuit) -> None:
    assert got.gates == want.gates
    assert all(type(g) is Gate for g in got.gates)
    assert (got.n, got.m, got.outputs, got.name) == (want.n, want.m, want.outputs, want.name)
    assert vars(got).get("_points") == vars(want).get("_points")


@st.composite
def tables(draw, n: int, m: int) -> list[int]:
    """A table on n inputs and m outputs, each output column free, never 1
    (the shared CONST 0), 1 on one row (a bare minterm) or always 1."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    table = [rng.randrange(1 << m) for _ in range(1 << n)]
    for j in range(m):
        bit = 1 << (m - 1 - j)
        form = draw(st.sampled_from(("free", "zero", "one row", "all")))
        if form == "zero":
            table = [v & ~bit for v in table]
        elif form == "all":
            table = [v | bit for v in table]
        elif form == "one row":
            row = draw(st.integers(0, (1 << n) - 1))
            table = [v | bit if x == row else v & ~bit for x, v in enumerate(table)]
    return table


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.integers(0, 9), st.integers(1, 6), st.data())
def test_table_synthesis_matches_the_gate_loop(n, m, data):
    """The bulk synthesiser builds the loop's circuit gate for gate: the same
    gates (each a ``Gate``), outputs, name and seeded points.  A second
    table of the same width, synthesised while the first circuit is held,
    takes the first's INPUT, NOT and minterm AND gates as the same objects."""
    table = data.draw(tables(n, m))
    first = circuit_from_table(table, n, m, "t")
    _assert_same_build(first, _loop_circuit_from_table(table, n, m, "t"))
    m2 = data.draw(st.integers(1, 6))
    table2 = data.draw(tables(n, m2))
    second = circuit_from_table(table2, n, m2, "t")
    _assert_same_build(second, _loop_circuit_from_table(table2, n, m2, "t"))
    if n:
        prefix = 2 * n + (1 << n) * (n - 1)
        assert all(a is b for a, b in zip(first.gates[:prefix], second.gates[:prefix], strict=True))


def test_table_born_circuits_are_freed_once_dropped():
    """Nothing holds a table-born circuit, or its chain prefix, but its
    readers: once dropped it is freed, and the next synthesis at its width
    builds the prefix afresh, gate for gate the loop's."""
    table = [(5 * x + 3) % 32 for x in range(32)]
    c = circuit_from_table(table, 5, 5)
    freed = weakref.ref(c)
    del c
    gc.collect()
    assert freed() is None
    assert 5 not in _TABLE_BORN
    _assert_same_build(circuit_from_table(table, 5, 5, "t"), _loop_circuit_from_table(table, 5, 5, "t"))


def test_long_path_roots_of_one_width_share_their_chain_prefix():
    """Seven n = 10 long-path roots, as the iteration bench makes them and
    held together, hold one copy of the 9,236 INPUT, NOT and minterm AND
    gates between them: every other gate object is their own."""
    n, space, prefix = 10, 1 << 10, 9236
    rng = random.Random(22)
    roots = []
    for _ in range(7):
        path = [0] + [x for x in range(1, space) if rng.random() < 0.9]
        succ = list(range(space))
        for a, b in zip(path, path[1:]):
            succ[a] = b
        roots.append(circuit_from_table(succ, n, n, "succ"))
    distinct = {id(g) for c in roots for g in c.gates}
    assert len(distinct) == prefix + sum(len(c.gates) - prefix for c in roots)


def _variant(c: Circuit, form: str, k: int, data) -> Circuit:
    """``c`` as given, or parsed with its INPUT gates relabelled by a
    permutation, with input k's gates made CONST 0, or with a second gate
    for input k that its first output reads."""
    if form == "as given":
        return c
    gates, outputs = list(parsed(c).gates), c.outputs
    if form == "permuted":
        perm = data.draw(st.permutations(range(c.n)))
        gates = [INPUT(perm[g.a]) if g.op == OP_INPUT else g for g in gates]
    elif form == "missing":
        gates = [CONST(0) if g == INPUT(k) else g for g in gates]
    else:
        gates.append(INPUT(k))
        outputs = (len(gates) - 1,) + outputs[1:]
    return Circuit(c.n, c.m, tuple(gates), outputs, name=c.name)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(1, 7), st.integers(1, 4), st.data())
def test_pair_join_matches_the_gate_loop(n, m, data):
    """The bulk pair join builds the loop's pair gate for gate, for every
    form of successor and valuation: also where a valuation input is read
    through an appended gate (the successor has no gate for it), and
    through a second gate of its own."""
    forms = ("as given", "permuted", "missing", "duplicated")
    k = data.draw(st.integers(0, n - 1))
    succ = circuit_from_table(data.draw(tables(n, n)), n, n, "s")
    val = circuit_from_table(data.draw(tables(n, m)), n, m, "v")
    for succ_form in forms:
        for val_form in forms:
            s, v = _variant(succ, succ_form, k, data), _variant(val, val_form, k, data)
            _assert_same_build(combine_pair(s, v, "p"), _loop_combine_pair(s, v, "p"))


def test_table_synthesis_keeps_its_shape_and_range_errors():
    for table, n, m, message in (
        ([0, 1, 0], 2, 1, "table must have 4 entries"),
        ([0, 1], 2, 1, "table must have 4 entries"),
        ([0, 4, 1, 0], 2, 2, "table entry 4 does not fit in 2 bits"),
        ([0, 3, -1, 7], 2, 2, "table entry -1 does not fit in 2 bits"),
        ([2], 0, 1, "table entry 2 does not fit in 1 bits"),
        ([0, 0], 1, 0, "bad circuit shape n=1, m=0"),
        ([0], -1, 1, "bad circuit shape n=-1, m=1"),
    ):
        for build in (circuit_from_table, _loop_circuit_from_table):
            with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
                build(table, n, m)
    succ, val = circuit_from_table([1, 0], 1, 1), circuit_from_table([0, 1, 1, 0], 2, 1)
    for join in (combine_pair, _loop_combine_pair):
        with pytest.raises(DimensionError, match="^valuation must read the same inputs as the successor$"):
            join(succ, val)
        with pytest.raises(DimensionError, match="^successor circuit must have n == m, got 2 -> 1$"):
            join(val, val)


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
    """Every producer that skips validation (the netlist parser,
    restrictions, builders, the synthesisers and composed sink-of-DAG
    queries) makes circuits that the validating constructor accepts
    unchanged."""
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    bit = data.draw(st.integers(0, 1))
    word = "".join(rng.choice("01") for _ in range(c.m))
    _revalidated(parse_netlist(emit_netlist(c)))
    _revalidated(restrict_input(c, data.draw(st.integers(1, c.n)), bit))
    _revalidated(project_outputs(c, data.draw(st.lists(st.integers(0, c.m - 1), min_size=1, max_size=c.m + 1))))
    _revalidated(restrict_half(c, bit))
    _revalidated(redirect_zero_outputs(c, word))
    # a half is embedded from its entries, gate for gate as its circuit
    redirected_half = _revalidated(redirect_zero_outputs(Half(c, bit), word[1:]))
    assert redirected_half == redirect_zero_outputs(restrict_half(c, bit), word[1:])
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
