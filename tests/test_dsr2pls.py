import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tfnpkit import (
    HalvingIterProgram,
    QueryTrace,
    RecursiveCombineProblem,
    SodInstance,
    StateSpace,
    all_bitstrings,
    check_circuit_sizing,
    circuit_from_table,
    compile_pls,
    emit_instance,
    enumerate_solutions,
    from_int,
    instance_size,
    kind_of,
    monitored,
    random_instance,
    run_dsr,
    self_oracle,
    solve_path,
    verify_solution,
    well_formed,
    zeros,
)
from tfnpkit.circuit import pad_with_dead_gates
from tfnpkit.dsr import dsr_iter_with_source
from tfnpkit.errors import DimensionError, SizingError, SolveBoundError
from tfnpkit.fixtures import _Unanswered
from tfnpkit.problems import IterInstance, circuit_size

from conftest import table_circuit


@pytest.fixture
def prog():
    return RecursiveCombineProblem()


def test_initial_state_shape(prog):
    x = "101"
    machine = StateSpace(prog, 3)
    state = machine.initial_state(x)
    assert len(state) == machine.width()
    assert machine.is_valid(state, x)
    # exact width: one cell per level with flags, instances, and answers
    expected = sum(
        [2 + 3 + 3]
        + [prog.query_count(3 - i + 1) * (2 + (3 - i) + (3 - i)) for i in range(1, 3)]
    )
    assert machine.width() == expected


def test_initial_state_position_is_one(prog):
    from tfnpkit.svl import position

    machine = StateSpace(prog, 4)
    state = machine.initial_state("1011")
    assert position(prog, state, machine) == 1


def test_gap_state_is_invalid(prog):
    x = "101"
    machine = StateSpace(prog, 3)
    walk = list(machine.walk(x))
    # find a state whose first row has both slots filled, then blank slot one
    for state in walk:
        cells = machine.row_cells(state, 1)
        if cells[0][0] is not None and cells[1][0] is not None:
            base = machine._cw[3]
            w = machine._cw[2]
            gap = state[:base] + "0" * w + state[base + w :]
            assert not machine.is_valid(gap, x)
            break
    else:
        pytest.fail("no two-slot state on the walk")


def test_wrong_sub_solution_is_invalid(prog):
    x = "101"
    machine = StateSpace(prog, 3)
    for state in machine.walk(x):
        cells = machine.row_cells(state, 1)
        if cells[0][0] is not None and cells[0][1] is not None:
            inst, sol = cells[0]
            wrong = sol[:-1] + ("0" if sol[-1] == "1" else "1")
            base = machine._cw[3]
            cell = "1" + inst + "1" + wrong
            bad = state[:base] + cell + state[base + len(cell) :]
            assert not machine.is_valid(bad, x)
            break
    else:
        pytest.fail("no answered first slot on the walk")


def test_junk_after_finish_is_invalid(prog):
    x = "101"
    machine = StateSpace(prog, 3)
    states = list(machine.walk(x))
    sink = states[-1]
    junk = sink[: machine.width() - 1] + "1"
    assert not machine.is_valid(junk, x)


def test_non_canonical_blank_is_invalid(prog):
    x = "10"
    machine = StateSpace(prog, 2)
    state = machine.initial_state(x)
    # set a bit inside a blank field without raising its presence flag
    flipped = state[: machine.width() - 1] + "1"
    assert not machine.is_valid(flipped, x)


def test_invalid_states_are_fixed_points(prog):
    x = "101"
    machine = StateSpace(prog, 3)
    bad = "1" * machine.width()
    assert not machine.is_valid(bad, x)
    assert machine.successor(bad, x) == bad


def test_state_graph_exhaustive_n2(prog):
    """Every 14-bit table against every instance: exactly the walk states are
    valid, each steps to the next one (the sink to itself), every other
    string is a fixed point, and the compiled valuation is the state's
    1-based index on the walk, or 0 off it."""
    machine = StateSpace(prog, 2)
    xs = list(all_bitstrings(2))
    nexts, indices, valuations = {}, {}, {}
    for x in xs:
        walk = list(machine.walk(x))
        nexts[x] = dict(zip(walk, walk[1:] + walk[-1:]))
        indices[x] = {state: i for i, state in enumerate(walk, start=1)}
        valuations[x] = compile_pls(prog, x).instance.valuation
    for state in all_bitstrings(machine.width()):
        for x in xs:
            expected = nexts[x].get(state)
            assert machine.is_valid(state, x) == (expected is not None)
            assert machine.successor(state, x) == (state if expected is None else expected)
            assert valuations[x](state) == indices[x].get(state, 0)


def _tabulated(compiled) -> SodInstance:
    """The compiled procedure root as a circuit instance: its successor and
    valuation tabulated over every state and synthesised from the tables,
    with the compiled source."""
    proc = compiled.instance
    n = proc.n
    steps = [proc.step_and_value(from_int(s, n)) for s in range(1 << n)]
    succ = circuit_from_table([int(word, 2) for word, _ in steps], n, n, name="succ")
    valuation = circuit_from_table([value for _, value in steps], n, proc.value_bits, name="valuation")
    return SodInstance(succ, valuation, proc.source)


def _halving_tops(seed: int):
    """``HalvingIterProgram`` tops on 2 bits drawn from ``random.Random(seed)``,
    each with its source and the answers its program accepts."""
    rng = random.Random(seed)
    while True:
        top = random_instance("iter-with-source", 2, rng)
        prog = HalvingIterProgram(top)
        yield prog, top.source, [w for w in all_bitstrings(2) if prog.verify(top.source, w)]


@pytest.mark.parametrize("case", ["combine", "halving", "halving-two-answers"])
def test_compiled_instance_as_circuits_solves_to_the_answer_n2(case):
    """At n = 2 the 14-bit state graph fits a truth table, so the compiled
    instance becomes a genuine circuit sink-of-DAG instance: it is well
    formed, each of its solutions extracts to an answer the program accepts,
    and so does the state the monitored DSR returns on it.  The last case
    is the first top from ``random.Random(7)`` that two answers solve."""
    if case == "combine":
        prog, x = RecursiveCombineProblem(), "10"
    elif case == "halving":
        prog, x, _ = next(_halving_tops(2))
    else:
        prog, x, _ = next(top for top in _halving_tops(7) if len(top[2]) == 2)
    compiled = compile_pls(prog, x)
    inst = _tabulated(compiled)
    assert inst.n == 14 and well_formed(inst)
    solutions = enumerate_solutions(inst)
    assert solutions and all(prog.verify(x, compiled.extract(state)) for state in solutions)
    answer = run_dsr(inst, monitored(self_oracle(), "circuit-dsr-poly-blowup", c=2))
    assert prog.verify(x, compiled.extract(answer))


def test_halving_state_graph_is_closed_n2(rng):
    """Valid states step to valid states, invalid ones are fixed points,
    and every answered row-one cell of a valid state passes the program's
    ``verify``: the state space makes the answer check that the replay
    does not repeat."""
    for _ in range(3):
        top = random_instance("iter-with-source", 2, rng)
        prog = HalvingIterProgram(top)
        machine = StateSpace(prog, 2)
        x = top.source
        for state in all_bitstrings(machine.width()):
            nxt = machine.successor(state, x)
            if machine.is_valid(state, x):
                assert machine.is_valid(nxt, x)
                for slot, (inst, sol) in enumerate(machine.row_cells(state, 1), start=1):
                    assert sol is None or prog.verify(inst, sol, (slot,))
            else:
                assert nxt == state


def _one_bit_flips(walk):
    for state in walk:
        for i in range(len(state)):
            yield state[:i] + ("1" if state[i] == "0" else "0") + state[i + 1 :]


def test_one_bit_flips_of_nested_walks(prog):
    """Every one-bit flip of every walk state at n = 3 and 4, where the pass
    recurses through two and three levels.  For the unique-solution
    fixture a flip is valid exactly when it is a walk state, steps to the
    next one (the sink to itself) and is valued by its index, or is a
    fixed point valued 0.  For the halving program, whose answers need not
    be unique, an invalid flip is a fixed point valued 0, and a valid one
    is finished (a fixed point valued ``path_length``) or steps to a valid
    state valued one higher."""
    for x in ("101", "0110"):
        compiled = compile_pls(prog, x)
        machine, valuation = compiled.machine, compiled.instance.valuation
        walk = list(machine.walk(x))
        nexts = dict(zip(walk, walk[1:] + walk[-1:]))
        indices = {state: i for i, state in enumerate(walk, start=1)}
        for state in _one_bit_flips(walk):
            expected = nexts.get(state)
            assert machine.is_valid(state, x) == (expected is not None)
            assert machine.successor(state, x) == (state if expected is None else expected)
            assert valuation(state) == indices.get(state, 0)
    for n in (3, 4):
        for seed in (1, 2):
            top = random_instance("iter-with-source", n, random.Random(seed))
            compiled = compile_pls(HalvingIterProgram(top), top.source)
            machine, x, valuation = compiled.machine, top.source, compiled.instance.valuation
            for state in _one_bit_flips(machine.walk(x)):
                nxt = machine.successor(state, x)
                if not machine.is_valid(state, x):
                    assert nxt == state and valuation(state) == 0
                elif nxt == state:
                    assert valuation(state) == compiled.path_length
                else:
                    assert machine.is_valid(nxt, x)
                    assert valuation(nxt) == valuation(state) + 1


def _implicit_solution(inst, cand: str) -> bool:
    """The sink-finding predicate written out over a procedure root's
    successor and valuation procedures: the reference for the problem
    layer's one sink-of-DAG predicate."""
    step = inst.succ(cand)
    if step == cand:
        return False
    if inst.succ(step) == step:
        return True
    return inst.valuation(step) <= inst.valuation(cand)


def test_compiled_instances_keep_the_implicit_predicate(prog):
    """On every walk state and every one-bit flip of both fixtures at n = 3,
    ``verify_solution`` on the compiled instance agrees with the reference
    predicate, and ``well_formed`` from that state as source agrees with
    its source moving."""
    top = random_instance("iter-with-source", 3, random.Random(1))
    for program, x in ((prog, "101"), (HalvingIterProgram(top), top.source)):
        compiled = compile_pls(program, x)
        inst, walk = compiled.instance, list(compiled.machine.walk(x))
        assert well_formed(inst)
        accepted = 0
        for state in [*walk, *_one_bit_flips(walk)]:
            expected = _implicit_solution(inst, state)
            assert verify_solution(inst, state) == expected
            accepted += expected
            moved = inst.with_source(state)
            assert well_formed(moved) == (inst.succ(state) != state)
        assert accepted >= 1


def test_valuation_is_zero_off_the_walk_of_x(prog):
    compiled = compile_pls(prog, "101")
    other = list(compiled.machine.walk("111"))
    assert all(compiled.instance.valuation(state) == 0 for state in other)
    assert compiled.instance.valuation("1" * compiled.machine.width()) == 0
    assert compiled.instance.valuation(compiled.instance.source) == 1


def test_sink_is_fixed_point_and_walk_ends_there(prog):
    x = "1011"
    machine = StateSpace(prog, 4)
    states = list(machine.walk(x))
    sink = states[-1]
    assert machine.successor(sink, x) == sink
    root = machine.root_cell(sink)
    assert root[1] == prog.solution(x)


def test_first_step_writes_first_query(prog):
    x = "101"
    machine = StateSpace(prog, 3)
    state = machine.successor(machine.initial_state(x), x)
    cells = machine.row_cells(state, 1)
    assert cells[0] == (prog.next_query(x, ()), None)
    assert cells[1][0] is None


def test_occupancy_counts_a_rows_filled_cells(prog):
    machine = StateSpace(prog, 3)
    for state in machine.walk("101"):
        for depth in (1, 2):
            cells = machine.row_cells(state, depth)
            assert machine.occupancy(state, depth) == sum(c[0] is not None for c in cells)
    for depth in (0, 3):
        with pytest.raises(DimensionError):
            machine.occupancy(state, depth)


def test_walk_properties_and_extraction(prog):
    for x in ("0", "1", "10", "011", "1011", "01101"):
        compiled = compile_pls(prog, x)
        machine = compiled.machine
        states = list(machine.walk(x, limit=2000))
        assert len(states) == compiled.path_length
        for step, state in enumerate(states):
            assert machine.is_valid(state, x)
            assert compiled.instance.valuation(state) == step + 1
        assert compiled.extract(states[-1]) == prog.solution(x)


def _count_passes(monkeypatch) -> list[int]:
    """Wrap ``StateSpace._step`` and count its calls; each call is one whole
    pass over a table."""
    passes = [0]
    step = StateSpace._step

    def counting_step(self, state, x):
        passes[0] += 1
        return step(self, state, x)

    monkeypatch.setattr(StateSpace, "_step", counting_step)
    return passes


def test_walk_with_positions_makes_one_pass_per_state(monkeypatch, prog, rng):
    """A walk that reads the position of every yielded state and extracts
    the answer from the last one validates each state once: the step after
    a position reads the pass the position made."""
    passes = _count_passes(monkeypatch)
    top = random_instance("iter-with-source", 3, rng)
    counts = []
    for program, x in ((prog, "10110100"), (HalvingIterProgram(top), top.source)):
        compiled = compile_pls(program, x)
        passes[0] = 0
        for index, state in enumerate(compiled.machine.walk(x), start=1):
            assert compiled.instance.valuation(state) == index
        compiled.extract(state)
        assert passes[0] == compiled.path_length
        counts.append(passes[0])
    assert counts[0] == 510


_REMEMBERED_XS = ("101", "011")
_REMEMBERED_VALID = sorted(
    {s for x in _REMEMBERED_XS for s in StateSpace(RecursiveCombineProblem(), 3).walk(x)}
)


@st.composite
def _table_strings(draw):
    """A valid table of either instance, one of its one-bit flips, or a
    string one bit too short or too long."""
    state = draw(st.sampled_from(_REMEMBERED_VALID))
    shape = draw(st.sampled_from(("valid", "flip", "short", "long")))
    if shape == "flip":
        i = draw(st.integers(0, len(state) - 1))
        return state[:i] + ("1" if state[i] == "0" else "0") + state[i + 1 :]
    return {"valid": state, "short": state[:-1], "long": state + "0"}[shape]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(("successor", "position", "is_valid")),
            st.none() | _table_strings(),  # None asks about the previous state again
            st.none() | st.sampled_from(_REMEMBERED_XS + ("10", "1x1")),
        ),
        min_size=1,
        max_size=25,
    )
)
def test_remembered_pass_is_never_stale(calls):
    """Interleaved questions to one state space, many of them about the pair
    it answered last, get the answers of a fresh state space, and a bad
    ``x`` still raises."""
    machine = StateSpace(RecursiveCombineProblem(), 3)
    state, x = _REMEMBERED_VALID[0], _REMEMBERED_XS[0]
    for method, next_state, next_x in calls:
        state = state if next_state is None else next_state
        x = x if next_x is None else next_x
        fresh = StateSpace(RecursiveCombineProblem(), 3)
        if x in _REMEMBERED_XS:
            assert getattr(machine, method)(state, x) == getattr(fresh, method)(state, x)
        else:
            for space in (machine, fresh):
                with pytest.raises(DimensionError):
                    getattr(space, method)(state, x)


class _SlotParityProgram(RecursiveCombineProblem):
    """The combine fixture with the last answer bit flipped where the slot
    path sums to an odd number, so one row of cells under one instance is
    valid at one slot of its parent and not at the other.  The halving
    program's rows at n = 3 read the same at both slots."""

    def finalize(self, inst, answered, path=()):
        sol = self.solution(inst)
        return sol[:-1] + str(int(sol[-1]) ^ sum(path) % 2)

    def verify(self, inst, sol, path=()):
        return sol == self.finalize(inst, (), path)


def _scan_case(program, xs):
    return program, xs, [list(StateSpace(program, len(x)).walk(x)) for x in xs]


_HALVING_TOP = random_instance("iter-with-source", 3, random.Random(1))
_SCAN_CASES = {
    "combine": _scan_case(RecursiveCombineProblem(), ("101", "001")),
    # each instance asks the other's queries in the opposite slots
    "slot-parity": _scan_case(_SlotParityProgram(), ("101", "011")),
    "halving": _scan_case(
        HalvingIterProgram(_HALVING_TOP),
        (_HALVING_TOP.source, str(1 - int(_HALVING_TOP.source[0])) + _HALVING_TOP.source[1:]),
    ),
}


@pytest.mark.parametrize("case", sorted(_SCAN_CASES))
@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(("successor", "position", "is_valid")),
            # a walk and an index on it; None asks about the last state again
            st.none() | st.tuples(st.integers(0, 1), st.integers(0, 13)),
            st.none() | st.integers(0, 27),  # a bit to flip
            # the instance asked with; None: the one the root cell names
            st.none() | st.integers(0, 1),
        ),
        min_size=1,
        max_size=20,
    )
)
# a scan, then the row one cell on at the same row, or the same row under
# the instance one root bit away, or at the other slot of its parent
@example(calls=[("position", (0, 3), None, 0), ("position", None, 27, 0)])
@example(calls=[("position", (0, 3), None, 0), ("position", None, 1, None)])
@example(calls=[("position", (0, 3), None, 0), ("position", (1, 9), 23, None)])
def test_level_scans_are_never_stale(case, calls):
    """Interleaved questions to one state space about walk states of two
    instances, asked with either one, and about their one-bit flips, get
    the answers of a fresh state space: a level's remembered row scan is
    read only for the same row, instance and slot path."""
    program, xs, walks = _SCAN_CASES[case]
    n = len(xs[0])
    machine = StateSpace(program, n)
    state = walks[0][0]
    for method, on_walk, flip, asked in calls:
        if on_walk is not None:
            state = walks[on_walk[0]][on_walk[1]]
        if flip is not None:
            state = state[:flip] + ("1" if state[flip] == "0" else "0") + state[flip + 1 :]
        x = state[1 : 1 + n] if asked is None else xs[asked]
        fresh = StateSpace(program, n)
        assert getattr(machine, method)(state, x) == getattr(fresh, method)(state, x)


def test_walk_reads_at_most_two_row_scans_per_state(monkeypatch, prog):
    """A walk that reads every state's position scans, per state, the row
    its last step changed and at most the row one of a level that step
    opened; every other level's scan is kept from the state's predecessor.
    Without resuming, the pass at n = 8 scans up to seven rows per state."""
    scans = [0]
    scan = StateSpace._scan_row_one

    def counting_scan(self, *args):
        scans[0] += 1
        return scan(self, *args)

    monkeypatch.setattr(StateSpace, "_scan_row_one", counting_scan)
    top = random_instance("iter-with-source", 5, random.Random(1))
    for program, x in ((prog, "10110100"), (HalvingIterProgram(top), top.source)):
        compiled = compile_pls(program, x)
        for index, state in enumerate(compiled.machine.walk(x), start=1):
            scans[0] = 0
            assert compiled.instance.valuation(state) == index
            assert scans[0] <= 2


def _record_scans(monkeypatch) -> list[int]:
    """Wrap ``StateSpace._scan_row_one`` and record where each scanned row
    one ends."""
    ends = []
    scan = StateSpace._scan_row_one

    def recording_scan(self, state, rows, deeper, *args):
        ends.append(deeper)
        return scan(self, state, rows, deeper, *args)

    monkeypatch.setattr(StateSpace, "_scan_row_one", recording_scan)
    return ends


def test_invalid_tables_leave_the_remembered_pass(monkeypatch, prog):
    """A walk that asks the position of one one-bit flip of each state
    before the state's own still scans at most two rows for the state: an
    invalid table never replaces the remembered pass, so the state resumes
    from its predecessor's.  Were a flip to replace it, the state would
    re-scan the flipped row too, three rows in all for some states."""
    ends = _record_scans(monkeypatch)
    rng = random.Random(5)
    compiled = compile_pls(prog, "10110100")
    valuation = compiled.instance.valuation
    for index, state in enumerate(compiled.machine.walk("10110100"), start=1):
        flip = rng.randrange(len(state))
        valuation(state[:flip] + ("1" if state[flip] == "0" else "0") + state[flip + 1 :])
        ends.clear()
        assert valuation(state) == index
        assert len(ends) <= 2


def test_resumed_pass_scans_only_rows_after_the_first_change(monkeypatch, prog):
    """After a valid table, a pass for the same ``x`` scans only levels
    whose row one ends after the first character where its table differs,
    and answers like a fresh state space: on pairs of walk states and
    one-bit flips of the combine walk at n = 8 and a halving walk at n = 5."""
    ends = _record_scans(monkeypatch)
    rng = random.Random(7)
    top = random_instance("iter-with-source", 5, random.Random(1))
    for program, x in ((prog, "10110100"), (HalvingIterProgram(top), top.source)):
        machine = StateSpace(program, len(x))
        walk = list(machine.walk(x))
        for _ in range(300):
            before = rng.choice(walk)
            after = rng.choice((rng.choice(walk), walk[min(walk.index(before) + 1, len(walk) - 1)]))
            if rng.random() < 0.5:
                flip = rng.randrange(len(after))
                after = after[:flip] + ("1" if after[flip] == "0" else "0") + after[flip + 1 :]
            expected = StateSpace(program, len(x)).position(after, x)
            assert machine.is_valid(before, x)
            ends.clear()
            assert machine.position(after, x) == expected
            first = next((i for i, (a, b) in enumerate(zip(before, after)) if a != b), len(after))
            assert all(end > first for end in ends)


def test_walk_reads_each_cell_once_per_state(monkeypatch, prog):
    """A walk that reads every state's position reads, per state, the top
    root cell and the cells of at most two row scans: a pending cell is
    read by its parent's scan and not again by its own level.  Re-reading
    each level's root cell, the pass at n = 8 reads up to eleven cells."""
    reads = [0]
    read_cell = StateSpace._read_cell

    def counting_read_cell(self, chunk, k):
        reads[0] += 1
        return read_cell(self, chunk, k)

    monkeypatch.setattr(StateSpace, "_read_cell", counting_read_cell)
    top = random_instance("iter-with-source", 5, random.Random(1))
    for program, x in ((prog, "10110100"), (HalvingIterProgram(top), top.source)):
        compiled = compile_pls(program, x)
        for index, state in enumerate(compiled.machine.walk(x), start=1):
            reads[0] = 0
            assert compiled.instance.valuation(state) == index
            assert reads[0] <= 1 + 2 * program.query_count(len(x))


def test_walk_limit_counts_steps(prog):
    """A walk of exactly ``limit`` steps passes; one step more yields the
    first ``limit + 1`` states and raises before the state past the limit."""
    for x in ("10", "101", "1011"):
        machine = StateSpace(prog, len(x))
        steps = machine.path_length() - 1
        full = list(machine.walk(x))
        assert list(machine.walk(x, limit=steps)) == full
        seen = []
        with pytest.raises(SolveBoundError, match=f"exceeded {steps - 1} steps"):
            for state in machine.walk(x, limit=steps - 1):
                seen.append(state)
        assert seen == full[:steps]


def test_state_width_is_below_declared_bound(prog):
    for n in (2, 3, 4, 5):
        machine = StateSpace(prog, n)
        bound = prog.query_count(n) * prog.solution_len(n) * n * n
        assert machine.width() < bound


def test_pls_instance_path_solution_extracts(prog):
    x = "1011"
    compiled = compile_pls(prog, x)
    sol = solve_path(compiled.instance)
    assert verify_solution(compiled.instance, sol)
    assert compiled.extract(sol) == prog.solution(x)


def test_sink_of_dag_self_reduction_solves_compiled_instances():
    """A compiled instance is a procedure-rooted ``SodInstance`` with a
    source, and the monitored sink-of-DAG self-reduction solves it in
    ``circuit-dsr`` mode, recording no size: on every combine input at
    n = 1..4 and 30 seeded ``HalvingIterProgram`` tops at each n = 2..6,
    every answer extracts to one the program verifies.  The modes that size
    queries, the file form and the circuit measures refuse it, and a query
    of it, with :class:`SizingError`."""
    cases = [(RecursiveCombineProblem(), x) for n in range(1, 5) for x in all_bitstrings(n)]
    for n in range(2, 7):
        rng = random.Random(n)
        tops = [random_instance("iter-with-source", n, rng) for _ in range(30)]
        cases += [(HalvingIterProgram(top), top.source) for top in tops]
    assert len(cases) == 180
    for program, x in cases:
        compiled = compile_pls(program, x)
        inst = compiled.instance
        assert isinstance(inst, SodInstance) and kind_of(inst) == "sink-of-dag-with-source"
        assert inst.value_bits == compiled.path_length.bit_length()
        trace = QueryTrace()
        state = run_dsr(inst, monitored(self_oracle(), "circuit-dsr", trace=trace))
        assert verify_solution(inst, state)
        assert program.verify(x, compiled.extract(state))
        assert trace.records and all(record.query_dims[2] is None for record in trace.records)
    for mode in ("dsr", "circuit-dsr-poly-blowup"):
        with pytest.raises(SizingError, match="no circuit"):
            run_dsr(inst, monitored(self_oracle(), mode))
    for refuse in (emit_instance, circuit_size, instance_size, lambda inst: circuit_size(inst.dropped())):
        with pytest.raises(SizingError, match="no circuit"):
            refuse(inst)


def test_self_hosted_walks(rng):
    for n in (2, 3, 4):
        for _ in range(4):
            top = random_instance("iter-with-source", n, rng)
            prog = HalvingIterProgram(top)
            compiled = compile_pls(prog, top.source)
            states = list(compiled.machine.walk(top.source, limit=5000))
            assert len(states) == compiled.path_length
            answer = compiled.extract(states[-1])
            assert verify_solution(top, answer)


class _AskingReplay(HalvingIterProgram):
    """Reference replay through the algorithm's entry point:
    ``dsr_iter_with_source`` on the path's instance with the cell word as
    source, which checks the guarantee and verifies every answer on its
    query (``_ask``), against an oracle that reads each query's slot from
    the last bit of its reader prefix."""

    def _replay(self, inst, answered, path):
        here = self.instance_for(path).with_source(inst)
        if here.step(inst) <= inst:
            return None

        def scripted(sub, parent):
            slot = int(sub._read[1][-1]) + 1
            if slot > len(answered):
                raise _Unanswered(slot, sub.source)
            return answered[slot - 1][1]

        return dsr_iter_with_source(here, scripted)


def test_self_hosted_walks_replay_like_the_checked_entry_point():
    """The replay by slot compiles the same walk, state for state, and
    extracts the same answer as the reference replay that asks every query
    through ``dsr_iter_with_source``: on long paths at n = 2..5 from two
    sources and on seeded random tops."""
    tops = []
    for n in range(2, 6):
        path = table_circuit([min(x + 1, (1 << n) - 1) for x in range(1 << n)], n)
        tops += [IterInstance(path, zeros(n)), IterInstance(path, from_int(1, n))]
        tops += [random_instance("iter-with-source", n, random.Random(seed)) for seed in range(8)]
    for top in tops:
        by_slot = compile_pls(HalvingIterProgram(top), top.source)
        asked = compile_pls(_AskingReplay(top), top.source)
        walk = list(by_slot.machine.walk(top.source))
        assert walk == list(asked.machine.walk(top.source))
        assert by_slot.extract(walk[-1]) == asked.extract(walk[-1])
        assert verify_solution(top, by_slot.extract(walk[-1]))


def test_circuit_mode_sizing_accepts_halving_program(rng):
    top = random_instance("iter-with-source", 3, rng)
    check_circuit_sizing(HalvingIterProgram(top), top.n)
    assert compile_pls(HalvingIterProgram(top), top.source).sizing_flags == []


def test_circuit_mode_sizing_rejects_bloat(rng):
    top = random_instance("iter-with-source", 3, rng)

    class Bloated(HalvingIterProgram):
        def instance_for(self, path):
            inst = super().instance_for(path)
            return IterInstance(pad_with_dead_gates(inst.succ, len(path) * 10_000), inst.source)

    with pytest.raises(SizingError):
        check_circuit_sizing(Bloated(top), top.n)


def test_circuit_sizing_needs_reported_query_sizes(prog):
    with pytest.raises(SizingError, match="per-path instances"):
        check_circuit_sizing(prog, 3)


def test_compile_refuses_a_width_the_program_refuses(prog):
    """The combine fixture answers at most 12 bits; the state space asks
    every width when it is built, so a 13-bit compile is refused at once."""
    with pytest.raises(SolveBoundError):
        compile_pls(prog, "1" * 13)
    compile_pls(prog, "1" * 12)  # the widest it answers


def test_programs_must_stop_querying_at_one_bit():
    class Bad(RecursiveCombineProblem):
        def query_count(self, size):
            return 2

    with pytest.raises(DimensionError):
        StateSpace(Bad(), 3)


def test_dsr_mode_flags_degenerate_bound(prog):
    compiled = compile_pls(prog, "1")
    assert compiled.sizing_flags  # the one-bit bound degenerates to zero
