import pytest

from tfnpkit import (
    HalvingIterProgram,
    RecursiveCombineProblem,
    StateSpace,
    all_bitstrings,
    compile_pls,
    random_instance,
    solve_path,
    verify_solution,
)
from tfnpkit.errors import DimensionError, SizingError


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
        cells = machine.row_one_cells(state)
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
        cells = machine.row_one_cells(state)
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
    valid, each steps to the next one (the sink to itself), and every other
    string is a fixed point."""
    machine = StateSpace(prog, 2)
    xs = list(all_bitstrings(2))
    nexts = {}
    for x in xs:
        walk = list(machine.walk(x))
        nexts[x] = dict(zip(walk, walk[1:] + walk[-1:]))
    for state in all_bitstrings(machine.width()):
        for x in xs:
            expected = nexts[x].get(state)
            assert machine.is_valid(state, x) == (expected is not None)
            assert machine.successor(state, x) == (state if expected is None else expected)


def test_halving_state_graph_is_closed_n2(rng):
    for _ in range(3):
        top = random_instance("iter-with-source", 2, rng)
        machine = StateSpace(HalvingIterProgram(top), 2)
        x = top.source
        for state in all_bitstrings(machine.width()):
            nxt = machine.successor(state, x)
            if machine.is_valid(state, x):
                assert machine.is_valid(nxt, x)
            else:
                assert nxt == state


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
    cells = machine.row_one_cells(state)
    assert cells[0] == (prog.next_query(x, ()), None)
    assert cells[1][0] is None


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


def test_circuit_mode_sizing_accepts_halving_program(rng):
    top = random_instance("iter-with-source", 3, rng)
    compiled = compile_pls(HalvingIterProgram(top), top.source, mode="circuit-dsr")
    assert compiled.sizing_flags == []


def test_circuit_mode_sizing_rejects_bloat(rng):
    top = random_instance("iter-with-source", 3, rng)

    class Bloated(HalvingIterProgram):
        def query_instance_size(self, path):
            base = super().query_instance_size(path)
            return base + (len(path) * 10_000 if path else 0)

    with pytest.raises(SizingError):
        compile_pls(Bloated(top), top.source, mode="circuit-dsr")


def test_programs_must_stop_querying_at_one_bit():
    class Bad(RecursiveCombineProblem):
        def query_count(self, size):
            return 2

    with pytest.raises(DimensionError):
        StateSpace(Bad(), 3)


def test_dsr_mode_flags_degenerate_bound(prog):
    compiled = compile_pls(prog, "1")
    assert compiled.sizing_flags  # the one-bit bound degenerates to zero
