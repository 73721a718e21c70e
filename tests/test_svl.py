import pytest

from tfnpkit import (
    HalvingIterProgram,
    RecursiveCombineProblem,
    StateSpace,
    check_promise,
    compile_pls,
    compile_svl,
    enumerate_solutions,
    path_length,
    position,
    random_instance,
    solve_path,
    verify_solution,
    well_formed,
)
from tfnpkit.dsr2pls import DsrProgram
from tfnpkit.errors import InvalidStateError, PromiseViolation
from tfnpkit.problems import SvlInstance


class SingleChainProgram(DsrProgram):
    """One query per level, identity relation: measures the degenerate
    single-branch walk."""

    def query_count(self, size):
        return 1 if size >= 2 else 0

    def solution_len(self, size):
        return size

    def next_query(self, inst, answered, path=()):
        return inst[:-1]

    def finalize(self, inst, answered, path=()):
        return inst

    def verify(self, inst, sol, path=()):
        return sol == inst


@pytest.fixture
def prog():
    return RecursiveCombineProblem()


def test_path_length_matches_measured_walks(prog):
    for x in ("0", "10", "110", "0110"):
        machine = StateSpace(prog, len(x))
        assert path_length(prog, len(x)) == sum(1 for _ in machine.walk(x))


def test_path_length_single_query_program():
    prog = SingleChainProgram()
    for n in (1, 2, 3, 5):
        assert path_length(prog, n) == 2 * n
        machine = StateSpace(prog, n)
        assert sum(1 for _ in machine.walk("1" * n)) == 2 * n


def test_position_endpoints(prog):
    machine = StateSpace(prog, 3)
    states = list(machine.walk("101"))
    assert position(prog, states[0], machine) == 1
    assert position(prog, states[-1], machine) == path_length(prog, 3)


def test_position_forms_agree_on_every_state(prog):
    for x in ("10", "110", "1011"):
        machine = StateSpace(prog, len(x))
        for state in machine.walk(x):
            assert position(prog, state, machine) == machine.position(state, machine.root_cell(state)[0])


def test_position_rejects_invalid_states(prog):
    machine = StateSpace(prog, 3)
    with pytest.raises(InvalidStateError):
        position(prog, "1" * machine.width(), machine)


def test_compile_svl_full_promise(prog):
    for x in ("0", "01", "101", "0110"):
        inst = compile_svl(prog, x)
        assert inst.target == path_length(prog, len(x))
        report = check_promise(inst)
        assert report.ok and not report.partial
        assert report.checked == inst.target


def test_positions_are_a_bijection_onto_the_path(prog):
    x = "0110"
    machine = StateSpace(prog, 4)
    seen = [position(prog, s, machine) for s in machine.walk(x)]
    assert seen == list(range(1, path_length(prog, 4) + 1))


def test_budget_yields_partial_report(prog):
    inst = compile_svl(prog, "0110")
    report = check_promise(inst, budget=5)
    assert report.partial and report.checked == 5 and report.ok


def test_target_one_like_check(prog):
    inst = compile_svl(prog, "0")
    assert inst.verifier(inst.source, 1)
    assert not inst.verifier(inst.source, 2)
    report = check_promise(inst)
    assert report.ok


def test_corrupted_verifier_is_reported(prog):
    inst = compile_svl(prog, "101")
    broken = SvlInstance(
        succ=inst.succ,
        source=inst.source,
        target=inst.target,
        verifier=lambda s, i: (not inst.verifier(s, i)) if i == 4 else inst.verifier(s, i),
    )
    report = check_promise(broken)
    assert not report.ok
    assert any("index 4" in v for v in report.violations)


def test_non_unique_problem_is_rejected(rng):
    while True:
        top = random_instance("iter-with-source", 3, rng)
        if len(enumerate_solutions(top)) > 1:
            break
    with pytest.raises(PromiseViolation):
        compile_svl(HalvingIterProgram(top), top.source)


def test_unique_selfhost_instance_compiles(rng):
    # hunt for a top instance whose whole query tree is unique-solution
    prog = None
    for _ in range(400):
        top = random_instance("iter-with-source", 2, rng)
        candidate = HalvingIterProgram(top)
        try:
            inst = compile_svl(candidate, top.source)
        except PromiseViolation:
            continue
        report = check_promise(inst)
        assert report.ok
        prog = candidate
        break
    if prog is None:
        pytest.skip("no unique-solution instance found in the sample")


def test_compiled_line_solves_at_its_target_only(prog):
    """The problem layer's verifiable-line branches on a compiled line at 3
    bits: the line is well formed from its source, not from a later state,
    and of the walk's states only the one at the target index solves it."""
    inst = compile_svl(prog, "101")
    walk = list(StateSpace(prog, 3).walk("101"))
    assert len(walk) == inst.target and well_formed(inst)
    assert [verify_solution(inst, state) for state in walk] == [False] * (inst.target - 1) + [True]
    later = SvlInstance(succ=inst.succ, source=walk[1], target=inst.target, verifier=inst.verifier)
    assert not well_formed(later)


def test_path_solver_walks_a_compiled_line_to_its_target(prog):
    """``solve_path`` steps a verifiable line by its successor: on the
    compiled line at 3 bits it returns the state the verifier accepts at the
    target, and that state extracts to the program's answer."""
    line = compile_svl(prog, "101")
    state = solve_path(line)
    assert line.target == 14 and line.verifier(state, line.target)
    assert compile_pls(prog, "101").extract(state) == prog.solution("101") == "000"
