import random

import pytest

from tfnpkit import (
    HalvingIterProgram,
    IterInstance,
    RecursiveCombineProblem,
    compile_pls,
    compile_svl,
    check_promise,
    path_length,
    random_instance,
    verify_solution,
)
from tfnpkit.bits import all_bitstrings, complement, parity, xor_bits
from tfnpkit.dsr import dsr_iter_with_source, monitored, self_oracle
from tfnpkit.errors import SolveBoundError
from tfnpkit.problems import well_formed

from conftest import _assert_only_roots_read, _count_reads, parsed


def naive_solution(x: str) -> str:
    if len(x) == 1:
        return x
    prefix = x[:-1]
    return xor_bits(naive_solution(prefix), naive_solution(complement(prefix))) + parity(x)


@pytest.fixture
def prog():
    return RecursiveCombineProblem()


def test_base_case(prog):
    assert prog.solution("0") == "0"
    assert prog.solution("1") == "1"


def test_one_unrolling(prog):
    assert prog.solution("01") == "11"


def test_memoized_matches_naive_recursion(prog):
    for n in range(1, 7):
        for x in all_bitstrings(n):
            assert prog.solution(x) == naive_solution(x)


def test_bound_refusal():
    prog = RecursiveCombineProblem(max_bits=4)
    with pytest.raises(SolveBoundError):
        prog.solution("10101")


def test_replay_determinism(prog):
    x = "1011"
    q1 = prog.next_query(x, ())
    q2 = prog.next_query(x, ((q1, prog.solution(q1)),))
    assert q1 == x[:-1]
    assert q2 == complement(x[:-1])
    assert prog.next_query(x, ()) == q1
    assert prog.next_query(x, ((q1, prog.solution(q1)),)) == q2


def test_uniqueness(prog):
    for n in range(1, 6):
        for x in all_bitstrings(n):
            sols = [y for y in all_bitstrings(n) if prog.verify(x, y)]
            assert sols == [prog.solution(x)]


def test_compiled_walks_reach_the_unique_answer(prog):
    for n in range(1, 6):
        for x in list(all_bitstrings(n))[:: max(1, (1 << n) // 8)]:
            compiled = compile_pls(prog, x)
            states = list(compiled.machine.walk(x, limit=500))
            assert compiled.extract(states[-1]) == prog.solution(x)


def test_fixture_path_length_scaling(prog):
    # two queries per level double the sub-walk each time
    for n in range(1, 7):
        assert path_length(prog, n) == 2 ** (n + 1) - 2


def test_promise_holds_through_svl(prog):
    for x in ("1", "10", "011", "1011"):
        report = check_promise(compile_svl(prog, x))
        assert report.ok and not report.partial


def test_halving_program_relation_is_total(rng):
    top = random_instance("iter-with-source", 3, rng)
    prog = HalvingIterProgram(top)
    for path in ((), (1,), (2,), (1, 2)):
        size = 3 - len(path)
        if size < 1:
            continue
        for inst in all_bitstrings(size):
            sols = [y for y in all_bitstrings(size) if prog.verify(inst, y, path)]
            assert sols, (path, inst)


def test_halving_program_answers_its_top_instance(rng):
    for _ in range(20):
        top = random_instance("iter-with-source", 4, rng)
        prog = HalvingIterProgram(top)
        compiled = compile_pls(prog, top.source)
        states = list(compiled.machine.walk(top.source, limit=5000))
        assert verify_solution(top, compiled.extract(states[-1]))


def test_selfhost_walk_answers_like_the_monitored_algorithm():
    """The compiled graph's answer is the self-reduction's, from every source
    the instance ascends from."""
    rng = random.Random(11)
    checked = 0
    for n in (2, 3, 4):
        for _ in range(8):
            top = random_instance("iter-with-source", n, rng)
            prog = HalvingIterProgram(top)
            for source in all_bitstrings(n):
                inst = top.with_source(source)
                if not well_formed(inst):
                    continue
                compiled = compile_pls(prog, source)
                *_, last = compiled.machine.walk(source, limit=5000)
                oracle = monitored(self_oracle(), "circuit-dsr-poly-blowup")
                assert compiled.extract(last) == dsr_iter_with_source(inst, oracle), (n, source)
                checked += 1
    assert checked > 90


def test_selfhost_walk_evaluates_each_point_a_bounded_number_of_times(monkeypatch):
    """Every slot path's instance reads the top instance's points: a walk
    evaluates no point, and no half circuit is evaluated or tabulated.  A
    table-born top circuit carries its table and builds none; the same
    top circuit read back from its netlist is tabulated once."""
    evaluations, tables = _count_reads(monkeypatch)
    rng = random.Random(3)
    for n in (4, 5):
        for _ in range(3):
            born = random_instance("iter-with-source", n, rng)
            for top in (born, IterInstance(parsed(born.succ), born.source)):
                evaluations.clear()
                tables.clear()
                compiled = compile_pls(HalvingIterProgram(top), top.source)
                *_, last = compiled.machine.walk(top.source, limit=5000)
                assert verify_solution(top, compiled.extract(last))
                _assert_only_roots_read(evaluations, tables, [top.succ])
                assert tables == ({} if top is born else {id(top.succ): 1}) and not evaluations
