import pytest

from tfnpkit import (
    EolInstance,
    IterInstance,
    SodInstance,
    enumerate_solutions,
    random_instance,
    solve_exhaustive,
    solve_path,
    verify_solution,
    well_formed,
)
from tfnpkit.bits import from_int
from tfnpkit.errors import MalformedInstanceError, SolveBoundError
from tfnpkit.circuit import identity_circuit

from conftest import _count_reads, table_circuit


def test_path_on_two_step_chain():
    inst = IterInstance(table_circuit([1, 1, 2, 3], 2))
    assert solve_path(inst) == "00"
    assert solve_exhaustive(inst) == "00"


def test_path_on_sink_of_dag_chain():
    # 00->01->10->10 with the successor as its own valuation
    succ = table_circuit([1, 2, 2, 3], 2)
    inst = SodInstance(succ, succ)
    assert solve_path(inst) == "01"


def test_path_on_end_of_line():
    succ = table_circuit([4, 1, 2, 3, 4, 5, 6, 7], 3)
    pred = table_circuit([0, 1, 2, 3, 0, 5, 6, 7], 3)
    assert solve_path(EolInstance(succ, pred)) == "100"


def test_end_of_line_walk_reads_each_point_once_each_way(monkeypatch):
    """A walk steps on the successor word it read to check the point, so a
    walk over k points makes k successor and k predecessor evaluations."""
    evaluations, tables = _count_reads(monkeypatch)
    n = 6
    last = (1 << n) - 1
    succ = table_circuit([min(v + 1, last) for v in range(1 << n)], n)
    pred = table_circuit([max(v - 1, 0) for v in range(1 << n)], n)
    assert solve_path(EolInstance(succ, pred)) == "1" * n
    walked = [from_int(v, n) for v in range(1 << n)]
    assert evaluations == {(id(c), x): 1 for c in (succ, pred) for x in walked}
    assert not tables


def test_exhaustive_returns_lexicographic_minimum(rng):
    for _ in range(100):
        inst = random_instance("iter", 3, rng)
        sols = enumerate_solutions(inst)
        assert sols, "well-formed instances have solutions"
        assert solve_exhaustive(inst) == sols[0]


def test_solvers_agree_on_validity(rng):
    for _ in range(500):
        kind = rng.choice(["iter", "iter-with-source", "sink-of-dag", "sink-of-dag-with-source"])
        inst = random_instance(kind, 3, rng)
        path_sol = solve_path(inst)
        scan_sol = solve_exhaustive(inst)
        assert verify_solution(inst, path_sol)
        assert verify_solution(inst, scan_sol)
        assert scan_sol <= path_sol


def test_totality_at_desk_scale(rng):
    for kind in ("iter", "iter-with-source", "sink-of-dag", "sink-of-dag-with-source", "end-of-line"):
        for n in (1, 2, 3, 4):
            for _ in range(10):
                inst = random_instance(kind, n, rng)
                assert well_formed(inst)
                assert enumerate_solutions(inst)


def test_budget_exhaustion_is_reported():
    inst = IterInstance.__new__(IterInstance)  # bypass shape checks to plant a bad instance
    object.__setattr__(inst, "succ", identity_circuit(2))
    with pytest.raises(MalformedInstanceError):
        solve_path(inst)


def test_exhaustive_bound_refusal():
    inst = IterInstance(table_circuit([1, 1, 2, 3], 2))
    with pytest.raises(SolveBoundError):
        solve_exhaustive(inst, bound=1)
