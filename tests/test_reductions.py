import itertools
import random

import pytest

from tfnpkit import (
    IterInstance,
    SodInstance,
    add_source,
    drop_source,
    enumerate_solutions,
    evaluate,
    iter_to_sod,
    random_instance,
    sod_to_iter,
    verify_solution,
    well_formed,
)
from tfnpkit import reductions
from tfnpkit.bits import all_bitstrings, from_int, zeros
from tfnpkit.errors import DimensionError, PullbackContractError

from conftest import iter_tables, table_circuit


def _assert_pullback_total(inst, result):
    """Every verified target solution pulls back to a verified source one."""
    for cand in all_bitstrings(result.target.succ.n):
        if verify_solution(result.target, cand):
            assert verify_solution(inst, result.pullback(cand))


def test_iter_to_sod_construction():
    """The target freezes every step that does not ascend and reads the
    frozen successor S' as both its successor and its valuation."""
    table = [2, 0, 3, 1]  # 0 -> 2 -> 3 ascend; 1 -> 0 and 3 -> 1 descend
    frozen = [2, 1, 3, 3]
    inst = IterInstance(table_circuit(table, 2))
    result = iter_to_sod(inst)
    target = result.target
    for x in range(4):
        word = from_int(x, 2)
        assert evaluate(target.succ, word) == from_int(frozen[x], 2)
        assert evaluate(target.valuation, word) == from_int(frozen[x], 2)
    assert well_formed(target)
    assert enumerate_solutions(target) == enumerate_solutions(inst) == ["10"]
    assert result.pullback("10") == "10"


def test_iter_to_sod_pullback_exhaustive_n2():
    count = 0
    for table in iter_tables(2):
        if table[0] == 0:
            continue
        inst = IterInstance(table_circuit(table, 2))
        result = iter_to_sod(inst)
        assert well_formed(result.target)
        _assert_pullback_total(inst, result)
        count += 1
    assert count == 192


def test_sod_to_iter_hand_example():
    # one bit: 0 -> 1 -> 1, with the identity valuation
    succ = table_circuit([1, 1], 1)
    val = table_circuit([0, 1], 1, m=1, name="valuation")
    inst = SodInstance(succ, val)
    result = sod_to_iter(inst)
    assert isinstance(result.target, IterInstance)
    assert result.target.source == evaluate(val, "0") + "0"
    sol = next(c for c in all_bitstrings(2) if verify_solution(result.target, c))
    assert result.pullback(sol) in ("0", "1")
    assert verify_solution(inst, result.pullback(sol))


def test_sod_to_iter_off_rail_points_are_fixed(rng):
    checked = 0
    for _ in range(40):
        inst = random_instance("sink-of-dag", 2, rng, m=2)
        if evaluate(inst.valuation, evaluate(inst.succ, "00")) < evaluate(inst.valuation, "00"):
            continue  # the all-zero word already answers; a stand-in target is emitted
        result = sod_to_iter(inst)
        lifted = result.target.succ
        for y in all_bitstrings(2):
            for x in all_bitstrings(2):
                if y != evaluate(inst.valuation, x):
                    assert evaluate(lifted, y + x) == y + x
        checked += 1
    assert checked > 0


def test_sod_to_iter_pullback_random(rng):
    for _ in range(120):
        inst = random_instance("sink-of-dag", 3, rng, m=3)
        result = sod_to_iter(inst)
        assert well_formed(result.target)
        _assert_pullback_total(inst, result)


def test_sod_to_iter_refuses_a_source():
    """The rail starts at the all-zero word, so an instance with a source is
    refused: this well-formed one is stuck at the all-zero word, and a
    target built from there would have a failing pullback."""
    succ = table_circuit([0, 2, 3, 3], 2)
    inst = SodInstance(succ, table_circuit([0, 1, 2, 3], 2, name="valuation"), "01")
    assert well_formed(inst)
    with pytest.raises(DimensionError):
        sod_to_iter(inst)


def test_add_source_settles_at_zero(rng):
    inst = random_instance("iter", 3, rng)
    result = add_source(inst)
    assert result.target.source == zeros(3)
    sols_src = enumerate_solutions(inst)
    sols_tgt = enumerate_solutions(result.target)
    assert sols_src == sols_tgt
    for w in sols_tgt:
        assert result.pullback(w) == w


def test_source_handling_rejects_the_wrong_form(rng):
    for with_kind, free_kind, m in (
        ("iter-with-source", "iter", None),
        ("sink-of-dag-with-source", "sink-of-dag", 2),
    ):
        inst = random_instance(with_kind, 3, rng, m=m)
        with pytest.raises(DimensionError, match=f"without a source, got {with_kind}$"):
            add_source(inst)
        with pytest.raises(DimensionError, match=f"with a source, got {free_kind}$"):
            drop_source(inst.with_source(None))
    # source 001 with a stuck zero point: resetting the start to 000 is not well formed
    inst = IterInstance(table_circuit([0, 2, 3, 3, 4, 5, 6, 7], 3), "001")
    assert well_formed(inst)
    with pytest.raises(DimensionError):
        add_source(inst)


def test_drop_source_iteration_target_keeps_the_solutions(monkeypatch):
    """The iteration target of drop_source has exactly the source instance's
    solutions other than the all-zero word (which the artificial edge
    always leaves), so its pullback is the identity and never walks: on
    every n = 2 successor table with every ascending nonzero source, and on
    a seeded sample at n = 3, 4."""

    def no_walk(inst):
        raise AssertionError("the drop_source pullback walked")

    monkeypatch.setattr(reductions, "solve_path", no_walk)
    cases = []
    for table in itertools.product(range(4), repeat=4):
        succ = table_circuit(table, 2)
        cases += [IterInstance(succ, from_int(s, 2)) for s in range(1, 4) if table[s] > s]
    rng = random.Random(0xD5)
    for n in (3, 4):
        for _ in range(60):
            inst = random_instance("iter-with-source", n, rng)
            if inst.source != zeros(n):
                cases.append(inst)
    for inst in cases:
        result = drop_source(inst)
        solutions = [w for w in enumerate_solutions(inst) if w != zeros(inst.n)]
        assert enumerate_solutions(result.target) == solutions
        for w in solutions:
            assert result.pullback(w) == w
    assert len(cases) > 250


def _swap(zero: str, src: str, w: str) -> str:
    return src if w == zero else zero if w == src else w


def test_pullbacks_are_local_maps(monkeypatch):
    """``iter_to_sod`` keeps exactly the source's solutions and pulls back
    by the identity; ``drop_source`` on sink-of-DAG relabels the instance by
    the swap pi of the all-zero word and the source, so its solutions are
    exactly pi of the source's and it pulls back by pi.  Every target is well
    formed and no pullback walks: on every n = 2 successor table, with
    seeded two-bit valuations and every moving nonzero source, and on a
    seeded sample at n = 3, 4."""

    def no_walk(inst):
        raise AssertionError("a reduction pullback walked")

    monkeypatch.setattr(reductions, "solve_path", no_walk)
    iters, sods = [], []
    vrng = random.Random(0x5A7)
    for table in itertools.product(range(4), repeat=4):
        succ = table_circuit(table, 2)
        if table[0] > 0:
            iters.append(IterInstance(succ))
        val = table_circuit([vrng.randrange(4) for _ in range(4)], 2, m=2, name="valuation")
        sods += [SodInstance(succ, val, from_int(s, 2)) for s in range(1, 4) if table[s] != s]
    rng = random.Random(0x10CA1)
    for n in (3, 4):
        for _ in range(60):
            iters.append(random_instance("iter", n, rng))
            inst = random_instance("sink-of-dag-with-source", n, rng, m=3)
            if inst.source != zeros(n):
                sods.append(inst)
    for inst in iters:
        result = iter_to_sod(inst)
        assert well_formed(result.target)
        solutions = enumerate_solutions(inst)
        assert enumerate_solutions(result.target) == solutions
        assert all(result.pullback(w) == w for w in solutions)
    for inst in sods:
        result = drop_source(inst)
        assert well_formed(result.target)
        zero, src = zeros(inst.n), inst.source
        solutions = sorted(_swap(zero, src, w) for w in enumerate_solutions(inst))
        assert enumerate_solutions(result.target) == solutions
        assert all(result.pullback(w) == _swap(zero, src, w) for w in solutions)
    assert len(iters) == 312 and len(sods) > 576


def test_drop_source_identity_when_source_is_zero(rng):
    base = random_instance("iter", 2, rng)
    ws = IterInstance(base.succ, zeros(2))
    result = drop_source(ws)
    assert result.target == IterInstance(base.succ)
    assert hash(result.target) == hash(IterInstance(base.succ))
    assert ws != result.target and ws == IterInstance(base.succ, zeros(2))
    assert ws.with_source(None) == result.target


def test_drop_source_builds_artificial_edge():
    # source 10 on the chain 10->11->11
    succ = table_circuit([0, 1, 3, 3], 2)
    inst = IterInstance(succ, "10")
    result = drop_source(inst)
    lifted = result.target.succ
    assert evaluate(lifted, "00") == "10"
    assert evaluate(lifted, "10") == "11"
    _assert_pullback_total(inst, result)


def test_drop_source_pullback_random(rng):
    for _ in range(120):
        inst = random_instance("iter-with-source", 3, rng)
        result = drop_source(inst)
        assert well_formed(result.target)
        _assert_pullback_total(inst, result)
    for _ in range(120):
        inst = random_instance("sink-of-dag-with-source", 3, rng, m=2)
        result = drop_source(inst)
        assert well_formed(result.target)
        _assert_pullback_total(inst, result)


def test_round_trip_source_handling(rng):
    for _ in range(60):
        inst = random_instance("iter", 2, rng)
        back = drop_source(add_source(inst).target).target
        assert well_formed(back)
        for w in enumerate_solutions(back):
            assert verify_solution(inst, w)
        ws = random_instance("iter-with-source", 2, rng)
        forth = add_source(drop_source(ws).target).target
        assert well_formed(forth)
        for w in enumerate_solutions(forth):
            assert verify_solution(forth, w)


def test_pullback_rejects_non_solutions(rng):
    inst = random_instance("iter", 2, rng)
    result = iter_to_sod(inst)
    for cand in all_bitstrings(2):
        if not verify_solution(result.target, cand):
            with pytest.raises(PullbackContractError):
                result.pullback(cand)
            break
    else:
        pytest.skip("every candidate solved the target")


def test_reduction_outputs_well_formed(rng):
    for _ in range(80):
        inst = random_instance("sink-of-dag-with-source", 3, rng, m=2)
        assert well_formed(drop_source(inst).target)
        inst2 = random_instance("sink-of-dag", 3, rng, m=2)
        assert well_formed(sod_to_iter(inst2).target)
        assert well_formed(add_source(inst2).target)
