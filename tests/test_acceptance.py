"""End-to-end acceptance sweep.

Each test covers one numbered criterion, checks it at the stated tolerance
(all checks here are exact), and prints a single PASS line with the elapsed
time.  Expected values come from independent oracles computed inside this
module: a word-parallel truth-table pass for circuit semantics, table-driven
solution enumeration for the search problems, and a divisor sieve for the
factoring sweep.
"""

import itertools
import random
import subprocess
import sys
import time

import pytest

from tfnpkit import (
    HalvingIterProgram,
    IterInstance,
    RecursiveCombineProblem,
    SodInstance,
    StateSpace,
    add_source,
    check_promise,
    compile_pls,
    compile_svl,
    drop_source,
    dsr_iter,
    dsr_iter_with_source,
    dsr_sod,
    dsr_sod_with_source,
    emit_instance,
    iter_to_sod,
    monitored,
    output_masks,
    path_length,
    position,
    random_circuit,
    random_instance,
    restrict_input,
    restrict_output,
    self_oracle,
    size,
    sod_to_iter,
    verify_solution,
)
from tfnpkit.bits import all_bitstrings, from_int, splice, to_int
from tfnpkit.errors import PromiseViolation
from tfnpkit.numbertheory import (
    PRIME,
    all_factors,
    all_factors_via_factor,
    factor,
    factor_via_all_factors,
)
from tfnpkit.problems import kind_of

from conftest import eval_table, table_circuit


def _report(criterion: int, message: str, started: float, budget: float):
    elapsed = time.time() - started
    assert elapsed < budget, f"criterion {criterion} exceeded its {budget}s budget: {elapsed:.1f}s"
    print(f"\nPASS criterion {criterion}: {message} ({elapsed:.1f}s)")


# --- criterion 1: restriction correctness -----------------------------------


def _splice_indices(n: int, i: int, b: int) -> list[int]:
    return [to_int(splice(y, i, b)) for y in all_bitstrings(n - 1)]


def test_criterion_1_restriction_correctness():
    """1,000 random circuits with n <= 8, m <= 4: every input restriction is
    semantically the spliced original and strictly smaller; every output
    restriction drops exactly the removed bit and never grows."""
    started = time.time()
    rng = random.Random(0xACCE551)
    gather_cache: dict[tuple[int, int, int], list[int]] = {}
    circuits = 0
    for _ in range(1000):
        n = rng.randrange(2, 9)
        m = rng.randrange(1, 5)
        c = random_circuit(rng, n, m, rng.randrange(4, 26))
        masks = output_masks(c)
        base_size = size(c)
        for i in range(1, n + 1):
            for b in (0, 1):
                r = restrict_input(c, i, b)
                assert size(r) < base_size
                key = (n, i, b)
                if key not in gather_cache:
                    gather_cache[key] = _splice_indices(n, i, b)
                idx = gather_cache[key]
                expected = [
                    sum(((mask >> src) & 1) << y for y, src in enumerate(idx))
                    for mask in masks
                ]
                assert output_masks(r) == expected
        if m >= 2:
            for j in range(1, m + 1):
                r = restrict_output(c, j)
                assert size(r) <= base_size
                assert output_masks(r) == masks[: j - 1] + masks[j:]
        circuits += 1
    _report(1, f"restrictions exact on {circuits} circuits, all (i,b) and j", started, 30)


# --- criterion 2: inter-reduction suite --------------------------------------


def _iter_solutions(table: list[int], n: int) -> list[int]:
    return [v for v in range(1 << n) if table[v] > v and table[table[v]] <= table[v]]


def _sod_solutions(stab: list[int], vtab: list[int], n: int) -> list[int]:
    out = []
    for v in range(1 << n):
        w = stab[v]
        if w == v:
            continue
        if stab[w] == w or vtab[w] <= vtab[v]:
            out.append(v)
    return out


def _check_reduction(inst, result):
    """Every verified target solution must pull back to a verified source
    solution.  Target solutions are enumerated from truth tables, an
    independent route from the circuit evaluator used by the pullback."""
    target = result.target
    n = target.succ.n
    stab = eval_table(target.succ)
    if isinstance(target, IterInstance):
        sols = _iter_solutions(stab, n)
    else:
        sols = _sod_solutions(stab, eval_table(target.valuation), n)
    assert sols, f"target of {kind_of(inst)} reduction has no solutions"
    for v in sols:
        w = from_int(v, n)
        assert verify_solution(target, w)
        pulled = result.pullback(w)
        assert verify_solution(inst, pulled)


def test_criterion_2_reduction_suite():
    """All 256 two-bit successor tables (with seeded valuations for the
    sink-of-DAG sides) plus 1,000 random three-bit instances: every
    reduction's pullback of every verified target solution verifies."""
    started = time.time()
    vrng = random.Random(0xDA6)
    for table in itertools.product(range(4), repeat=4):
        succ = table_circuit(table, 2)
        if table[0] > 0:
            inst = IterInstance(succ)
            _check_reduction(inst, iter_to_sod(inst))
            _check_reduction(inst, add_source(inst))
        for s in range(4):
            if table[s] > s:
                ws = IterInstance(succ, from_int(s, 2))
                _check_reduction(ws, drop_source(ws))
        vtab = [vrng.randrange(4) for _ in range(4)]
        val = table_circuit(vtab, 2, m=2, name="valuation")
        if table[0] != 0:
            sod = SodInstance(succ, val)
            _check_reduction(sod, sod_to_iter(sod))
            _check_reduction(sod, add_source(sod))
        movers = [s for s in range(4) if table[s] != s]
        if movers:
            sod_ws = SodInstance(succ, val, from_int(movers[0], 2))
            _check_reduction(sod_ws, drop_source(sod_ws))
    rng = random.Random(0xBEEF)
    for _ in range(250):
        inst = random_instance("iter", 3, rng)
        _check_reduction(inst, iter_to_sod(inst))
        _check_reduction(inst, add_source(inst))
        ws = random_instance("iter-with-source", 3, rng)
        _check_reduction(ws, drop_source(ws))
        sod = random_instance("sink-of-dag", 3, rng, m=3)
        _check_reduction(sod, sod_to_iter(sod))
        _check_reduction(sod, add_source(sod))
        sod_ws = random_instance("sink-of-dag-with-source", 3, rng, m=2)
        _check_reduction(sod_ws, drop_source(sod_ws))
    _report(2, "pullbacks valid on all 256 tables at n=2 and 1500 reductions at n=3", started, 60)


# --- criterion 3: downward self-reduction suite -------------------------------


def test_criterion_3_self_reduction_suite():
    """The four halving algorithms with the recursive self-oracle solve every
    instance of the enumerated strata under size-discipline monitoring with
    zero violations (a violation raises and fails the test).

    The two-bit stratum is exhaustive: every successor table, every
    well-formed source, and for the sink-of-DAG kinds every one-bit
    valuation table plus the full two-bit valuation space on the
    source-free kind (seeded samples elsewhere).  The full three-bit
    instance space is beyond desk scale (16.7M successor tables alone), so
    that stratum is a seeded random sample."""
    started = time.time()
    runs = 0
    for table in itertools.product(range(4), repeat=4):
        succ = table_circuit(table, 2)
        if table[0] > 0:
            inst = IterInstance(succ)
            answer = dsr_iter(inst, monitored(self_oracle(), "circuit-dsr-poly-blowup"))
            assert verify_solution(inst, answer)
            runs += 1
        for s in range(4):
            if table[s] > s:
                ws = IterInstance(succ, from_int(s, 2))
                for mode in ("dsr", "circuit-dsr-poly-blowup"):
                    answer = dsr_iter_with_source(ws, monitored(self_oracle(), mode))
                    assert verify_solution(ws, answer)
                    runs += 1
        movers = [s for s in range(4) if table[s] != s]
        seeded = random.Random(sum(table))
        # one-bit valuations exhaustively
        for vbits in range(16):
            vtab = [(vbits >> i) & 1 for i in range(4)]
            val = table_circuit(vtab, 2, m=1, name="valuation")
            if table[0] != 0:
                inst = SodInstance(succ, val)
                answer = dsr_sod(inst, monitored(self_oracle(), "circuit-dsr-poly-blowup"))
                assert verify_solution(inst, answer)
                runs += 1
            if movers:
                ws = SodInstance(succ, val, from_int(movers[0], 2))
                answer = dsr_sod_with_source(ws, monitored(self_oracle(), "circuit-dsr-poly-blowup"))
                assert verify_solution(ws, answer)
                runs += 1
        # the full two-bit valuation space on the source-free kind
        if table[0] != 0:
            for vcode in range(256):
                vtab = [(vcode >> (2 * i)) & 3 for i in range(4)]
                val = table_circuit(vtab, 2, m=2, name="valuation")
                inst = SodInstance(succ, val)
                answer = dsr_sod(inst, monitored(self_oracle(), "circuit-dsr-poly-blowup"))
                assert verify_solution(inst, answer)
                runs += 1
        # seeded two-bit valuations for the with-source kind
        if movers:
            for _ in range(8):
                vtab = [seeded.randrange(4) for _ in range(4)]
                val = table_circuit(vtab, 2, m=2, name="valuation")
                for s in movers[:2]:
                    ws = SodInstance(succ, val, from_int(s, 2))
                    answer = dsr_sod_with_source(
                        ws, monitored(self_oracle(), "circuit-dsr-poly-blowup")
                    )
                    assert verify_solution(ws, answer)
                    runs += 1
    rng = random.Random(0x5EED)
    for _ in range(150):
        for kind, fn in (
            ("iter", dsr_iter),
            ("iter-with-source", dsr_iter_with_source),
            ("sink-of-dag", dsr_sod),
            ("sink-of-dag-with-source", dsr_sod_with_source),
        ):
            inst = random_instance(kind, 3, rng, m=3)
            answer = fn(inst, monitored(self_oracle(), "circuit-dsr-poly-blowup"))
            assert verify_solution(inst, answer)
            runs += 1
    _report(3, f"{runs} monitored self-reductions solved, zero size violations", started, 120)


# --- criterion 4: state-graph compilation suite -------------------------------


def _check_walk(prog, x, expect=None):
    compiled = compile_pls(prog, x)
    machine = compiled.machine
    n = len(x)
    states = list(machine.walk(x, limit=5000))
    assert len(states) == compiled.path_length
    for step, state in enumerate(states):
        assert machine.is_valid(state, x)
        assert position(prog, state, machine) == step + 1
    answer = compiled.extract(states[-1])
    if expect is not None:
        assert answer == expect
    if n >= 2:
        bound = prog.query_count(n) * prog.solution_len(n) * n * n
        assert machine.width() < bound
    return answer


def test_criterion_4_state_graph_suite():
    """Walks of the combining fixture and of the self-hosted halving program
    reach a finished state whose extracted answer verifies; validity holds
    at every step, the position climbs by exactly one per step, and the
    state width stays below the declared bound, for sizes up to five."""
    started = time.time()
    prog = RecursiveCombineProblem()
    walks = 0
    for n in range(1, 6):
        xs = list(all_bitstrings(n)) if n <= 3 else ["1" * n, "10" * (n // 2) + "1" * (n % 2), "0" * n]
        for x in xs:
            _check_walk(prog, x, expect=prog.solution(x))
            walks += 1
    rng = random.Random(0x57A7E)
    chain = IterInstance(table_circuit([1, 2, 3, 3], 2), "00")
    tops = [chain] + [random_instance("iter-with-source", n, rng) for n in (3, 3, 4, 4, 5)]
    for top in tops:
        answer = _check_walk(HalvingIterProgram(top), top.source)
        assert verify_solution(top, answer)
        walks += 1
    _report(4, f"{walks} compiled walks valid, unit position steps, width in bound", started, 120)


# --- criterion 5: verifiable-line suite ---------------------------------------


def test_criterion_5_verifiable_line_suite():
    """The compiled line of the combining fixture satisfies the full promise
    in both directions (with at least ten off-path samples per index) for
    every size up to four; positions are a bijection onto the path and the
    occupancy position agrees with the validating pass's on every visited
    state."""
    started = time.time()
    prog = RecursiveCombineProblem()
    rng = random.Random(0x511)
    for n in range(1, 5):
        for x in all_bitstrings(n):
            inst = compile_svl(prog, x)
            assert inst.target == path_length(prog, n)
            report = check_promise(inst, rng=rng)
            assert report.ok and not report.partial, report.violations[:3]
            machine = StateSpace(prog, n)
            positions = []
            for state in machine.walk(x):
                p = position(prog, state, machine)
                assert p == machine.position(state, machine.root_cell(state)[0])
                positions.append(p)
            assert positions == list(range(1, inst.target + 1))
    _report(5, "full promise, bijection, and position agreement for n <= 4", started, 60)


# --- criterion 6: factoring suite ---------------------------------------------


def _divisor_sieve(limit: int) -> list[list[int]]:
    table: list[list[int]] = [[] for _ in range(limit + 1)]
    for d in range(2, limit // 2 + 1):
        for multiple in range(2 * d, limit + 1, d):
            table[multiple].append(d)
    return table


def test_criterion_6_factoring_suite():
    """Factor and all-factors agree with a sieve-built divisor table for
    every N up to 10^5; both oracle reductions reproduce the honest answers
    for every N up to 10^4, the downward direction querying only strictly
    smaller numbers and the single-call direction making exactly one call."""
    started = time.time()
    limit = 100_000
    sieve = _divisor_sieve(limit)
    for n in range(2, limit + 1):
        divs = sieve[n]
        if divs:
            assert factor(n) == divs[0]
            assert all_factors(n) == divs
        else:
            assert factor(n) == PRIME
            assert all_factors(n) == PRIME
    queries: list[int] = []

    def tracing_factor(k: int):
        queries.append(k)
        return factor(k)

    calls: list[int] = []

    def tracing_all(k: int):
        calls.append(k)
        return all_factors(k)

    for n in range(2, 10_001):
        queries.clear()
        expected = PRIME if not sieve[n] else sieve[n]
        assert all_factors_via_factor(n, tracing_factor) == expected
        assert all(k < n for k in queries)
        calls.clear()
        assert factor_via_all_factors(n, tracing_all) == (PRIME if not sieve[n] else sieve[n][0])
        assert calls == [n]
    _report(6, "sweeps exact to 1e5; oracle routes exact to 1e4 with query discipline", started, 60)


# --- criterion 7: negative controls -------------------------------------------


def test_criterion_7_negative_controls(tmp_path):
    """Corrupted states fail validity, a non-unique problem is rejected by
    the line compiler with a promise-violation report, and an inflated
    oracle query trips the monitor through the command line with exit 2."""
    started = time.time()
    prog = RecursiveCombineProblem()
    x = "101"
    machine = StateSpace(prog, 3)
    states = list(machine.walk(x))
    two_filled = next(
        s for s in states if all(c[0] is not None for c in machine.row_cells(s, 1))
    )
    base, w = machine._cw[3], machine._cw[2]
    gap = two_filled[:base] + "0" * w + two_filled[base + w :]
    assert not machine.is_valid(gap, x)
    answered = next(
        s for s in states if (c := machine.row_cells(s, 1)[0])[0] is not None and c[1] is not None
    )
    inst1, sol1 = machine.row_cells(answered, 1)[0]
    wrong_cell = "1" + inst1 + "1" + sol1[:-1] + ("0" if sol1[-1] == "1" else "1")
    planted = answered[:base] + wrong_cell + answered[base + w :]
    assert not machine.is_valid(planted, x)
    junk_tail = states[-1][:-1] + "1"
    assert not machine.is_valid(junk_tail, x)

    rng = random.Random(2)
    from tfnpkit import enumerate_solutions

    while True:
        top = random_instance("iter-with-source", 3, rng)
        if len(enumerate_solutions(top)) > 1:
            break
    with pytest.raises(PromiseViolation):
        compile_svl(HalvingIterProgram(top), top.source)

    gen = random.Random(1)
    inst = random_instance("iter", 3, gen)  # this seed's run makes two queries
    path = tmp_path / "inst.txt"
    path.write_text(emit_instance(inst))
    proc = subprocess.run(
        [sys.executable, "-m", "tfnpkit", "dsr-run", str(path), "--inflate", "500"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert "budget" in proc.stderr
    _report(7, "corruptions rejected, non-unique compile refused, monitor exits 2", started, 60)
