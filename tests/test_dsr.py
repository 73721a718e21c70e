import itertools
import random

import pytest

from tfnpkit import (
    Circuit,
    IterInstance,
    IterWithSourceInstance,
    QueryTrace,
    SelfReductionOracle,
    SodInstance,
    dsr_iter,
    dsr_iter_with_source,
    dsr_sod,
    dsr_sod_with_source,
    drop_source,
    emit_instance,
    enumerate_solutions,
    monitored,
    parse_instance,
    random_instance,
    restrict_input,
    restrict_output,
    run_dsr,
    self_oracle,
    size,
    verify_solution,
)
from tfnpkit import circuit, dsr, problems
from tfnpkit.bits import from_int, ones, zeros
from tfnpkit.circuit import OP_INPUT, evaluate, output_masks, pad_with_dead_gates
from tfnpkit.errors import DimensionError, MonitorViolation, OracleContractError
from tfnpkit.gadgets import Net, redirect_zero_inputs
from tfnpkit.problems import instance_bits
from tfnpkit.solvers import solve_path

from conftest import _assert_only_roots_read, _count_reads, iter_tables, table_circuit


def test_worked_two_bit_chain():
    """Chain 00->01->10->11->11 from source 00: the lower query answers 0,
    the pivot is 10, the upper query answers 0, and the lift returns 10."""
    inst = IterWithSourceInstance(table_circuit([1, 2, 3, 3], 2), "00")
    trace = QueryTrace()
    answer = dsr_iter_with_source(inst, monitored(self_oracle(), "dsr", trace=trace))
    assert answer == "10"
    assert [r.answer for r in trace.records] == ["0", "0"]
    assert [r.query_dims[0] for r in trace.records] == [1, 1]


def test_upper_half_source_needs_one_query():
    inst = IterWithSourceInstance(table_circuit([0, 1, 3, 3], 2), "10")
    trace = QueryTrace()
    answer = dsr_iter_with_source(inst, monitored(self_oracle(), "dsr", trace=trace))
    assert verify_solution(inst, answer)
    assert len(trace.records) == 1
    assert answer == "1" + trace.records[0].answer


def test_iter_with_source_exhaustive_n2_and_dsr_mode():
    for table in iter_tables(2):
        c = table_circuit(table, 2)
        for s in range(4):
            if table[s] > s:
                inst = IterWithSourceInstance(c, from_int(s, 2))
                answer = dsr_iter_with_source(inst, monitored(self_oracle(), "dsr"))
                assert verify_solution(inst, answer)


def test_iter_exhaustive_n2():
    for table in iter_tables(2):
        if table[0] == 0:
            continue
        inst = IterInstance(table_circuit(table, 2))
        answer = dsr_iter(inst, monitored(self_oracle(), "circuit-dsr-poly-blowup"))
        assert verify_solution(inst, answer)


def test_sweep_n3_all_kinds(rng):
    for trial in range(150):
        for kind, fn in (
            ("iter", dsr_iter),
            ("iter-with-source", dsr_iter_with_source),
            ("sink-of-dag", dsr_sod),
            ("sink-of-dag-with-source", dsr_sod_with_source),
        ):
            inst = random_instance(kind, 3, rng, m=3)
            trace = QueryTrace()
            answer = fn(inst, monitored(self_oracle(), "circuit-dsr-poly-blowup", trace=trace))
            assert verify_solution(inst, answer)
            assert all(r.depth <= 4 for r in trace.records)


def test_lower_half_solution_needs_single_query(rng):
    # 00 -> 01 -> 01: both in the lower half, no pivot phase
    inst = IterInstance(table_circuit([1, 1, 0, 0], 2))
    trace = QueryTrace()
    answer = dsr_iter(inst, monitored(self_oracle(), "circuit-dsr-poly-blowup", trace=trace))
    assert answer == "00"
    assert len(trace.records) == 1


def test_single_valuation_bit_needs_no_oracle(rng):
    def forbidden(inst, parent=None):
        raise AssertionError("the one-bit case must not query")

    for _ in range(60):
        inst = random_instance("sink-of-dag-with-source", 3, rng, m=1)
        answer = dsr_sod_with_source(inst, forbidden)
        assert verify_solution(inst, answer)
        assert answer in (inst.source, evaluate(inst.succ, inst.source))


def test_direct_pass_branch(rng):
    # if the first sub-answer already verifies, it is returned unchanged
    hits = 0
    for _ in range(300):
        inst = random_instance("sink-of-dag-with-source", 2, rng, m=2)
        trace = QueryTrace()
        answer = dsr_sod_with_source(
            inst, monitored(self_oracle(), "circuit-dsr-poly-blowup", trace=trace)
        )
        assert verify_solution(inst, answer)
        if len(trace.records) == 1:
            assert answer == trace.records[0].answer
            hits += 1
    assert hits > 0


@pytest.mark.parametrize(
    "algorithm, kind, given",
    [
        (dsr_iter, "iter", "iter-with-source"),
        (dsr_iter_with_source, "iter-with-source", "iter"),
        (dsr_sod, "sink-of-dag", "sink-of-dag-with-source"),
        (dsr_sod_with_source, "sink-of-dag-with-source", "sink-of-dag"),
    ],
)
def test_self_reductions_reject_the_other_source_form(algorithm, kind, given):
    """Each algorithm takes one kind; the other source form raises, naming
    the kind needed and the kind given."""
    inst = random_instance(given, 3, random.Random(7), m=2)
    with pytest.raises(DimensionError, match=f"needs kind {kind}, got {given}$"):
        algorithm(inst, self_oracle())


def test_query_count_at_most_two(rng):
    for kind in ("iter", "iter-with-source", "sink-of-dag", "sink-of-dag-with-source"):
        for _ in range(60):
            inst = random_instance(kind, 3, rng, m=2)
            trace = QueryTrace()
            run_dsr(inst, monitored(self_oracle(), "circuit-dsr-poly-blowup", trace=trace))
            top = [r for r in trace.records if r.depth == 0]
            assert len(top) <= 2


def test_trace_depth_matches_recursion(rng):
    for n in (2, 3, 4):
        for _ in range(20):
            inst = random_instance("iter-with-source", n, rng)
            trace = QueryTrace()
            dsr_iter_with_source(inst, monitored(self_oracle(), "dsr", trace=trace))
            if trace.records:
                assert trace.levels() <= n - 1


def test_redirect_gadget_cost_is_linear(rng):
    for n in (2, 4, 6, 8):
        for _ in range(10):
            c = __import__("tfnpkit").random_circuit(rng, n, n, 3 * n)
            target = "".join(rng.choice("01") for _ in range(n))
            wrapped = redirect_zero_inputs(c, target)
            overhead = size(wrapped) - size(c)
            assert overhead <= 8 * n + 6
            assert evaluate(wrapped, zeros(n)) == evaluate(c, target)
            probe = "1" + zeros(n - 1)
            assert evaluate(wrapped, probe) == evaluate(c, probe)


class AdversarialOracle:
    """Answers with a uniformly random valid solution of the queried
    sub-instance, never a path-derived one."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def __call__(self, inst, parent=None):
        return self.rng.choice(enumerate_solutions(inst))


def test_soundness_under_adversarial_oracle(rng):
    for trial in range(400):
        kind = ("iter", "iter-with-source", "sink-of-dag", "sink-of-dag-with-source")[trial % 4]
        inst = random_instance(kind, 3, rng, m=3)
        answer = run_dsr(inst, AdversarialOracle(trial))
        assert verify_solution(inst, answer)


class PickingOracle:
    """Answers the root's queries with chosen valid solutions, by index into
    each query's solution list (0 past the given picks), and deeper queries
    with the self-oracle; records how many solutions each root query had."""

    def __init__(self, root, picks):
        self.root, self.picks, self.counts = root, picks, []
        self.below = self_oracle()

    def __call__(self, inst, parent=None):
        if parent is not self.root:
            return self.below(inst, parent)
        sols = enumerate_solutions(inst)
        i = len(self.counts)
        self.counts.append(len(sols))
        return sols[self.picks[i] if i < len(self.picks) else 0]


def _run_every_pick(inst, algorithm) -> int:
    """Run ``algorithm`` on ``inst`` once for every valid answer sequence to
    the root's queries, asserting each result verifies; returns the run
    count."""
    runs, todo = 0, [()]
    while todo:
        picks = todo.pop()
        oracle = PickingOracle(inst, picks)
        assert verify_solution(inst, algorithm(inst, oracle))
        runs += 1
        for i in range(len(picks), len(oracle.counts)):
            lead = picks + (0,) * (i - len(picks))
            todo.extend(lead + (a,) for a in range(1, oracle.counts[i]))
    return runs


def test_sink_of_dag_lifts_every_answer_pair_without_a_walk(monkeypatch):
    """Every valid (first, second) answer pair of the root's queries on the
    source-free two-bit stratum, with 32 seeded two-bit valuations per
    successor table: every pair lifts, and no run walks the successor."""

    def no_walk(inst):
        pytest.fail(f"dsr_sod walked the successor of {inst!r}")

    monkeypatch.setattr("tfnpkit.dsr.solve_path", no_walk)
    runs = 0
    for table in itertools.product(range(4), repeat=4):
        if table[0] == 0:
            continue
        succ = table_circuit(table, 2)
        for vcode in random.Random(sum(table)).sample(range(256), 32):
            val = table_circuit([(vcode >> (2 * i)) & 3 for i in range(4)], 2, m=2, name="valuation")
            runs += _run_every_pick(SodInstance(succ, val), dsr_sod)
    assert runs > 10_000


def test_iteration_answers_verify_under_every_oracle_answer(monkeypatch):
    """Every valid answer to each of the root's queries, on every two-bit
    iteration instance, with and without a source, and on 300 seeded
    three-bit successor tables: every result verifies.  The upper-half lift
    still walks on some three-bit runs; the walks are counted."""
    walks = []

    def counted_walk(inst):
        walks.append(inst)
        return solve_path(inst)

    monkeypatch.setattr(dsr, "solve_path", counted_walk)
    rng = random.Random(0x1DE5)
    tables = [*iter_tables(2), *(tuple(rng.randrange(8) for _ in range(8)) for _ in range(300))]
    counts = {2: [0, 0, 0], 3: [0, 0, 0]}  # n -> instances, runs, walks
    for table in tables:
        n = len(table).bit_length() - 1
        succ = table_circuit(table, n)
        cases = [(IterInstance(succ), dsr_iter)] if table[0] > 0 else []
        sources = [from_int(s, n) for s in range(len(table)) if table[s] > s]
        cases += [(IterWithSourceInstance(succ, source), dsr_iter_with_source) for source in sources]
        before = len(walks)
        for inst, algorithm in cases:
            counts[n][0] += 1
            counts[n][1] += _run_every_pick(inst, algorithm)
        counts[n][2] += len(walks) - before
    # two-bit queries have one solution each; the three-bit runs walked 124
    # times when this was written, and a sound upper-half lift makes it 0
    assert counts[2] == [576, 576, 0]
    assert counts[3][:2] == [1307, 1687] and counts[3][2] <= 124


def test_lying_oracle_raises_contract_error(rng):
    def liar(inst, parent=None):
        n = instance_bits(inst)
        for cand in (zeros(n), ones(n)):
            if not verify_solution(inst, cand):
                return cand
        return zeros(n)

    raised = 0
    for _ in range(200):
        inst = random_instance("iter-with-source", 3, rng)
        try:
            answer = dsr_iter_with_source(inst, liar)
            assert verify_solution(inst, answer)
        except OracleContractError:
            raised += 1
    assert raised > 0


def test_monitor_boundary_equal_shape_is_violation(rng):
    inst = random_instance("iter", 3, rng)
    mon = monitored(lambda sub, parent=None: "000", "circuit-dsr")
    with pytest.raises(MonitorViolation):
        mon.check(inst, inst)  # same input/output shape must trip the check


def test_monitor_flags_inflated_queries(rng):
    inst = random_instance("iter", 3, rng)
    mon = monitored(self_oracle(), "circuit-dsr-poly-blowup", c=2)
    shrunk = __import__("tfnpkit").restrict_output(
        __import__("tfnpkit").restrict_input(inst.succ, 1, 0), 1
    )
    mon.check(inst, IterInstance(shrunk))  # honest restriction passes
    bloated = IterInstance(pad_with_dead_gates(shrunk, (3 * 3) ** 3))
    with pytest.raises(MonitorViolation):
        mon.check(inst, bloated)


def test_monitored_self_oracle_reports_zero_violations(rng):
    # a violation raises, so a clean pass is the assertion
    for _ in range(80):
        inst = random_instance("sink-of-dag", 3, rng, m=2)
        trace = QueryTrace()
        answer = dsr_sod(inst, monitored(self_oracle(), "circuit-dsr-poly-blowup", trace=trace))
        assert verify_solution(inst, answer)


def test_dsr_sod_query_roundtrips_through_envelope(rng):
    captured = []
    inner = self_oracle()

    def spy(sub, parent=None):
        captured.append(sub)
        return inner(sub, parent)

    for kind in ("sink-of-dag", "sink-of-dag-with-source"):
        for _ in range(10):
            inst = random_instance(kind, 3, rng, m=3)
            assert verify_solution(inst, run_dsr(inst, spy))
    assert len(captured) >= 20
    for sub in captured:
        again = parse_instance(emit_instance(sub))
        assert type(again) is type(sub)
        assert enumerate_solutions(again) == enumerate_solutions(sub)


def _long_path(n: int):
    return table_circuit([min(x + 1, (1 << n) - 1) for x in range(1 << n)], n)


def test_monitored_long_paths_evaluate_each_point_once(monkeypatch):
    """Verifiers, pivots, queries, halves and the parent's re-check of a
    child's answer all read the root's points: each root circuit is
    tabulated at most once (here at its first point, as n <= 16), each
    point evaluated at most once, and no query or half circuit is evaluated
    or tabulated."""
    identity = table_circuit(range(32), 5, name="valuation")
    cases = [
        SodInstance(_long_path(5), identity),
        SodInstance(_long_path(5), identity, "00011"),
        IterInstance(_long_path(6)),
        IterInstance(_long_path(6), "000101"),
    ]
    copies = []
    with_source = SodInstance.with_source

    def recording(self, source):
        copies.append((self, with_source(self, source)))
        return copies[-1][1]

    monkeypatch.setattr(SodInstance, "with_source", recording)
    evaluations, tables = _count_reads(monkeypatch)
    roots = []
    for inst in cases:
        n = inst.n
        roots.append(inst.pair if isinstance(inst, SodInstance) else inst.succ)
        answer = run_dsr(inst, monitored(self_oracle(), "circuit-dsr-poly-blowup", c=2))
        assert answer == from_int((1 << n) - 2, n)  # the unique solution
        _assert_only_roots_read(evaluations, tables, roots)
        assert tables[id(roots[-1])] == 1 and not evaluations
        read = sum(evaluations.values()) + sum(tables.values())
        assert verify_solution(inst.with_source(from_int(1, n)), answer)
        assert sum(evaluations.values()) + sum(tables.values()) == read
    assert copies
    for original, copy in copies:
        if original._parent is None:
            assert copy.pair is original.pair
        else:
            assert copy._steps is original._steps


def test_pairs_and_query_views_read_each_input_once(rng):
    """A pair, and both views of every sub-query, has one INPUT gate per
    input, and the views and the envelope round trip keep its truth tables."""
    captured = []

    def spy(sub, parent=None):
        captured.append(sub)
        return run_dsr(sub, spy)

    for kind in ("sink-of-dag", "sink-of-dag-with-source"):
        for _ in range(10):
            inst = random_instance(kind, 3, rng, m=3)
            captured.append(inst)
            assert verify_solution(inst, run_dsr(inst, spy))
    assert len(captured) > 40
    for inst in captured:
        for c in (inst.pair, inst.succ, inst.valuation):
            assert sorted(g.a for g in c.gates if g.op == OP_INPUT) == [0, 1, 2]
        masks = output_masks(inst.pair)
        assert masks == output_masks(inst.succ) + output_masks(inst.valuation)
        assert output_masks(parse_instance(emit_instance(inst)).pair) == masks


class SizeCheckingOracle(SelfReductionOracle):
    """The recursive self-oracle, or ``answer`` when given, behind a monitor:
    every query it is handed must be a ``SodInstance`` whose size, as the
    monitor just recorded it, is ``size()`` of the query's circuit."""

    def __init__(self, answer=None):
        super().__init__()
        self.answer = answer
        self.trace = QueryTrace()
        self.checked = 0

    def __call__(self, inst, parent=None):
        assert type(inst) is SodInstance
        assert self.trace.records[-1].query_dims[2] == size(inst.pair)
        self.checked += 1
        if self.answer is not None:
            return self.answer(inst, parent)
        return super().__call__(inst, parent)


def _checked_run(inst, answer=None) -> int:
    oracle = SizeCheckingOracle(answer)
    result = run_dsr(inst, monitored(oracle, "circuit-dsr-poly-blowup", c=2, trace=oracle.trace))
    assert verify_solution(inst, result)
    return oracle.checked


def test_sink_of_dag_queries_are_measured_exactly():
    """Composed queries are sized from their nets; the size must be the one
    their circuits have, on every sink-of-DAG query of the acceptance
    criterion 3 strata, of the adversarial sweep and of long paths."""
    checked = 0
    # criterion 3: the two-bit strata with two valuation bits (one-bit
    # valuations make no query), then the seeded three-bit sample
    valuations = [table_circuit(v, 2, m=2, name="valuation") for v in itertools.product(range(4), repeat=4)]
    for table in itertools.product(range(4), repeat=4):
        succ = table_circuit(table, 2)
        movers = [s for s in range(4) if table[s] != s]
        seeded = random.Random(sum(table))
        if table[0] != 0:
            for val in valuations:
                checked += _checked_run(SodInstance(succ, val))
        if movers:
            for _ in range(8):
                val = table_circuit([seeded.randrange(4) for _ in range(4)], 2, m=2, name="valuation")
                for s in movers[:2]:
                    checked += _checked_run(SodInstance(succ, val, from_int(s, 2)))
    rng = random.Random(0x5EED)
    for _ in range(150):
        for kind in ("iter", "iter-with-source", "sink-of-dag", "sink-of-dag-with-source"):
            inst = random_instance(kind, 3, rng, m=3)
            if isinstance(inst, SodInstance):
                checked += _checked_run(inst)
    # the adversarial sweep of test_soundness_under_adversarial_oracle
    rng = random.Random(0xC0FFEE)
    for trial in range(400):
        kind = ("iter", "iter-with-source", "sink-of-dag", "sink-of-dag-with-source")[trial % 4]
        inst = random_instance(kind, 3, rng, m=3)
        if isinstance(inst, SodInstance):
            checked += _checked_run(inst, AdversarialOracle(trial))
    for n in range(2, 7):
        identity = table_circuit(range(1 << n), n, name="valuation")
        for source in (None, from_int(1, n)):
            checked += _checked_run(SodInstance(_long_path(n), identity, source))
    assert checked > 50_000


class HalfCheckingOracle(SelfReductionOracle):
    """The recursive self-oracle behind a monitor: every query it is handed
    must be an iteration instance whose successor is, gate for gate, a half
    of its parent's made in two steps (input 1 fixed, then output 1
    dropped), or for a source-free upper query with a nonzero pivot suffix
    the ``drop_source`` target of that half that ``dropped`` recorded."""

    def __init__(self, dropped):
        super().__init__()
        self.dropped = dropped
        self.checked = 0

    def __call__(self, inst, parent=None):
        assert isinstance(inst, IterInstance)
        expected = [restrict_output(restrict_input(parent.succ, 1, bit), 1) for bit in (0, 1)]
        if id(inst.succ) in self.dropped:
            source = self.dropped[id(inst.succ)][1]
            expected = [drop_source(IterInstance(expected[1], source)).target.succ]
        assert inst.succ in expected
        self.checked += 1
        return super().__call__(inst, parent)


def test_iteration_queries_are_two_step_halves_built_in_one_pass(monkeypatch):
    """Every iteration query's successor is the two-step half of its
    parent's, or for a source-free upper query whose pivot suffix is
    nonzero, ``drop_source`` of that half; each half constructs exactly one
    circuit: on monitored long paths at n = 2..7 with and without a source,
    and on a seeded sweep of random iteration instances."""
    validate = Circuit.__post_init__
    derived = circuit._derived
    one_pass = problems.restrict_half
    constructed = [0]
    built = []  # circuits constructed by each half, validated or derived

    def counting_validate(self):
        constructed[0] += 1
        validate(self)

    def counting_derived(*args):
        constructed[0] += 1
        return derived(*args)

    def counting_half(c, bit):
        before = constructed[0]
        half = one_pass(c, bit)
        built.append(constructed[0] - before)
        return half

    dropped = {}  # successor of each patched drop_source target -> (target, source)
    unpatched = [0]  # drop_source calls whose target is the half itself

    def recording_drop(sub):
        result = drop_source(sub)
        if result.target.succ is sub.succ:
            unpatched[0] += 1
        else:
            dropped[id(result.target.succ)] = (result.target, sub.source)
        return result

    monkeypatch.setattr(Circuit, "__post_init__", counting_validate)
    monkeypatch.setattr(circuit, "_derived", counting_derived)
    monkeypatch.setattr(problems, "restrict_half", counting_half)
    monkeypatch.setattr(dsr, "drop_source", recording_drop)
    cases = []
    for n in range(2, 8):
        cases += [IterInstance(_long_path(n)), IterInstance(_long_path(n), from_int(1, n))]
    rng = random.Random(0xA1F)
    for _ in range(200):
        for kind in ("iter", "iter-with-source"):
            cases.append(random_instance(kind, rng.randrange(2, 6), rng))
    checked = 0
    for inst in cases:
        oracle = HalfCheckingOracle(dropped)
        answer = run_dsr(inst, monitored(oracle, "circuit-dsr-poly-blowup", c=2))
        assert verify_solution(inst, answer)
        checked += oracle.checked
    assert checked > 750 and len(dropped) > 25 and unpatched[0] > 300
    assert len(built) == checked and set(built) == {1}


def test_long_path_sink_of_dag_evaluates_only_the_root(monkeypatch):
    """Queries read their parent's memo: a monitored run reads no circuit
    but the root's, which it tabulates once and never evaluates, and it
    hash-conses the root once (the drop chain is asked before its freezes)."""
    inst = SodInstance(_long_path(5), table_circuit(range(32), 5, name="valuation"))
    evaluations, tables = _count_reads(monkeypatch)
    hashed = []
    of = Net.of.__func__
    monkeypatch.setattr(Net, "of", classmethod(lambda cls, c: hashed.append(c) or of(cls, c)))
    trace = QueryTrace()
    answer = run_dsr(inst, monitored(self_oracle(), "circuit-dsr-poly-blowup", c=2, trace=trace))
    assert answer == from_int(30, 5)
    assert len(trace) == 30
    _assert_only_roots_read(evaluations, tables, [inst.pair])
    assert tables == {id(inst.pair): 1} and not evaluations  # n <= 16: tabulated at the first point
    assert len(hashed) == 1 and hashed[0] is inst.pair
