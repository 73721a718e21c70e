import gc
import itertools
import random
import weakref

import pytest

from tfnpkit import (
    Circuit,
    IterInstance,
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
from tfnpkit import circuit, dsr, gadgets, problems
from tfnpkit.bits import from_int, zeros
from tfnpkit.circuit import OP_INPUT, evaluate, output_masks, pad_with_dead_gates
from tfnpkit.errors import DimensionError, MonitorViolation, OracleContractError
from tfnpkit.gadgets import Net, redirect_zero_inputs
from tfnpkit.solvers import solve_path

from conftest import _assert_only_roots_read, _count_reads, _counting_splits, iter_tables, parsed, table_circuit


def test_worked_two_bit_chain():
    """Chain 00->01->10->11->11 from source 00: the lower query answers 0,
    the pivot is 10, the upper query answers 0, and the lift returns 10."""
    inst = IterInstance(table_circuit([1, 2, 3, 3], 2), "00")
    trace = QueryTrace()
    answer = dsr_iter_with_source(inst, monitored(self_oracle(), "dsr", trace=trace))
    assert answer == "10"
    assert [r.answer for r in trace.records] == ["0", "0"]
    assert [r.query_dims[0] for r in trace.records] == [1, 1]


def test_upper_half_source_needs_one_query():
    inst = IterInstance(table_circuit([0, 1, 3, 3], 2), "10")
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
                inst = IterInstance(c, from_int(s, 2))
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


def test_run_dsr_refuses_a_kind_with_no_self_reduction():
    inst = random_instance("end-of-line", 3, random.Random(7))
    with pytest.raises(DimensionError, match="no self-reduction for end-of-line"):
        run_dsr(inst, self_oracle())


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

    def __call__(self, inst, parent=None, entry=None):
        if parent is not self.root:
            return self.below(inst, parent, entry)
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
        cases += [(IterInstance(succ, source), dsr_iter_with_source) for source in sources]
        before = len(walks)
        for inst, algorithm in cases:
            counts[n][0] += 1
            counts[n][1] += _run_every_pick(inst, algorithm)
        counts[n][2] += len(walks) - before
    # two-bit queries have one solution each; the three-bit runs walked 124
    # times when this was written, and a sound upper-half lift makes it 0
    assert counts[2] == [576, 576, 0]
    assert counts[3][:2] == [1307, 1687] and counts[3][2] <= 124


def _dsr_iter_through_drop_source(inst, oracle):
    """The reference source-free route: the with-source algorithm on a
    zero-source copy, each query asked through ``drop_source`` with the
    source-free instance as parent."""

    def ask(sub, parent):
        return oracle(drop_source(sub).target, inst)

    return dsr_iter_with_source(inst.with_source(zeros(inst.n)), ask)


def _reference_dsr(inst, oracle):
    if inst.source is None:
        return _dsr_iter_through_drop_source(inst, oracle)
    return dsr_iter_with_source(inst, oracle)


class ReferenceOracle:
    """The recursive self-oracle on the reference route at every depth."""

    def __call__(self, inst, parent=None, entry=None):
        return _reference_dsr(inst, entry or self)


def _traced(algorithm, inst, inner):
    """The answer and the monitored trace of ``algorithm`` on ``inst``."""
    trace = QueryTrace()
    answer = algorithm(inst, monitored(inner, "circuit-dsr-poly-blowup", c=2, trace=trace))
    return answer, trace.records


def test_iteration_queries_trace_like_the_drop_source_route():
    """Both iteration kinds, run monitored, record the query trace (parent
    and query dimensions, depth, answer) and the answer that the reference
    route records, which asks every source-free query through
    ``drop_source``: on long paths at n = 2..7 and on a seeded sweep of
    random instances, under the recursive self-oracle and under every valid
    answer to the root's queries."""

    def both_routes(inst, picking):
        ran = _traced(run_dsr, inst, picking)
        assert ran == _traced(_reference_dsr, inst, PickingOracle(inst, picking.picks))
        return ran[0]

    cases = []
    for n in range(2, 8):
        cases += [IterInstance(_long_path(n)), IterInstance(_long_path(n), from_int(1, n))]
    rng = random.Random(0x7ACE)
    for _ in range(300):
        for kind in ("iter", "iter-with-source"):
            cases.append(random_instance(kind, rng.randrange(2, 7), rng))
    queries = runs = 0
    for inst in cases:
        ran = _traced(run_dsr, inst, self_oracle())
        assert ran == _traced(_reference_dsr, inst, ReferenceOracle())
        queries += len(ran[1])
        runs += _run_every_pick(inst, both_routes)
    assert queries > 1000 and runs > 2000


def test_lying_oracle_raises_contract_error(rng):
    def liar(inst, parent=None):
        n = inst.n
        for cand in (zeros(n), "1" * n):
            if not verify_solution(inst, cand):
                return cand
        return zeros(n)

    raised = {"iter-with-source": 0, "iter": 0}
    for kind in raised:
        for _ in range(200):
            inst = random_instance(kind, 3, rng)
            try:
                answer = run_dsr(inst, liar)
                assert verify_solution(inst, answer)
            except OracleContractError:
                raised[kind] += 1
    assert all(raised.values())


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


def _nine_in_ten_path(n: int, rng: random.Random):
    """An ascending path from 0 through a seeded nine in ten of the other
    points, as ``iter-longpath`` makes them; every point off it is fixed."""
    path = [0] + [x for x in range(1, 1 << n) if rng.random() < 0.9]
    steps = list(range(1 << n))
    for a, b in zip(path, path[1:]):
        steps[a] = b
    return table_circuit(steps, n)


def test_monitored_long_paths_evaluate_each_point_once(monkeypatch):
    """Verifiers, pivots, queries, halves and the parent's re-check of a
    child's answer all read the root's points: each point is evaluated at
    most once, and no query or half circuit is evaluated or tabulated.  A
    table-born root carries its table and builds none; the same root read
    back from its netlist is tabulated once, at its first point (n <= 16)."""
    identity = table_circuit(range(32), 5, name="valuation")
    cases = [
        SodInstance(_long_path(5), identity),
        SodInstance(_long_path(5), identity, "00011"),
        IterInstance(_long_path(6)),
        IterInstance(_long_path(6), "000101"),
    ]
    born = len(cases)
    cases += [
        SodInstance(parsed(_long_path(5)), parsed(identity), "00011"),
        IterInstance(parsed(_long_path(6))),
    ]
    copies = []
    with_source = SodInstance.with_source

    def recording(self, source):
        copies.append((self, with_source(self, source)))
        return copies[-1][1]

    monkeypatch.setattr(SodInstance, "with_source", recording)
    evaluations, tables = _count_reads(monkeypatch)
    roots = []
    for index, inst in enumerate(cases):
        n = inst.n
        roots.append(inst.pair if isinstance(inst, SodInstance) else inst.succ)
        answer = run_dsr(inst, monitored(self_oracle(), "circuit-dsr-poly-blowup", c=2))
        assert answer == from_int((1 << n) - 2, n)  # the unique solution
        _assert_only_roots_read(evaluations, tables, roots)
        assert tables[id(roots[-1])] == (index >= born) and not evaluations
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

    def __call__(self, inst, parent=None, entry=None):
        assert type(inst) is SodInstance
        assert self.trace.records[-1].query_dims[2] == size(inst.pair)
        self.checked += 1
        if self.answer is not None:
            return self.answer(inst, parent)
        return super().__call__(inst, parent, entry)


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
    the ``drop_source`` target of that half that ``dropped`` recorded.  A
    half's circuit is built at this first read of it, as one circuit, and
    the monitor's size is that circuit's.  ``direct`` counts the queries
    asked as source-free halves: no source, and the parent's reader with
    one more bit of prefix."""

    def __init__(self, dropped, constructed):
        super().__init__()
        self.dropped = dropped
        self.constructed = constructed
        self.checked = 0
        self.direct = 0

    def __call__(self, inst, parent=None, entry=None):
        assert isinstance(inst, IterInstance)
        expected = [restrict_output(restrict_input(parent.succ, 1, bit), 1) for bit in (0, 1)]
        (read, prefix), (parent_read, parent_prefix) = inst._read, parent._read
        one_deeper = len(prefix) == len(parent_prefix) + 1 and prefix.startswith(parent_prefix)
        self.direct += inst.source is None and read is parent_read and one_deeper
        before = len(self.constructed)
        succ = inst.succ
        assert len(self.constructed) - before == (inst._half is not None)
        if id(succ) in self.dropped:
            source = self.dropped[id(succ)][1]
            expected = [drop_source(IterInstance(expected[1], source)).target.succ]
        assert succ in expected
        assert problems.circuit_size(inst) == size(succ)
        self.checked += 1
        return super().__call__(inst, parent, entry)


def _recording_constructions(monkeypatch) -> list:
    """Record every circuit constructed, validated or derived, through any
    toolkit binding; the circuits are kept so that ids stay distinct."""
    validate, derived = Circuit.__post_init__, circuit._derived
    constructed = []

    def recording_validate(self):
        constructed.append(self)
        validate(self)

    def recording_derived(*args):
        constructed.append(derived(*args))
        return constructed[-1]

    monkeypatch.setattr(Circuit, "__post_init__", recording_validate)
    for module in (circuit, gadgets, problems):
        monkeypatch.setattr(module, "_derived", recording_derived)
    return constructed


def _recording_drops(monkeypatch) -> dict:
    """Route ``dsr``'s ``drop_source`` through a recorder: the successor of
    each target maps to (target, source, query).  Every call redirects: a
    query from the all-zero word is asked as the source-free half itself,
    never through ``drop_source``."""
    dropped = {}

    def recording_drop(sub):
        result = drop_source(sub)
        assert result.target._half is None
        dropped[id(result.target.succ)] = (result.target, sub.source, sub)
        return result

    monkeypatch.setattr(dsr, "drop_source", recording_drop)
    return dropped


def test_a_redirected_query_is_verified_on_the_instance_asked(monkeypatch):
    """A source-free query from a nonzero start is the ``drop_source``
    target, and its answer is verified on that target, not on the
    with-source half, whose solutions are more.  Here the all-zero word
    solves the half but no target, and an oracle that answers it to the
    redirected query is refused."""
    dropped = _recording_drops(monkeypatch)
    inst = random_instance("iter", 3, random.Random(21))

    def oracle(sub, parent=None):
        if any(sub is target for target, _, _ in dropped.values()):
            return zeros(sub.n)
        return run_dsr(sub, oracle)

    with pytest.raises(OracleContractError):
        run_dsr(inst, oracle)
    assert dropped


@pytest.mark.parametrize("mode", dsr.MODES)
@pytest.mark.parametrize("kind", ["iter", "iter-with-source", "sink-of-dag", "sink-of-dag-with-source"])
def test_which_query_discipline_each_self_reduction_meets(kind, mode):
    """On long paths at n = 2..6, both iteration kinds meet every monitor
    mode.  Both sink-of-DAG kinds meet the two circuit modes and break the
    strict ``dsr`` mode: a freeze's comparator reads the dropped valuation
    bit, so a frozen query's encoded size is not below its parent's."""
    for n in range(2, 7):
        source = from_int(1, n) if kind.endswith("with-source") else None
        if kind.startswith("iter"):
            inst = IterInstance(_long_path(n), source)
        else:
            inst = SodInstance(_long_path(n), table_circuit(range(1 << n), n, name="valuation"), source)
        oracle = monitored(self_oracle(), mode, c=2)
        if mode == "dsr" and kind.startswith("sink"):
            with pytest.raises(MonitorViolation, match="is not below the parent's"):
                run_dsr(inst, oracle)
        else:
            assert verify_solution(inst, run_dsr(inst, oracle))


def test_table_born_roots_keep_no_gates_through_monitored_runs():
    """A monitored run reads a table-born iteration root only through its
    table, its size and its halves, so the root's gates are never written:
    on long paths at n = 2..9 and 14 with source ``0...01`` and without,
    and on nine-in-ten ascending paths at n = 10, as ``iter-longpath``
    makes them, with the all-zero source and without."""
    rng = random.Random(0x9E10)
    runs = [(_long_path(n), from_int(1, n)) for n in (*range(2, 10), 14)]
    for _ in range(2):
        runs.append((_nine_in_ten_path(10, rng), zeros(10)))
    for root, source in runs:
        for inst in (IterInstance(root), IterInstance(root, source)):
            assert verify_solution(inst, run_dsr(inst, monitored(self_oracle(), "circuit-dsr-poly-blowup", c=2)))
    assert not any("gates" in vars(root) for root, _ in runs)


def test_iteration_queries_are_two_step_halves_built_in_one_pass(monkeypatch):
    """Every iteration query's successor is the two-step half of its
    parent's, or for a source-free upper query whose pivot suffix is
    nonzero, ``drop_source`` of that half: on monitored long paths at
    n = 2..7 with and without a source, and on a seeded sweep of random
    iteration instances.  Every other source-free query is asked as the
    source-free half itself, reading its parent's points, and
    ``drop_source`` is called only to redirect.  Making a half constructs
    no circuit, each half made serves one query, and reading a half's
    ``succ`` constructs exactly one.  A
    monitored long-path run that reads no query constructs the root and,
    for each ``drop_source`` that redirects, the redirected target, and
    nothing else: the target embeds the query's half from its entries, so
    the half's circuit is not built."""
    constructed = _recording_constructions(monkeypatch)
    made = []  # circuits constructed as each half is made
    init = circuit.Half.__init__

    def counting_init(self, parent, bit):
        before = len(constructed)
        init(self, parent, bit)
        made.append(len(constructed) - before)

    monkeypatch.setattr(circuit.Half, "__init__", counting_init)
    dropped = _recording_drops(monkeypatch)

    def assert_built_only_redirects(inst, roots=()) -> int:
        """Run ``inst`` monitored: the circuits constructed are ``roots``
        and the target of each redirecting ``drop_source``.  Returns the
        number of redirects."""
        dropped.clear()
        run_dsr(inst, monitored(self_oracle(), "circuit-dsr-poly-blowup", c=2))
        targets = [target.succ for target, _, _ in dropped.values()]
        assert sorted(map(id, constructed)) == sorted(map(id, [*roots, *targets]))
        constructed.clear()
        return len(dropped)

    for source in (None, from_int(1, 7)):
        constructed.clear()
        root = _long_path(7)
        assert_built_only_redirects(IterInstance(root, source), [root])
    cases = []
    for n in range(2, 8):
        cases += [IterInstance(_long_path(n)), IterInstance(_long_path(n), from_int(1, n))]
    rng = random.Random(0xA1F)
    for _ in range(200):
        for kind in ("iter", "iter-with-source"):
            cases.append(random_instance(kind, rng.randrange(2, 6), rng))
    constructed.clear()
    assert sum(assert_built_only_redirects(inst) for inst in cases) > 25
    dropped.clear()
    checked = direct = 0
    made.clear()
    for inst in cases:
        oracle = HalfCheckingOracle(dropped, constructed)
        answer = run_dsr(inst, monitored(oracle, "circuit-dsr-poly-blowup", c=2))
        assert verify_solution(inst, answer)
        checked += oracle.checked
        direct += oracle.direct
    assert checked > 750 and len(dropped) > 25 and direct > 300
    assert len(made) == checked and set(made) == {0}


def test_each_half_call_makes_one_half_and_no_side_twice(monkeypatch):
    """On monitored long paths at n = 2..8, through every point and through
    a seeded nine in ten of them, with and without a source, each ``half``
    call makes one ``Half``, of its own form and bit: in each run the
    halves made are the calls, no (form, bit) is made twice, and over 200
    instances ask for both sides, each made when asked.  ``restrict_half``
    on a parsed circuit folds its own side alone, once."""
    made, half = _counting_splits(monkeypatch), IterInstance.half
    asked = {}  # id of each asking instance -> [instance, bits asked]

    def counting_half(self, bit, source=None):
        before = len(made)
        result = half(self, bit, source)
        assert len(made) == before + 1 and made[-1][0] is self._form and made[-1][1:] == (bit,)
        asked.setdefault(id(self), [self, []])[1].append(bit)
        return result

    monkeypatch.setattr(IterInstance, "half", counting_half)
    rng = random.Random(0x5EED)
    runs = [(_long_path(n), from_int(1, n)) for n in range(2, 9)]
    runs += [(_nine_in_ten_path(n, rng), zeros(n)) for n in range(2, 9)]
    both = 0
    for root, source in runs:
        for inst in (IterInstance(root, source), IterInstance(root)):
            made.clear()
            asked.clear()
            assert verify_solution(inst, run_dsr(inst, monitored(self_oracle(), "circuit-dsr-poly-blowup", c=2)))
            assert len(made) == sum(len(bits) for _, bits in asked.values())
            assert len({(id(form), bit) for form, bit in made}) == len(made)
            both += sum(sorted(bits) == [0, 1] for _, bits in asked.values())
    assert both > 200
    root = parsed(_long_path(5))
    want, fold, folds = restrict_output(restrict_input(root, 1, 1), 1), circuit._fold, []

    def counting_fold(rows, outputs, k0, bit):
        folds.append(bit)
        return fold(rows, outputs, k0, bit)

    monkeypatch.setattr(circuit, "_fold", counting_fold)
    assert circuit.restrict_half(root, 1) == want
    assert folds == [1]


def test_table_born_halves_fold_only_what_is_read(monkeypatch):
    """On monitored long paths at n = 2..8, through every point or through a
    seeded nine in ten of them, the root is table-born, so its halves, and
    theirs, are sized by the table rule, and a half whose columns are read
    (here, one a ``drop_source`` redirect embeds) has them written from its
    masks.  With a source no fold runs; without one, no side of a form is
    folded twice, and none at or below the root: every fold splits a
    redirect target or a half below one.  A half keeps neither its parent
    half nor the root alive."""
    root = _long_path(6)
    upper = IterInstance(root).half(0)
    half = upper.half(1)._half
    redirected = gadgets.redirect_zero_outputs(half, "1" * half.m)  # writes its rows
    held = weakref.ref(root), weakref.ref(upper._half)
    del root, upper
    gc.collect()
    assert [ref() for ref in held] == [None, None]
    assert gadgets.redirect_zero_outputs(half, "1" * half.m) == redirected

    forms, parent_of = [], {}  # every form split and half made, kept so that ids stay distinct; id of a half -> its parent
    init, fold, embed_rows = circuit.Half.__init__, circuit._fold, gadgets._rows
    redirect = problems.redirect_zero_outputs
    folded, read, targets = [], [], []

    def recording_init(self, form, bit):
        forms.append(form)
        init(self, form, bit)
        forms.append(self)
        parent_of[id(self)] = form

    def recording_fold(rows, outputs, k0, bit):
        folded.append((next(form for form in forms if getattr(form, "outputs", None) is outputs), bit))
        return fold(rows, outputs, k0, bit)

    def recording_redirect(*args, **kwargs):
        targets.append(redirect(*args, **kwargs))
        return targets[-1]

    monkeypatch.setattr(circuit.Half, "__init__", recording_init)
    monkeypatch.setattr(circuit, "_fold", recording_fold)
    monkeypatch.setattr(gadgets, "_rows", lambda c: read.append(c) or embed_rows(c))
    monkeypatch.setattr(problems, "redirect_zero_outputs", recording_redirect)
    written = target_folds = 0
    rng = random.Random(0x5EED)
    roots = [_long_path(n) for n in range(2, 9)] + [_nine_in_ten_path(n, rng) for n in range(2, 9)]
    for root in roots:
        for source in (from_int(0, root.n), None):
            for record in (forms, parent_of, folded, read, targets):
                record.clear()
            inst = IterInstance(root, source)
            assert verify_solution(inst, run_dsr(inst, monitored(self_oracle(), "circuit-dsr-poly-blowup", c=2)))
            assert len({(id(form), bit) for form, bit in folded}) == len(folded) and (source is None or not folded)
            for form, _ in folded:
                assert form._masks is None
                while isinstance(form, circuit.Half):
                    form = parent_of[id(form)]
                assert any(form is target for target in targets)
            written += sum(isinstance(c, circuit.Half) and c._masks is not None for c in read)
            target_folds += len(folded)
    assert written > 10 and target_folds > 10


def test_long_path_sink_of_dag_evaluates_only_the_root(monkeypatch):
    """Queries read their parent's memo: a monitored run reads no circuit
    but the root's and never evaluates it, and it hash-conses the root once
    (the drop chain is asked before its freezes).  A root paired from
    table-born circuits carries their joined table and builds none; a root
    paired from parsed circuits is tabulated once (n <= 16: at its first
    point)."""
    evaluations, tables = _count_reads(monkeypatch)
    hashed = []
    of = Net.of.__func__
    monkeypatch.setattr(Net, "of", classmethod(lambda cls, c: hashed.append(c) or of(cls, c)))
    succ, valuation = _long_path(5), table_circuit(range(32), 5, name="valuation")
    cases = [SodInstance(succ, valuation), SodInstance(parsed(succ), parsed(valuation))]
    for tabulated, inst in enumerate(cases):
        evaluations.clear()
        tables.clear()
        hashed.clear()
        trace = QueryTrace()
        answer = run_dsr(inst, monitored(self_oracle(), "circuit-dsr-poly-blowup", c=2, trace=trace))
        assert answer == from_int(30, 5)
        assert len(trace) == 30
        _assert_only_roots_read(evaluations, tables, [inst.pair])
        assert tables == ({id(inst.pair): 1} if tabulated else {}) and not evaluations
        assert len(hashed) == 1 and hashed[0] is inst.pair
