import random
import re
import subprocess
import sys

from tfnpkit import (
    HalvingIterProgram,
    IterInstance,
    RecursiveCombineProblem,
    SodInstance,
    circuit_from_table,
    compile_pls,
    emit_instance,
    identity_circuit,
    parse_instance,
    random_instance,
    verify_solution,
    well_formed,
)
from tfnpkit import cli
from tfnpkit.bits import all_bitstrings
from tfnpkit.circuit import constant_circuit
from tfnpkit.cli import USAGE_ERROR, main
from tfnpkit.gadgets import GateBuilder


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "tfnpkit", *argv], capture_output=True, text=True, timeout=120
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_gen_is_deterministic_and_well_formed():
    rc1, out1, _ = run_cli("gen", "--kind", "iter", "--n", "3", "--seed", "42")
    rc2, out2, _ = run_cli("gen", "--kind", "iter", "--n", "3", "--seed", "42")
    assert rc1 == rc2 == 0
    assert out1 == out2
    inst = parse_instance(out1)
    assert well_formed(inst)


def test_gen_respects_seed_changes():
    _, out1, _ = run_cli("gen", "--kind", "sink-of-dag", "--n", "3", "--seed", "1")
    _, out2, _ = run_cli("gen", "--kind", "sink-of-dag", "--n", "3", "--seed", "2")
    assert out1 != out2
    assert well_formed(parse_instance(out1))


def test_solve_then_verify_roundtrip(tmp_path):
    _, out, _ = run_cli("gen", "--kind", "iter-with-source", "--n", "3", "--seed", "9")
    path = tmp_path / "inst.txt"
    path.write_text(out)
    rc, sol, _ = run_cli("solve", str(path))
    assert rc == 0
    rc2, verdict, _ = run_cli("verify", str(path), "--candidate", sol.strip())
    assert rc2 == 0 and verdict.strip() == "true"


def test_verify_failure_exit_code(tmp_path):
    _, out, _ = run_cli("gen", "--kind", "iter", "--n", "2", "--seed", "3")
    path = tmp_path / "inst.txt"
    path.write_text(out)
    inst = parse_instance(out)
    from tfnpkit.bits import all_bitstrings

    bad = next(c for c in all_bitstrings(2) if not verify_solution(inst, c))
    rc, verdict, _ = run_cli("verify", str(path), "--candidate", bad)
    assert rc == 1 and verdict.strip() == "false"


def test_reduce_emits_reparseable_target(tmp_path):
    _, out, _ = run_cli("gen", "--kind", "sink-of-dag", "--n", "2", "--seed", "7")
    path = tmp_path / "inst.txt"
    path.write_text(out)
    rc, emitted, _ = run_cli("reduce", str(path), "--to", "iter-with-source")
    assert rc == 0
    target = parse_instance(emitted)
    assert well_formed(target)
    assert "pullback" in emitted


def test_dsr_run_trace_lines(tmp_path):
    rng = random.Random(1)
    inst = random_instance("iter", 3, rng)
    path = tmp_path / "inst.txt"
    path.write_text(emit_instance(inst))
    rc, out, _ = run_cli("dsr-run", str(path), "--trace")
    assert rc == 0
    lines = out.strip().splitlines()
    answer = lines[0]
    assert verify_solution(inst, answer)
    for line in lines[1:]:
        assert line.startswith("# depth=")


def test_dsr_run_inflation_trips_monitor(tmp_path):
    # the seed-1 iter instance queries twice; a sink-of-dag one always queries
    for kind in ("iter", "sink-of-dag"):
        inst = random_instance(kind, 3, random.Random(1))
        path = tmp_path / f"{kind}.txt"
        path.write_text(emit_instance(inst))
        rc, _, err = run_cli("dsr-run", str(path), "--inflate", "500")
        assert rc == 2
        assert "blowup budget" in err


def test_a_huge_blowup_exponent_answers_like_a_small_one(tmp_path, capsys):
    """No query grows by 2**c gates at a huge ``--c``, so the monitor need
    not build (inputs*outputs)**c to compare: the run prints what it prints
    at ``--c 2``."""
    path = tmp_path / "iter.txt"
    path.write_text(emit_instance(random_instance("iter", 4, random.Random(1))))
    printed = []
    for c in ("2", "1000000000000"):
        assert main(["dsr-run", str(path), "--trace", "--c", c]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]


def _traced_queries(capsys, path, *extra) -> list[tuple[int, int]]:
    """Depth and size of each ``--trace`` record of a ``dsr-run``."""
    assert main(["dsr-run", str(path), "--trace", *extra]) == 0
    records = capsys.readouterr().out.splitlines()[1:]
    return [tuple(map(int, re.search(r"depth=(\d+) .* size=(\d+) ", line).groups())) for line in records]


def test_dsr_run_inflation_pads_queries_at_every_depth(tmp_path, capsys):
    """``--inflate K`` pads every query of the run, at every depth, with K
    dead NOT gates, so each traced size grows by at least 2K."""
    n = 5
    succ = circuit_from_table([min(x + 1, (1 << n) - 1) for x in range(1 << n)], n, n)
    path = tmp_path / "long-path.txt"
    for inst in (IterInstance(succ), SodInstance(succ, identity_circuit(n))):
        path.write_text(emit_instance(inst))
        plain = _traced_queries(capsys, path)
        padded = _traced_queries(capsys, path, "--inflate", "7")
        assert len(padded) == len(plain) and max(depth for depth, _ in plain) >= 2
        for (depth, size), (padded_depth, padded_size) in zip(plain, padded):
            assert padded_depth == depth and padded_size >= size + 14


def test_dsr_mode_inflation_trips_the_strict_monitor(tmp_path, capsys):
    inst = random_instance("iter", 3, random.Random(1))
    path = tmp_path / "iter.txt"
    path.write_text(emit_instance(inst))
    assert main(["dsr-run", str(path), "--mode", "dsr", "--inflate", "500"]) == 2
    assert "is not below the parent's" in capsys.readouterr().err


def test_walk_step_lines_and_answer():
    rc, out, _ = run_cli("walk", "--problem", "fixture:recursive-combine", "--x", "1011")
    assert rc == 0
    lines = out.strip().splitlines()
    steps = [l for l in lines if l.startswith("step=")]
    assert len(steps) == 2 ** 5 - 2  # full walk of a four-bit instance
    assert lines[-1].startswith("answer=")


def _walk_by_cells(compiled, x):
    """The ``walk`` command's output, each row's occupancy counted by
    decoding its cells."""
    machine, lines = compiled.machine, []
    for step, state in enumerate(machine.walk(x)):
        profile = [sum(c[0] is not None for c in machine.row_cells(state, d)) for d in range(1, machine.n)]
        position = compiled.instance.valuation(state)
        lines.append(f"step={step} position={position} occupancy=({','.join(map(str, profile))})")
    return "\n".join([*lines, f"answer={compiled.extract(state)}"]) + "\n"


def test_walk_output_matches_decoded_cells(tmp_path, capsys):
    """On every state of a combine walk and a self-hosted halving walk, the
    command prints the occupancy that decoding each row's cells gives."""
    top = random_instance("iter-with-source", 4, random.Random(3))
    path = tmp_path / "top.txt"
    path.write_text(emit_instance(top))
    for problem, x, program in (
        ("fixture:recursive-combine", "101101", RecursiveCombineProblem()),
        (f"selfhost:{path}", top.source, HalvingIterProgram(top)),
    ):
        assert main(["walk", "--problem", problem, "--x", x]) == 0
        assert capsys.readouterr().out == _walk_by_cells(compile_pls(program, x), x)


def test_svl_check_reports_ok():
    rc, out, _ = run_cli("svl-check", "--problem", "fixture:recursive-combine", "--x", "101")
    assert rc == 0
    assert "ok=True" in out


def test_factor_commands():
    assert run_cli("factor", "91")[1].strip() == "7"
    assert run_cli("factor", "97")[1].strip() == "prime"
    assert run_cli("factor", "12", "--all")[1].strip() == "2,3,4,6"
    assert run_cli("factor", "12", "--all", "--via-oracle")[1].strip() == "2,3,4,6"
    assert run_cli("factor", "12", "--via-oracle")[1].strip() == "2"


def test_usage_errors_exit_three():
    assert run_cli("frobnicate")[0] == 3
    assert run_cli("gen", "--kind", "iter")[0] == 3
    assert run_cli("verify", "/nonexistent", "--candidate", "0")[0] == 3


def test_main_callable_in_process(tmp_path, capsys):
    rc = main(["factor", "15"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "3"


def test_one_parser_serves_every_call_like_a_fresh_process(tmp_path, capsys, monkeypatch):
    """One process builds the parser once and runs ``gen``, a usage error
    that names ``--trace`` before it fails, then ``solve`` and ``dsr-run``
    on the generated file: each call's exit code, output and errors are a
    fresh process's, so the failed parse left nothing behind (a leaked
    ``--trace`` would print trace lines)."""
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    path = tmp_path / "inst.txt"
    gen = ("gen", "--kind", "iter", "--n", "4", "--seed", "5")
    calls = [gen, ("dsr-run", str(path), "--trace", "--mode", "bogus"), ("solve", str(path)), ("dsr-run", str(path))]
    fresh = []
    for argv in calls:
        rc = main(list(argv))
        out, err = capsys.readouterr()
        if argv is gen:
            path.write_text(out)
        fresh.append(run_cli(*argv))
        assert (rc, out, err) == fresh[-1], argv
    assert fresh[1][0] == USAGE_ERROR and fresh[1][2].startswith("usage: tfnpkit dsr-run")
    assert fresh[3][0] == 0 and "#" not in fresh[3][1]
    assert len(builds) == 1


def test_shape_errors_in_instance_files_exit_three(tmp_path):
    square = "circuit succ inputs=2 outputs=2\ng0 = INPUT 0\ng1 = INPUT 1\noutput 0 = g1\noutput 1 = g0\n"
    cases = {  # file text, line of the misfit block
        "iter": ("problem iter\ncircuit succ inputs=2 outputs=1\ng0 = INPUT 0\noutput 0 = g0\n", 2),
        "sod": (
            "problem sink-of-dag\n" + square
            + "circuit valuation inputs=3 outputs=1\ng0 = INPUT 2\noutput 0 = g0\n",
            7,
        ),
    }
    for name, (text, line) in cases.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        for argv in (("solve", str(path)), ("verify", str(path), "--candidate", "00")):
            rc, _, err = run_cli(*argv)
            assert rc == 3, (name, argv, err)
            assert f"line {line}:" in err


def test_a_file_that_is_not_utf8_is_named(tmp_path, capsys):
    path = tmp_path / "latin.txt"
    path.write_bytes(b"problem iter\n# caf\xe9\n")
    assert main(["solve", str(path)]) == 3
    assert f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xe9" in capsys.readouterr().err


def test_exit_code_table(tmp_path, capsys):
    """0 success, 1 a verification answered false, 2 a contract or monitor
    violation, 3 a usage error or an unparseable input."""
    files = {}
    for kind in ("iter", "iter-with-source", "end-of-line"):
        files[kind] = tmp_path / f"{kind}.txt"
        files[kind].write_text(emit_instance(random_instance(kind, 3, random.Random(1))))
    stuck = tmp_path / "stuck.txt"  # the identity successor breaks the iteration guarantee
    stuck.write_text(emit_instance(IterInstance(identity_circuit(2))))
    wide = tmp_path / "wide.txt"  # above the exhaustive solver's 16-input bound
    wide.write_text(emit_instance(IterInstance(identity_circuit(17))))
    no_outputs = tmp_path / "no-outputs.txt"
    no_outputs.write_text("problem iter\ncircuit succ inputs=0 outputs=0\n")
    latin = tmp_path / "latin.txt"
    latin.write_bytes(b"problem iter\n\xff\n")
    flat = tmp_path / "flat.txt"  # its source 01 is a fixed point, so it does not ascend
    flat.write_text(emit_instance(IterInstance(circuit_from_table([2, 1, 3, 3], 2, 2), "01")))
    wide_sod = tmp_path / "wide-sod.txt"  # its iteration target would read 40 + 30 = 70 inputs
    flip = GateBuilder(40)
    wide_sod.write_text(emit_instance(SodInstance(
        flip.circuit([flip.not_(flip.inputs[0]), *flip.inputs[1:]], name="succ"),
        constant_circuit(40, "0" * 30, name="valuation"),
    )))
    inst = parse_instance(files["iter"].read_text())
    bad = next(c for c in all_bitstrings(3) if not verify_solution(inst, c))
    source = parse_instance(files["iter-with-source"].read_text()).source
    combine = ("--problem", "fixture:recursive-combine")
    table = [
        (("factor", "15"), 0),
        (("gen", "--kind", "iter", "--n", "3", "--seed", "1"), 0),
        (("solve", files["iter"]), 0),
        (("compile-pls", "--problem", f"selfhost:{files['iter-with-source']}", "--x", source), 0),
        (("verify", files["iter"], "--candidate", bad), 1),
        (("dsr-run", files["iter"], "--inflate", "500"), 2),
        (("solve", stuck), 2),
        (("frobnicate",), 3),
        (("verify", "/nonexistent", "--candidate", "0"), 3),
        (("verify", files["iter"], "--candidate", "0"), 3),
        (("solve", no_outputs), 3),
        (("gen", "--kind", "iter", "--n", "20", "--seed", "1"), 3),
        (("gen", "--kind", "sink-of-dag", "--n", "3", "--m", "0", "--seed", "1"), 3),
        (("compile-pls", *combine, "--x", "10a"), 3),
        (("walk", *combine, "--x", "10a"), 3),
        (("svl-check", *combine, "--x", "10a"), 3),
        (("svl-check", *combine, "--x", ""), 3),
        (("svl-check", *combine, "--x", "101", "--budget", "-1"), 3),
        # over-bound requests: the combine fixture answers up to 12 bits
        (("compile-pls", *combine, "--x", "1" * 13), 3),
        (("solve", wide, "--exhaustive"), 3),
        (("walk", *combine, "--x", "101", "--max-steps", "-1"), 3),
        (("walk", *combine, "--x", "101", "--max-steps", "3"), 3),
        (("dsr-run", files["iter"], "--inflate", "-1"), 3),
        (("dsr-run", files["iter"], "--c", "-3"), 3),
        (("dsr-run", files["end-of-line"]), 3),
        # selfhost programs need a source; a source-free iter file is refused
        (("compile-pls", "--problem", f"selfhost:{files['iter']}", "--x", "101"), 3),
        # a selfhost word must be as wide as the instance
        (("compile-pls", "--problem", f"selfhost:{files['iter-with-source']}", "--x", "10"), 3),
        (("compile-pls", "--problem", f"selfhost:{files['iter-with-source']}", "--x", "1010"), 3),
        # a selfhost word the instance does not ascend from is a malformed instance
        (("walk", "--problem", f"selfhost:{flat}", "--x", "01"), 2),
        (("walk", *combine, "--x", "1" * 13), 3),
        (("svl-check", *combine, "--x", "1" * 13), 3),
        (("reduce", files["iter"], "--to", "end-of-line"), 3),
        (("dsr-run", stuck), 2),
        # the writer refuses a netlist wider than the reader accepts
        (("gen", "--kind", "sink-of-dag", "--n", "2", "--m", "65", "--seed", "1"), 3),
        # only the sink-of-DAG kinds have a valuation for --m to size
        (("gen", "--kind", "iter", "--n", "3", "--m", "5", "--seed", "1"), 3),
        (("reduce", wide_sod, "--to", "iter-with-source"), 3),
        (("solve", latin), 3),
    ]
    for argv, code in table:
        assert main([str(a) for a in argv]) == code, argv
    capsys.readouterr()
