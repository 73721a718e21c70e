"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Checks that a wrong answer is counted as a failed item on every workload,
that the span recorder computes self time correctly and puts back every
attribute it patched, that ``BENCHMARK.json`` names exactly the metrics
the runs print, and that the benchmark exits non-zero, printing no result,
in a directory that holds only the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import tracing
import workloads


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def check_wrong_answers_counted(lib) -> None:
    for name, workload in workloads.WORKLOADS.items():
        result = run.Pass()
        for index in range(2):
            item = run.make_item(lib, workload, 1, index)
            workload.expect(lib, item)
            run.run_one(lib, workload, item, index, result, tamper=index == 0)
        expect(result.failed == 1, f"{name}: {result.failed} failures counted, expected 1")
        print(f"ok: {name} counts one injected wrong answer in {len(result.durations)} items")


def _bindings(lib) -> dict:
    owners = list(lib.modules)
    for _, module_name, attr in tracing.SPANS:
        if "." in attr:
            owners.append(getattr(getattr(lib, module_name), attr.split(".")[0]))
    return {(id(owner), key): value for owner in owners for key, value in list(vars(owner).items())}


def check_tracer(lib) -> None:
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("child", 1.0, 4.0, 0, 0),
        ("grandchild", 2.0, 3.0, 1, 0),
        ("child", 5.0, 6.0, 0, 0),
    ]
    calls, self_s = tracing.summarize(spans)
    expect(dict(calls) == {"root": 1, "child": 2, "grandchild": 1}, f"calls {dict(calls)}")
    expect(dict(self_s) == {"root": 6.0, "child": 3.0, "grandchild": 1.0}, f"self time {dict(self_s)}")

    before = _bindings(lib)
    original_evaluate = lib.circuit.evaluate
    workload = workloads.WORKLOADS["sweep-small"]
    item = run.make_item(lib, workload, 1, 0)
    workload.expect(lib, item)
    tracer = tracing.Tracer(lib)
    with tracer:
        expect(lib.dsr.evaluate is not original_evaluate, "dsr's binding of evaluate was not wrapped")
        run.run_one(lib, workload, item, 0, run.Pass(), tracer)
    expect(_bindings(lib) == before, "the tracer left patched attributes behind")
    names = {span[0] for span in tracer.spans}
    expect({tracing.ITEM, "circuit.evaluate", "problems.parse_instance"} <= names, f"spans {names}")
    expect(all(span[4] == 0 for span in tracer.spans), "spans of item 0 carry another item id")
    print(f"ok: tracer records {len(tracer.spans)} spans and restores every binding")


def check_metric_names() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    expect(declared == list(run.END_TO_END), "end_to_end differs from run.END_TO_END")
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    expect(declared == list(tracing.PER_LAYER), "per_layer differs from tracing.PER_LAYER")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS), "workload names differ")
    print("ok: BENCHMARK.json names the metrics and workloads the runs report")


def check_fails_without_program() -> None:
    bare = workloads.WORK_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bench = run.ROOT / "bench"
    shutil.copytree(bench, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    spec = json.loads((bare / "BENCHMARK.json").read_text(encoding="utf-8"))
    proc = subprocess.run(
        [*spec["command"], "--workload", "pls-walk", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0, "the benchmark succeeded without the program")
    expect('"metrics"' not in proc.stdout, "the benchmark printed a result without the program")
    print(f"ok: without src/ the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    lib = run.Lib()
    check_metric_names()
    check_tracer(lib)
    check_wrong_answers_counted(lib)
    check_fails_without_program()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
