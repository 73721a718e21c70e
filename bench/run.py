"""Benchmark of the tfnpkit toolkit: one workload, one seed, one run.

    python3 bench/run.py --workload sod-longpath --seed 1 --seconds 20 --trace 0

The toolkit is imported from ``src/`` next to this directory.  Items run in
a closed loop with one client: the next item starts only after the
previous item's answer has been checked.  An item is timed from having its
inputs to having a checked answer; inputs are made, and the accepted
answers derived, before a round's first item starts.

An untraced run (``--trace 0``) is a fixed number of rounds over a fixed
number of items, both set per workload so that a run takes about 20
seconds on a two-core host; ``--seconds`` scales the number of rounds.
Each round sets up afresh: it imports the toolkit and makes every item's
inputs, which is what ``setup_s`` times (the median over rounds).  The
benchmark's own oracle then derives the accepted answers with the clock
stopped, and the round runs the items one after another on their fresh
inputs.  An item's latency is its median over rounds, and ``solve_s.p50``
the median over items; ``items_per_s`` is the number of items run over the
wall-clock time spent in them.  On a shared host the fastest repeats come
from short quiet spells that some runs catch and others do not, so a
minimum swings from run to run far more than a median does.  Times and
rates are scaled to the reference host's speed (see ``REFERENCE_S``).

A traced run (``--trace 1``) runs a fixed number of items, each once
untraced and then once traced, and reports the per-layer metrics and the
tracing overhead; its spans are written under ``.bench_work/trace/``.

The last line of output is the JSON result.  Exit codes: 0 when every
answer checked out, 1 when an item failed, 2 when the toolkit could not be
loaded.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads
from workloads import Check, Stats

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = workloads.WORK_DIR / "trace"

MODULES = ("bits", "circuit", "gadgets", "problems", "solvers", "reductions",
           "dsr", "dsr2pls", "svl", "fixtures", "cli")

# Run length the workloads' round counts are set for.
REFERENCE_SECONDS = 20

# The shared host's speed drifts by 10-30% over tens of seconds, which a
# 20-second run cannot average out, and the drift slows the toolkit and a
# plain interpreted loop largely alike.  Every end-to-end time is therefore
# multiplied, and every rate divided, by REFERENCE_S over the median time
# of ``reference_loop``, sampled before every set-up and every item of the
# run, so that the figures read as seconds on the reference host (Intel
# Xeon, 2 vCPUs under KVM, CPython 3.11) at its usual speed.  The figures
# as measured are printed too.
REFERENCE_LOOP = 60_000
REFERENCE_S = 0.0063

# (name, unit, better) of the end-to-end metrics every untraced run reports.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("solve_s.p50", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


class Lib:
    """The toolkit's modules, freshly imported from ``src/``."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "tfnpkit" or m.startswith("tfnpkit.")]:
            del sys.modules[name]
        package = importlib.import_module("tfnpkit")
        if Path(package.__file__).resolve().parent != SRC / "tfnpkit":
            raise ImportError(f"tfnpkit was loaded from {package.__file__}, not from {SRC}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"tfnpkit.{name}"))
        self.modules = [package] + [getattr(self, name) for name in MODULES]


def make_item(lib, workload, seed: int, index: int):
    return workload.make(lib, random.Random(f"{workload.name}:{seed}:{index}"), index)


def set_up(workload, seed: int, count: int):
    """Import the toolkit and make the inputs of items 0 to ``count`` - 1;
    returns the modules, the items and the time taken.  The items' accepted
    answers are derived afterwards, with the clock stopped."""
    gc.collect()
    started = time.perf_counter()
    lib = Lib()
    items = [make_item(lib, workload, seed, i) for i in range(count)]
    elapsed = time.perf_counter() - started
    for item in items:
        workload.expect(lib, item)
    return lib, items, elapsed


class Pass:
    """Per-item durations, failures and stats of a sequence of items."""

    def __init__(self):
        self.durations: list[float] = []
        self.failed = 0
        self.stats = Stats()


def run_one(lib, workload, item, index: int, result: Pass, tracer=None, tamper: bool = False) -> None:
    """Run one item, time it and check its answers, adding to ``result``."""
    check = Check(tamper=tamper)
    stats = result.stats
    started = time.perf_counter()
    try:
        if tracer is None:
            workload.run(lib, item, check, stats)
        else:
            tracer.run_item(index, workload.run, lib, item, check, stats)
    except Exception as exc:  # an item that raises is a failed item, not a failed run
        check.failures.append(f"raised {type(exc).__name__}: {exc}")
    result.durations.append(time.perf_counter() - started)
    if check.failures:
        result.failed += 1
        print(f"FAIL item {index} ({item.kind}, n={item.n}): {'; '.join(check.failures[:3])}",
              file=sys.stderr)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def reference_loop() -> float:
    """Time a fixed loop of interpreted arithmetic that touches nothing of
    the toolkit's and allocates nothing the garbage collector tracks."""
    started = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i % 7
    return time.perf_counter() - started


def untraced_run(workload, seed: int, seconds: float):
    rounds = max(1, round(workload.rounds * seconds / REFERENCE_SECONDS))
    setups: list[float] = []
    reference: list[float] = []
    result = Pass()
    for _ in range(rounds):
        reference.append(reference_loop())
        lib, items, setup_time = set_up(workload, seed, workload.items)
        setups.append(setup_time)
        for index, item in enumerate(items):
            reference.append(reference_loop())
            run_one(lib, workload, item, index, result)

    # durations are in round-major order; an item's latency is its median over rounds
    latencies = [statistics.median(result.durations[i::workload.items]) for i in range(workload.items)]
    attempted, failed = len(result.durations), result.failed
    raw = {
        "setup_s": statistics.median(setups),
        "solve_s.p50": statistics.median(latencies),
        "items_per_s": attempted / sum(result.durations),
    }
    if len(latencies) >= 100:
        raw["solve_s.p90"] = statistics.quantiles(latencies, n=10)[-1]
    if result.stats.walk_steps:
        raw["walk_steps_per_s"] = result.stats.walk_steps / result.stats.walk_s
    scale = REFERENCE_S / statistics.median(reference)
    scaled = {name: value / scale if name.endswith("_per_s") else value * scale
              for name, value in raw.items()}

    metrics = {name: scaled[name] for name in ("setup_s", "solve_s.p50", "items_per_s")}
    metrics["peak_rss_mb"] = peak_rss_mb()
    units = {name: unit for name, unit, _ in END_TO_END}
    report = [(name, value, units[name]) for name, value in metrics.items()]
    if "solve_s.p90" in scaled:
        report.append(("solve_s.p90", scaled["solve_s.p90"], "s"))
    report.append(("fail_ratio", failed / attempted, "ratio"))
    if result.stats.query_size_max:
        report.append(("query_size_max", result.stats.query_size_max, "gates+wires"))
    if "walk_steps_per_s" in scaled:
        report.append(("walk_steps_per_s", scaled["walk_steps_per_s"], "1/s"))
    print(f"# {workload.name} seed={seed} items={workload.items} rounds={rounds} "
          f"attempted={attempted} failed={failed}")
    print(f"# reference loop: median {statistics.median(reference) * 1e3:.4g} ms over {len(reference)} "
          f"samples, {REFERENCE_S * 1e3:.4g} ms on the reference host; times scaled by {scale:.4f}")
    for name, value, unit in report:
        line = f"{name} = {value:.6g} {unit}"
        if name in raw:
            line += f" (as measured {raw[name]:.6g})"
        if name.startswith("solve_s"):
            line += f" (n={len(latencies)})"
        print(line)
    return attempted, failed, metrics


def traced_run(workload, seed: int):
    """Run a fixed number of items, each once untraced and then once traced
    on freshly made inputs; alternating the two keeps drift in machine speed
    out of the overhead figures."""
    lib, items, _ = set_up(workload, seed, workload.traced_items)
    fresh = [make_item(lib, workload, seed, i) for i in range(workload.traced_items)]
    for item in fresh:
        workload.expect(lib, item)
    plain, traced = Pass(), Pass()
    tracer = tracing.Tracer(lib)
    for index, (item, again) in enumerate(zip(items, fresh)):
        run_one(lib, workload, item, index, plain)
        with tracer:
            run_one(lib, workload, again, index, traced, tracer)
    tracer.write(TRACE_DIR / f"{workload.name}-seed{seed}.spans.jsonl.gz")

    calls, self_s = tracing.summarize(tracer.spans)
    stats = traced.stats
    run_dsr_calls = calls.get("dsr.run_dsr", 0)
    plain_p50, traced_p50 = statistics.median(plain.durations), statistics.median(traced.durations)
    plain_rate = len(plain.durations) / sum(plain.durations)
    traced_rate = len(traced.durations) / sum(traced.durations)
    derived = {
        "dsr.query.depth_max": stats.query_depth_max,
        "dsr.query.size_sum": stats.query_size_sum,
        "dsr.query_size_max": stats.query_size_max,
        "dsr.lift_ratio": 1 - tracer.counts["dsr.fallback_walks"] / run_dsr_calls if run_dsr_calls else 0,
        "dsr2pls.state_bits": stats.state_bits,
        "trace.items": len(traced.durations),
        "trace.spans": len(tracer.spans),
        "trace.untraced.solve_s.p50": plain_p50,
        "trace.traced.solve_s.p50": traced_p50,
        "trace.overhead.solve_s.p50": traced_p50 / plain_p50 - 1,
        "trace.untraced.items_per_s": plain_rate,
        "trace.traced.items_per_s": traced_rate,
        "trace.overhead.items_per_s": plain_rate / traced_rate - 1,
    }
    metrics = {}
    for name, _, _ in tracing.PER_LAYER:
        if name in derived:
            metrics[name] = derived[name]
        elif name in tracer.counts:
            metrics[name] = tracer.counts[name]
        else:
            span, _, field = name.rpartition(".")
            metrics[name] = calls.get(span, 0) if field == "calls" else self_s.get(span, 0.0)
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    print(f"# {workload.name} seed={seed} traced items={len(traced.durations)} spans={len(tracer.spans)}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    attempted = len(plain.durations) + len(traced.durations)
    return attempted, plain.failed + traced.failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    sys.path.insert(0, str(SRC))
    try:
        if args.trace:
            attempted, failed, metrics = traced_run(workload, args.seed)
            declared = tracing.PER_LAYER
        else:
            attempted, failed, metrics = untraced_run(workload, args.seed, args.seconds)
            declared = END_TO_END
    except ImportError as exc:
        print(f"error: cannot load tfnpkit from {SRC}: {exc}", file=sys.stderr)
        return 2
    units = {name: unit for name, unit, _ in declared}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
