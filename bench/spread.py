"""Run the benchmark over several seeds and report each end-to-end metric's
median and run-to-run spread.

    python3 bench/spread.py --workload sod-longpath --seeds 1-10
    python3 bench/spread.py --workload all --seeds 1-10 --record bench/baseline.json

The spread is the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median; a metric
is steady when its spread is below a third of its bound in
``BENCHMARK.json``.  Runs are made one after another, each in its own
process.  ``--record`` writes the medians, quartiles and sample counts to
a baseline file, together with one traced run per workload on the first
seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = map(int, text.split("-"))
        return list(range(low, high + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    argv = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed} reported failures: {result}")
    result["wall_s"] = wall
    return result


def commit() -> str | None:
    """The checked-out commit, whose ``src/`` the runs measured."""
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def summarize(workload: str, results: list[dict]) -> dict:
    summary = {}
    for metric in SPEC["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[metric["name"]] = {
            "unit": metric["unit"],
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "bound": metric["bound"],
            "runs": len(values),
        }
    summary["attempted_per_run_median"] = statistics.median(r["attempted"] for r in results)
    summary["wall_s_per_run_max"] = max(r["wall_s"] for r in results)
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--record", type=Path, default=None)
    args = parser.parse_args()
    names = [w["name"] for w in SPEC["workloads"]] if args.workload == "all" else [args.workload]
    summaries = {}
    steady = True
    for name in names:
        results = []
        for seed in seeds(args.seeds):
            results.append(run(name, seed, args.seconds))
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in results[-1]["metrics"].items())
            print(f"  seed {seed}: {values} wall={results[-1]['wall_s']:.1f}s", flush=True)
        summaries[name] = summary = summarize(name, results)
        print(f"{name}: {len(results)} runs, median {summary['attempted_per_run_median']} items attempted per run")
        for metric, row in summary.items():
            if not isinstance(row, dict):
                continue
            ok = row["spread"] < row["bound"] / 3
            steady = steady and ok
            verdict = "steady" if ok else "within bound" if row["spread"] <= row["bound"] else "OVER BOUND"
            print(f"  {metric:12} median {row['median']:.6g} {row['unit']:4} "
                  f"spread {row['spread']:.4f} (bound {row['bound']}) {verdict}")
    if args.record:
        first = seeds(args.seeds)[0]
        for name in names:
            traced = run(name, first, args.seconds, trace=1)
            summaries[name]["traced_seed"] = first
            summaries[name]["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record = {
            "commit": commit(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seconds": args.seconds,
            "seeds": seeds(args.seeds),
            "workloads": summaries,
        }
        args.record.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
