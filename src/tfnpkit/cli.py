"""Command-line entry point.

Exit codes: 0 success, 1 verification failure, 2 contract or monitor
violation or malformed instance, 3 usage error (including unreadable or
unparseable inputs and requests over a size bound).  Every refusal is
raised where it is found, and :func:`main` maps it to its code.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys

from . import svl
from .bits import check_bits
from .dsr import MODES, QueryTrace, monitored, run_dsr, self_oracle
from .dsr2pls import compile_pls
from .circuit import pad_with_dead_gates
from .errors import (
    MalformedInstanceError,
    MonitorViolation,
    NetlistError,
    OracleContractError,
    PromiseViolation,
    PullbackContractError,
    SizingError,
    SolveBoundError,
    TfnpError,
)
from .fixtures import HalvingIterProgram, RecursiveCombineProblem
from .numbertheory import all_factors, all_factors_via_factor, factor, factor_via_all_factors
from .problems import (
    KIND_EOL,
    KIND_ITER,
    KIND_ITER_WS,
    KIND_SOD,
    KIND_SOD_WS,
    IterInstance,
    SodInstance,
    emit_instance,
    kind_of,
    parse_instance,
    random_instance,
    verify_solution,
)
from .reductions import add_source, drop_source, iter_to_sod, sod_to_iter
from .solvers import solve_exhaustive, solve_path

USAGE_ERROR = 3
CONTRACT_ERROR = 2
VERIFY_FAILURE = 1

_KINDS = (KIND_ITER, KIND_ITER_WS, KIND_SOD, KIND_SOD_WS, KIND_EOL)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _load_instance(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    try:
        return parse_instance(text)
    except NetlistError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _fixture_program(selector: str, x: str):
    if selector == "fixture:recursive-combine":
        return RecursiveCombineProblem()
    if selector.startswith("selfhost:"):
        inst = _load_instance(selector[len("selfhost:") :])
        if kind_of(inst) != KIND_ITER_WS:
            raise ValueError("selfhost programs need an iter-with-source instance")
        if len(x) != inst.n:
            raise ValueError(f"--x has {len(x)} bits but the selfhost instance has {inst.n}")
        if inst.step(x) <= x:
            raise MalformedInstanceError(f"the selfhost instance does not ascend from --x {x}")
        return HalvingIterProgram(inst)
    raise ValueError(f"unknown problem selector {selector!r}")


def _cmd_gen(args) -> int:
    if args.m is not None and args.kind not in (KIND_SOD, KIND_SOD_WS):
        raise ValueError(f"--m is the valuation width, and {args.kind} has no valuation")
    rng = random.Random(args.seed)
    inst = random_instance(args.kind, args.n, rng, m=args.m)
    sys.stdout.write(emit_instance(inst))
    return 0


def _cmd_verify(args) -> int:
    inst = _load_instance(args.file)
    ok = verify_solution(inst, args.candidate)
    print("true" if ok else "false")
    return 0 if ok else VERIFY_FAILURE


def _cmd_solve(args) -> int:
    inst = _load_instance(args.file)
    print(solve_exhaustive(inst) if args.exhaustive else solve_path(inst))
    return 0


_REDUCTIONS = {
    (KIND_ITER, KIND_SOD): iter_to_sod,
    (KIND_SOD, KIND_ITER_WS): sod_to_iter,
    (KIND_ITER, KIND_ITER_WS): add_source,
    (KIND_SOD, KIND_SOD_WS): add_source,
    (KIND_ITER_WS, KIND_ITER): drop_source,
    (KIND_SOD_WS, KIND_SOD): drop_source,
}


def _cmd_reduce(args) -> int:
    inst = _load_instance(args.file)
    fn = _REDUCTIONS.get((kind_of(inst), args.to))
    if fn is None:
        raise ValueError(f"no reduction from {kind_of(inst)} to {args.to}")
    result = fn(inst)
    sys.stdout.write(emit_instance(result.target))
    try:
        witness = solve_exhaustive(result.target, bound=14)
        pulled = result.pullback(witness)
        print(f"# pullback: target solution {witness} -> source solution {pulled}"
              f" verified={verify_solution(inst, pulled)}")
    except TfnpError as exc:
        print(f"# pullback transcript unavailable: {exc}")
    return 0


def _inflate_instance(inst, count: int):
    if isinstance(inst, SodInstance):
        return SodInstance.from_pair(pad_with_dead_gates(inst.pair, count), inst.source)
    return IterInstance(pad_with_dead_gates(inst.succ, count), inst.source)


def _dsr_oracle(args, trace: QueryTrace):
    monitor = monitored(self_oracle(), args.mode, c=args.c, trace=trace)
    if not args.inflate:
        return monitor
    # deeper queries re-enter through the padding, not the bare monitor
    inflating = lambda inst, parent=None: monitor(_inflate_instance(inst, args.inflate), parent, entry=inflating)
    return inflating


def _cmd_dsr_run(args) -> int:
    inst = _load_instance(args.file)
    trace = QueryTrace()
    oracle = _dsr_oracle(args, trace)
    answer = run_dsr(inst, oracle)
    print(answer)
    if args.trace:
        for rec in trace.records:
            parent = rec.parent_dims or ("-", "-", "-")
            print(
                f"# depth={rec.depth} query inputs={rec.query_dims[0]}"
                f" outputs={rec.query_dims[1]} size={rec.query_dims[2]}"
                f" parent_size={parent[2]} answer={rec.answer}"
            )
    return 0


def _cmd_compile_pls(args) -> int:
    prog = _fixture_program(args.problem, args.x)
    compiled = compile_pls(prog, args.x)
    print(f"state_bits={compiled.machine.width()}")
    print(f"path_length={compiled.path_length}")
    print(f"source={compiled.instance.source}")
    for flag in compiled.sizing_flags:
        print(f"# sizing: {flag}")
    return 0


def _cmd_walk(args) -> int:
    prog = _fixture_program(args.problem, args.x)
    compiled = compile_pls(prog, args.x)
    machine = compiled.machine
    for step, state in enumerate(machine.walk(args.x, limit=args.max_steps)):
        pos = compiled.instance.valuation(state)
        profile = ",".join(str(machine.occupancy(state, depth)) for depth in range(1, machine.n))
        print(f"step={step} position={pos} occupancy=({profile})")
    answer = compiled.extract(state)
    print(f"answer={answer}")
    return 0


def _cmd_svl_check(args) -> int:
    prog = _fixture_program(args.problem, args.x)
    inst = svl.compile_svl(prog, args.x)
    report = svl.check_promise(inst, budget=args.budget)
    status = "partial" if report.partial else "complete"
    print(f"checked={report.checked}/{report.target} ({status}) ok={report.ok}")
    for violation in report.violations:
        print(f"# violation: {violation}")
    return 0 if report.ok else VERIFY_FAILURE


def _cmd_factor(args) -> int:
    if args.via_oracle:
        if args.all:
            answer: object = all_factors_via_factor(args.n, factor)
        else:
            answer = factor_via_all_factors(args.n, all_factors)
    else:
        answer = all_factors(args.n) if args.all else factor(args.n)
    if isinstance(answer, list):
        print(",".join(map(str, answer)))
    else:
        print(answer)
    return 0


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"negative count {value}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="tfnpkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a random well-formed instance file")
    p.add_argument("--kind", required=True, choices=_KINDS)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--m", type=int, default=None, help="valuation bits (sink-of-dag kinds)")
    p.add_argument("--seed", required=True, type=int)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("verify", help="check a candidate solution")
    p.add_argument("file")
    p.add_argument("--candidate", required=True, type=check_bits)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("solve", help="solve by path following or exhaustive scan")
    p.add_argument("file")
    p.add_argument("--exhaustive", action="store_true")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("reduce", help="reduce to another problem kind")
    p.add_argument("file")
    p.add_argument("--to", required=True, choices=_KINDS)
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("dsr-run", help="run the downward self-reduction with a self-oracle")
    p.add_argument("file")
    p.add_argument("--mode", default="circuit-dsr-poly-blowup", choices=MODES)
    p.add_argument("--c", type=_count, default=2, help="blowup exponent")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--inflate", type=_count, default=0,
                   help="pad every query circuit with dead gates (monitor demo)")
    p.set_defaults(fn=_cmd_dsr_run)

    program = argparse.ArgumentParser(add_help=False)  # the query program the next three commands compile
    program.add_argument("--problem", required=True)
    program.add_argument("--x", required=True, type=check_bits)

    p = sub.add_parser("compile-pls", parents=[program], help="compile a query program into a state graph")
    p.set_defaults(fn=_cmd_compile_pls)

    p = sub.add_parser("walk", parents=[program], help="walk a compiled state graph to its answer")
    p.add_argument("--max-steps", type=_count, default=None)
    p.set_defaults(fn=_cmd_walk)

    p = sub.add_parser("svl-check", parents=[program], help="desk-scale verifiable-line promise check")
    p.add_argument("--budget", type=_count, default=None)
    p.set_defaults(fn=_cmd_svl_check)

    p = sub.add_parser("factor", help="factor an integer")
    p.add_argument("n", type=int)
    p.add_argument("--all", action="store_true")
    p.add_argument("--via-oracle", action="store_true")
    p.set_defaults(fn=_cmd_factor)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser, built at the first call of :func:`main` in a process and
    kept: a build costs about fifty parses, and a parse keeps no state in
    it (each returns a new namespace)."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.fn(args)
    except (MonitorViolation, OracleContractError, PullbackContractError,
            PromiseViolation, SizingError) as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return CONTRACT_ERROR
    except (ValueError, SolveBoundError) as exc:  # bad arguments, shape errors, over-bound requests
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except TfnpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONTRACT_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
