"""Command-line entry point: parse a graph, solve, emit one run record.

Exit codes: 0 success, 1 parse/usage errors or an unreadable input or
unwritable output file, 2 exact-mode timeout without an optimality proof (the
best solution is still written), 3 square-graph edge cap exceeded.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .graphio import ParseError, parse_edgelist, parse_metis, write_solution
from .pipeline import (
    MemoryCapError,
    SolverConfig,
    SolverMode,
    kernel_ratios,
    solve_m2s,
    square_kernel,
)
from .reductions import KernelReport, ReductionVariant, reduce
from .transform import DEFAULT_EDGE_CAP

CSV_HEADER = (
    "instance,variant,mode,seed,size,t_find_ms,t_prove_ms,"
    "n_kernel,m_kernel,n_sq,m_sq,offset,status"
)
KERNEL_CSV_HEADER = "instance,variant,n,m,n_kernel,m_kernel,m2_kernel,n_sq,m_sq,offset,n_ratio,m_ratio"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit code 1 instead of argparse's 2
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="twopack", description="Maximum 2-packing set solver")
    parser.add_argument("--input", required=True, help="path to the graph file")
    parser.add_argument("--format", choices=["metis", "edgelist"], default="metis")
    parser.add_argument(
        "--edgelist-base", type=int, choices=[0, 1], default=0,
        help="vertex ID base of edge-list input (default 0)",
    )
    parser.add_argument(
        "--reductions", choices=["2pack", "core", "elaborated"], default="elaborated"
    )
    parser.add_argument("--solver", choices=["exact", "heuristic"], default="exact")
    parser.add_argument("--time-limit", type=float, default=600.0, metavar="SECONDS")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--edge-cap", type=int, default=DEFAULT_EDGE_CAP)
    parser.add_argument("--stats", choices=["table", "csv"], default="table")
    parser.add_argument("--verify", action="store_true", help="re-check the solution")
    # --kernel-only writes no solution, so --output with it is a usage error.
    result = parser.add_mutually_exclusive_group()
    result.add_argument("--output", help="write the solution, one vertex ID per line")
    result.add_argument(
        "--kernel-only", action="store_true", help="emit kernel statistics and stop"
    )
    return parser


def _emit(args, header: str, values: list) -> None:
    cells = [_cell(v) for v in values]
    if args.stats == "csv":
        print(header)
        print(",".join(cells))
    else:
        for key, cell in zip(header.split(","), cells):
            print(f"{key:<11} {cell}")


def _emit_run(
    args, name: str, size: int, report: KernelReport, status: str,
    t_find: float | None = None, t_prove: float | None = None,
) -> None:
    _emit(args, CSV_HEADER, [
        name, args.reductions, args.solver, args.seed, size,
        None if t_find is None else t_find * 1000.0,
        None if t_prove is None else t_prove * 1000.0,
        report.n_kernel, report.m_kernel, report.n_square, report.m_square,
        report.offset, status,
    ])


def _write_output(args, vertices) -> bool:
    """Write the solution to ``--output``, if given; False if that failed."""
    if args.output:
        one_based = args.format == "metis" or args.edgelist_base == 1
        try:
            Path(args.output).write_text(write_solution(vertices, one_based=one_based))
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return False
    return True


def _run_kernel_only(args, cfg: SolverConfig, name: str, graph) -> int:
    kernel = reduce(graph, cfg.variant)
    try:
        square_kernel(kernel, cfg.edge_cap)
    except MemoryCapError:
        print("error: square graph exceeds the edge cap", file=sys.stderr)
        return 3
    r = kernel.report
    # Ratios print as rounded Python floats (``100.0``, ``491.73``).
    ratios = [str(round(x, 2)) for x in kernel_ratios(graph, r)]
    _emit(args, KERNEL_CSV_HEADER, [
        name, args.reductions, graph.n, graph.m, r.n_kernel, r.m_kernel,
        r.m2_kernel, r.n_square, r.m_square, r.offset, *ratios,
    ])
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    try:
        cfg = SolverConfig(
            variant=ReductionVariant(args.reductions),
            mode=SolverMode(args.solver),
            time_limit=args.time_limit,
            seed=args.seed,
            edge_cap=args.edge_cap,
            verify=args.verify,
        )
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1

    name = Path(args.input).stem
    try:
        text = Path(args.input).read_text()
        if args.format == "metis":
            graph = parse_metis(text)
        else:
            graph = parse_edgelist(text, one_based=args.edgelist_base == 1)
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 1
    except (ParseError, UnicodeDecodeError) as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return 1

    if args.kernel_only:
        return _run_kernel_only(args, cfg, name, graph)

    try:
        sol = solve_m2s(graph, cfg)
    except MemoryCapError as exc:
        _emit_run(args, name, len(exc.partial), exc.kernel, "memcap")
        return 3 if _write_output(args, exc.partial) else 1

    timed_out = cfg.mode is SolverMode.EXACT and not sol.proven_optimal
    status = "timeout" if timed_out else "ok"
    _emit_run(args, name, sol.size, sol.kernel, status, sol.time_to_best, sol.time_to_proof)
    if not _write_output(args, sol.vertices):
        return 1
    return 2 if timed_out else 0


def run() -> None:
    raise SystemExit(main())
