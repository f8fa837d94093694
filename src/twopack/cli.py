"""Command-line entry point: parse a graph, solve, emit one run record.

Exit codes: 0 success, 1 parse/usage errors, 2 exact-mode timeout without an
optimality proof (the best solution is still written), 3 square-graph edge
cap exceeded.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from .graphio import GraphFormat, InstanceFile, ParseError, write_solution
from .pipeline import (
    MemoryCapError,
    SolverConfig,
    SolverMode,
    Solution,
    solve_m2s,
)
from .reductions import ReductionVariant, reduce
from .transform import DEFAULT_EDGE_CAP, EdgeCapExceeded, square

CSV_HEADER = (
    "instance,variant,mode,seed,size,t_find_ms,t_prove_ms,"
    "n_kernel,m_kernel,n_sq,m_sq,offset,status"
)
KERNEL_CSV_HEADER = "instance,variant,n,m,n_kernel,m_kernel,m2_kernel,n_sq,m_sq,offset,n_ratio,m_ratio"


@dataclass
class RunRecord:
    instance: str
    variant: str
    mode: str
    seed: int
    size: int
    t_find_ms: float | None
    t_prove_ms: float | None
    n_kernel: int | None
    m_kernel: int | None
    n_sq: int | None
    m_sq: int | None
    offset: int
    status: str

    def csv_row(self) -> str:
        return ",".join(_cell(x) for x in (
            self.instance, self.variant, self.mode, self.seed, self.size,
            self.t_find_ms, self.t_prove_ms, self.n_kernel, self.m_kernel,
            self.n_sq, self.m_sq, self.offset, self.status,
        ))

    def table(self) -> str:
        rows = [
            ("instance", self.instance),
            ("variant", self.variant),
            ("mode", self.mode),
            ("seed", self.seed),
            ("size", self.size),
            ("t_find_ms", _cell(self.t_find_ms)),
            ("t_prove_ms", _cell(self.t_prove_ms)),
            ("n_kernel", _cell(self.n_kernel)),
            ("m_kernel", _cell(self.m_kernel)),
            ("n_sq", _cell(self.n_sq)),
            ("m_sq", _cell(self.m_sq)),
            ("offset", self.offset),
            ("status", self.status),
        ]
        return "\n".join(f"{k:<11} {v}" for k, v in rows)


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
    parser.add_argument("--output", help="write the solution, one vertex ID per line")
    parser.add_argument("--stats", choices=["table", "csv"], default="table")
    parser.add_argument("--verify", action="store_true", help="re-check the solution")
    parser.add_argument(
        "--kernel-only", action="store_true", help="emit kernel statistics and stop"
    )
    return parser


def _emit(args, header: str, csv_row: str, table: str) -> None:
    if args.stats == "csv":
        print(header)
        print(csv_row)
    else:
        print(table)


def _solution_base(args) -> bool:
    return args.format == "metis" or args.edgelist_base == 1


def _write_output(args, vertices) -> None:
    if args.output:
        Path(args.output).write_text(
            write_solution(vertices, one_based=_solution_base(args))
        )


def _emit_solution(args, name: str, sol: Solution, status: str) -> None:
    record = RunRecord(
        instance=name,
        variant=args.reductions,
        mode=args.solver,
        seed=args.seed,
        size=sol.size,
        t_find_ms=sol.time_to_best * 1000.0,
        t_prove_ms=None if sol.time_to_proof is None else sol.time_to_proof * 1000.0,
        n_kernel=sol.kernel.n_kernel,
        m_kernel=sol.kernel.m_kernel,
        n_sq=sol.kernel.n_square,
        m_sq=sol.kernel.m_square,
        offset=sol.kernel.offset,
        status=status,
    )
    _emit(args, CSV_HEADER, record.csv_row(), record.table())


def _run_kernel_only(args, cfg: SolverConfig, name: str, graph) -> int:
    kernel = reduce(graph, cfg.variant)
    try:
        if kernel.graph.active_count == 0:
            n_sq = m_sq = 0
        else:
            sq = square(kernel.graph, edge_cap=cfg.edge_cap)
            n_sq, m_sq = sq.n, sq.m
    except EdgeCapExceeded:
        print("error: square graph exceeds the edge cap", file=sys.stderr)
        return 3
    n_ratio = round(100.0 * n_sq / graph.n, 2) if graph.n else 0.0
    m_ratio = round(100.0 * m_sq / graph.m, 2) if graph.m else 0.0
    values = [
        name, args.reductions, graph.n, graph.m, kernel.stats.n, kernel.stats.m,
        kernel.stats.m2, n_sq, m_sq, kernel.log.offset, n_ratio, m_ratio,
    ]
    if args.stats == "csv":
        print(KERNEL_CSV_HEADER)
        print(",".join(str(v) for v in values))
    else:
        for key, value in zip(KERNEL_CSV_HEADER.split(","), values):
            print(f"{key:<11} {value}")
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

    instance = InstanceFile(
        path=Path(args.input),
        format=GraphFormat(args.format),
        one_based=args.edgelist_base == 1,
    )
    name = Path(args.input).stem
    try:
        graph = instance.load()
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return 1

    if args.kernel_only:
        return _run_kernel_only(args, cfg, name, graph)

    try:
        sol = solve_m2s(graph, cfg)
    except MemoryCapError as exc:
        record = RunRecord(
            instance=name,
            variant=args.reductions,
            mode=args.solver,
            seed=args.seed,
            size=len(exc.partial),
            t_find_ms=None,
            t_prove_ms=None,
            n_kernel=exc.kernel.n_kernel,
            m_kernel=exc.kernel.m_kernel,
            n_sq=None,
            m_sq=None,
            offset=exc.kernel.offset,
            status="memcap",
        )
        _emit(args, CSV_HEADER, record.csv_row(), record.table())
        _write_output(args, exc.partial)
        return 3

    timed_out = cfg.mode is SolverMode.EXACT and not sol.proven_optimal
    status = "timeout" if timed_out else "ok"
    _emit_solution(args, name, sol, status)
    _write_output(args, sol.vertices)
    return 2 if timed_out else 0


def run() -> None:
    raise SystemExit(main())
