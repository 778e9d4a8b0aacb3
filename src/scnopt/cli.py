"""Command-line harness for running optimizations and generating instances.

``scnopt run`` evolves a Pareto front for one instance file and writes three
artifacts into the output directory: ``front.csv`` (the front), ``report.json``
(config echo plus per-generation progress), and ``front.dat`` (two-column
plot data).  ``scnopt generate`` writes a preset instance file, making any
missing parent directories.  Outputs are byte-identical across runs with
identical flags; wall time is printed to the console only, never persisted.

Before the search, ``scnopt run`` sets glibc's malloc to keep freed memory in
the heap (``mallopt``; nothing is set under another C library), so that the
numpy temporaries of paper-scale generations are not faulted in afresh each
time.  The library functions leave the allocator alone.

Exit codes: 0 success, 1 usage error, 2 validation error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .instances import (
    PRESETS,
    ValidationError,
    _read_instance,
    front_rows,
    generate_preset,
    save_front,
    save_instance,
)
from .model import SupplyChainProblem
from .nsga2 import PM_ETA, SBX_ETA, EngineConfig, EvolutionResult, evolve

__all__ = ["main", "cmd_run", "cmd_generate", "RunReport", "build_parser", "resolve_engine_config"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

PAPER_PARAMS = {
    "population_size": 1290,
    "generations": 500,
    "crossover_prob": 0.6,
    "mutation_prob": 0.01,
}

# By default glibc's malloc maps each block of 128 KiB or more on its own
# (raising that threshold to the largest such block freed so far) and gives the
# top of the heap back to the OS once twice that threshold lies free there.  At
# the paper's population 1290 each generation's numpy temporaries of 0.6-2 MB
# are then faulted in afresh, page by page: about 1 400 minor faults per
# variation call and 1 200 per evaluation call.  Fixed thresholds well above
# those sizes keep the freed blocks in the heap for the rest of the run.  Both
# are set because setting either one stops glibc's adjustment of the other:
# over 30 paper-scale generations either alone faulted 12 to 48 times as often
# as both.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 * 2**20
_TRIM_THRESHOLD_BYTES = 64 * 2**20


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage problems instead of exiting with code 2."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


@dataclass
class RunReport:
    """Everything a run produced: config echo, per-generation records, timing.

    ``records`` holds one entry for the initial population (generation 0) and
    one per generation after it, each with the archive size, the archive
    hypervolume against a fixed run-wide reference point, and the best value
    seen per objective.  ``wall_time_s`` is console-only; the persisted report
    must stay byte-identical across reruns.
    """

    config: dict
    records: list[dict]
    front_size: int
    front_path: str
    wall_time_s: float

    def to_json(self) -> str:
        payload = {
            "config": self.config,
            "records": self.records,
            "front": {"path": self.front_path, "size": self.front_size},
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def build_report(result: EvolutionResult, config_echo: dict, front_path: str,
                 front_size: int, wall_time_s: float) -> RunReport:
    """Assemble the run report, computing hypervolume against one fixed reference.

    The reference corner is the maximum of every record's ``worst_objectives``
    plus one, so the hypervolume sequence is comparable across generations
    (and non-decreasing, since the archive only improves).  Each volume is the
    box from the record's ``best_objectives`` to that corner minus its
    ``undominated_area``, as ``hypervolume_2d`` computes it from the points.
    A run with other than two objectives raises ``ValueError``.
    """
    m = result.objectives.shape[1]
    if m != 2:
        raise ValueError(f"build_report needs two objectives (total cost, delay), the run had {m}")
    worst = [rec.worst_objectives for rec in result.history if rec.worst_objectives is not None]
    r1, r2 = np.max(worst, axis=0) + 1.0 if worst else (None, None)
    records = []
    for rec in result.history:
        best = rec.best_objectives
        volume = 0.0 if best is None else float((r1 - best[0]) * (r2 - best[1]) - rec.undominated_area)
        records.append(
            {
                "generation": rec.generation,
                "evaluations": rec.evaluations,
                "archive_size": rec.archive_size,
                "hypervolume": volume,
                "best_total_cost": None if best is None else float(best[0]),
                "best_delay": None if best is None else float(best[1]),
            }
        )
    return RunReport(
        config=config_echo,
        records=records,
        front_size=front_size,
        front_path=front_path,
        wall_time_s=wall_time_s,
    )


def _write_plot_data(rows: list[tuple[float, float, float]], path: Path) -> None:
    """Two-column front data (total cost, delay quantity), gnuplot-ready."""
    lines = ["# total_cost delay_quantity"]
    for cost, delay, _days in rows:
        lines.append(f"{cost!r} {delay!r}")
    path.write_text("\n".join(lines) + "\n")


def resolve_engine_config(args: argparse.Namespace) -> EngineConfig:
    """Engine configuration for a ``run`` invocation.

    ``--paper-params`` overrides the four search parameters with the published
    set; the seed always comes from its own flag.
    """
    search = PAPER_PARAMS if args.paper_params else {name: getattr(args, name) for name in PAPER_PARAMS}
    return EngineConfig(**search, seed=args.seed)


def _keep_freed_memory() -> None:
    """Set glibc's malloc to keep freed memory in the heap; do nothing elsewhere.

    Called by ``cmd_run``, which owns its process, and not by ``evolve``, so
    that a host application's allocator is left as it set it.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no process handle (Windows takes no None), or no mallopt
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def cmd_run(args: argparse.Namespace) -> int:
    try:
        # one read: a pipe or FIFO gives its bytes once, and the report hashes the bytes parsed
        data, instance = _read_instance(args.instance)
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        config = resolve_engine_config(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION

    problem = SupplyChainProblem(instance, holding_on_backorder=args.holding_on_backorder)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)  # before the search, so an unusable --out fails at once

    # The instance is recorded by content, so runs of one file reached by two paths report alike.
    config_echo = {
        "instance_sha256": hashlib.sha256(data).hexdigest(),
        **asdict(config),
        "sbx_eta": SBX_ETA,
        "pm_eta": PM_ETA,
        "holding_on_backorder": args.holding_on_backorder,
        "paper_params": bool(args.paper_params),
    }

    _keep_freed_memory()
    started = time.perf_counter()
    result = evolve(problem, config)
    rows = front_rows(result.archive, instance)
    save_front(rows, out_dir / "front.csv")
    _write_plot_data(rows, out_dir / "front.dat")
    wall = time.perf_counter() - started

    report = build_report(result, config_echo, "front.csv", len(rows), wall)
    (out_dir / "report.json").write_text(report.to_json())

    echo = ", ".join(f"{k}={v}" for k, v in config_echo.items())
    print(f"run config: instance={args.instance}, {echo}")
    print(f"archive: {len(result.archive)} points, exported front: {len(rows)} rows")
    print(f"wrote {out_dir / 'front.csv'}, {out_dir / 'report.json'}, {out_dir / 'front.dat'}")
    print(f"wall time: {wall:.2f}s")
    low, high = rows[0][0], rows[-1][0]  # front rows ascend in cost
    if len(rows) < 3 or high - low < 1e-3 * low:
        print(
            f"warning: the exported front has collapsed to {len(rows)} row(s) with total cost {low:.0f} to "
            f"{high:.0f}: fewer than 3 rows, or costs within 0.1% of the lowest, show no cost/delay trade-off",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    try:
        instance = generate_preset(args.preset, seed=args.seed)
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        path = save_instance(instance, args.out)
    except (ValidationError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as err:
        print(f"error: cannot write {args.out}: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote {path} ({args.preset}, seed {args.seed})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="scnopt",
        description="Evolve cost/delay Pareto fronts for supply chain network designs.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="optimize one instance and export the front")
    run.add_argument("--instance", required=True, help="path to an instance JSON file")
    run.add_argument("--out", required=True, help="output directory for front/report/plot files")
    defaults = EngineConfig()
    run.add_argument("--pop-size", type=int, default=defaults.population_size, dest="population_size")
    run.add_argument("--generations", type=int, default=defaults.generations)
    run.add_argument("--crossover-prob", type=float, default=defaults.crossover_prob, dest="crossover_prob")
    run.add_argument("--mutation-prob", type=float, default=defaults.mutation_prob, dest="mutation_prob")
    run.add_argument("--seed", type=int, default=defaults.seed)
    published = ", ".join(f"{name}={value}" for name, value in PAPER_PARAMS.items())
    run.add_argument("--paper-params", action="store_true", dest="paper_params",
                     help=f"use the published parameter set: {published}")
    run.add_argument("--holding-on-backorder", action="store_true", dest="holding_on_backorder",
                     help="charge holding cost on backlog instead of on-hand stock")
    run.set_defaults(func=cmd_run)

    generate = subparsers.add_parser("generate", help="write a preset instance file")
    generate.add_argument("--preset", required=True, choices=["tiny", *sorted(PRESETS)])
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True, help="path of the instance JSON to write")
    generate.set_defaults(func=cmd_generate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except Exception as err:  # noqa: BLE001 - the CLI boundary maps everything to exit codes
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
