"""scnopt benchmark: run one workload, check its outputs, print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload desk --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Each run of the workload happens in a fresh interpreter (perfbench/worker.py),
one at a time, single-threaded, until ``--seconds`` is used up; metrics are
medians over those runs.  With ``--trace 0`` the last line holds the
end-to-end metrics; with ``--trace 1`` the first run is untraced and the rest
are traced, and the last line holds the per-layer metrics.  ``--workload all``
runs every workload untraced and then traced, one after the other.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import EXACT_COUNTS, PER_LAYER, WORKLOADS, check_outputs, front_hv, same_bytes

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
RUN_TIMEOUT_S = 150
MIN_RUNS = 2  # two runs of one seed are needed to check byte identity (traced: one untraced, one traced)
# Typical mean times of worker.calibration_loop and worker.calibration_pairs
# on the host the bounds were set on.  An untraced run's times are divided by
# how much slower than this the kernels ran during it (weighted by the
# workload's pairs_share), which takes out the host's speed drift.
REFERENCE_LOOP_MS = 0.2
REFERENCE_PAIRS_MS = 0.5
# Every seed runs on the same instance of a preset, so the spread of the
# metrics over seeds reflects the program and the host, not how far apart the
# fronts of different instances lie (front_hv moved from 0.17 to 0.28 over
# five sbc-scale instance seeds).  The seed drives the engine.
INSTANCE_SEED = 0

END_TO_END = {
    "run_s": "s",
    "cpu_s": "s",
    "evals_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "front_hv": "hv_norm",
}

# What each untraced run reports as measured, before scaling.
MEASURED = ("run_s", "cpu_s", "setup_s", "calibration_loop_ms", "calibration_pairs_ms")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def child_env() -> dict[str, str]:
    """Environment of every child: scnopt from this checkout's src/, BLAS single-threaded."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def environment() -> dict:
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": 1,
    }


def code_fingerprint() -> str:
    """Hash of the program and benchmark sources, keying the exact-count ledger."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def prepare(workload, seed: int, work: Path, env: dict) -> Path | None:
    """Write the workload's instance file with ``scnopt generate``; None for the engine-only run."""
    if workload.preset is None:
        return None
    instance = work / "instance.json"
    subprocess.run(
        [sys.executable, "-m", "scnopt", "generate", "--preset", workload.preset,
         "--seed", str(INSTANCE_SEED), "--out", str(instance.relative_to(ROOT))],
        cwd=ROOT, env=env, check=True, capture_output=True, timeout=RUN_TIMEOUT_S,
    )
    return instance


def run_once(workload, seed: int, instance: Path | None, rep_dir: Path, trace: bool, env: dict) -> dict:
    """One run in a fresh interpreter; returns the worker's record plus check results."""
    command = [
        sys.executable, str(BENCH_DIR / "worker.py"), workload.name, str(seed),
        "-" if instance is None else str(instance.relative_to(ROOT)),
        str(rep_dir.relative_to(ROOT)), "1" if trace else "0", str(time.monotonic_ns()),
    ]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped the child
        return {"problems": [f"run did not finish within {RUN_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        record = {}
    problems = []
    if proc.returncode != 0 or record.get("rc") != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        problems.append(f"exit code {proc.returncode}/{record.get('rc')}: {' | '.join(tail)}")
    else:
        src = Path(record["scnopt_file"]).resolve()
        if ROOT / "src" not in src.parents:
            problems.append(f"imported scnopt from {src}, not from this checkout")
        problems += check_outputs(rep_dir)
        problems += record.get("oracle_problems", [])
    record["problems"] = problems
    return record


def measure(workload, seed: int, seconds: float, trace: bool) -> tuple[list[dict], Path | None, Path]:
    """Run the workload again and again in fresh interpreters until ``seconds`` are used."""
    env = child_env()
    work = OUT_DIR / f"{workload.name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    instance = prepare(workload, seed, work, env)
    runs: list[dict] = []
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        k = len(runs)
        began = time.perf_counter()
        record = run_once(workload, seed, instance, work / f"run{k}", trace and k > 0, env)
        durations.append(time.perf_counter() - began)
        record["traced"] = trace and k > 0
        if runs and not record["problems"] and not runs[0]["problems"]:
            differing = same_bytes(work / "run0", work / f"run{k}")
            record["problems"] += [f"{name} differs from run 0 of the same seed" for name in differing]
        runs.append(record)
        label = "traced" if record["traced"] else "untraced"
        measured = ", ".join(f"{name} {record[name]:.4f}" for name in MEASURED if record.get(name) is not None)
        print(f"run {k} ({label}) as measured: {measured}"
              + "".join(f"\n  FAILED: {p}" for p in record["problems"]), flush=True)
        # Start another run only while it is expected to end within the budget.
        elapsed = time.perf_counter() - start
        if len(runs) >= MIN_RUNS and elapsed + statistics.median(durations) > seconds:
            break
    return runs, instance, work


def slowness(workload, record: dict) -> float:
    """How much slower than the reference the host ran during one run (1.0: as fast)."""
    return ((1.0 - workload.pairs_share) * record["calibration_loop_ms"] / REFERENCE_LOOP_MS
            + workload.pairs_share * record["calibration_pairs_ms"] / REFERENCE_PAIRS_MS)


def end_to_end(workload, runs: list[dict], instance: Path | None, work: Path) -> dict[str, float]:
    """End-to-end metrics: medians over the good runs, times scaled to the reference host speed."""
    good = [r for r in runs if not r["problems"]]

    def reference_s(name: str) -> float:
        return statistics.median(r[name] / slowness(workload, r) for r in good)

    run_s = reference_s("run_s")
    first = next(k for k, r in enumerate(runs) if not r["problems"])
    return {
        "run_s": run_s,
        "cpu_s": reference_s("cpu_s"),
        "evals_per_s": workload.evaluations / run_s,
        "setup_s": reference_s("setup_s"),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
        "front_hv": front_hv(workload, work / f"run{first}", instance),
    }


def per_layer(runs: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Median of every layer value over the good traced runs, and the exact counts that varied.

    trace.overhead_ratio is traced over untraced run_s, 0 when the untraced run failed.
    """
    untraced = [r["run_s"] for r in runs if not r["traced"] and not r["problems"]]
    traced = [r for r in runs if r["traced"] and not r["problems"]]
    names = sorted({name for r in traced for name in r["layers"]})
    layers = {name: statistics.median(r["layers"].get(name, 0.0) for r in traced) for name in names}
    traced_run_s = statistics.median(r["run_s"] for r in traced)
    layers["trace.overhead_ratio"] = traced_run_s / statistics.median(untraced) if untraced else 0.0
    layers["run_s"] = traced_run_s
    varied = [name for name in EXACT_COUNTS if len({r["layers"][name] for r in traced}) > 1]
    return layers, varied


def ledger_mismatches(workload, seed: int, counts: dict[str, float]) -> list[str]:
    """Compare exact counts with earlier traced runs of this code, workload and seed."""
    path = OUT_DIR / "counts.json"
    ledger = json.loads(path.read_text()) if path.is_file() else {}
    key = f"{workload.name}|seed={seed}|code={code_fingerprint()}"
    earlier = ledger.setdefault(key, counts)
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    return [f"{name}: {counts[name]} here, {earlier[name]} in an earlier run set"
            for name in EXACT_COUNTS if earlier.get(name) != counts[name]]


SHARES = {
    "evaluation": ("model.evaluate.busy_s", "zdt1.evaluate.busy_s"),
    "ranking (sort, crowding, selection and re-sort glue)": (
        "nsga2.fast_nondominated_sort.busy_s", "nsga2.crowding_distance.busy_s",
        "nsga2.assign_ranks_and_crowding.self_s", "nsga2.environmental_select.self_s"),
    "variation (tournament, sbx, mutation)": (
        "nsga2.binary_tournament_select.busy_s", "nsga2.sbx_crossover.busy_s", "nsga2.polynomial_mutation.busy_s"),
    "archive upkeep": ("nsga2.update_archive.busy_s",),
    "evolve self (individuals, validation, snapshots)": ("nsga2.evolve.self_s",),
    "export and report": ("instances.front_rows.busy_s", "instances.save_front.self_s", "cli.build_report.busy_s"),
    "unattributed": ("trace.unattributed_s",),
}


def print_shares(layers: dict[str, float], run_s: float) -> None:
    """Disjoint groups of layer time as shares of the traced run_s."""
    for label, names in SHARES.items():
        busy = sum(layers.get(name, 0.0) for name in names)
        print(f"  share of run_s, {label}: {100 * busy / run_s:.1f} %")


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    trace = args.trace == 1
    print("env: " + json.dumps(environment()), flush=True)
    runs, instance, work = measure(workload, args.seed, args.seconds, trace)
    failed = sum(1 for r in runs if r["problems"])
    if all(r["problems"] for r in runs if r["traced"] == trace):
        print(f"error: every {'traced ' if trace else ''}run of {workload.name} failed", file=sys.stderr)
        return 1
    correct = failed == 0
    samples = len(runs) - failed
    if not trace:
        metrics = end_to_end(workload, runs, instance, work)
        units = END_TO_END
        good = [r for r in runs if not r["problems"]]
        print(f"{workload.name}, seed {args.seed}: medians over {samples} runs; as measured: "
              + ", ".join(f"{name} {statistics.median(r[name] for r in good):.4f}" for name in MEASURED))
        print(f"times below are scaled to the reference host speed (calibration_loop_ms {REFERENCE_LOOP_MS}, "
              f"calibration_pairs_ms {REFERENCE_PAIRS_MS}, pairs_share {workload.pairs_share}):")
    else:
        layers, varied = per_layer(runs)
        metrics = {name: layers[name] for name in PER_LAYER}
        traced_runs = [r for r in runs if r["traced"] and not r["problems"]]
        units = {name: layer_unit(name) for name in PER_LAYER}
        problems = [f"exact count {name} varied between traced runs" for name in varied]
        problems += ledger_mismatches(workload, args.seed, {n: metrics[n] for n in EXACT_COUNTS})
        for problem in problems:
            print(f"FAILED: {problem}")
        correct = correct and not problems
        checked = sum(r.get("oracle_checked", 0) for r in traced_runs)
        print(f"{workload.name}, seed {args.seed}: medians over {len(traced_runs)} traced runs; "
              f"oracle re-evaluated {checked} archive members")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  fail_ratio = {failed / len(runs):.6g} ({failed} of {len(runs)} runs)")
    if trace:
        print_shares(layers, layers["run_s"])
    result = {
        "correct": correct,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def layer_unit(name: str) -> str:
    kind = name.rpartition(".")[2]
    if kind.endswith("_s"):
        return "s"
    if kind.startswith("ms_"):
        return "ms"
    if kind.startswith("us_"):
        return "us"
    if kind.endswith("ratio"):
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Every workload untraced, then traced, each in its own process, one at a time."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            print(f"=== {name} --trace {trace}", flush=True)
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, timeout=600,
            )
            status = status or proc.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "scnopt" / "__init__.py").is_file():
        print(f"error: no scnopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
