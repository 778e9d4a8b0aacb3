"""One run of one workload, in the fresh interpreter that run.py starts for it.

Usage (run.py builds this command line)::

    python3 perfbench/worker.py WORKLOAD SEED INSTANCE OUT_DIR TRACE SPAWN_NS

``SPAWN_NS`` is the monotonic clock, in nanoseconds, just before the parent
started this process, so set-up time includes interpreter start and imports.
``INSTANCE`` is ``-`` for the engine-only workload.  The last line printed is
one JSON object with the run's measurements.  An untraced run also times a
calibration kernels throughout the run (:class:`HostSpeed`).  With
``TRACE`` 1 the public functions of scnopt are wrapped by :mod:`spans`,
per-layer metrics are added, and every archive member is re-evaluated by a
scalar oracle.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scnopt.cli
import scnopt.model
import scnopt.nsga2

from spans import LayerStat, Tracer, layer_stats
from workloads import PER_LAYER, WORKLOADS, Zdt1Problem, engine_seed, zdt1_oracle

# Entry points whose own time is the glue around the layers, not a layer.
ENTRY_SPANS = {"cli.main", "cli.cmd_run"}

ORACLE_RTOL = 1e-9

# Share of an untraced run's time spent timing the calibration kernels, and the
# least time between two samples.
CALIBRATION_SHARE = 0.03
SAMPLE_INTERVAL_S = 0.05


def calibration_loop() -> float:
    """Fixed work like evaluation and variation: a Python loop over small numpy calls."""
    a = np.linspace(0.0, 1.0, 64)
    total = 0.0
    for i in range(40):
        total += float(np.maximum(a - 0.5, 0.0).sum()) + i
    return total


def calibration_pairs() -> float:
    """Fixed work like a large domination matrix: a pairwise comparison over 400 points."""
    b = np.linspace(0.0, 1.0, 400)
    total = 0.0
    for _ in range(2):
        total += float((b[:, None] <= b[None, :]).sum(axis=0)[0])
    return total


class HostSpeed:
    """Times the two calibration kernels every SAMPLE_INTERVAL_S or so, over the whole run.

    The host's speed drifts by a quarter or more within minutes, and each
    kernel slows down with it much as the same kind of work in the program
    does, so the kernels' mean times during a run measure how fast the host
    was while the run ran.  About CALIBRATION_SHARE of the time since the
    previous sample goes to each sample; that time is left out of the run's
    timings.
    """

    def __init__(self, start: float) -> None:
        self.last = start
        self.reps = 0
        self.loop_s = 0.0
        self.pairs_s = 0.0
        self.cpu_s = 0.0

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= SAMPLE_INTERVAL_S:
            self.sample()

    def sample(self) -> None:
        budget = CALIBRATION_SHARE * (time.perf_counter() - self.last)
        cpu = time.process_time()
        while budget > 0.0:
            t0 = time.perf_counter()
            calibration_loop()
            t1 = time.perf_counter()
            calibration_pairs()
            t2 = time.perf_counter()
            self.loop_s += t1 - t0
            self.pairs_s += t2 - t1
            self.reps += 1
            budget -= t2 - t0
        self.cpu_s += time.process_time() - cpu
        self.last = time.perf_counter()

    @property
    def wall_s(self) -> float:
        return self.loop_s + self.pairs_s


def _archive_probe(args, result):
    """(feasible candidates offered, offered candidates kept, new archive size)."""
    candidates = args[1]
    offered = {id(c) for c in candidates if c.violation == 0.0}
    return len(offered), sum(id(m) in offered for m in result.members), len(result.members)


PROBES = {
    "model.evaluate": lambda args, result: result[1] == 0.0,
    "nsga2.fast_nondominated_sort": lambda args, result: (len(args[0]), len(result.fronts)),
    "nsga2.update_archive": _archive_probe,
}


def layer_metrics(tracer, window: tuple[float, float]) -> dict[str, float]:
    """Calls, busy and self time of every traced name, plus every PER_LAYER
    metric except trace.overhead_ratio, from one traced run."""
    stats = layer_stats(tracer, split={"model.decode": ("instances.front_rows", "instances.front_rows.decode")})

    def stat(name):
        return stats.get(name, LayerStat())

    def extras(name):
        return [tracer.extras[k] for k, n in enumerate(tracer.names) if n == name and k in tracer.extras]

    out: dict[str, float] = dict.fromkeys(PER_LAYER, 0.0)  # 0 for layers this workload never calls
    for name, s in stats.items():
        out.update({f"{name}.calls": s.calls, f"{name}.busy_s": s.busy_s, f"{name}.self_s": s.self_s})
    out["instances.front_rows.decode_calls"] = stat("instances.front_rows.decode").calls
    durations_us = np.array(stat("model.evaluate").durations) * 1e6
    out["model.evaluate.us_p50"] = float(np.percentile(durations_us, 50)) if durations_us.size else 0.0
    out["model.evaluate.us_p99"] = float(np.percentile(durations_us, 99)) if durations_us.size else 0.0
    feasible = extras("model.evaluate")
    out["model.feasible_ratio"] = sum(feasible) / len(feasible) if feasible else 0.0

    sorts = np.array(extras("nsga2.fast_nondominated_sort"), dtype=float).reshape(-1, 2)
    out["nsga2.fast_nondominated_sort.n_mean"] = float(sorts[:, 0].mean()) if sorts.size else 0.0
    out["nsga2.fast_nondominated_sort.fronts_mean"] = float(sorts[:, 1].mean()) if sorts.size else 0.0

    archive = np.array(extras("nsga2.update_archive"), dtype=float).reshape(-1, 3)
    out["nsga2.archive.size_final"] = float(archive[-1, 2]) if archive.size else 0.0
    offered = archive[:, 0].sum() if archive.size else 0.0
    out["nsga2.archive.accept_ratio"] = float(archive[:, 1].sum() / offered) if offered else 0.0

    archive_ends = [tracer.ends[k] for k, n in enumerate(tracer.names) if n == "nsga2.update_archive"]
    generation_ms = np.diff(archive_ends) * 1e3
    out["nsga2.generation.ms_p50"] = float(np.percentile(generation_ms, 50)) if generation_ms.size else 0.0
    out["nsga2.generation.ms_p90"] = float(np.percentile(generation_ms, 90)) if generation_ms.size else 0.0

    # Run-window time outside every layer call below the entry points.
    start, end = window
    inside = 0.0
    for k, name in enumerate(tracer.names):
        parent = tracer.parents[k]
        if name in ENTRY_SPANS or (parent >= 0 and tracer.names[parent] not in ENTRY_SPANS):
            continue
        inside += max(0.0, min(tracer.ends[k], end) - max(tracer.starts[k], start))
    out["trace.unattributed_s"] = (end - start) - inside
    return out


def oracle_problems(result, instance_path: str | None) -> tuple[int, list[str]]:
    """Re-evaluate every archive member with a scalar oracle.

    Objectives must match to 1e-9 relative to ``max(|stored|, 1)`` (ZDT1's
    second objective reaches zero, where a purely relative test is
    meaningless) and both stored and recomputed violation must be zero.
    """
    if instance_path is None:
        def reevaluate(genotype):
            return np.array(zdt1_oracle(genotype)), 0.0
    else:
        from scnopt.instances import load_instance
        from scnopt.model import evaluate
        instance = load_instance(instance_path)

        def reevaluate(genotype):
            return evaluate(genotype, instance)

    problems = []
    for k, member in enumerate(result.archive.members):
        objectives, violation = reevaluate(member.genotype)
        scale = np.maximum(np.abs(member.objectives), 1.0)
        if not np.all(np.abs(objectives - member.objectives) <= ORACLE_RTOL * scale):
            problems.append(f"archive member {k}: stored {member.objectives.tolist()} != oracle {objectives.tolist()}")
        if violation != 0.0 or member.violation != 0.0:
            problems.append(f"archive member {k}: violation {violation} (stored {member.violation})")
    return len(result.archive.members), problems


def write_engine_artifacts(result, out_dir: Path, config_echo: dict, wall_s: float) -> None:
    """front.csv, front.dat and report.json for the engine-only run, laid out as ``scnopt run`` writes them."""
    points = [tuple(float(v) for v in m.objectives) for m in result.archive.members]
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "front.csv").write_text("\n".join(["f1,f2", *(f"{a!r},{b!r}" for a, b in points)]) + "\n")
    (out_dir / "front.dat").write_text("\n".join(["# f1 f2", *(f"{a!r} {b!r}" for a, b in points)]) + "\n")
    report = scnopt.cli.build_report(result, config_echo, "front.csv", len(points), wall_s)
    (out_dir / "report.json").write_text(report.to_json())


def main(argv: list[str]) -> int:
    workload_name, seed, instance_arg, out_dir, trace, spawn_ns = argv
    seed, spawn_ns, trace = int(seed), int(spawn_ns), trace == "1"
    instance_path = None if instance_arg == "-" else instance_arg

    workload = WORKLOADS[workload_name]
    tracer = None
    if trace:
        tracer = Tracer(probes=PROBES)
        tracer.install(extra={"zdt1.evaluate": (Zdt1Problem, "evaluate")} if instance_path is None else None)

    mark: dict = {}

    def marked(evolve):
        def run(*args, **kwargs):
            mark["setup_ns"] = time.monotonic_ns()
            mark["cpu0"] = time.process_time()
            mark["t0"] = time.perf_counter()
            if tracer is None:
                mark["host"] = HostSpeed(mark["t0"])
            mark["result"] = evolve(*args, **kwargs)
            return mark["result"]
        return run

    if tracer is None:
        # Between them, evaluations and sorts fill nearly all of every workload's
        # run, so checking the clock after each spreads the samples over the run.
        def sampled(fn):
            def call(*args, **kwargs):
                result = fn(*args, **kwargs)
                mark["host"].maybe_sample()
                return result
            return call

        problem_class = Zdt1Problem if instance_path is None else scnopt.model.SupplyChainProblem
        problem_class.evaluate = sampled(problem_class.evaluate)
        scnopt.nsga2.fast_nondominated_sort = sampled(scnopt.nsga2.fast_nondominated_sort)

    if instance_path is not None:
        scnopt.cli.evolve = marked(scnopt.cli.evolve)
        rc = scnopt.cli.main([
            "run", "--instance", instance_path, "--out", out_dir,
            "--pop-size", str(workload.population), "--generations", str(workload.generations),
            "--seed", str(engine_seed(seed)),
        ])
    else:
        problem = Zdt1Problem()
        config = scnopt.nsga2.EngineConfig(
            population_size=workload.population, generations=workload.generations, seed=engine_seed(seed)
        )
        result = marked(scnopt.nsga2.evolve)(problem, config)
        config_echo = {"problem": "zdt1", "genes": problem.genotype_length, "population_size": config.population_size,
                       "generations": config.generations, "seed": config.seed}
        write_engine_artifacts(result, Path(out_dir), config_echo, time.perf_counter() - mark["t0"])
        rc = 0
    t1 = time.perf_counter()
    cpu1 = time.process_time()

    record = {"rc": rc}
    if "t0" in mark:
        host = mark.get("host") or HostSpeed(t1)
        record.update(
            setup_s=(mark["setup_ns"] - spawn_ns) / 1e9,
            run_s=t1 - mark["t0"] - host.wall_s,
            cpu_s=cpu1 - mark["cpu0"] - host.cpu_s,
        )
        if host.reps:
            record.update(calibration_loop_ms=host.loop_s / host.reps * 1e3,
                          calibration_pairs_ms=host.pairs_s / host.reps * 1e3)
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = layer_metrics(tracer, (mark.get("t0", t1), t1))
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        tracer.save(Path(out_dir) / "spans.npz")
        if rc == 0:
            record["oracle_checked"], record["oracle_problems"] = oracle_problems(mark["result"], instance_path)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["scnopt_file"] = scnopt.cli.__file__
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
