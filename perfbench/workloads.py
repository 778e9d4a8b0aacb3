"""The three benchmark workloads, the inputs each derives from its seed, and the
checks and front quality measure applied to what each run writes.

Why these three: each stresses a different hot layer of scnopt, so an
optimisation of one layer has a workload that exercises it and one that
predicts "no change".

- ``desk``: ``scnopt run`` on the desk preset (L = 62) at population 100 for
  200 generations.  Evaluation (``scnopt.model``) dominates; the population
  is all feasible after the first generation.
- ``sbc-paper-pop``: ``scnopt run`` on the sbc-scale preset (L = 195) at the
  paper's population of 1290 for 6 generations.  Ranking over the combined
  population of 2580 dominates; the population crosses from a few percent
  feasible (thousands of fronts per sort) to nearly all feasible, so both
  branches of constraint-domination run.
- ``zdt1-engine``: the engine alone through the library API (``evolve`` then
  ``scnopt.cli.build_report``) on the 30-gene ZDT1 problem defined here, at
  population 100 for 1000 generations.  No ``scnopt.model`` code runs;
  variation, ranking, per-individual overhead in ``evolve`` and the
  unbounded archive take the time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ARTIFACTS = ("front.csv", "report.json", "front.dat")

# The per-layer metrics a traced run reports, in the order BENCHMARK.json lists them.
PER_LAYER = (
    "model.evaluate.calls",
    "model.evaluate.busy_s",
    "model.evaluate.us_p50",
    "model.evaluate.us_p99",
    "model.decode.calls",
    "model.decode.busy_s",
    "model.allocate_with_caps.calls",
    "model.allocate_with_caps.busy_s",
    "model.check_constraints.busy_s",
    "model.eval_total_cost.busy_s",
    "model.eval_delay.busy_s",
    "model.feasible_ratio",
    "nsga2.evolve.self_s",
    "nsga2.fast_nondominated_sort.calls",
    "nsga2.fast_nondominated_sort.busy_s",
    "nsga2.fast_nondominated_sort.n_mean",
    "nsga2.fast_nondominated_sort.fronts_mean",
    "nsga2.assign_ranks_and_crowding.busy_s",
    "nsga2.environmental_select.self_s",
    "nsga2.crowding_distance.calls",
    "nsga2.crowding_distance.busy_s",
    "nsga2.binary_tournament_select.calls",
    "nsga2.binary_tournament_select.busy_s",
    "nsga2.sbx_crossover.calls",
    "nsga2.sbx_crossover.busy_s",
    "nsga2.polynomial_mutation.calls",
    "nsga2.polynomial_mutation.busy_s",
    "nsga2.update_archive.calls",
    "nsga2.update_archive.busy_s",
    "nsga2.archive.size_final",
    "nsga2.archive.accept_ratio",
    "nsga2.generation.ms_p50",
    "nsga2.generation.ms_p90",
    "instances.load_instance.busy_s",
    "instances.front_rows.calls",
    "instances.front_rows.busy_s",
    "instances.front_rows.decode_calls",
    "instances.save_front.busy_s",
    "metrics.hypervolume_2d.calls",
    "metrics.hypervolume_2d.busy_s",
    "cli.build_report.self_s",
    "cli.cmd_run.busy_s",
    "trace.unattributed_s",
    "trace.overhead_ratio",
)

# Counts that depend only on the code, the workload and the seed: they must
# repeat exactly between runs and between run sets.
EXACT_COUNTS = (
    "model.evaluate.calls",
    "model.allocate_with_caps.calls",
    "nsga2.fast_nondominated_sort.calls",
    "instances.front_rows.calls",
    "metrics.hypervolume_2d.calls",
)


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str | None  # instance preset for ``scnopt run``; None for the engine-only ZDT1 run
    population: int
    generations: int
    # Share of the run spent ranking (pairwise work on whole arrays), from
    # the traced shares; the rest is mostly loops over small numpy calls.
    # It weighs the two calibration kernels when the run's times are scaled
    # to the reference host speed.
    pairs_share: float
    # Reference corner for front_hv, in the normalised objective space of
    # :func:`front_hv`.  Fixed per workload, never derived from a run, and far
    # enough out that the spread of front_hv over engine seeds (the fronts
    # after these short runs differ a lot in delay) stays near 3 % of it.
    reference: tuple[float, float]

    @property
    def evaluations(self) -> int:
        return self.population * (self.generations + 1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk", "desk", 100, 200, 0.1, (2.5, 3.0)),
        Workload("sbc-paper-pop", "sbc-scale", 1290, 6, 0.5, (3.0, 4.0)),
        Workload("zdt1-engine", None, 100, 500, 0.35, (1.1, 3.0)),
    )
}

ZDT1_GENES = 30


def engine_seed(seed: int) -> int:
    """Engine seed derived from the workload seed (the instance uses the seed itself)."""
    return (seed * 1_000_003 + 12_345) % 2**31


class Zdt1Problem:
    """ZDT1 with 30 genes: f1 = x1, f2 = g (1 - sqrt(x1 / g)), g = 1 + 9 mean(x2..x30)."""

    genotype_length = ZDT1_GENES

    def evaluate(self, genotype: np.ndarray) -> tuple[np.ndarray, float]:
        f1 = genotype[0]
        g = 1.0 + 9.0 * genotype[1:].sum() / (ZDT1_GENES - 1)
        return np.array([f1, g * (1.0 - np.sqrt(f1 / g))]), 0.0


def zdt1_oracle(genotype) -> tuple[float, float]:
    """Plain-Python ZDT1, independent of the numpy form the run uses."""
    x = [float(v) for v in genotype]
    g = 1.0 + 9.0 * math.fsum(x[1:]) / (len(x) - 1)
    return x[0], g * (1.0 - math.sqrt(x[0] / g))


# ---------------------------------------------------------------------------
# Front quality


def instance_scales(instance_path: Path) -> tuple[float, float]:
    """Cost and delay scales of an instance, used to normalise its objectives.

    The cost scale is a floor on any design's cost: all demand routed over
    the cheapest raw-material, plant->DC and DC->retailer links, plus the
    cheapest plant and DC.  The delay scale is the total demand.
    """
    raw = json.loads(instance_path.read_text())
    demand = float(np.sum(raw["demand"]))
    unit = (
        raw["utilization"]
        * float(np.min(np.asarray(raw["raw_material_unit_cost"])[:, None]
                       + np.asarray(raw["raw_transport_cost"])))
        + float(np.min(raw["product_transport_plant_dc"]))
        + float(np.min(raw["product_transport_dc_retailer"]))
    )
    floor = demand * unit + float(np.min(raw["plant_fixed_cost"])) + float(np.min(raw["dc_fixed_cost"]))
    return floor, demand


def hypervolume(points: np.ndarray, reference: tuple[float, float]) -> float:
    """Area dominated by ``points`` (minimisation) inside the box below ``reference``.

    Points that do not dominate the reference contribute nothing.
    """
    area = 0.0
    best = reference[1]
    for f1, f2 in sorted(map(tuple, points)):
        if f1 < reference[0] and f2 < best:
            area += (reference[0] - f1) * (best - f2)
            best = f2
    return area


def read_plot_data(path: Path) -> np.ndarray:
    rows = [line.split() for line in path.read_text().splitlines() if line and not line.startswith("#")]
    return np.array(rows, dtype=float).reshape(-1, 2)


def front_hv(workload: Workload, rep_dir: Path, instance_path: Path | None) -> float:
    """Hypervolume of the exported front against the workload's fixed corner."""
    points = read_plot_data(rep_dir / "front.dat")
    if instance_path is not None:
        points = points / np.array(instance_scales(instance_path))
    return hypervolume(points, workload.reference)


# ---------------------------------------------------------------------------
# Output checks


def check_outputs(rep_dir: Path) -> list[str]:
    """Problems with one run's artifacts; empty when they pass every check.

    The front's first column must ascend strictly and its second descend
    strictly, the report's front size must equal the CSV row count, and the
    report's hypervolume trajectory must never decrease.
    """
    missing = [name for name in ARTIFACTS if not (rep_dir / name).is_file()]
    if missing:
        return [f"missing artifact {name}" for name in missing]
    problems = []
    lines = (rep_dir / "front.csv").read_text().splitlines()
    try:
        rows = [tuple(float(v) for v in line.split(",")[:2]) for line in lines[1:]]
    except ValueError as err:
        return [f"front.csv: unparsable row ({err})"]
    if not rows:
        problems.append("front.csv has no rows")
    for k in range(1, len(rows)):
        if not rows[k][0] > rows[k - 1][0]:
            problems.append(f"front.csv row {k + 1}: first column not strictly ascending")
        if not rows[k][1] < rows[k - 1][1]:
            problems.append(f"front.csv row {k + 1}: second column not strictly descending")
    try:
        report = json.loads((rep_dir / "report.json").read_text())
        size = report["front"]["size"]
        volumes = [r["hypervolume"] for r in report["records"]]
    except (ValueError, KeyError, TypeError) as err:
        return problems + [f"report.json: malformed ({err!r})"]
    if size != len(rows):
        problems.append(f"report.json front size {size} != {len(rows)} front.csv rows")
    if any(b < a for a, b in zip(volumes, volumes[1:])):
        problems.append("report.json hypervolume decreases")
    if len(read_plot_data(rep_dir / "front.dat")) != len(rows):
        problems.append("front.dat row count differs from front.csv")
    return problems


def same_bytes(a: Path, b: Path) -> list[str]:
    """Artifacts of two runs of one seed that differ byte for byte."""
    return [name for name in ARTIFACTS if (a / name).read_bytes() != (b / name).read_bytes()]
