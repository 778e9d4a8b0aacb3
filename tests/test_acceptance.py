"""Acceptance checks: one test per shipped guarantee, each printing a verdict.

Every test prints exactly one ``ACCEPTANCE n (name): PASS|FAIL`` line straight
to the terminal (bypassing pytest capture) and enforces the guarantee at its
stated tolerance and, where one applies, its time budget.
"""

from __future__ import annotations

import json
import time

import numpy as np

from scnopt import (
    EngineConfig,
    SupplyChainProblem,
    crowding_distance,
    evaluate,
    evolve,
    fast_nondominated_sort,
    tiny_instance,
)
from scnopt.cli import EXIT_OK, main

from conftest import (
    LineFrontProblem,
    build_duo_network,
    make_duo_instance,
    random_population,
)
from oracles import (
    ReferenceSupplyChainProblem,
    enumerate_reference_front,
    oracle_crowding,
    oracle_sort,
    reference_check_constraints,
    reference_eval_delay,
    reference_eval_total_cost,
)


def verdict(capsys, number, name, ok, detail="", elapsed=None, budget=None):
    timing = "" if elapsed is None else f" [{elapsed:.2f}s / {budget:.0f}s budget]"
    line = f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}{timing}"
    if detail and not ok:
        line += f" - {detail}"
    with capsys.disabled():
        print(f"\n{line}")
    assert ok, line


def test_criterion_1_sorting_matches_oracle(capsys):
    """Front partition identical to the brute-force peeling oracle on 200
    random mixed feasible/infeasible populations (N <= 64, 2-3 objectives),
    inside 5 seconds."""
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    detail = ""
    ok = True
    for trial in range(200):
        size = int(rng.integers(2, 65))
        m = int(rng.integers(2, 4))
        objectives, violations = random_population(rng, size, m)
        partition = fast_nondominated_sort(objectives, violations)
        expected = oracle_sort(objectives, violations)
        got = [sorted(front.tolist()) for front in partition.fronts]
        want = [sorted(front) for front in expected]
        if got != want:
            ok, detail = False, f"trial {trial}: fronts {got} != {want}"
            break
        ranks = [partition.ranks[i] for i in range(size)]
        want_ranks = [0] * size
        for depth, front in enumerate(expected, start=1):
            for i in front:
                want_ranks[i] = depth
        if ranks != want_ranks:
            ok, detail = False, f"trial {trial}: ranks differ"
            break
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 5.0
    verdict(capsys, 1, "sorting-matches-oracle", ok, detail, elapsed, 5.0)


def test_criterion_2_crowding_matches_formula(capsys):
    """Crowding distances match the literal formula within 1e-12 on 100 random
    fronts and are invariant to affine objective rescaling within 1e-9."""
    rng = np.random.default_rng(77)
    ok = True
    detail = ""
    for trial in range(100):
        n = int(rng.integers(2, 41))
        m = int(rng.integers(2, 4))
        front = rng.random((n, m))
        got = crowding_distance(front)
        want = np.array(oracle_crowding(front))
        finite = np.isfinite(want)
        if not np.array_equal(finite, np.isfinite(got)):
            ok, detail = False, f"trial {trial}: infinity pattern differs"
            break
        if np.any(np.abs(got[finite] - want[finite]) > 1e-12):
            worst = float(np.max(np.abs(got[finite] - want[finite])))
            ok, detail = False, f"trial {trial}: max error {worst:.3e} > 1e-12"
            break
        scale = np.array([3.7, 0.04, 250.0][:m])
        shift = np.array([11.0, -2.0, 1e6][:m])
        rescaled = crowding_distance(front * scale + shift)
        both = finite & np.isfinite(rescaled)
        if not np.array_equal(np.isfinite(rescaled), finite) or np.any(
            np.abs(rescaled[both] - got[both]) > 1e-9
        ):
            ok, detail = False, f"trial {trial}: affine rescaling moved distances"
            break
    verdict(capsys, 2, "crowding-matches-formula", ok, detail)


def test_criterion_3_line_front_convergence(capsys):
    """20 individuals, 50 generations on the f1+f2=1 toy: every archived point
    on the line within 1e-9, and the archive covers [0, 1] with no gap of 0.2
    or more, inside 1 second."""
    started = time.perf_counter()
    result = evolve(
        LineFrontProblem(),
        EngineConfig(population_size=20, generations=50, seed=42),
    )
    elapsed = time.perf_counter() - started
    points = result.archive.objectives_array()
    on_line = points.size > 0 and np.all(np.abs(points.sum(axis=1) - 1.0) <= 1e-9)
    xs = np.sort(points[:, 0]) if points.size else np.array([])
    if xs.size:
        gaps = np.diff(np.concatenate([[0.0], xs, [1.0]]))
        max_gap = float(gaps.max())
    else:
        max_gap = 1.0
    ok = on_line and max_gap < 0.2 and elapsed < 1.0
    detail = f"on_line={on_line}, max_gap={max_gap:.3f}, points={len(points)}"
    verdict(capsys, 3, "line-front-convergence", ok, detail, elapsed, 1.0)


def test_criterion_4_fixture_hand_values(capsys):
    """The hand-checkable fixture evaluates exactly: just-in-time delivery
    costs 220.0 with zero delay; fully-early and fully-late schedules both
    move 5.0 units of delay without changing cost."""
    tiny = tiny_instance()
    jit, jit_violation = evaluate(np.ones(7), tiny)
    early, early_violation = evaluate(np.array([1, 1, 1, 1, 1, 1.0, 0.0]), tiny)
    late, late_violation = evaluate(np.array([1, 1, 1, 1, 1, 0.0, 1.0]), tiny)
    checks = {
        "jit cost": jit[0] == 220.0,
        "jit delay": jit[1] == 0.0,
        "jit feasible": jit_violation == 0.0,
        "early cost": early[0] == 220.0,
        "early delay": early[1] == 5.0,
        "early feasible": early_violation == 0.0,
        "late cost": late[0] == 220.0,
        "late delay": late[1] == 5.0,
        "late feasible": late_violation == 0.0,
    }
    ok = all(checks.values())
    detail = ", ".join(name for name, passed in checks.items() if not passed)
    verdict(capsys, 4, "fixture-hand-values", ok, detail)


def test_criterion_5_quantized_enumeration_coverage(capsys):
    """On the two-plant/two-DC instance, the engine's archive covers every
    point of the exhaustively enumerated quantized reference front within 1%
    per objective, for each of seeds 1-5, all inside 60 seconds."""
    started = time.perf_counter()
    duo = make_duo_instance()
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    reference = enumerate_reference_front(
        duo,
        lambda plants, dcs, assignment, splits, timings: build_duo_network(
            duo, plants, dcs, assignment, splits, timings
        ),
        reference_eval_total_cost,
        reference_eval_delay,
        reference_check_constraints,
        grid,
    )
    assert len(reference) >= 3, "enumeration produced a degenerate reference front"

    ok = True
    detail = ""
    problem = SupplyChainProblem(duo)
    for seed in range(1, 6):
        result = evolve(
            problem,
            EngineConfig(population_size=80, generations=200, seed=seed),
        )
        archive = result.archive.objectives_array()
        for cost, delay in reference:
            close = (archive[:, 0] <= cost * 1.01 + 1e-12) & (
                archive[:, 1] <= delay * 1.01 + 1e-12
            )
            if not close.any():
                ok = False
                detail = (
                    f"seed {seed}: reference point (cost={cost:.2f}, delay={delay:.2f}) "
                    f"not covered within 1%"
                )
                break
        if not ok:
            break
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    verdict(capsys, 5, "quantized-enumeration-coverage", ok, detail, elapsed, 60.0)


def test_criterion_6_desk_front_export(capsys, tmp_path):
    """A 100-individual, 200-generation run on the desk preset exports a front
    of at least 10 distinct rows that re-parse strictly increasing in cost,
    strictly decreasing in delay, with zero pairwise dominance violations,
    inside 60 seconds."""
    started = time.perf_counter()
    instance_path = tmp_path / "desk.json"
    out_dir = tmp_path / "out"
    assert main(["generate", "--preset", "desk", "--out", str(instance_path)]) == EXIT_OK
    code = main(
        ["run", "--instance", str(instance_path), "--out", str(out_dir),
         "--pop-size", "100", "--generations", "200", "--seed", "42"]
    )
    elapsed = time.perf_counter() - started

    lines = (out_dir / "front.csv").read_text().splitlines()
    rows = []
    for line in lines[1:]:
        cost_text, f2_text, days_text = line.split(",")
        rows.append((int(cost_text), float(f2_text), float(days_text)))
    costs = [r[0] for r in rows]
    delays = [r[1] for r in rows]
    dominance_violations = sum(
        1
        for a in rows
        for b in rows
        if a is not b
        and a[0] <= b[0]
        and a[1] <= b[1]
        and (a[0] < b[0] or a[1] < b[1])
    )
    checks = {
        "exit ok": code == EXIT_OK,
        ">=10 distinct rows": len(rows) >= 10 and len(set(rows)) == len(rows),
        "costs strictly increase": all(a < b for a, b in zip(costs, costs[1:])),
        "delays strictly decrease": all(a > b for a, b in zip(delays, delays[1:])),
        "no dominance violations": dominance_violations == 0,
        "under budget": elapsed < 60.0,
    }
    ok = all(checks.values())
    detail = (
        ", ".join(name for name, passed in checks.items() if not passed)
        + f" (rows={len(rows)})"
    )
    verdict(capsys, 6, "desk-front-export", ok, detail, elapsed, 60.0)


def test_criterion_7_report_hypervolume_monotone(capsys, tmp_path):
    """The per-generation archive hypervolume reported for a run never
    decreases, for each of seeds 1-5."""
    instance_path = tmp_path / "desk.json"
    assert main(["generate", "--preset", "desk", "--out", str(instance_path)]) == EXIT_OK
    ok = True
    detail = ""
    for seed in range(1, 6):
        out_dir = tmp_path / f"out-{seed}"
        code = main(
            ["run", "--instance", str(instance_path), "--out", str(out_dir),
             "--pop-size", "40", "--generations", "60", "--seed", str(seed)]
        )
        if code != EXIT_OK:
            ok, detail = False, f"seed {seed}: exit code {code}"
            break
        records = json.loads((out_dir / "report.json").read_text())["records"]
        volumes = [r["hypervolume"] for r in records]
        drops = [
            (g, a, b) for g, (a, b) in enumerate(zip(volumes, volumes[1:]), start=1) if b < a
        ]
        if drops:
            g, a, b = drops[0]
            ok, detail = False, f"seed {seed}: hypervolume fell {a} -> {b} at generation {g}"
            break
    verdict(capsys, 7, "report-hypervolume-monotone", ok, detail)


def test_criterion_8_byte_identical_artifacts(capsys, tmp_path, monkeypatch):
    """Identical flags produce byte-identical front.csv, report.json, and
    front.dat, and the artifacts do not depend on the evaluation path: batched
    evaluation writes the same bytes as the reference decoder scoring one
    genotype at a time."""
    instance_path = tmp_path / "desk.json"
    assert main(["generate", "--preset", "desk", "--out", str(instance_path)]) == EXIT_OK

    def run(out_dir):
        code = main(
            ["run", "--instance", str(instance_path), "--out", str(out_dir),
             "--pop-size", "24", "--generations", "15", "--seed", "9"]
        )
        assert code == EXIT_OK
        return {
            name: (out_dir / name).read_bytes()
            for name in ("front.csv", "report.json", "front.dat")
        }

    serial_a = run(tmp_path / "s1")
    serial_b = run(tmp_path / "s2")
    with monkeypatch.context() as patch:
        patch.setattr("scnopt.cli.SupplyChainProblem", ReferenceSupplyChainProblem)
        scalar = run(tmp_path / "scalar")

    checks = {
        "serial reruns identical": serial_a == serial_b,
        "artifacts independent of the evaluation path": serial_a == scalar,
    }
    ok = all(checks.values())
    detail = ", ".join(name for name, passed in checks.items() if not passed)
    verdict(capsys, 8, "byte-identical-artifacts", ok, detail)
