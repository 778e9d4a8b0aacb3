"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written as plain-Python loops over scalars,
with different algorithms than the library where possible (layer peeling via
explicit dominated-by scans rather than domination-count bookkeeping, direct
formula evaluation for crowding, brute-force filters for archives), so that a
shared bug between library and test is unlikely.  The reference engine at
the end is the generational loop as it ran one mating pair and one evaluated
row at a time, before variation and validation worked on whole blocks.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from scnopt import (
    EvaluationError,
    EvolutionResult,
    GenerationRecord,
    Individual,
    ParetoArchive,
    assign_ranks_and_crowding,
    binary_tournament_select,
    environmental_select,
    polynomial_mutation,
    sbx_crossover,
    update_archive,
)


def oracle_dominates(a, b) -> bool:
    a = [float(x) for x in a]
    b = [float(x) for x in b]
    assert len(a) == len(b)
    no_worse = all(x <= y for x, y in zip(a, b))
    better = any(x < y for x, y in zip(a, b))
    return no_worse and better


def oracle_constrained_dominates(obj_a, viol_a, obj_b, viol_b) -> bool:
    feas_a = viol_a == 0.0
    feas_b = viol_b == 0.0
    if feas_a and not feas_b:
        return True
    if not feas_a and feas_b:
        return False
    if not feas_a and not feas_b:
        return viol_a < viol_b
    return oracle_dominates(obj_a, obj_b)


def oracle_sort(objectives, violations) -> list[list[int]]:
    """Front partition by repeated peeling: scan each remaining individual for
    any remaining dominator; the undominated layer is the next front."""
    objs = [[float(x) for x in row] for row in objectives]
    viols = [float(v) for v in violations]
    remaining = list(range(len(objs)))
    fronts: list[list[int]] = []
    while remaining:
        layer = [
            i
            for i in remaining
            if not any(
                oracle_constrained_dominates(objs[j], viols[j], objs[i], viols[i])
                for j in remaining
                if j != i
            )
        ]
        fronts.append(layer)
        remaining = [i for i in remaining if i not in set(layer)]
    return fronts


def oracle_crowding(front_values) -> list[float]:
    """Literal crowding formula: per objective, sort, set boundary points to
    +inf, add (next - previous) / (max - min) to interior points."""
    values = [[float(x) for x in row] for row in front_values]
    n = len(values)
    m = len(values[0])
    distance = [0.0] * n
    for j in range(m):
        order = sorted(range(n), key=lambda i: values[i][j])
        lo = values[order[0]][j]
        hi = values[order[-1]][j]
        span = hi - lo
        if span > 0.0:
            for position in range(1, n - 1):
                i = order[position]
                gap = (values[order[position + 1]][j] - values[order[position - 1]][j]) / span
                distance[i] += gap
        distance[order[0]] = math.inf
        distance[order[-1]] = math.inf
    return distance


def oracle_environmental_select(objectives, violations, n_survivors) -> list[int]:
    """Indices surviving elitist truncation: whole fronts in rank order, the
    cut front by descending crowding with lower index winning ties."""
    fronts = oracle_sort(objectives, violations)
    chosen: list[int] = []
    for front in fronts:
        if len(chosen) + len(front) <= n_survivors:
            chosen.extend(front)
            continue
        room = n_survivors - len(chosen)
        if room > 0:
            distances = oracle_crowding([objectives[i] for i in front])
            by_pos = sorted(range(len(front)), key=lambda p: (-distances[p], front[p]))
            chosen.extend(front[p] for p in by_pos[:room])
        break
    return chosen


def oracle_nondominated(points) -> list[int]:
    """Indices of the non-dominated subset, duplicates collapsed to the first."""
    pts = [tuple(float(x) for x in row) for row in points]
    keep: list[int] = []
    seen: set[tuple] = set()
    for i, p in enumerate(pts):
        if p in seen:
            continue
        if any(oracle_dominates(q, p) for q in pts):
            continue
        seen.add(p)
        keep.append(i)
    return keep


def oracle_hypervolume_2d(points, ref) -> float:
    """Area of the union of point-dominated rectangles via coordinate slabs."""
    pts = [(float(a), float(b)) for a, b in points]
    if not pts:
        return 0.0
    xs = sorted({p[0] for p in pts} | {float(ref[0])})
    area = 0.0
    for left, right in zip(xs[:-1], xs[1:]):
        covering = [p[1] for p in pts if p[0] <= left]
        if covering:
            area += (right - left) * (float(ref[1]) - min(covering))
    return area


def enumerate_reference_front(instance, build_network, eval_cost, eval_delay, check, grid):
    """Exhaustively enumerate quantized network designs and return the feasible
    Pareto-optimal objective pairs.

    ``build_network(plants, dcs, assignment, plant_split, timing)`` must
    construct a decoded network for: open plant/DC index tuples, a tuple
    assigning each retailer an open DC, per-DC fractions of demand sent to
    each open plant, and per-DC period distributions.  ``grid`` is the list of
    quantized fractions used for splits and timing.
    """
    n_plants = instance.n_plants
    n_dcs = instance.n_dcs
    n_retailers = instance.n_retailers
    n_periods = instance.n_periods
    assert n_periods == 2, "enumeration grid assumes a two-period horizon"

    points = []
    plant_subsets = [
        tuple(c)
        for size in range(1, n_plants + 1)
        for c in itertools.combinations(range(n_plants), size)
    ]
    dc_subsets = [
        tuple(c)
        for size in range(1, n_dcs + 1)
        for c in itertools.combinations(range(n_dcs), size)
    ]
    for plants in plant_subsets:
        split_options = (
            [(1.0,)] if len(plants) == 1 else [(w, 1.0 - w) for w in grid]
        )
        for dcs in dc_subsets:
            timing_options = [(w, 1.0 - w) for w in grid]
            for assignment in itertools.product(dcs, repeat=n_retailers):
                for splits in itertools.product(split_options, repeat=len(dcs)):
                    for timings in itertools.product(timing_options, repeat=len(dcs)):
                        network = build_network(plants, dcs, assignment, splits, timings)
                        if network is None:
                            continue  # violates a capacity outright
                        _, violation = check(network, instance)
                        if violation != 0.0:
                            continue
                        points.append((eval_cost(network, instance), eval_delay(network)))
    keep = oracle_nondominated(points)
    return sorted({points[i] for i in keep})


# ---------------------------------------------------------------------------
# Per-pair variation formulas and the reference engine


def reference_sbx_crossover(parent1, parent2, config, rng):
    """SBX with its draws and formulas written out once more, for one pair."""
    p1 = np.asarray(parent1, dtype=float)
    p2 = np.asarray(parent2, dtype=float)
    if rng.random() >= config.crossover_prob:
        return p1.copy(), p2.copy()
    exponent = 1.0 / (config.sbx_eta + 1.0)
    u = rng.random(p1.shape[0])
    beta = np.where(u <= 0.5, (2.0 * u) ** exponent, (1.0 / (2.0 * (1.0 - u))) ** exponent)
    child1 = 0.5 * ((1.0 + beta) * p1 + (1.0 - beta) * p2)
    child2 = 0.5 * ((1.0 - beta) * p1 + (1.0 + beta) * p2)
    return np.clip(child1, 0.0, 1.0), np.clip(child2, 0.0, 1.0)


def reference_polynomial_mutation(genotype, config, rng):
    """Polynomial mutation computed on every gene, then kept on the masked ones."""
    g = np.asarray(genotype, dtype=float)
    mask = rng.random(g.shape[0]) < config.mutation_prob
    u = rng.random(g.shape[0])
    exponent = 1.0 / (config.pm_eta + 1.0)
    to_upper = 1.0 - g
    delta_low = (2.0 * u + (1.0 - 2.0 * u) * (1.0 - g) ** (config.pm_eta + 1.0)) ** exponent - 1.0
    delta_high = 1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - to_upper) ** (config.pm_eta + 1.0)) ** exponent
    delta = np.where(u <= 0.5, delta_low, delta_high)
    return np.clip(np.where(mask, g + delta, g), 0.0, 1.0)


def reference_offspring(population, config, rng) -> list[np.ndarray]:
    """Children pair by pair: two tournaments, SBX, then mutation of each child."""
    children = []
    for _ in range(config.population_size // 2):
        i = binary_tournament_select(population, rng)
        j = binary_tournament_select(population, rng)
        child1, child2 = sbx_crossover(population[i].genotype, population[j].genotype, config, rng)
        children.append(polynomial_mutation(child1, config, rng))
        children.append(polynomial_mutation(child2, config, rng))
    return children


def reference_evaluate(genotypes, problem, expected_m):
    """Evaluate genotypes and check each result row by row, in row order."""
    batch = getattr(problem, "evaluate_batch", None)
    if batch is None:
        raw = [problem.evaluate(g) for g in genotypes]
    else:
        n = len(genotypes)
        objectives, violations = batch(np.array(genotypes))
        objectives = np.asarray(objectives, dtype=float)
        violations = np.asarray(violations, dtype=float)
        if objectives.ndim != 2 or objectives.shape[0] != n or violations.shape != (n,):
            raise EvaluationError(
                f"evaluate_batch returned objectives of shape {objectives.shape} and "
                f"violations of shape {violations.shape} for {n} genotypes"
            )
        raw = zip(objectives, violations)
    individuals = []
    m = expected_m
    for k, (objectives, violation) in enumerate(raw):
        objectives, violation = np.asarray(objectives, dtype=float), float(violation)
        if objectives.ndim != 1 or objectives.size < 2:
            raise EvaluationError(f"genotype index {k}: expected >= 2 objectives, got shape {objectives.shape}")
        if m is None:
            m = objectives.size
        elif objectives.size != m:
            raise EvaluationError(f"genotype index {k}: objective count changed from {m} to {objectives.size}")
        if not np.all(np.isfinite(objectives)):
            raise EvaluationError(f"non-finite objective at genotype index {k}: {objectives.tolist()}")
        if not math.isfinite(violation) or violation < 0.0:
            raise EvaluationError(f"invalid constraint violation at genotype index {k}: {violation}")
        individuals.append(Individual(genotypes[k], objectives=objectives, violation=violation))
    return individuals, m


def reference_evolve(problem, config) -> EvolutionResult:
    """The generational loop with per-pair variation and per-row checks."""
    rng = np.random.default_rng(config.seed)
    initial = rng.random((config.population_size, int(problem.genotype_length)))
    population, m = reference_evaluate(list(initial), problem, None)
    assign_ranks_and_crowding(population)
    archive = update_archive(ParetoArchive(), population)
    history = []

    def record(generation):
        objectives = archive.objectives_array()
        history.append(GenerationRecord(
            generation=generation,
            evaluations=config.population_size * (generation + 1),
            archive_size=len(archive),
            best_objectives=objectives.min(axis=0) if len(archive) else None,
            archive_objectives=objectives.copy(),
        ))

    record(0)
    for generation in range(1, config.generations + 1):
        offspring, m = reference_evaluate(reference_offspring(population, config, rng), problem, m)
        population = environmental_select(population, offspring, config.population_size)
        archive = update_archive(archive, offspring)
        record(generation)
    return EvolutionResult(population=population, archive=archive, history=history)
