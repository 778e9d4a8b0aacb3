"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written as plain-Python loops over scalars,
with different algorithms than the library where possible (layer peeling via
explicit dominated-by scans rather than domination-count bookkeeping, direct
formula evaluation for crowding, brute-force filters for archives), so that a
shared bug between library and test is unlikely.

Two references keep code the package ran before it worked on whole blocks.
The reference decoder decodes and scores one genotype at a time, one
capped allocation per (product, DC) pair and per plant, its own
per-period stock/backlog recursion, and every constraint family written
out for one network; the package's only decoder,
``scnopt.model._decode_rows``, and its constraint scorer must match it bit
for bit.  The
reference engine is the generational loop as it ran one mating pair and one
evaluated row at a time, with per-pair tournaments, crossover and mutation;
it ranks, crowds, selects and keeps its archive with the oracles above, not
with the package's sorting, selection or archive code.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from scnopt import (
    CONSTRAINT_FAMILIES,
    DecodedNetwork,
    EvaluationError,
    EvolutionResult,
    GenerationRecord,
    GenotypeLayout,
    PM_ETA,
    SBX_ETA,
    Individual,
    ParetoArchive,
)
from scnopt.model import _EXCESS_RTOL, _constraint_scales


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


def reference_undominated_area(stairs) -> float:
    """The area of the staircase's bounding box that no step dominates,
    ``Σ_k (f1[k+1] − f1[k])·(f2[k] − f2[-1])``, added left to right in plain
    Python: ``nsga2._undominated_area`` must equal it bit for bit."""
    stairs = [(float(a), float(b)) for a, b in stairs]
    area = 0.0
    for (a, b), (c, _) in zip(stairs, stairs[1:]):
        area += (c - a) * (b - stairs[-1][1])
    return area


def reference_hypervolume_2d(points, ref) -> float:
    """Bi-objective hypervolume in plain Python as ``report.json`` and
    ``hypervolume_2d`` compute it: the staircase (the points in lexicographic
    order whose f2 is below every f2 before them), the box from its best point
    to ``ref``, minus its undominated area."""
    stairs: list[tuple[float, float]] = []
    for p in sorted((float(a), float(b)) for a, b in points):
        if not stairs or p[1] < stairs[-1][1]:
            stairs.append(p)
    if not stairs:
        return 0.0
    box = (float(ref[0]) - stairs[0][0]) * (float(ref[1]) - stairs[-1][1])
    return box - reference_undominated_area(stairs)


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
# Reference decoder: one genotype at a time


def reference_allocate_with_caps(
    total: float,
    weights: np.ndarray,
    caps: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Split ``total`` across bins proportionally to ``weights`` without
    exceeding ``caps``.

    Bins whose proportional share overflows are pinned at their cap and the
    remainder is re-spread over the rest; when every positively weighted bin
    is pinned, leftover spreads over remaining capacity.  Returns the
    allocation and the amount that could not be placed (positive only when
    ``total`` exceeds total capacity).
    """
    weights = np.asarray(weights, dtype=float)
    caps = np.asarray(caps, dtype=float)
    if weights.shape != caps.shape or weights.ndim != 1:
        raise ValueError("weights and caps must be 1-D arrays of equal length")
    if np.any(weights < 0) or np.any(caps < 0):
        raise ValueError("weights and caps must be nonnegative")
    allocation = np.zeros_like(caps)
    remaining = float(total)
    if remaining <= 0.0:
        return allocation, 0.0
    tolerance = 1e-12 * max(1.0, remaining)
    active = caps > 0.0
    while remaining > tolerance and active.any():
        w = np.where(active, weights, 0.0)
        if w.sum() <= 0.0:
            w = np.where(active, caps - allocation, 0.0)
        shares = remaining * w / w.sum()
        headroom = caps - allocation
        overflow = active & (shares > headroom)
        if not overflow.any():
            allocation = allocation + shares
            remaining = 0.0
            break
        allocation[overflow] = caps[overflow]
        active &= ~overflow
        remaining = float(total - allocation.sum())
    return allocation, max(remaining, 0.0)


def _one_hot(index: int, size: int) -> np.ndarray:
    out = np.zeros(size, dtype=bool)
    out[index] = True
    return out


def reference_decode(genotype: np.ndarray, instance) -> DecodedNetwork:
    """Decode a genotype into a concrete network design.

    Pipeline: (1) facility keys >= 0.5 open a plant/DC, with the largest key
    forced open when a whole echelon would close; (2) each retailer goes to
    the open DC with the largest assignment key; (3) retail flows carry each
    retailer's horizon demand from its DC; (4) each DC's demand is spread over
    open plants proportionally to the plant->DC weights, repaired to plant
    capacities; (5) raw-material flows cover production, spread over suppliers
    by weight and repaired to supplier capacities; (6) each DC's inbound total
    is scheduled across periods by its normalized timing weights and the
    stock/backlog recursion is simulated against assigned per-period demand.
    """
    g = np.asarray(genotype, dtype=float)
    layout = GenotypeLayout.for_instance(instance)
    if g.shape != (layout.length,):
        raise ValueError(f"genotype must have shape ({layout.length},), got {g.shape}")
    s, k, j, i, p, t = instance.dimensions

    plant_keys = g[layout.plant_keys]
    dc_keys = g[layout.dc_keys]
    supplier_weights = g[layout.supplier_weights].reshape(s, k)
    plant_dc_weights = g[layout.plant_dc_weights].reshape(k, j)
    assignment_keys = g[layout.assignment_keys].reshape(j, i)
    timing_weights = g[layout.timing_weights].reshape(j, t)

    plant_open = plant_keys >= 0.5
    if not plant_open.any():
        plant_open = _one_hot(int(np.argmax(plant_keys)), k)
    dc_open = dc_keys >= 0.5
    if not dc_open.any():
        dc_open = _one_hot(int(np.argmax(dc_keys)), j)

    # Retailer assignment: argmax key among open DCs (keys are >= 0, so -1 masks).
    masked_keys = np.where(dc_open[:, None], assignment_keys, -1.0)
    dc_of_retailer = np.argmax(masked_keys, axis=0)
    assignment = np.zeros((j, i), dtype=bool)
    assignment[dc_of_retailer, np.arange(i)] = True

    horizon_demand = instance.demand.sum(axis=2)  # (I, P)
    retail_flow = np.zeros((p, j, i))
    retail_flow[:, dc_of_retailer, np.arange(i)] = horizon_demand.T
    dc_demand = retail_flow.sum(axis=2)  # (P, J)
    # An einsum, where the package takes a stacked matmul: both must add each
    # DC's retailers in retailer order.
    assigned_demand = np.einsum("ji,ipt->pjt", assignment.astype(float), instance.demand)

    # Plant -> DC flows; plant capacity is stated in raw-material-equivalent
    # units, so the per-plant product budget is capacity / utilization.
    product_flow = np.zeros((p, k, j))
    open_plant_weights = np.where(plant_open[:, None], plant_dc_weights, 0.0)
    product_budget = np.where(plant_open, instance.plant_capacity / instance.utilization, 0.0)
    for product in range(p):
        for dc in range(j):
            need = dc_demand[product, dc]
            if need <= 0.0:
                continue
            share, _short = reference_allocate_with_caps(need, open_plant_weights[:, dc], product_budget)
            product_flow[product, :, dc] = share
            product_budget = product_budget - share

    # Supplier -> plant raw-material flows covering production.
    raw_flow = np.zeros((s, k))
    supplier_budget = instance.supplier_capacity.copy()
    production = product_flow.sum(axis=(0, 2))  # (K,)
    for plant in range(k):
        need = instance.utilization * production[plant]
        if need <= 0.0:
            continue
        share, _short = reference_allocate_with_caps(need, supplier_weights[:, plant], supplier_budget)
        raw_flow[:, plant] = share
        supplier_budget = supplier_budget - share

    # Inbound timing: normalize each DC's weights into a period distribution.
    row_sums = timing_weights.sum(axis=1, keepdims=True)
    period_share = np.where(
        row_sums > 0.0,
        timing_weights / np.where(row_sums > 0.0, row_sums, 1.0),
        1.0 / t,
    )
    dc_inflow_total = product_flow.sum(axis=1)  # (P, J)
    inflow = dc_inflow_total[:, :, None] * period_share[None, :, :]

    # Stock/backlog recursion: arrivals plus stock ship against demand plus backlog.
    on_hand = np.zeros((p, j, t))
    backlog = np.zeros((p, j, t))
    stock = np.zeros((p, j))
    owed = np.zeros((p, j))
    for period in range(t):
        available = stock + inflow[:, :, period]
        shipped = np.minimum(available, assigned_demand[:, :, period] + owed)
        stock = available - shipped
        owed = owed + assigned_demand[:, :, period] - shipped
        on_hand[:, :, period] = stock
        backlog[:, :, period] = owed

    return DecodedNetwork(
        plant_open=plant_open,
        dc_open=dc_open,
        assignment=assignment,
        raw_flow=raw_flow,
        product_flow=product_flow,
        retail_flow=retail_flow,
        inflow=inflow,
        on_hand=on_hand,
        backlog=backlog,
    )


def reference_eval_total_cost(
    network: DecodedNetwork,
    instance,
    holding_on_backorder: bool = False,
) -> float:
    """Total network cost: fixed facility costs plus every flow-proportional term.

    Holding cost is charged on on-hand stock; ``holding_on_backorder=True``
    charges it on the backlog instead (alternate accounting mode).
    """
    fixed = float(
        (instance.plant_fixed_cost * network.plant_open).sum()
        + (instance.dc_fixed_cost * network.dc_open).sum()
    )
    raw = float(
        (
            (instance.raw_material_unit_cost[:, None] + instance.raw_transport_cost)
            * network.raw_flow
        ).sum()
    )
    plant_to_dc = float(
        (instance.product_transport_plant_dc[None, :, :] * network.product_flow).sum()
    )
    held = network.backlog if holding_on_backorder else network.on_hand
    holding = float((instance.holding_cost[None, :, None] * held).sum())
    dc_to_retail = float(
        (instance.product_transport_dc_retailer[None, :, :] * network.retail_flow).sum()
    )
    return fixed + raw + plant_to_dc + holding + dc_to_retail


def reference_eval_delay(network: DecodedNetwork) -> float:
    """Total delivery-delay quantity: backlog plus early stock over all cells."""
    return float((network.backlog + network.on_hand).sum())


def reference_check_constraints(
    network: DecodedNetwork,
    instance,
) -> tuple[np.ndarray, float]:
    """Score the seven constraint families of a decoded network.

    Returns ``(excess, total)``: ``excess[f]`` is the summed magnitude of
    violation in family ``f`` (see :data:`CONSTRAINT_FAMILIES`), and ``total``
    is the scalar violation used for constraint-domination — each family
    divided by its capacity scale so no family dominates purely by units.
    Excess below float-repair resolution is treated as zero.
    """
    u = instance.utilization
    excess = np.zeros(len(CONSTRAINT_FAMILIES))

    excess[0] = np.maximum(network.on_hand - instance.dc_capacity[None, :, None], 0.0).sum()
    excess[1] = np.maximum(network.backlog - instance.backorder_limit, 0.0).sum()

    dc_in = network.product_flow.sum(axis=1)
    dc_out = network.retail_flow.sum(axis=2)
    excess[2] = np.maximum(dc_out - dc_in, 0.0).sum()

    excess[3] = np.maximum(network.raw_flow.sum(axis=1) - instance.supplier_capacity, 0.0).sum()

    production = network.product_flow.sum(axis=(0, 2))
    raw_in = network.raw_flow.sum(axis=0)
    excess[4] = np.maximum(u * production - raw_in, 0.0).sum()
    excess[5] = np.maximum(u * production - instance.plant_capacity, 0.0).sum()

    excess[6] = np.abs(network.assignment.sum(axis=0) - 1).sum()

    scales = _constraint_scales(instance)
    excess = np.where(excess > _EXCESS_RTOL * scales, excess, 0.0)
    total = float((excess / scales).sum())
    return excess, total


def reference_evaluate_genotype(
    genotype: np.ndarray,
    instance,
    holding_on_backorder: bool = False,
) -> tuple[np.ndarray, float]:
    """Decode and score one genotype: ``([total_cost, delay], violation)``."""
    network = reference_decode(genotype, instance)
    total_cost = reference_eval_total_cost(network, instance, holding_on_backorder)
    delay = reference_eval_delay(network)
    _, violation = reference_check_constraints(network, instance)
    return np.array([total_cost, delay]), violation


class ReferenceSupplyChainProblem:
    """A supply chain problem without ``evaluate_batch``, so the engine scores
    one genotype at a time with :func:`reference_evaluate_genotype`."""

    def __init__(self, instance, holding_on_backorder: bool = False):
        self.instance = instance
        self.holding_on_backorder = holding_on_backorder
        self.genotype_length = instance.genotype_length

    def evaluate(self, genotype):
        return reference_evaluate_genotype(genotype, self.instance, self.holding_on_backorder)


# ---------------------------------------------------------------------------
# Per-pair selection and variation, and the reference engine


def crowded_compare(a: Individual, b: Individual) -> int:
    """Total order used by tournaments: lower rank first, then larger crowding.

    Returns -1 if ``a`` precedes ``b``, 1 if ``b`` precedes ``a``, 0 on a tie.
    """
    if a.rank is None or b.rank is None or a.crowding is None or b.crowding is None:
        raise ValueError("rank and crowding must be assigned before comparison")
    if a.rank != b.rank:
        return -1 if a.rank < b.rank else 1
    if a.crowding != b.crowding:
        return -1 if a.crowding > b.crowding else 1
    return 0


def binary_tournament_select(population, rng: np.random.Generator) -> int:
    """Index of the winner between two distinct uniformly drawn contestants.

    Ties go to the first contestant drawn.
    """
    n = len(population)
    if n < 2:
        raise ValueError("tournament selection needs at least two individuals")
    i = int(rng.integers(n))
    j = int(rng.integers(n - 1))
    if j >= i:
        j += 1
    return i if crowded_compare(population[i], population[j]) <= 0 else j



def reference_sbx_children(p1, p2, u):
    """SBX's two children for uniforms ``u``, each branch of the spread factor
    taking its own power."""
    exponent = 1.0 / (SBX_ETA + 1.0)
    beta = np.where(u <= 0.5, (2.0 * u) ** exponent, (1.0 / (2.0 * (1.0 - u))) ** exponent)
    child1 = 0.5 * ((1.0 + beta) * p1 + (1.0 - beta) * p2)
    child2 = 0.5 * ((1.0 - beta) * p1 + (1.0 + beta) * p2)
    return np.clip(child1, 0.0, 1.0), np.clip(child2, 0.0, 1.0)


def reference_sbx_crossover(parent1, parent2, config, rng):
    """SBX with its draws and formulas written out once more, for one pair."""
    p1 = np.asarray(parent1, dtype=float)
    p2 = np.asarray(parent2, dtype=float)
    if rng.random() >= config.crossover_prob:
        return p1.copy(), p2.copy()
    return reference_sbx_children(p1, p2, rng.random(p1.shape[0]))


def reference_mutated_genes(g, u):
    """Polynomial mutation of every gene ``g`` for uniforms ``u``, each branch
    of the delta taking its own powers."""
    exponent = 1.0 / (PM_ETA + 1.0)
    to_upper = 1.0 - g
    delta_low = (2.0 * u + (1.0 - 2.0 * u) * (1.0 - g) ** (PM_ETA + 1.0)) ** exponent - 1.0
    delta_high = 1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - to_upper) ** (PM_ETA + 1.0)) ** exponent
    return g + np.where(u <= 0.5, delta_low, delta_high)


def reference_polynomial_mutation(genotype, config, rng):
    """Polynomial mutation computed on every gene, then kept on the masked ones."""
    g = np.asarray(genotype, dtype=float)
    mask = rng.random(g.shape[0]) < config.mutation_prob
    u = rng.random(g.shape[0])
    return np.clip(np.where(mask, reference_mutated_genes(g, u), g), 0.0, 1.0)


def reference_offspring(population, config, rng) -> list[np.ndarray]:
    """Children from the engine's seven draws in its order (contestants, rivals,
    coins, SBX uniforms, mutation count, mutation sites, perturbation uniforms),
    with the operators applied pair by pair: two tournaments by
    ``crowded_compare``, SBX when the pair crosses, then mutation of each
    child's masked genes, the masks rebuilt from the drawn sites."""
    n, length, pairs = len(population), population[0].genotype.shape[0], config.population_size // 2
    contestants = rng.integers(n, size=(pairs, 2))
    rivals = rng.integers(n - 1, size=(pairs, 2))
    coins = rng.random(pairs) < config.crossover_prob
    sbx_draws = iter(rng.random((int(coins.sum()), length)))
    masks = reference_mutation_masks(config.population_size, length, config.mutation_prob, rng)
    perturbation_draws = iter(rng.random(int(masks.sum())).tolist())
    children = []
    for pair in range(pairs):
        winners = []
        for i, j in zip(contestants[pair].tolist(), rivals[pair].tolist()):
            if j >= i:
                j += 1
            winners.append(population[i if crowded_compare(population[i], population[j]) <= 0 else j].genotype)
        if coins[pair]:
            pair_children = reference_sbx_children(winners[0], winners[1], next(sbx_draws))
        else:
            pair_children = winners[0].copy(), winners[1].copy()
        for child in pair_children:
            mask = masks[len(children)]
            u = np.zeros(length)
            u[mask] = [next(perturbation_draws) for _ in range(int(mask.sum()))]
            children.append(np.clip(np.where(mask, reference_mutated_genes(child, u), child), 0.0, 1.0))
    return children


def reference_mutation_masks(size, length, mutation_prob, rng) -> np.ndarray:
    """The ``(size, length)`` mutation masks of one generation from the
    engine's two site draws: a Binomial(size·length, p) count, then that many
    distinct flat row-major positions."""
    count = rng.binomial(size * length, mutation_prob)
    masks = np.zeros(size * length, dtype=bool)
    masks[rng.choice(size * length, size=count, replace=False, shuffle=False)] = True
    return masks.reshape(size, length)


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


def reference_rank_and_crowd(members, fronts) -> None:
    """Write each member's 1-based front number and its crowding within its
    front, the front's members taken in the order listed, onto ``members``."""
    for rank, front in enumerate(fronts, start=1):
        for i, distance in zip(front, oracle_crowding([members[i].objectives for i in front])):
            members[i].rank, members[i].crowding = rank, distance


def reference_select(parents, offspring, n_survivors):
    """Survivors of parents plus offspring by ``oracle_environmental_select``,
    each with its combined rank and its crowding over its front's survivors,
    the cut front's in survivor order."""
    combined = list(parents) + list(offspring)
    objectives = [m.objectives for m in combined]
    violations = [m.violation for m in combined]
    chosen = oracle_environmental_select(objectives, violations, n_survivors)
    # each front's survivors in survivor order; the fronts after the cut keep none
    fronts = [[i for i in chosen if i in front] for front in map(set, oracle_sort(objectives, violations))]
    reference_rank_and_crowd(combined, [front for front in fronts if front])
    return [combined[i] for i in chosen]


def reference_archive(members, candidates):
    """Archive fold by ``oracle_nondominated``: the feasible non-dominated
    members and candidates, the first of equal vectors kept, sorted by
    objective tuple."""
    pool = list(members) + [c for c in candidates if c.violation == 0.0]
    keep = oracle_nondominated([m.objectives for m in pool])
    return sorted((pool[i] for i in keep), key=lambda m: tuple(m.objectives.tolist()))


def reference_evolve(problem, config) -> EvolutionResult:
    """The generational loop with per-pair variation and per-row checks,
    ranked, selected and archived by the plain-Python oracles."""
    rng = np.random.default_rng(config.seed)
    initial = rng.random((config.population_size, int(problem.genotype_length)))
    population, m = reference_evaluate(list(initial), problem, None)
    reference_rank_and_crowd(
        population, oracle_sort([p.objectives for p in population], [p.violation for p in population])
    )
    members = reference_archive([], population)
    history = []

    def record(generation):
        objectives = np.array([a.objectives for a in members]) if members else np.empty((0, 0))
        history.append(GenerationRecord(
            generation=generation,
            evaluations=config.population_size * (generation + 1),
            archive_size=len(members),
            best_objectives=objectives.min(axis=0) if members else None,
            worst_objectives=objectives.max(axis=0) if members else None,
            undominated_area=reference_undominated_area(objectives) if members and m == 2 else None,
        ))

    record(0)
    for generation in range(1, config.generations + 1):
        offspring, m = reference_evaluate(reference_offspring(population, config, rng), problem, m)
        population = reference_select(population, offspring, config.population_size)
        members = reference_archive(members, offspring)
        record(generation)
    return EvolutionResult(population=population, archive=ParetoArchive(members), history=history)
