"""Elitist non-dominated sorting genetic algorithm for constrained bi/multi-objective
minimization over real-coded genotypes in the unit box [0, 1]^L.

The engine is problem-agnostic: anything exposing ``genotype_length`` and
``evaluate(genotype) -> (objectives, violation)`` can be plugged in; a problem
that also has ``evaluate_batch`` gets each generation as one matrix.  All
randomness flows through a single seeded generator consumed only by
initialization, selection, and variation.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

__all__ = [
    "EvaluationError",
    "Individual",
    "EngineConfig",
    "SBX_ETA",
    "PM_ETA",
    "FrontPartition",
    "ParetoArchive",
    "GenerationRecord",
    "EvolutionResult",
    "Problem",
    "fast_nondominated_sort",
    "crowding_distance",
    "environmental_select",
    "assign_ranks_and_crowding",
    "update_archive",
    "evolve",
]


class EvaluationError(RuntimeError):
    """An evaluator returned a malformed result (non-finite or wrong shape)."""


class Problem(Protocol):
    """Minimal evaluator interface the engine optimizes against.

    A problem may also define ``evaluate_batch(genotypes)``, taking an
    ``(N, L)`` matrix and returning ``(objectives (N, M), violations (N,))``
    whose row ``n`` is what ``evaluate(genotypes[n])`` returns.  Rows must be
    independent of each other.  The engine then calls it once per generation
    in place of ``evaluate``.
    """

    genotype_length: int

    def evaluate(self, genotype: np.ndarray) -> tuple[np.ndarray, float]:
        """Return ``(objectives, violation)`` for one genotype.

        Objectives are minimized component-wise; ``violation`` is a
        nonnegative scalar, zero meaning feasible.
        """
        ...


@dataclass(eq=False)
class Individual:
    """One candidate solution: genotype plus its evaluation results.

    ``rank`` and ``crowding`` are populated by the sorting/selection machinery
    and stay ``None`` until then.
    """

    genotype: np.ndarray
    objectives: np.ndarray
    violation: float = 0.0
    rank: int | None = None
    crowding: float | None = None

    def __post_init__(self) -> None:
        self.genotype = np.asarray(self.genotype, dtype=float)
        if self.genotype.ndim != 1:
            raise ValueError("genotype must be a one-dimensional vector")
        if np.any(self.genotype < 0.0) or np.any(self.genotype > 1.0):
            raise ValueError("genotype coordinates must lie in [0, 1]")
        self.objectives = np.asarray(self.objectives, dtype=float)
        if not np.all(np.isfinite(self.objectives)):
            raise ValueError("objectives must be finite")
        if not (math.isfinite(self.violation) and self.violation >= 0.0):
            raise ValueError("constraint violation must be finite and nonnegative")

    @classmethod
    def _checked(cls, genotype: np.ndarray, objectives: np.ndarray, violation: float) -> Individual:
        """An unranked Individual from values whose checks have already passed."""
        ind = cls.__new__(cls)
        ind.genotype, ind.objectives, ind.violation = genotype, objectives, violation
        ind.rank = ind.crowding = None
        return ind

    @property
    def feasible(self) -> bool:
        return self.violation == 0.0


# Distribution indices of SBX crossover and polynomial mutation.
SBX_ETA = 15.0
PM_ETA = 20.0


@dataclass
class EngineConfig:
    """Run parameters for :func:`evolve`.

    ``population_size`` must be even (pairwise variation) and at least 4.
    """

    population_size: int = 100
    generations: int = 200
    crossover_prob: float = 0.6
    mutation_prob: float = 0.01
    seed: int = 42

    def __post_init__(self) -> None:
        if self.population_size < 4 or self.population_size % 2 != 0:
            raise ValueError("population_size must be an even integer >= 4")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        for name in ("crossover_prob", "mutation_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass
class FrontPartition:
    """Result of non-dominated sorting: fronts as index arrays plus a rank map.

    ``fronts[0]`` is the non-dominated set; ``ranks[i]`` is 1-based and equals
    ``k+1`` when individual ``i`` sits in ``fronts[k]``.  Each front lists its
    indices in ascending population order; crowding ties and the cut of the
    last admitted front in :func:`environmental_select` depend on that order.
    """

    fronts: list[np.ndarray]
    ranks: np.ndarray


def _pareto_fronts(points: np.ndarray) -> list[np.ndarray]:
    """Pareto fronts of the rows of ``points``, each front in ascending row order.

    Two objectives take one sweep in (f1, f2)-lexicographic order, where every
    dominator of a point comes before it and each front's latest member has
    the least f2 in that front.  A point joins the first front whose latest
    member does not dominate it: the first whose ``(f2, f1)`` key is not below
    the point's.  Those keys increase from front to front, so a bisection
    finds it.  More objectives peel fronts by domination counts over the
    pairwise dominance matrix.
    """
    if points.shape[1] != 2:
        le = np.all(points[:, None, :] <= points[None, :, :], axis=2)
        dom = le & np.any(points[:, None, :] < points[None, :, :], axis=2)
        counts = dom.sum(axis=0)
        fronts: list[np.ndarray] = []
        current = np.flatnonzero(counts == 0)
        while current.size:
            fronts.append(current)
            counts -= dom[current].sum(axis=0)
            counts[current] = -1  # peeled: never counted as undominated again
            current = np.flatnonzero(counts == 0)
        return fronts
    values = points.tolist()
    keys: list[tuple[float, float]] = []
    members: list[list[int]] = []
    for i in np.lexsort((points[:, 1], points[:, 0])).tolist():
        key = (values[i][1], values[i][0])
        k = bisect_left(keys, key)
        if k == len(keys):
            keys.append(key)
            members.append([i])
        else:
            keys[k] = key
            members[k].append(i)
    return [np.sort(np.array(front)) for front in members]


def fast_nondominated_sort(population: Sequence[Individual]) -> FrontPartition:
    """Partition a population into ranked fronts under constraint-domination.

    Every feasible point dominates every infeasible one, and two infeasible
    points compare by violation alone.  So feasible points take the first
    fronts, the Pareto fronts of the feasible rows only (:func:`_pareto_fronts`);
    infeasible points follow with one front per distinct violation value, in
    ascending order (a stable sort of their violations).
    """
    n = len(population)
    if n == 0:
        raise ValueError("cannot sort an empty population")
    objectives = np.array([ind.objectives for ind in population], dtype=float)
    violations = np.array([ind.violation for ind in population], dtype=float)
    feasible = violations == 0.0

    rows = np.flatnonzero(feasible)
    fronts = [rows[front] for front in _pareto_fronts(objectives[rows])]

    rows = np.flatnonzero(~feasible)
    rows = rows[np.argsort(violations[rows], kind="stable")]  # stable: equal violations keep index order
    if rows.size:
        fronts.extend(np.split(rows, np.flatnonzero(np.diff(violations[rows])) + 1))
    ranks = np.zeros(n, dtype=int)
    for rank, front in enumerate(fronts, start=1):
        ranks[front] = rank
    return FrontPartition(fronts=fronts, ranks=ranks)


def crowding_distance(front_values: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Crowding distance of each point within one front.

    Per objective, points are sorted and each interior point accumulates the
    normalized gap between its neighbors,
    ``(f[i+1] - f[i-1]) / (f_max - f_min)``; the two boundary points get
    ``+inf``.  An objective with zero spread contributes nothing to interior
    points.
    """
    values = np.asarray(front_values, dtype=float)
    if values.ndim != 2:
        raise ValueError("front_values must be a sequence of objective vectors")
    n, m = values.shape
    if n == 0:
        raise ValueError("front must be nonempty")
    distance = np.zeros(n)
    for j in range(m):
        order = np.argsort(values[:, j], kind="stable")
        span = values[order[-1], j] - values[order[0], j]
        if span > 0.0:
            gaps = (values[order[2:], j] - values[order[:-2], j]) / span
            distance[order[1:-1]] += gaps
        distance[order[0]] = np.inf
        distance[order[-1]] = np.inf
    return distance


def _sbx_children(p1: np.ndarray, p2: np.ndarray, u: np.ndarray, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover children of parents ``p1`` and ``p2`` (any
    equal shape) for uniform draws ``u``: genes blended with spread factor
    ``beta`` from the SBX distribution of index ``eta``, clamped to [0, 1]."""
    exponent = 1.0 / (eta + 1.0)
    beta = np.where(
        u <= 0.5,
        (2.0 * u) ** exponent,
        (1.0 / (2.0 * (1.0 - u))) ** exponent,
    )
    child1 = 0.5 * ((1.0 + beta) * p1 + (1.0 - beta) * p2)
    child2 = 0.5 * ((1.0 - beta) * p1 + (1.0 + beta) * p2)
    return np.clip(child1, 0.0, 1.0), np.clip(child2, 0.0, 1.0)


def _perturb(g: np.ndarray, u: np.ndarray, eta: float) -> np.ndarray:
    """Polynomially mutated genes ``g`` for uniform draws ``u`` (distribution
    index ``eta``); deltas shrink near the box's bounds, and results are
    clamped to [0, 1]."""
    exponent = 1.0 / (eta + 1.0)
    to_lower = g          # distance to the lower bound (box is [0, 1])
    to_upper = 1.0 - g
    delta_low = (2.0 * u + (1.0 - 2.0 * u) * (1.0 - to_lower) ** (eta + 1.0)) ** exponent - 1.0
    delta_high = 1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - to_upper) ** (eta + 1.0)) ** exponent
    delta = np.where(u <= 0.5, delta_low, delta_high)
    return np.clip(g + delta, 0.0, 1.0)


def assign_ranks_and_crowding(population: Sequence[Individual]) -> FrontPartition:
    """Sort a population and write rank/crowding back onto each individual."""
    partition = fast_nondominated_sort(population)
    for front in partition.fronts:
        distances = crowding_distance([population[i].objectives for i in front])
        for position, i in enumerate(front):
            population[i].rank = int(partition.ranks[i])
            population[i].crowding = float(distances[position])
    return partition


def environmental_select(
    parents: Sequence[Individual],
    offspring: Sequence[Individual],
    n_survivors: int,
) -> list[Individual]:
    """Elitist (mu + lambda) truncation of parents plus offspring to ``n_survivors``.

    Whole fronts are admitted in rank order; the front that overflows is cut
    by descending crowding distance, ties resolved toward the lower combined
    index.  Survivors keep their combined ranks: every dominator of a kept
    member lies in an earlier front, and earlier fronts are kept whole, so
    sorting the survivors alone would give the same ranks.  Crowding is taken
    over each admitted front, for the cut front over its kept members in kept
    order.
    """
    if len(parents) != n_survivors or len(offspring) != n_survivors:
        raise ValueError("parents and offspring must each have exactly n_survivors members")
    combined: list[Individual] = list(parents) + list(offspring)
    partition = fast_nondominated_sort(combined)
    survivors: list[Individual] = []
    for rank, front in enumerate(partition.fronts, start=1):
        room = n_survivors - len(survivors)
        distances = crowding_distance([combined[i].objectives for i in front])
        if front.size > room:
            front = front[np.argsort(-distances, kind="stable")[:room]]  # stable: ties keep lower index
            distances = crowding_distance([combined[i].objectives for i in front])
        for i, distance in zip(front, distances):
            combined[i].rank = rank
            combined[i].crowding = float(distance)
            survivors.append(combined[i])
        if len(survivors) == n_survivors:
            break
    return survivors


@dataclass
class ParetoArchive:
    """All-time store of feasible, mutually non-dominated individuals.

    Members are kept sorted by objective tuple; duplicate objective vectors
    are kept once.
    """

    members: list[Individual] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def objectives_array(self) -> np.ndarray:
        if not self.members:
            return np.empty((0, 0))
        return np.array([m.objectives for m in self.members], dtype=float)


def update_archive(archive: ParetoArchive, candidates: Sequence[Individual]) -> ParetoArchive:
    """Fold feasible candidates into the archive, keeping the non-dominated set.

    Infeasible candidates are ignored.  The result is a new archive whose
    members are mutually non-dominated with duplicates (by objective vector)
    removed, sorted by objectives.
    """
    pool = list(archive.members) + [c for c in candidates if c.feasible]
    if not pool:
        return ParetoArchive([])
    objectives = np.array([p.objectives for p in pool], dtype=float)
    front = _pareto_fronts(objectives)[0]
    front = front[np.lexsort(objectives[front].T[::-1])]  # stable: equal vectors keep pool order
    values = objectives[front]
    first = np.ones(len(front), dtype=bool)  # equal vectors: the earliest pool member stays
    first[1:] = (values[1:] != values[:-1]).any(axis=1)
    return ParetoArchive([pool[i] for i in front[first].tolist()])


@dataclass
class GenerationRecord:
    """Progress snapshot after one generation has been folded into the archive."""

    generation: int
    evaluations: int
    archive_size: int
    best_objectives: np.ndarray | None
    archive_objectives: np.ndarray


@dataclass
class EvolutionResult:
    population: list[Individual]
    archive: ParetoArchive
    history: list[GenerationRecord]


def _row_faults(genotypes: np.ndarray, objectives: np.ndarray, violations: np.ndarray) -> np.ndarray:
    """Per-row faults of an evaluated block, the checks :class:`Individual` makes:
    non-finite objectives, a non-finite or negative violation, and a gene
    outside [0, 1], as a ``(3, N)`` boolean array in that order."""
    return np.stack([
        ~np.isfinite(objectives).all(axis=1),
        ~(np.isfinite(violations) & (violations >= 0.0)),
        ((genotypes < 0.0) | (genotypes > 1.0)).any(axis=1),
    ])


def _check_rows(genotypes: np.ndarray, objectives: np.ndarray, violations: np.ndarray) -> None:
    """Raise for the first faulty row, its objectives checked before its violation."""
    faults = _row_faults(genotypes, objectives, violations)
    bad = np.flatnonzero(faults.any(axis=0))
    if not bad.size:
        return
    k = int(bad[0])
    if faults[0, k]:
        raise EvaluationError(f"non-finite objective at genotype index {k}: {objectives[k].tolist()}")
    if faults[1, k]:
        raise EvaluationError(f"invalid constraint violation at genotype index {k}: {float(violations[k])}")
    raise ValueError("genotype coordinates must lie in [0, 1]")


def _objective_count_fault(k: int, shape: tuple[int, ...], m: int | None) -> str | None:
    """What is wrong with row ``k``'s objective shape, given the count ``m`` seen so far."""
    if len(shape) != 1 or shape[0] < 2:
        return f"genotype index {k}: expected >= 2 objectives, got shape {shape}"
    if m is not None and shape[0] != m:
        return f"genotype index {k}: objective count changed from {m} to {shape[0]}"
    return None


def _evaluate_batch(
    genotypes: np.ndarray,
    problem: Problem,
    expected_m: int | None,
) -> tuple[list[Individual], int]:
    """Evaluate the rows of an ``(N, L)`` matrix into Individuals, through
    ``problem.evaluate_batch`` when the problem has one and one ``evaluate``
    call per row otherwise.  The whole block is checked at once; each
    Individual gets its own copy of its row."""
    m = expected_m
    batch = getattr(problem, "evaluate_batch", None)
    if batch is None:
        objective_rows: list[np.ndarray] = []
        violation_list: list[float] = []
        for k, g in enumerate(genotypes):
            objectives, violation = problem.evaluate(g)
            objectives, violation = np.asarray(objectives, dtype=float), float(violation)
            fault = _objective_count_fault(k, objectives.shape, m)
            if fault:
                if k:  # an earlier row's fault is reported first
                    _check_rows(genotypes[:k], np.array(objective_rows), np.array(violation_list))
                raise EvaluationError(fault)
            m = objectives.size
            objective_rows.append(objectives)
            violation_list.append(violation)
        objective_matrix = np.array(objective_rows)
        violations = np.array(violation_list)
    else:
        n = len(genotypes)
        objective_matrix, violations = batch(genotypes)
        objective_matrix = np.asarray(objective_matrix, dtype=float)
        violations = np.asarray(violations, dtype=float)
        if objective_matrix.ndim != 2 or objective_matrix.shape[0] != n or violations.shape != (n,):
            raise EvaluationError(
                f"evaluate_batch returned objectives of shape {objective_matrix.shape} and "
                f"violations of shape {violations.shape} for {n} genotypes"
            )
        fault = _objective_count_fault(0, objective_matrix.shape[1:], m)
        if fault:
            raise EvaluationError(fault)
        m = objective_matrix.shape[1]
        objective_rows = list(objective_matrix)
    _check_rows(genotypes, objective_matrix, violations)
    individuals = [
        Individual._checked(g.copy(), objectives, violation)
        for g, objectives, violation in zip(genotypes, objective_rows, violations.tolist())
    ]
    return individuals, int(m)  # type: ignore[arg-type]


# Raw generator words decoded per block of pairs, a memory bound rather than a
# tuning knob: one block holds max(1, _BLOCK_WORDS // (3 + 5L)) pairs, and its
# words, uniforms and parents take about 256 KiB each.  A paper-scale
# generation (L = 195) runs in 20 blocks of 33 pairs.
_BLOCK_WORDS = 1 << 15
_TO_UNIT = 2.0**-53  # numpy's random() is (word >> 11) * 2^-53
_LOW_HALF = np.uint64(0xFFFFFFFF)


def _per_pair_draws(
    rng: np.random.Generator, n: int, size: int, length: int, crossover_prob: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The draws of ``size`` pairs, made pair by pair through ``rng``: per pair
    ``integers(n)``, ``integers(n - 1)``, ``integers(n)``, ``integers(n - 1)``,
    the crossover coin, then ``random(5L)`` when the pair crosses (SBX
    uniforms, then each child's mutation mask and perturbation draws) or
    ``random(4L)`` when it does not.  Returns the contestant draws ``(size, 4)``,
    the coins ``(size,)`` and the uniforms ``(size, 5L)``, whose SBX columns are
    unset on pairs that do not cross."""
    contestants = np.empty((size, 4), dtype=np.int64)
    crosses = np.empty(size, dtype=bool)
    draws = np.empty((size, 5 * length))
    for p in range(size):
        contestants[p] = (rng.integers(n), rng.integers(n - 1), rng.integers(n), rng.integers(n - 1))
        crosses[p] = cross = rng.random() < crossover_prob
        draws[p, 0 if cross else length:] = rng.random((5 if cross else 4) * length)
    return contestants, crosses, draws


def _lemire(halves: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, bool]:
    """Lemire's multiply-shift ``(h * bound) >> 32`` of 32-bit draws ``halves``
    (each column against its entry of ``bounds``), and whether any draw falls
    where numpy's ``integers`` rejects it and draws again: a low product word
    below ``(2^32 - bound) mod bound``.  Halves and bounds are below 2^32, so
    the products fit in 64 bits."""
    product = halves * bounds
    threshold = (np.uint64(1 << 32) - bounds) % bounds
    return product >> np.uint64(32), bool(((product & _LOW_HALF) < threshold).any())


def _decoded_draws(
    rng: np.random.Generator, n: int, size: int, length: int, crossover_prob: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """:func:`_per_pair_draws`'s result decoded from one ``random_raw`` call
    on a PCG64 generator, leaving its state as the per-pair calls would; or
    ``None``, with the state untouched, when a contestant draw hits a Lemire
    rejection.

    ``integers(k)`` for k < 2^32 is Lemire's multiply-shift on one 32-bit
    half of a word, low half first; the generator buffers the high half
    (``has_uint32``/``uinteger``).  A pair's four contestant draws take two
    words' halves, so the buffer's state is the same before and after each
    pair; when it holds a half, that half is the pair's first draw.  The coin
    and the uniforms are ``(word >> 11) * 2^-53``, one word each.  A pair
    uses 3 + 5L words when it crosses and 3 + 4L when it does not, so a walk
    over the coins finds where each pair's words start.
    """
    bit_generator = rng.bit_generator
    saved = bit_generator.state
    buffered = saved["has_uint32"]
    raw = bit_generator.random_raw(size * (3 + 5 * length))
    mantissas = (raw >> np.uint64(11)).view(np.int64)  # the uniforms are these times 2^-53
    coins = mantissas * _TO_UNIT < crossover_prob
    flags = coins.tobytes()  # indexing bytes is cheaper than indexing the array in the walk
    crossed, plain = 3 + 5 * length, 3 + 4 * length
    offsets = []
    used = 0
    for _ in range(size):
        offsets.append(used)
        used += crossed if flags[used + 2] else plain
    starts = np.array(offsets)

    words = raw[starts[:, None] + np.arange(2)]
    low, high = words & _LOW_HALF, words >> np.uint64(32)
    if buffered:  # the buffered half, then each pair's halves shifted by one
        previous = np.concatenate((np.array([saved["uinteger"]], dtype=np.uint64), high[:-1, 1]))
        halves = np.column_stack((previous, low[:, 0], high[:, 0], low[:, 1]))
    else:
        halves = np.column_stack((low[:, 0], high[:, 0], low[:, 1], high[:, 1]))
    contestants, rejected = _lemire(halves, np.array([n, n - 1, n, n - 1], dtype=np.uint64))
    if rejected:
        bit_generator.state = saved
        return None

    crosses = coins[starts + 2]
    draws = np.empty((size, 5 * length))
    windows = np.lib.stride_tricks.sliding_window_view(mantissas, 4 * length)
    # mutation uniforms follow the SBX ones on a crossing pair
    np.multiply(windows[starts + 3 + length * crosses], _TO_UNIT, out=draws[:, length:])
    crossing = np.flatnonzero(crosses)
    draws[crossing, :length] = windows[starts[crossing] + 3, :length] * _TO_UNIT

    bit_generator.state = saved
    bit_generator.advance(used)  # advance clears the buffer; restore what the per-pair calls leave
    state = bit_generator.state
    state["has_uint32"], state["uinteger"] = buffered, int(high[-1, 1])
    bit_generator.state = state
    return contestants.astype(np.int64), crosses, draws


def _make_offspring(
    population: list[Individual],
    config: EngineConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """``population_size`` children as an ``(N, L)`` matrix, two per mating pair.

    Each pair draws, in order: two binary tournaments (a contestant index,
    then the other contestant among the remaining n - 1), the crossover coin
    (crossing when below ``crossover_prob``), then one call for the uniforms:
    SBX's when the pair crosses, then each child's mutation mask and
    perturbation draws.  Successive ``random(L)`` calls give the same doubles
    as one ``random(kL)`` call, so the children equal those of the per-pair
    tournament, SBX and polynomial mutation in ``tests/oracles.py`` called in
    turn.

    Pairs run in blocks of up to ``_BLOCK_WORDS // (3 + 5L)``.  On a PCG64
    generator a block's draws are decoded from one ``random_raw`` call
    (:func:`_decoded_draws`) and the generator is left in the state the
    per-pair calls would leave; a block with a Lemire rejection, and any block
    on another bit generator, makes the per-pair calls instead
    (:func:`_per_pair_draws`).  Tournaments (lower rank wins, then larger
    crowding, ties to the first drawn), crossover and mutation then run over
    the block.  Children are clamped to [0, 1].
    """
    n = len(population)
    length = population[0].genotype.shape[0]
    ranks = np.array([ind.rank for ind in population])
    crowding = np.array([ind.crowding for ind in population], dtype=float)
    pairs = config.population_size // 2
    block_pairs = max(1, _BLOCK_WORDS // (3 + 5 * length))
    # integers(1) draws nothing, so the halves would not pair up below n = 3
    decodable = type(rng.bit_generator) is np.random.PCG64 and n >= 3
    children = np.empty((2 * pairs, length))
    for start in range(0, pairs, block_pairs):
        size = min(block_pairs, pairs - start)
        drawn = _decoded_draws(rng, n, size, length, config.crossover_prob) if decodable else None
        if drawn is None:
            drawn = _per_pair_draws(rng, n, size, length, config.crossover_prob)
        contestants, crosses, draws = drawn

        first, second = contestants[:, 0::2], contestants[:, 1::2]
        second = second + (second >= first)  # drawn among the other n - 1
        # crowded comparison: lower rank wins, then larger crowding; ties go to the first drawn
        first_wins = (ranks[first] < ranks[second]) | (
            (ranks[first] == ranks[second]) & (crowding[first] >= crowding[second])
        )
        winners = np.where(first_wins, first, second)

        block = np.array([population[k].genotype for k in winners.ravel()]).reshape(size, 2, length)
        crossing = np.flatnonzero(crosses)
        if crossing.size:
            block[crossing, 0], block[crossing, 1] = _sbx_children(
                block[crossing, 0], block[crossing, 1], draws[crossing, :length], SBX_ETA
            )
        mutation = draws[:, length:].reshape(size, 2, 2, length)
        mask = mutation[:, :, 0] < config.mutation_prob
        block[mask] = _perturb(block[mask], mutation[:, :, 1][mask], PM_ETA)
        children[2 * start: 2 * (start + size)] = block.reshape(2 * size, length)
    return children


def _record(generation: int, evaluations: int, archive: ParetoArchive) -> GenerationRecord:
    objectives = archive.objectives_array()
    best = objectives.min(axis=0) if len(archive) else None
    return GenerationRecord(
        generation=generation,
        evaluations=evaluations,
        archive_size=len(archive),
        best_objectives=best,
        archive_objectives=objectives,
    )


def evolve(problem: Problem, config: EngineConfig) -> EvolutionResult:
    """Run the full generational loop and return population, archive, and history.

    The initial population is sampled uniformly from [0, 1]^L, evaluated, and
    ranked; each generation then produces ``population_size`` children via
    binary tournaments, SBX, and polynomial mutation, evaluates them, and
    applies elitist environmental selection over parents plus offspring.  The
    archive accumulates every feasible non-dominated point seen; ``history``
    holds one record for the initial population (generation 0) and one per
    generation after it.  Runs are fully deterministic for a fixed config.
    """
    length = int(problem.genotype_length)
    if length < 1:
        raise ValueError("problem.genotype_length must be >= 1")
    rng = np.random.default_rng(config.seed)
    population, m = _evaluate_batch(rng.random((config.population_size, length)), problem, None)
    assign_ranks_and_crowding(population)
    archive = update_archive(ParetoArchive(), population)
    evaluations = config.population_size
    history = [_record(0, evaluations, archive)]

    for generation in range(1, config.generations + 1):
        offspring, m = _evaluate_batch(_make_offspring(population, config, rng), problem, m)
        population = environmental_select(population, offspring, config.population_size)
        archive = update_archive(archive, offspring)
        evaluations += config.population_size
        history.append(_record(generation, evaluations, archive))

    return EvolutionResult(population=population, archive=archive, history=history)
