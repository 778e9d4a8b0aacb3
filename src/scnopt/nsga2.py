"""Elitist non-dominated sorting genetic algorithm for constrained bi/multi-objective
minimization over real-coded genotypes in the unit box [0, 1]^L.

The engine is problem-agnostic: anything exposing ``genotype_length`` and
``evaluate(genotype) -> (objectives, violation)`` can be plugged in; a problem
that also has ``evaluate_batch`` gets each generation's new children as one
matrix.

The population lives in arrays.  Genotypes fill the top half of one
``(2N, L)`` buffer whose bottom half takes each generation's children;
objectives ``(N, M)``, violations, ranks and crowding ``(N,)`` are plain
arrays.  Sorting, selection and crowding take those arrays and return row
indices.  :class:`Individual` objects are built only for archive members and,
once at the end, for :attr:`EvolutionResult.population`.  All randomness flows
through a single seeded generator consumed only by initialization, selection,
and variation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Protocol, Sequence

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
    "update_archive",
    "evolve",
]


class EvaluationError(RuntimeError):
    """An evaluator returned a malformed result (non-finite or wrong shape)."""


class Problem(Protocol):
    """Minimal evaluator interface the engine optimizes against.

    ``evaluate`` must be a deterministic function of the genotype: a child
    copied unchanged from its tournament winner takes the winner's values
    without a call.

    A problem may also define ``evaluate_batch(genotypes)``, taking an
    ``(N, L)`` matrix and returning ``(objectives (N, M), violations (N,))``
    whose row ``n`` is what ``evaluate(genotypes[n])`` returns.  Rows must be
    independent of each other.  The engine then calls it in place of
    ``evaluate``, at most once per generation, with only the new children's
    rows; otherwise it calls ``evaluate`` once per new row.  Either method
    receives rows of a fresh matrix gathered from the engine's genotype
    buffer, never a view of that buffer.  Results are checked in row order:
    the first row whose objectives are not a finite vector of the run's
    length (at least 2), or whose violation is not a finite nonnegative
    number, raises.
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

    The engine builds these for archive members and for the final population
    only.  ``rank`` and ``crowding`` are set on the final population and stay
    ``None`` on archive members.
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
    def _checked(
        cls,
        genotype: np.ndarray,
        objectives: np.ndarray,
        violation: float,
        rank: int | None = None,
        crowding: float | None = None,
    ) -> Individual:
        """An Individual from values whose checks have already passed."""
        ind = cls.__new__(cls)
        ind.genotype, ind.objectives, ind.violation = genotype, objectives, violation
        ind.rank, ind.crowding = rank, crowding
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
    ``k+1`` when point ``i`` sits in ``fronts[k]``, or 0 when the sort
    stopped before placing it.  Each front lists its row indices in ascending
    order; crowding ties and the cut of the last admitted front in
    :func:`environmental_select` depend on that order.
    """

    fronts: list[np.ndarray]
    ranks: np.ndarray


def _lexsorted(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row order that sorts ``points`` lexicographically (stable: equal
    vectors keep row order), the sorted rows, and a mask of the sorted rows
    that start a new distinct vector."""
    order = np.lexsort(points.T[::-1])
    ranked = points[order]
    head = np.ones(len(order), dtype=bool)
    head[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return order, ranked, head


def _pareto_fronts(points: np.ndarray, stop: int | None = None) -> list[np.ndarray]:
    """Pareto fronts of the rows of ``points``, each front in ascending row
    order, peeled until at least ``stop`` rows are placed (all by default).

    Two objectives peel the distinct vectors in (f1, f2)-lexicographic order,
    where every dominator of a point comes before it: the next front is the
    vectors left whose f2 is below the running minimum of the f2 before them
    (one ``np.minimum.accumulate``), and equal vectors share a front.  More
    objectives peel by domination counts over the pairwise dominance matrix.
    """
    n = len(points)
    stop = n if stop is None else min(stop, n)
    level = np.full(n, n)  # each row's front number; n while not placed
    placed = k = 0
    if points.shape[1] == 2:
        order, ranked, head = _lexsorted(points)
        heads = np.flatnonzero(head)
        sizes = np.diff(np.append(heads, n))
        f2 = ranked[heads, 1]
        distinct_level = np.full(heads.size, n)
        left = np.arange(heads.size)
        while placed < stop:
            values = f2[left]
            front = np.ones(values.size, dtype=bool)
            np.less(values[1:], np.minimum.accumulate(values[:-1]), out=front[1:])
            distinct_level[left[front]] = k
            placed += int(sizes[left[front]].sum())
            left = left[~front]
            k += 1
        level[order] = np.repeat(distinct_level, sizes)
    else:
        le = np.all(points[:, None, :] <= points[None, :, :], axis=2)
        dom = le & np.any(points[:, None, :] < points[None, :, :], axis=2)
        counts = dom.sum(axis=0)
        current = np.flatnonzero(counts == 0)
        while placed < stop:
            level[current] = k
            placed += current.size
            counts -= dom[current].sum(axis=0)
            counts[current] = -1  # peeled: never counted as undominated again
            current = np.flatnonzero(counts == 0)
            k += 1
    if not placed:
        return []
    rows = np.argsort(level, kind="stable")[:placed]  # stable: a front keeps row order
    return np.split(rows, np.cumsum(np.bincount(level[rows]))[:-1])


def _nondominated(points: np.ndarray) -> np.ndarray:
    """Rows of ``points`` that no other row dominates, one per distinct vector
    (its first row), in lexicographic order of the vectors.

    For two objectives these are the distinct vectors whose f2 is below the
    least f2 of the vectors before them, the running minimum
    :func:`scnopt.metrics.hypervolume_2d` sweeps with.  More objectives take
    the first Pareto front of the distinct vectors.
    """
    order, ranked, head = _lexsorted(points)
    order, ranked = order[head], ranked[head]
    if points.shape[1] == 2:
        f2 = ranked[:, 1]
        return order[f2 < np.minimum.accumulate(np.concatenate(([np.inf], f2[:-1])))]
    return order[_pareto_fronts(ranked, 1)[0]]


def fast_nondominated_sort(
    objectives: np.ndarray, violations: np.ndarray, stop: int | None = None
) -> FrontPartition:
    """Partition points, ``objectives (N, M)`` and ``violations (N,)``, into
    ranked fronts under constraint-domination.

    Every feasible point dominates every infeasible one, and two infeasible
    points compare by violation alone.  So feasible points take the first
    fronts, the Pareto fronts of the feasible rows only (:func:`_pareto_fronts`);
    infeasible points follow with one front per distinct violation value, in
    ascending order (a stable sort of their violations).  With ``stop``, the
    sort ends with the front that places the ``stop``-th point; later points
    keep rank 0.
    """
    objectives = np.asarray(objectives, dtype=float)
    violations = np.asarray(violations, dtype=float)
    n = len(objectives)
    if n == 0:
        raise ValueError("cannot sort an empty population")
    if stop is not None and stop < 1:
        raise ValueError("stop must be at least 1")
    if objectives.ndim != 2 or violations.shape != (n,):
        raise ValueError("objectives must be an (N, M) array and violations an (N,) array")
    stop = n if stop is None else min(stop, n)
    feasible = violations == 0.0

    rows = np.flatnonzero(feasible)
    fronts = [rows[front] for front in _pareto_fronts(objectives[rows], stop)]
    placed = sum(front.size for front in fronts)
    if placed < stop:
        rows = np.flatnonzero(~feasible)
        rows = rows[np.argsort(violations[rows], kind="stable")]  # stable: equal violations keep index order
        starts = np.flatnonzero(np.diff(violations[rows])) + 1
        last = np.searchsorted(starts, stop - placed)  # the front holding the stop-th point ends at starts[last]
        fronts.extend(np.split(rows[: starts[last] if last < starts.size else rows.size], starts[:last]))
    ranks = np.zeros(n, dtype=int)
    ranks[np.concatenate(fronts)] = np.repeat(np.arange(1, len(fronts) + 1), [front.size for front in fronts])
    return FrontPartition(fronts=fronts, ranks=ranks)


def _front_crowding(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Crowding distance of each row of ``values`` within its front, the fronts
    being consecutive runs of ``sizes`` rows (each at least 1).

    One pass per objective covers every front: a stable lexsort by (front,
    value) sorts each front's points by that objective, ties in row order.
    Each interior point adds the normalized gap between its neighbours,
    ``(f[i+1] - f[i-1]) / (f_max - f_min)``, and the front's two boundary
    points get ``+inf``.  An objective with zero spread on a front adds
    nothing to its interior points.  A point adds the same terms in the same
    order as when its front is taken alone, so the bits do not depend on
    which fronts share the pass.
    """
    n, m = values.shape
    ends = np.cumsum(sizes)
    starts = ends - sizes
    front = np.repeat(np.arange(sizes.size), sizes)
    boundary = np.zeros(n, dtype=bool)
    boundary[starts] = boundary[ends - 1] = True
    distance = np.zeros(n)
    for j in range(m):
        order = np.lexsort((values[:, j], front))
        ranked = values[order, j]
        span = np.repeat(ranked[ends - 1] - ranked[starts], sizes)
        inner = np.flatnonzero(~boundary & (span > 0.0))
        distance[order[inner]] += (ranked[inner + 1] - ranked[inner - 1]) / span[inner]
        distance[order[boundary]] = np.inf
    return distance


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
    if len(values) == 0:
        raise ValueError("front must be nonempty")
    return _front_crowding(values, np.array([len(values)]))


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


def environmental_select(
    objectives: np.ndarray, violations: np.ndarray, n_survivors: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elitist (mu + lambda) truncation of the points ``objectives (N, M)``,
    ``violations (N,)`` (parents, then offspring) to ``n_survivors``.

    Returns the survivors' row indices, ranks and crowding distances.  Whole
    fronts are admitted in rank order, each in row order; the front that
    overflows is cut by descending crowding distance, ties resolved toward
    the lower row index, and its kept members follow in that order.  The
    sort stops at that front.  Survivors keep their combined ranks: every
    dominator of a kept member lies in an earlier front, and earlier fronts
    are kept whole, so sorting the survivors alone would give the same ranks.
    Crowding is taken over each admitted front (:func:`_front_crowding`, all
    fronts in one pass), for the cut front over its kept members in kept
    order.
    """
    objectives = np.asarray(objectives, dtype=float)
    if not 1 <= n_survivors <= len(objectives):
        raise ValueError("n_survivors must lie between 1 and the number of points")
    fronts = fast_nondominated_sort(objectives, violations, stop=n_survivors).fronts
    sizes = np.array([front.size for front in fronts])
    survivors = np.concatenate(fronts)
    crowding = _front_crowding(objectives[survivors], sizes)
    excess = survivors.size - n_survivors
    if excess:
        cut = fronts[-1]
        start = survivors.size - cut.size
        kept = cut[np.argsort(-crowding[start:], kind="stable")[: cut.size - excess]]  # stable: ties keep lower index
        survivors = np.concatenate((survivors[:start], kept))
        crowding = np.concatenate((crowding[:start], crowding_distance(objectives[kept])))
        sizes[-1] -= excess
    return survivors, np.repeat(np.arange(1, sizes.size + 1), sizes), crowding


@dataclass
class ParetoArchive:
    """All-time store of feasible, mutually non-dominated individuals.

    Members are kept sorted by objective tuple; duplicate objective vectors
    are kept once.
    """

    members: list[Individual] = field(default_factory=list)
    _objectives: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def objectives_array(self) -> np.ndarray:
        """The members' objectives as one ``(n, M)`` array (``(0, 0)`` when
        empty), built once per archive and shared by every caller: read it,
        do not write to it."""
        if self._objectives is None:
            self._objectives = (
                np.array([m.objectives for m in self.members], dtype=float) if self.members else np.empty((0, 0))
            )
        return self._objectives


def update_archive(archive: ParetoArchive, candidates: Sequence[Individual]) -> ParetoArchive:
    """Fold feasible candidates into the archive, keeping the non-dominated set.

    Infeasible candidates are ignored.  The result is a new archive whose
    members are mutually non-dominated, sorted by objectives, with each
    objective vector kept once: the earliest of equal vectors stays, archive
    members before candidates and candidates in the order given.
    """
    offered = [c for c in candidates if c.feasible]
    pool = archive.members + offered
    if not pool:
        return ParetoArchive()
    parts = [archive.objectives_array()] if archive.members else []
    if offered:
        parts.append(np.array([c.objectives for c in offered], dtype=float))
    objectives = np.concatenate(parts)
    keep = _nondominated(objectives)
    result = ParetoArchive([pool[i] for i in keep.tolist()])
    result._objectives = objectives[keep]
    return result


def _archive_offers(genotypes: np.ndarray, objectives: np.ndarray, violations: np.ndarray) -> list[Individual]:
    """The rows of one generation that can enter the archive, as Individuals:
    its feasible rows that no other feasible row dominates, one per distinct
    objective vector.  Any other row is dominated by, or equal to, one that
    comes earlier in the archive's pool."""
    rows = np.flatnonzero(violations == 0.0)
    if rows.size:
        rows = rows[_nondominated(objectives[rows])]
    return [Individual._checked(g, o, 0.0) for g, o in zip(genotypes[rows], objectives[rows])]


@dataclass
class GenerationRecord:
    """Progress snapshot after one generation has been folded into the archive.

    ``evaluations`` counts the children scored so far, copies of a tournament
    winner included, not the calls made to the problem.
    """

    generation: int
    evaluations: int
    archive_size: int
    best_objectives: np.ndarray | None
    archive_objectives: np.ndarray


@dataclass
class EvolutionResult:
    """What :func:`evolve` returns.  ``population`` is the final population in
    the engine's row order, with ranks and crowding set, built once at the
    end of the run."""

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


def _check_rows(genotypes: np.ndarray, objectives: np.ndarray, violations: np.ndarray, indices: np.ndarray) -> None:
    """Raise for the first faulty row, its objectives checked before its
    violation, naming it by its entry of ``indices``."""
    faults = _row_faults(genotypes, objectives, violations)
    bad = np.flatnonzero(faults.any(axis=0))
    if not bad.size:
        return
    k = int(bad[0])
    if faults[0, k]:
        raise EvaluationError(f"non-finite objective at genotype index {indices[k]}: {objectives[k].tolist()}")
    if faults[1, k]:
        raise EvaluationError(f"invalid constraint violation at genotype index {indices[k]}: {float(violations[k])}")
    raise ValueError("genotype coordinates must lie in [0, 1]")


def _walk_rows(
    genotypes: np.ndarray, rows: Iterable[tuple], m: int | None, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Objectives and violations of ``(objectives, violation)`` ``rows`` that
    did not stack as one block of ``m`` objectives, converted one row at a
    time in row order.  At the first row that does not convert (objectives
    by ``np.asarray``, the violation by ``float``) or whose objectives are not
    a vector of ``m`` (at least 2) entries, the rows before it are checked as
    a block and then that row's fault is raised."""
    objective_list: list[np.ndarray] = []
    violation_list: list[float] = []
    for k, row in enumerate(rows):
        try:
            objectives, violation = row
            objectives, violation = np.asarray(objectives, dtype=float), float(violation)
            if objectives.ndim != 1 or objectives.size < 2:
                raise EvaluationError(
                    f"genotype index {indices[k]}: expected >= 2 objectives, got shape {objectives.shape}"
                )
            if m is not None and objectives.size != m:
                raise EvaluationError(
                    f"genotype index {indices[k]}: objective count changed from {m} to {objectives.size}"
                )
        except Exception as error:  # whatever row k raises, it comes after the faults of the rows before it
            fault = error
            break
        m = objectives.size
        objective_list.append(objectives)
        violation_list.append(violation)
    else:
        return np.array(objective_list), np.array(violation_list)
    if k:
        _check_rows(genotypes[:k], np.array(objective_list), np.array(violation_list), indices)
    raise fault


def _evaluate_batch(
    genotypes: np.ndarray, problem: Problem, m: int | None, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Objectives ``(N, M)`` and violations ``(N,)`` for the rows of an
    ``(N, L)`` matrix, ``M`` being the run's objective count ``m`` (``None``
    before the first evaluation).

    A problem with ``evaluate_batch`` answers in one call, whose output must
    have those shapes; any other problem answers with one ``evaluate`` call
    per row, stacked once.  The block is checked at once.  Only when the rows
    do not stack, or give the wrong objective count, are they walked in row
    order (:func:`_walk_rows`), so faults are raised in the order a
    row-by-row check would find them.  Errors name row ``k`` as
    ``indices[k]``, its index in the generation.
    """
    batch = getattr(problem, "evaluate_batch", None)
    if batch is None:
        rows = [problem.evaluate(g) for g in genotypes]
        try:
            objectives = np.array([o for o, _ in rows], dtype=float)
            violations = np.array([float(v) for _, v in rows])
        except Exception:  # some row does not convert; the walk finds the first
            objectives = None
    else:
        n = len(genotypes)
        objectives, violations = batch(genotypes)
        objectives, violations = np.asarray(objectives, dtype=float), np.asarray(violations, dtype=float)
        if objectives.ndim != 2 or objectives.shape[0] != n or violations.shape != (n,):
            raise EvaluationError(
                f"evaluate_batch returned objectives of shape {objectives.shape} and "
                f"violations of shape {violations.shape} for {n} genotypes"
            )
        rows = zip(objectives, violations)
    if objectives is None or objectives.ndim != 2 or objectives.shape[1] < 2 or m not in (None, objectives.shape[1]):
        objectives, violations = _walk_rows(genotypes, rows, m, indices)
    _check_rows(genotypes, objectives, violations, indices)
    return objectives, violations


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
    parents: np.ndarray,
    ranks: np.ndarray,
    crowding: np.ndarray,
    config: EngineConfig,
    rng: np.random.Generator,
    out: np.ndarray,
) -> np.ndarray:
    """Write ``population_size`` children of the ``(n, L)`` matrix ``parents``,
    two per mating pair, to the ``(population_size, L)`` matrix ``out``, and
    return each child's source: the row of ``parents`` it is a bit-exact copy
    of, or -1 for a new genotype.  ``ranks`` and ``crowding`` are the parents'.

    Each pair draws, in order: two binary tournaments (a contestant index,
    then the other contestant among the remaining n - 1), the crossover coin
    (crossing when below ``crossover_prob``), then one call for the uniforms:
    SBX's when the pair crosses, then each child's mutation mask and
    perturbation draws.  Successive ``random(L)`` calls give the same doubles
    as one ``random(kL)`` call, so the children equal those of the per-pair
    tournament, SBX and polynomial mutation in ``tests/oracles.py`` called in
    turn.  A child of a pair that does not cross, with an empty mutation mask,
    is its tournament winner unchanged; its source is that winner.

    Pairs run in blocks of up to ``_BLOCK_WORDS // (3 + 5L)``.  On a PCG64
    generator a block's draws are decoded from one ``random_raw`` call
    (:func:`_decoded_draws`) and the generator is left in the state the
    per-pair calls would leave; a block with a Lemire rejection, and any block
    on another bit generator, makes the per-pair calls instead
    (:func:`_per_pair_draws`).  Tournaments (lower rank wins, then larger
    crowding, ties to the first drawn), crossover and mutation then run over
    the block.  Children are clamped to [0, 1].
    """
    n, length = parents.shape
    pairs = config.population_size // 2
    block_pairs = max(1, _BLOCK_WORDS // (3 + 5 * length))
    # integers(1) draws nothing, so the halves would not pair up below n = 3
    decodable = type(rng.bit_generator) is np.random.PCG64 and n >= 3
    source = np.empty(config.population_size, dtype=np.int64)
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

        block = parents[winners.ravel()].reshape(size, 2, length)
        crossing = np.flatnonzero(crosses)
        if crossing.size:
            block[crossing, 0], block[crossing, 1] = _sbx_children(
                block[crossing, 0], block[crossing, 1], draws[crossing, :length], SBX_ETA
            )
        mutation = draws[:, length:].reshape(size, 2, 2, length)
        mask = mutation[:, :, 0] < config.mutation_prob
        block[mask] = _perturb(block[mask], mutation[:, :, 1][mask], PM_ETA)
        out[2 * start: 2 * (start + size)] = block.reshape(2 * size, length)
        copied = ~crosses[:, None] & ~mask.any(axis=2)
        source[2 * start: 2 * (start + size)] = np.where(copied, winners, -1).ravel()
    return source


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

    Parents fill the top half of one ``(2N, L)`` genotype buffer and children
    are written straight into its bottom half; the survivors are gathered
    back to the top with one fancy index.  Only the children's own feasible
    first front is offered to the archive.

    Only new children are evaluated: a child copied unchanged from its
    tournament winner (its pair did not cross and no gene mutated) takes the
    winner's objectives and violation without a call, so the problem must be
    a deterministic function of the genotype.  ``history`` counts every child
    as evaluated, copies included.
    """
    length = int(problem.genotype_length)
    if length < 1:
        raise ValueError("problem.genotype_length must be >= 1")
    n = config.population_size
    rng = np.random.default_rng(config.seed)
    genotypes = np.empty((2 * n, length))
    parents, children = genotypes[:n], genotypes[n:]
    rng.random(out=parents)
    objectives, violations = _evaluate_batch(parents.copy(), problem, None, np.arange(n))
    # all n points survive; the initial population keeps its row order
    order, ranked, crowded = environmental_select(objectives, violations, n)
    ranks, crowding = np.empty(n, dtype=int), np.empty(n)
    ranks[order], crowding[order] = ranked, crowded
    archive = update_archive(ParetoArchive(), _archive_offers(parents, objectives, violations))
    history = [_record(0, n, archive)]

    for generation in range(1, config.generations + 1):
        source = _make_offspring(parents, ranks, crowding, config, rng, children)
        # a copy takes its source's values; the rows of new children (source -1) are overwritten
        child_objectives, child_violations = objectives[source], violations[source]
        fresh = np.flatnonzero(source < 0)
        if fresh.size:
            child_objectives[fresh], child_violations[fresh] = _evaluate_batch(
                children[fresh], problem, objectives.shape[1], fresh
            )
        archive = update_archive(archive, _archive_offers(children, child_objectives, child_violations))
        objectives = np.concatenate((objectives, child_objectives))
        violations = np.concatenate((violations, child_violations))
        survivors, ranks, crowding = environmental_select(objectives, violations, n)
        parents[:] = genotypes[survivors]
        objectives, violations = objectives[survivors], violations[survivors]
        history.append(_record(generation, n * (generation + 1), archive))

    population = [
        Individual._checked(g, o, v, r, c)
        for g, o, v, r, c in zip(parents.copy(), objectives, violations.tolist(), ranks.tolist(), crowding.tolist())
    ]
    return EvolutionResult(population=population, archive=archive, history=history)
