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
indices; the archive is two such matrices, and :class:`EvolutionResult`
gives the final population as five arrays.  :class:`Individual` records are
built only for archive members on read.  All randomness flows through a
single seeded generator consumed only by initialization and, each
generation, by seven vectorized draws for selection and variation
(:func:`_make_offspring`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Protocol, Sequence

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


class Individual(NamedTuple):
    """One archive member as :attr:`ParetoArchive.members` gives it on read:
    read-only views of its genotype and objective rows, and its violation, 0."""

    genotype: np.ndarray
    objectives: np.ndarray
    violation: float


# Distribution indices of SBX crossover and polynomial mutation.
SBX_ETA = 15.0
PM_ETA = 20.0


@dataclass(frozen=True)
class EngineConfig:
    """Run parameters for :func:`evolve`.

    ``population_size`` is an even integer >= 4 (pairwise variation);
    ``generations`` and ``seed`` are integers too, and the two probabilities
    numbers in [0, 1]; numpy scalars pass, bool does not.  The config is
    frozen: the checks run at construction, and ``dataclasses.replace``
    makes a checked copy.
    """

    population_size: int = 100
    generations: int = 200
    crossover_prob: float = 0.6
    mutation_prob: float = 0.01
    seed: int = 42

    def __post_init__(self) -> None:
        for name in ("population_size", "generations", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):  # 10.0 == 10 and True == 1
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.population_size < 4 or self.population_size % 2 != 0:
            raise ValueError("population_size must be an even integer >= 4")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        for name in ("crossover_prob", "mutation_prob"):
            p = getattr(self, name)
            if isinstance(p, bool) or not isinstance(p, (int, float, np.integer, np.floating)) or not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a number in [0, 1], got {p!r}")
            # A numpy float32 would make rng.random() < p compare in float32.
            object.__setattr__(self, name, float(p))
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass(eq=False)
class FrontPartition:
    """Result of non-dominated sorting: ``ranks[i]`` is the 1-based front
    number of point ``i`` (1 for the non-dominated set), or 0 when the sort
    stopped before placing it."""

    ranks: np.ndarray

    @property
    def fronts(self) -> list[np.ndarray]:
        """The placed rows, one index array per front in rank order, each in
        ascending row order (the order selection admits them); built on read."""
        placed = np.flatnonzero(self.ranks)
        rows = placed[np.argsort(self.ranks[placed], kind="stable")]  # stable: a front keeps row order
        return np.split(rows, np.flatnonzero(np.diff(self.ranks[rows])) + 1)


def _lexsorted(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row order that sorts ``points`` lexicographically (stable: equal
    vectors keep row order), the sorted rows, and a mask of the sorted rows
    that start a new distinct vector."""
    order = np.lexsort(points.T[::-1])
    ranked = points[order]
    head = np.ones(len(order), dtype=bool)
    head[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return order, ranked, head


def _pareto_ranks(points: np.ndarray, stop: int | None = None) -> np.ndarray:
    """Each row's 1-based Pareto front number among the rows of ``points``,
    fronts peeled until at least ``stop`` rows are placed (all by default);
    rows left unplaced get 0.

    Two objectives peel the distinct vectors in (f1, f2)-lexicographic order,
    where every dominator of a point comes before it: the next front is the
    vectors left whose f2 is below the running minimum of the f2 before them
    (one ``np.minimum.accumulate``), and equal vectors share a front.  More
    objectives peel by domination counts over the pairwise dominance matrix.
    """
    n = len(points)
    stop = n if stop is None else min(stop, n)
    ranks = np.zeros(n, dtype=int)
    placed, k = 0, 1
    if points.shape[1] == 2:
        order, ranked, head = _lexsorted(points)
        heads = np.flatnonzero(head)
        sizes = np.diff(np.append(heads, n))
        f2 = ranked[heads, 1]
        distinct_ranks = np.zeros(heads.size, dtype=int)
        left = np.arange(heads.size)
        while placed < stop:
            values = f2[left]
            front = np.ones(values.size, dtype=bool)
            np.less(values[1:], np.minimum.accumulate(values[:-1]), out=front[1:])
            distinct_ranks[left[front]] = k
            placed += int(sizes[left[front]].sum())
            left = left[~front]
            k += 1
        ranks[order] = np.repeat(distinct_ranks, sizes)
    else:
        le = np.all(points[:, None, :] <= points[None, :, :], axis=2)
        dom = le & np.any(points[:, None, :] < points[None, :, :], axis=2)
        counts = dom.sum(axis=0)
        current = np.flatnonzero(counts == 0)
        while placed < stop:
            ranks[current] = k
            placed += current.size
            counts -= dom[current].sum(axis=0)
            counts[current] = -1  # peeled: never counted as undominated again
            current = np.flatnonzero(counts == 0)
            k += 1
    return ranks


def _nondominated(points: np.ndarray) -> np.ndarray:
    """Rows of ``points`` that no other row dominates, one per distinct vector
    (its first row), in lexicographic order of the vectors.

    For two objectives these are the distinct vectors whose f2 is below the
    least f2 of the vectors before them: the staircase :class:`ParetoArchive`
    keeps.  More objectives take the first Pareto front of the distinct
    vectors.
    """
    order, ranked, head = _lexsorted(points)
    order, ranked = order[head], ranked[head]
    if points.shape[1] == 2:
        f2 = ranked[:, 1]
        return order[f2 < np.minimum.accumulate(np.concatenate(([np.inf], f2[:-1])))]
    return order[_pareto_ranks(ranked, 1) == 1]


def fast_nondominated_sort(
    objectives: np.ndarray, violations: np.ndarray, stop: int | None = None
) -> FrontPartition:
    """Rank points, ``objectives (N, M)`` and ``violations (N,)``, into fronts
    under constraint-domination.

    Every feasible point dominates every infeasible one, and two infeasible
    points compare by violation alone.  So feasible points take the first
    ranks, their Pareto fronts among the feasible rows only
    (:func:`_pareto_ranks`); infeasible points follow with one rank per
    distinct violation value, in ascending order.  With ``stop``, the sort
    ends with the front that places the ``stop``-th point; later points keep
    rank 0.  Raises ``ValueError`` for a non-finite objective or a violation
    that is not finite and nonnegative.
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
    if not np.isfinite(objectives).all():
        raise ValueError("objectives must be finite")
    if not (np.isfinite(violations).all() and violations.min() >= 0.0):
        raise ValueError("violations must be finite and nonnegative")
    stop = n if stop is None else min(stop, n)
    feasible = violations == 0.0
    ranks = np.zeros(n, dtype=int)
    rows = np.flatnonzero(feasible)
    ranks[rows] = pareto = _pareto_ranks(objectives[rows], stop)
    placed = np.count_nonzero(pareto)
    if placed < stop:  # every feasible point is placed; infeasible levels follow
        rows = np.flatnonzero(~feasible)
        _, level, counts = np.unique(violations[rows], return_inverse=True, return_counts=True)
        last = np.searchsorted(np.cumsum(counts), stop - placed)  # the level holding the stop-th point
        ranks[rows] = np.where(level <= last, level + 1 + pareto.max(initial=0), 0)
    return FrontPartition(ranks)


def _one_front_crowding(values: np.ndarray) -> np.ndarray:
    """:func:`crowding_distance` of the rows of ``values``, one front of
    finite values: one stable argsort per objective."""
    distance = np.zeros(len(values))
    for column in values.T:
        order = np.argsort(column, kind="stable")
        ranked = column[order]
        span = ranked[-1] - ranked[0]
        if span > 0.0:
            distance[order[1:-1]] += (ranked[2:] - ranked[:-2]) / span
        distance[order[0]] = distance[order[-1]] = np.inf
    return distance


def _front_crowding(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Crowding distance of each row of ``values`` within its front, the fronts
    being consecutive runs of ``sizes`` rows (each at least 1); for two or more
    fronts, where a pass per front would cost a sort per front and objective.

    One pass per objective covers every front: a stable lexsort by (front,
    value) sorts each front's points by that objective, ties in row order.
    Each interior point adds the normalized gap between its neighbours,
    ``(f[i+1] - f[i-1]) / (f_max - f_min)``, and the front's two boundary
    points get ``+inf``.  An objective with zero spread on a front adds
    nothing to its interior points.  A point adds the same terms in the same
    order as when its front is taken alone (:func:`_one_front_crowding`), so
    the bits do not depend on which fronts share the pass.
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
    """Crowding distance of each point within one front, finite values only.

    Per objective, points are sorted (a stable argsort, ties in row order)
    and each interior point accumulates the normalized gap between its
    neighbors, ``(f[i+1] - f[i-1]) / (f_max - f_min)``; the two boundary
    points get ``+inf``.  An objective with zero spread contributes nothing
    to interior points.  :func:`environmental_select` runs the same kernel,
    :func:`_one_front_crowding`, on survivors that form one front.
    """
    values = np.asarray(front_values, dtype=float)
    if values.ndim != 2:
        raise ValueError("front_values must be a sequence of objective vectors")
    if len(values) == 0:
        raise ValueError("front must be nonempty")
    if not np.isfinite(values).all():  # a NaN sorts last and an inf makes inf - inf
        raise ValueError("front values must be finite")
    return _one_front_crowding(values)


def _sbx_children(p1: np.ndarray, p2: np.ndarray, u: np.ndarray, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover children of parents ``p1`` and ``p2`` (any
    equal shape) for uniform draws ``u``: genes blended with spread factor
    ``beta`` from the SBX distribution of index ``eta``, clamped to [0, 1].

    The arithmetic is ``beta = (2u·low + 1/(2(1 − u))·¬low) ** (1/(eta + 1))``
    and ``child = 0.5·(more·p + less·q)``, each step written into one of a few
    reused temporaries in that order, so the bits are those of the plain
    expressions."""
    low = u <= 0.5
    # Both branches are finite for u in [0, 1), so each product with the 0/1
    # mask is exact and the sum is the selected branch, bit for bit; a select
    # on a random mask costs several times as much.
    beta = np.multiply(u, 2.0)
    beta *= low
    upper = np.subtract(1.0, u)
    upper *= 2.0
    np.divide(1.0, upper, out=upper)
    upper *= np.logical_not(low, out=low)
    beta += upper
    beta **= 1.0 / (eta + 1.0)
    more, less = np.add(1.0, beta, out=upper), np.subtract(1.0, beta, out=beta)
    child1, term = np.multiply(more, p1), np.multiply(less, p2)
    child1 += term
    child1 *= 0.5
    child2 = np.multiply(less, p1, out=term)
    child2 += np.multiply(more, p2, out=more)
    child2 *= 0.5
    return np.clip(child1, 0.0, 1.0, out=child1), np.clip(child2, 0.0, 1.0, out=child2)


def _perturb(g: np.ndarray, u: np.ndarray, eta: float) -> np.ndarray:
    """Polynomially mutated genes ``g`` for uniform draws ``u`` (distribution
    index ``eta``); deltas shrink near the box's bounds, and results are
    clamped to [0, 1]."""
    low = u <= 0.5
    # 1 - (1 - g), the distance to the lower bound as the upper branch rounds it, is not always g
    shrink = np.where(low, 1.0 - g, 1.0 - (1.0 - g)) ** (eta + 1.0)
    base = np.where(low, 2.0 * u + (1.0 - 2.0 * u) * shrink, 2.0 * (1.0 - u) + 2.0 * (u - 0.5) * shrink)
    power = base ** (1.0 / (eta + 1.0))
    return np.clip(g + np.where(low, power - 1.0, 1.0 - power), 0.0, 1.0)


def environmental_select(
    objectives: np.ndarray, violations: np.ndarray, n_survivors: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elitist (mu + lambda) truncation of the points ``objectives (N, M)``,
    ``violations (N,)`` (parents, then offspring) to ``n_survivors``.

    Returns the survivors' row indices, every row's rank from the sort (0
    past the front where it stopped) and the survivors' crowding distances.
    Whole fronts are admitted in rank order, each in row order (a stable
    argsort of the ranks); the front that overflows is cut by descending
    crowding distance within it, ties to the lower row index, and its kept
    members follow in that order.  ``ranks[survivors]`` are the survivors'
    own ranks: a kept member's dominators lie in earlier fronts, kept whole.
    Crowding is taken once over the survivors, each front on its own, the
    cut front's kept members in kept order: by :func:`_one_front_crowding`
    when the survivors form one front, else by :func:`_front_crowding` in one
    pass over all of them.  The cut itself is one :func:`crowding_distance`
    call.  Points the sort rejects (non-finite objectives, a violation that
    is not finite and nonnegative) raise its ``ValueError``.
    """
    objectives = np.asarray(objectives, dtype=float)
    if not 1 <= n_survivors <= len(objectives):
        raise ValueError("n_survivors must lie between 1 and the number of points")
    ranks = fast_nondominated_sort(objectives, violations, stop=n_survivors).ranks
    placed = np.flatnonzero(ranks)
    survivors = placed[np.argsort(ranks[placed], kind="stable")]  # stable: a front keeps row order
    sizes = np.bincount(ranks)[1:]
    if survivors.size > n_survivors:
        cut = survivors[-sizes[-1]:]
        sizes[-1] -= survivors.size - n_survivors
        kept = cut[np.argsort(-crowding_distance(objectives[cut]), kind="stable")[: sizes[-1]]]  # ties to lower index
        survivors = np.concatenate((survivors[: n_survivors - sizes[-1]], kept))
    values = objectives[survivors]
    crowding = _one_front_crowding(values) if sizes.size == 1 else _front_crowding(values, sizes)
    return survivors, ranks, crowding


class ParetoArchive:
    """All-time store of feasible, mutually non-dominated points as two
    read-only matrices, genotypes ``(n, L)`` and objectives ``(n, M)``.

    ``ParetoArchive(genotypes, objectives)`` takes the rows of feasible points
    and keeps those no other row dominates, the earliest of each objective
    vector, sorted by objective tuple: for two objectives a staircase,
    ascending strictly in f1 and descending strictly in f2.  Readers take that
    order as given.  It raises ``ValueError`` for matrices that are not 2-D or
    differ in row count, a gene outside [0, 1] or NaN, and a non-finite or
    missing objective.  ``ParetoArchive()`` is empty, both matrices ``(0, 0)``.
    """

    def __init__(self, genotypes: np.ndarray = np.empty((0, 0)), objectives: np.ndarray = np.empty((0, 0))) -> None:
        genotypes, objectives = np.asarray(genotypes, dtype=float), np.asarray(objectives, dtype=float)
        if genotypes.ndim != 2 or objectives.ndim != 2 or len(genotypes) != len(objectives):
            raise ValueError(f"need (n, L) genotypes and (n, M) objectives, not {genotypes.shape} and {objectives.shape}")
        if not np.all((genotypes >= 0.0) & (genotypes <= 1.0)):  # NaN fails both comparisons
            raise ValueError("genotype coordinates must lie in [0, 1]")
        if not np.isfinite(objectives).all() or objectives.shape[1] == 0 < len(objectives):
            raise ValueError("objectives must be finite, at least one per row")
        self._hold(genotypes, objectives, _nondominated(objectives) if len(objectives) else [])

    def _hold(self, genotypes: np.ndarray, objectives: np.ndarray, keep) -> ParetoArchive:
        """Hold rows ``keep`` of the two matrices, folded and ordered already, read-only."""
        self._genotypes, self._objectives = genotypes[keep], objectives[keep]
        self._genotypes.flags.writeable = self._objectives.flags.writeable = False
        return self

    @classmethod
    def _of(cls, genotypes: np.ndarray, objectives: np.ndarray, keep) -> ParetoArchive:
        """An archive of rows ``keep`` of the two matrices, folded and ordered
        already, built without :meth:`__init__`'s checks and fold."""
        return cls.__new__(cls)._hold(genotypes, objectives, keep)

    @cached_property
    def members(self) -> tuple[Individual, ...]:
        """The rows as Individuals (violation 0) that view the matrices, built on first read."""
        return tuple([Individual(g, o, 0.0) for g, o in zip(self._genotypes, self._objectives)])

    def __len__(self) -> int:
        return len(self._objectives)

    def __iter__(self):
        return iter(self.members)

    def genotypes_array(self) -> np.ndarray:
        """The members' genotypes, one read-only row each."""
        return self._genotypes

    def objectives_array(self) -> np.ndarray:
        """The members' objectives, one read-only row each."""
        return self._objectives


def update_archive(archive: ParetoArchive, offers: ParetoArchive) -> ParetoArchive:
    """A new archive of the rows :func:`_nondominated` keeps of ``archive``'s
    objective matrix stacked over ``offers``', each matrix gathered once: the
    earliest of equal vectors stays, archive members first."""
    if not (parts := [a for a in (archive, offers) if len(a)]):
        return ParetoArchive()
    objectives = np.concatenate([a.objectives_array() for a in parts])
    genotypes = np.concatenate([a.genotypes_array() for a in parts])
    return ParetoArchive._of(genotypes, objectives, _nondominated(objectives))


def _archive_offers(
    genotypes: np.ndarray, objectives: np.ndarray, violations: np.ndarray, ranks: np.ndarray
) -> ParetoArchive:
    """The feasible rows of rank 1 as an archive: mutually non-dominated, so
    one lexsort keeps the first row of each vector.  A member weakly dominates
    every feasible row seen before, so any other feasible row is strictly
    dominated by a member or an offer, and the fold keeps the first of equals."""
    rows = np.flatnonzero((ranks == 1) & (violations == 0.0))
    if not rows.size:
        return ParetoArchive()
    order, _, head = _lexsorted(objectives[rows])
    return ParetoArchive._of(genotypes, objectives, rows[order[head]])


def _undominated_area(stairs: np.ndarray) -> float:
    """Area of the bounding box of a 2-D staircase that none of its points
    dominates, ``Σ_k (f1[k+1] − f1[k])·(f2[k] − f2[-1])`` added in order (cumsum).
    The volume dominated up to a corner ``r`` is ``(r1 − f1[0])·(r2 − f2[-1])`` minus this."""
    f1, f2 = stairs.T
    return float(np.cumsum((f1[1:] - f1[:-1]) * (f2[:-1] - f2[-1]))[-1]) if len(stairs) > 1 else 0.0


@dataclass(eq=False)
class GenerationRecord:
    """Progress after one generation has been folded into the archive.

    ``evaluations`` counts the children scored so far, copies of a tournament
    winner included, not the calls made to the problem.  ``best_objectives``
    and ``worst_objectives`` are the archive's column minima and maxima, and
    ``undominated_area`` its :func:`_undominated_area` (``None`` unless two
    objectives): a few numbers however large the archive, ``None`` while empty.
    """

    generation: int
    evaluations: int
    archive_size: int
    best_objectives: np.ndarray | None
    worst_objectives: np.ndarray | None
    undominated_area: float | None


@dataclass
class EvolutionResult:
    """What :func:`evolve` returns.  The final population is five arrays in
    the engine's row order: ``genotypes (N, L)``, ``objectives (N, M)``,
    ``violations (N,)``, ``ranks (N,)`` (1-based fronts) and ``crowding (N,)``
    (within each front)."""

    genotypes: np.ndarray
    objectives: np.ndarray
    violations: np.ndarray
    ranks: np.ndarray
    crowding: np.ndarray
    archive: ParetoArchive
    history: list[GenerationRecord]


def _check_rows(objectives: np.ndarray, violations: np.ndarray, indices: np.ndarray) -> None:
    """Raise :class:`EvaluationError` for the first row of a problem's output
    with a fault, naming it by its entry of ``indices``.  The faults are a
    non-finite objective, checked first, and a non-finite or negative
    violation."""
    bad_objectives = ~np.isfinite(objectives).all(axis=1)
    bad_violations = ~(np.isfinite(violations) & (violations >= 0.0))
    bad = np.flatnonzero(bad_objectives | bad_violations)
    if not bad.size:
        return
    k = int(bad[0])
    if bad_objectives[k]:
        raise EvaluationError(f"non-finite objective at genotype index {indices[k]}: {objectives[k].tolist()}")
    raise EvaluationError(f"invalid constraint violation at genotype index {indices[k]}: {float(violations[k])}")


def _evaluate_batch(
    genotypes: np.ndarray, problem: Problem, m: int | None, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Objectives ``(N, M)`` and violations ``(N,)`` for the rows of an
    ``(N, L)`` matrix, ``M`` being the run's objective count ``m`` (``None``
    before the first evaluation).

    A problem with ``evaluate_batch`` answers in one call, whose output must
    have those shapes; any other problem answers with one ``evaluate`` call
    per row, stacked once.  The block is checked at once.  Rows that do not
    stack, or give the wrong objective count, hold a fault: each row is then
    checked in full before the next, in row order (objectives converted by
    ``np.asarray``, the violation by ``float``, then the objective count,
    then :func:`_check_rows`), and the first fault raises, as a row-by-row
    check would find it.  Errors name row ``k`` as ``indices[k]``, its index
    in the generation.  ``genotypes`` goes to the problem and is not read
    again: the engine made those genes and clipped them to [0, 1].
    """
    batch = getattr(problem, "evaluate_batch", None)
    if batch is None:
        rows = [problem.evaluate(g) for g in genotypes]
        try:
            objectives = np.array([o for o, _ in rows], dtype=float)
            violations = np.array([float(v) for _, v in rows])
        except Exception:  # some row does not convert; the loop below finds the first
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
        for k, (row, violation) in enumerate(rows):
            row, violation = np.asarray(row, dtype=float), float(violation)
            if row.ndim != 1 or row.size < 2:
                raise EvaluationError(f"genotype index {indices[k]}: expected >= 2 objectives, got shape {row.shape}")
            if m is not None and row.size != m:
                raise EvaluationError(f"genotype index {indices[k]}: objective count changed from {m} to {row.size}")
            m = row.size
            _check_rows(row[None], np.array([violation]), indices[k:])
        raise EvaluationError("the problem's rows did not stack, yet no row has a fault")
    _check_rows(objectives, violations, indices)
    return objectives, violations


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

    A generation makes seven calls on ``rng``, in this order:

    1. ``integers(n, size=(pairs, 2))``: the first contestant of each of a
       pair's two tournaments;
    2. ``integers(n - 1, size=(pairs, 2))``: each rival, drawn among the other
       n - 1 and shifted past the first contestant;
    3. ``random(pairs) < crossover_prob``: the crossover coins;
    4. ``random((crossing, L))``: the SBX uniforms of the crossing pairs, in
       pair order;
    5. ``binomial(population_size * L, mutation_prob)``: the number ``k`` of
       mutated genes in the generation;
    6. ``choice(population_size * L, size=k, replace=False, shuffle=False)``:
       which genes, as flat row-major positions in ``out``, then sorted;
    7. ``random(k)``: one perturbation uniform per mutated gene, in row-major
       order.

    A Binomial(N·L, p) count and a uniform subset of that size mark each
    gene independently with probability p, as a full ``(N, L)`` mask of
    ``random() < p`` would, from about N·L·p draws instead of N·L.

    The operators then run once over the generation: the tournaments (lower
    rank wins, then larger crowding, ties to the first contestant), one gather
    of the winners into ``out``, SBX over the crossing pairs and polynomial
    mutation of the drawn genes.  Children are clamped to [0, 1].  A child of
    a pair that does not cross, with no gene drawn, is its tournament winner
    unchanged; its source is that winner.  ``out`` must be C-contiguous, so
    that the mutation writes through its flat view.
    """
    n, length = parents.shape
    size = config.population_size
    if not out.flags.c_contiguous:  # reshape would hand back a copy and the mutations would be lost
        raise ValueError("out must be a C-contiguous array")
    pairs = size // 2
    first = rng.integers(n, size=(pairs, 2))
    rival = rng.integers(n - 1, size=(pairs, 2))
    rival += rival >= first  # drawn among the other n - 1
    crosses = rng.random(pairs) < config.crossover_prob
    crossing = 2 * np.flatnonzero(crosses)
    sbx = rng.random((crossing.size, length))
    mutated = rng.binomial(size * length, config.mutation_prob)
    sites = np.sort(rng.choice(size * length, size=mutated, replace=False, shuffle=False))
    perturbation = rng.random(mutated)

    # crowded comparison: lower rank wins, then larger crowding; ties go to the first contestant
    first_wins = (ranks[first] < ranks[rival]) | ((ranks[first] == ranks[rival]) & (crowding[first] >= crowding[rival]))
    winners = np.where(first_wins, first, rival).ravel()
    np.take(parents, winners, axis=0, out=out, mode="clip")  # the indices are in range; "raise" would buffer out
    out[crossing], out[crossing + 1] = _sbx_children(out[crossing], out[crossing + 1], sbx, SBX_ETA)
    flat = out.reshape(-1)
    flat[sites] = _perturb(flat[sites], perturbation, PM_ETA)
    copied = np.repeat(~crosses, 2)
    copied[sites // length] = False
    return np.where(copied, winners, -1)


def _record(generation: int, evaluations: int, archive: ParetoArchive) -> GenerationRecord:
    objectives = archive.objectives_array()
    best = worst = area = None
    if len(archive) and objectives.shape[1] == 2:  # a staircase: its column minima and maxima are its ends
        (f1, f2), area = objectives.T, _undominated_area(objectives)
        best, worst = np.array((f1[0], f2[-1])), np.array((f1[-1], f2[0]))
    elif len(archive):
        best, worst = objectives.min(axis=0), objectives.max(axis=0)
    return GenerationRecord(generation, evaluations, len(archive), best, worst, area)


def evolve(problem: Problem, config: EngineConfig) -> EvolutionResult:
    """Run the full generational loop; return the final population's arrays, the archive and the history.

    The initial population is sampled uniformly from [0, 1]^L, evaluated, and
    ranked; each generation then produces ``population_size`` children via
    binary tournaments, SBX, and polynomial mutation, evaluates them, and
    applies elitist environmental selection over parents plus offspring.  The
    archive accumulates every feasible non-dominated point seen; ``history``
    holds one record for the initial population (generation 0) and one per
    generation after it.  Runs are fully deterministic for a fixed config.

    Parents fill the top half of one ``(2N, L)`` genotype buffer and children
    are written straight into its bottom half; the survivors are gathered
    back to the top with one fancy index.  Only the children of combined rank
    1 that are feasible are offered to the archive.

    Only new children are evaluated: a child copied unchanged from its
    tournament winner (its pair did not cross and no gene mutated) takes the
    winner's objectives and violation without a call, so the problem must be
    a deterministic function of the genotype.  ``history`` counts every child
    as evaluated, copies included.
    """
    length = problem.genotype_length
    if isinstance(length, bool) or not isinstance(length, (int, np.integer)):  # int() would take 3.7, True or "5"
        raise ValueError(f"problem.genotype_length must be an integer, got {length!r}")
    if length < 1:
        raise ValueError("problem.genotype_length must be >= 1")
    n = config.population_size
    rng = np.random.default_rng(config.seed)
    genotypes = np.empty((2 * n, length))
    parents, children = genotypes[:n], genotypes[n:]
    rng.random(out=parents)
    objectives, violations = _evaluate_batch(parents.copy(), problem, None, np.arange(n))
    # all n points survive; the initial population keeps its row order
    order, ranks, crowded = environmental_select(objectives, violations, n)
    crowding = crowded[np.argsort(order)]
    archive = update_archive(ParetoArchive(), _archive_offers(parents, objectives, violations, ranks))
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
        objectives = np.concatenate((objectives, child_objectives))
        violations = np.concatenate((violations, child_violations))
        survivors, ranks, crowding = environmental_select(objectives, violations, n)
        archive = update_archive(archive, _archive_offers(children, child_objectives, child_violations, ranks[n:]))
        parents[:] = genotypes[survivors]
        objectives, violations, ranks = objectives[survivors], violations[survivors], ranks[survivors]
        history.append(_record(generation, n * (generation + 1), archive))

    return EvolutionResult(parents.copy(), objectives, violations, ranks, crowding, archive, history)
