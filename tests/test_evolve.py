"""The generational loop: determinism, archive behavior, toy convergence."""

from __future__ import annotations

import copy
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from scnopt import EngineConfig, EvaluationError, SupplyChainProblem, evolve, generate_preset, nsga2

from conftest import (
    LineFrontProblem,
    RecordingProblem,
    ScalarOnlyProblem,
    SometimesInfeasibleProblem,
    reference_copies,
)
from oracles import oracle_dominates, oracle_sort, reference_evolve


class TwoBasinProblem:
    """Two objectives pulling the single gene toward 0.2 and 0.8."""

    genotype_length = 1

    def evaluate(self, genotype):
        x = float(genotype[0])
        return np.array([(x - 0.2) ** 2, (x - 0.8) ** 2]), 0.0


class BrokenProblem:
    genotype_length = 1

    def evaluate(self, genotype):
        return np.array([np.nan, 1.0]), 0.0


def test_deterministic_for_fixed_seed():
    cfg = EngineConfig(population_size=12, generations=8, seed=7)
    a = evolve(TwoBasinProblem(), cfg)
    b = evolve(TwoBasinProblem(), cfg)
    assert np.array_equal(a.archive.objectives_array(), b.archive.objectives_array())
    assert np.array_equal(a.genotypes, b.genotypes)
    assert np.array_equal(a.objectives, b.objectives)


def test_different_seeds_explore_differently():
    a = evolve(TwoBasinProblem(), EngineConfig(population_size=12, generations=4, seed=1))
    b = evolve(TwoBasinProblem(), EngineConfig(population_size=12, generations=4, seed=2))
    assert not np.array_equal(a.genotypes, b.genotypes)


def test_zero_generations_returns_initial_population():
    cfg = EngineConfig(population_size=8, generations=0, seed=5)
    result = evolve(LineFrontProblem(), cfg)
    assert len(result.genotypes) == 8
    assert len(result.history) == 1
    assert result.history[0].generation == 0
    assert result.history[0].evaluations == 8
    # archive equals the feasible non-dominated subset (everything, deduped)
    assert len(result.archive) <= 8
    assert result.ranks.min() >= 1


def test_history_has_one_record_per_generation_plus_initial():
    result = evolve(LineFrontProblem(), EngineConfig(population_size=8, generations=6, seed=2))
    assert [rec.generation for rec in result.history] == list(range(7))
    assert result.history[-1].evaluations == 8 * 7


def test_archive_only_improves_and_never_readmits_dominated_points(monkeypatch):
    problem = RecordingProblem(TwoBasinProblem())
    calls_by_generation = []  # evaluate calls made when each generation's record is taken
    snapshots = []  # each generation's archive objectives, as the record is taken
    record = nsga2._record

    def counting_record(generation, evaluations, archive):
        calls_by_generation.append(len(problem.seen))
        snapshots.append(archive.objectives_array())
        return record(generation, evaluations, archive)

    monkeypatch.setattr(nsga2, "_record", counting_record)
    result = evolve(problem, EngineConfig(population_size=10, generations=15, seed=11))
    assert len(snapshots) == len(result.history) == 16
    for generation, snapshot in enumerate(snapshots):
        seen_so_far = [
            obj for obj, violation in problem.seen[: calls_by_generation[generation]] if violation == 0.0
        ]
        for point in snapshot:
            assert not any(
                bool(np.all(p <= point) and np.any(p < point)) for p in seen_so_far
            )


def test_population_size_is_constant():
    result = evolve(TwoBasinProblem(), EngineConfig(population_size=14, generations=5, seed=13))
    assert len(result.genotypes) == len(result.objectives) == len(result.violations) == 14
    assert len(result.ranks) == len(result.crowding) == 14


def test_infeasible_region_is_evacuated():
    result = evolve(
        SometimesInfeasibleProblem(),
        EngineConfig(population_size=20, generations=30, seed=17),
    )
    assert np.count_nonzero(result.violations == 0.0) >= 18  # constraint-domination pushes the population left
    assert all(member.violation == 0.0 for member in result.archive)


def test_toy_line_front_is_covered():
    result = evolve(LineFrontProblem(), EngineConfig(population_size=20, generations=50, seed=42))
    objectives = result.archive.objectives_array()
    assert np.allclose(objectives.sum(axis=1), 1.0, atol=1e-9)
    xs = np.sort(objectives[:, 0])
    gaps = np.diff(np.concatenate([[0.0], xs, [1.0]]))
    assert gaps.max() < 0.2


def test_non_finite_objective_names_the_genotype_index():
    with pytest.raises(EvaluationError, match="genotype index 0"):
        evolve(BrokenProblem(), EngineConfig(population_size=4, generations=1, seed=1))


@pytest.mark.parametrize("length", [3.7, 2.0, True, "5", None])
def test_non_integer_genotype_length_rejected(length):
    # int() would run 3.7 with 3 genes, True with 1 and "5" with 5
    problem = TwoBasinProblem()
    problem.genotype_length = length
    with pytest.raises(ValueError, match="genotype_length must be an integer"):
        evolve(problem, EngineConfig(population_size=4, generations=1, seed=1))


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        EngineConfig(population_size=7, generations=1)  # odd
    with pytest.raises(ValueError):
        EngineConfig(population_size=2, generations=1)  # too small
    with pytest.raises(ValueError):
        EngineConfig(population_size=10, generations=-1)
    with pytest.raises(ValueError):
        EngineConfig(population_size=10, generations=1, crossover_prob=1.5)
    with pytest.raises(ValueError):
        EngineConfig(population_size=10, generations=1, mutation_prob=-0.1)
    # non-integers, and bool, which Python counts as an integer
    for bad in ({"population_size": 10.0}, {"generations": 2.5}, {"seed": 1.5}, {"population_size": True},
                {"generations": True}, {"seed": False}):
        with pytest.raises(ValueError, match="must be an integer"):
            EngineConfig(**{"population_size": 10, "generations": 1, **bad})
    assert EngineConfig(population_size=np.int64(10), generations=1).population_size == 10
    # probabilities: bool, strings and None are not numbers, and NaN lies in no interval
    for bad in ({"crossover_prob": True}, {"mutation_prob": False}, {"mutation_prob": "0.5"},
                {"crossover_prob": None}, {"mutation_prob": np.nan}):
        with pytest.raises(ValueError, match="must be a number in"):
            EngineConfig(**{"population_size": 10, "generations": 1, **bad})
    for good in (0, 1, np.float32(0.25), np.float64(0.6), np.int64(1)):
        config = EngineConfig(population_size=10, generations=1, crossover_prob=good, mutation_prob=good)
        assert config.crossover_prob == config.mutation_prob == good


def test_probabilities_are_stored_as_python_floats():
    # rng.random() < np.float32(p) compares in float32, while a float64 array
    # of coins compares in float64; a Python float makes every path compare alike.
    config = EngineConfig(population_size=10, generations=1, crossover_prob=np.float32(0.6),
                          mutation_prob=np.float32(0.01))
    assert type(config.crossover_prob) is float and config.crossover_prob == float(np.float32(0.6))
    assert type(config.mutation_prob) is float and config.mutation_prob == float(np.float32(0.01))


def test_config_is_frozen_and_replace_validates():
    # an assignment would skip the checks and fail deep in variation
    config = EngineConfig(population_size=8)
    with pytest.raises(FrozenInstanceError):
        config.population_size = 7
    with pytest.raises(FrozenInstanceError):
        config.mutation_prob = "x"
    assert (config.population_size, config.mutation_prob) == (8, 0.01)
    with pytest.raises(ValueError, match="population_size"):
        replace(config, population_size=7)
    with pytest.raises(ValueError, match="mutation_prob"):
        replace(config, mutation_prob="x")
    assert type(replace(config, mutation_prob=np.float32(0.5)).mutation_prob) is float


def test_records_and_partitions_compare_by_identity():
    # field-wise == would ask numpy for the truth value of an array
    history = evolve(LineFrontProblem(), EngineConfig(population_size=8, generations=2, seed=2)).history
    partition = nsga2.fast_nondominated_sort(np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]), np.zeros(3))
    for holder in (*history, partition):
        assert (holder == copy.copy(holder)) is False
        assert holder == holder
    assert (history[1] == history[2]) is False


# the final population's arrays in an EvolutionResult
POPULATION_ARRAYS = ("genotypes", "objectives", "violations", "ranks", "crowding")


def assert_same_run(result, expected):
    for name in POPULATION_ARRAYS:
        assert np.array_equal(getattr(result, name), getattr(expected, name)), name
    assert len(result.archive) == len(expected.archive)
    for a, b in zip(result.archive, expected.archive):
        assert np.array_equal(a.genotype, b.genotype) and np.array_equal(a.objectives, b.objectives)
    assert len(result.history) == len(expected.history)
    for a, b in zip(result.history, expected.history):
        assert (a.generation, a.evaluations, a.archive_size) == (b.generation, b.evaluations, b.archive_size)
        assert np.array_equal(a.best_objectives, b.best_objectives)
        assert np.array_equal(a.worst_objectives, b.worst_objectives)
        assert a.undominated_area == b.undominated_area


@pytest.mark.parametrize(
    "problem, config",
    [
        (LineFrontProblem(), EngineConfig(population_size=20, generations=30, seed=42)),
        (TwoBasinProblem(), EngineConfig(population_size=14, generations=25, seed=13, mutation_prob=0.3)),
        (SometimesInfeasibleProblem(), EngineConfig(population_size=20, generations=30, seed=17, crossover_prob=1.0)),
    ],
    ids=["line", "two-basin", "sometimes-infeasible"],
)
def test_toy_runs_match_the_reference_engine(problem, config):
    assert_same_run(evolve(problem, config), reference_evolve(problem, config))


@pytest.mark.parametrize("scalar_only", [False, True], ids=["batched", "scalar-only"])
def test_desk_run_matches_the_reference_engine(scalar_only):
    problem = SupplyChainProblem(generate_preset("desk"))
    if scalar_only:
        problem = ScalarOnlyProblem(problem)
    config = EngineConfig(population_size=24, generations=15, seed=9)
    assert_same_run(evolve(problem, config), reference_evolve(problem, config))


class SometimesInfeasibleBatchProblem(SometimesInfeasibleProblem):
    """:class:`SometimesInfeasibleProblem` scored a matrix at a time, logging
    each matrix it receives."""

    def __init__(self):
        self.received = []

    def evaluate_batch(self, genotypes):
        self.received.append(genotypes)
        x, y = genotypes[:, 0], genotypes[:, 1]
        return np.column_stack((x + y, 1.0 - y)), np.maximum(0.0, x - 0.5)


class FirstChildFaultProblem(SometimesInfeasibleProblem):
    """Returns a NaN objective for the first genotype scored after the initial
    population of ``population_size``, by ``evaluate`` or ``evaluate_batch``."""

    def __init__(self, population_size, batched):
        self.population_size, self.scored = population_size, 0
        if batched:
            self.evaluate_batch = self._evaluate_batch

    def evaluate(self, genotype):
        objectives, violation = super().evaluate(genotype)
        if self.scored == self.population_size:
            objectives[0] = np.nan
        self.scored += 1
        return objectives, violation

    def _evaluate_batch(self, genotypes):
        rows = [self.evaluate(g) for g in genotypes]
        return np.array([o for o, _ in rows]), np.array([v for _, v in rows])


@pytest.fixture
def offspring_log(monkeypatch):
    """Each generation's ``(parents, children, source, buffer)`` from
    ``_make_offspring``: copies of the first three when it returns, and the
    engine's child buffer itself."""
    log = []
    make_offspring = nsga2._make_offspring

    def logging_make_offspring(parents, ranks, crowding, config, rng, out):
        parents = parents.copy()
        source = make_offspring(parents, ranks, crowding, config, rng, out)
        log.append((parents, out.copy(), source.copy(), out))
        return source

    monkeypatch.setattr(nsga2, "_make_offspring", logging_make_offspring)
    return log


def test_only_new_children_are_evaluated_and_copies_equal_their_source(offspring_log):
    called = []

    class CountingProblem(TwoBasinProblem):
        def evaluate(self, genotype):
            called.append(genotype.copy())
            return super().evaluate(genotype)

    n = 20
    evolve(CountingProblem(), EngineConfig(population_size=n, generations=12, seed=3, mutation_prob=0.1))
    assert len(offspring_log) == 12
    assert np.array_equal(np.array(called[:n]), offspring_log[0][0])  # the initial population, once each
    done = n
    for parents, children, source, _ in offspring_log:
        new = source < 0
        assert np.array_equal(np.array(called[done: done + new.sum()]), children[new])
        done += new.sum()
        assert np.array_equal(children[~new], parents[source[~new]])
    assert done == len(called)
    copies = sum(int((source >= 0).sum()) for _, _, source, _ in offspring_log)
    assert 0 < copies < 12 * n  # both kinds of child occur


def test_batch_problem_receives_only_the_new_rows(offspring_log):
    problem = SometimesInfeasibleBatchProblem()
    evolve(problem, EngineConfig(population_size=20, generations=10, seed=4))
    fresh = [(children[source < 0], buffer) for _, children, source, buffer in offspring_log if (source < 0).any()]
    assert len(problem.received) == 1 + len(fresh)
    assert any(len(expected) < 20 for expected, _ in fresh)  # some children were copies
    for received, (expected, buffer) in zip(problem.received[1:], fresh):
        assert np.array_equal(received, expected)
        assert not np.shares_memory(received, buffer)


def test_batch_problem_is_not_called_when_every_child_is_a_copy():
    problem = SometimesInfeasibleBatchProblem()
    config = EngineConfig(population_size=20, generations=5, seed=4, crossover_prob=0.0, mutation_prob=0.0)
    result = evolve(problem, config)
    assert len(problem.received) == 1  # the initial population only
    assert result.history[-1].evaluations == 20 * 6
    assert_same_run(result, reference_evolve(SometimesInfeasibleBatchProblem(), config))


@pytest.mark.parametrize("batched", [False, True], ids=["scalar", "batch"])
def test_fault_in_a_new_child_after_a_copy_names_the_child(batched):
    n = 8
    for seed in range(50):  # the first seed whose first child is a copy
        config = EngineConfig(population_size=n, generations=1, seed=seed)
        copied = reference_copies(config)
        if copied[0]:
            break
    assert copied[0], "a seed must make the first child a copy"
    first_new = int(np.flatnonzero(~copied)[0])
    with pytest.raises(EvaluationError, match=rf"non-finite objective at genotype index {first_new}: \[nan, "):
        evolve(FirstChildFaultProblem(n, batched), config)


@pytest.mark.parametrize("batched", [False, True], ids=["scalar", "batch"])
@pytest.mark.parametrize("mutation_prob", [0.0, 0.01, 1.0])
@pytest.mark.parametrize("crossover_prob", [0.0, 0.6, 1.0])
def test_copy_rule_matches_the_reference_engine(crossover_prob, mutation_prob, batched):
    problem = SometimesInfeasibleBatchProblem() if batched else SometimesInfeasibleProblem()
    config = EngineConfig(
        population_size=16, generations=12, seed=23, crossover_prob=crossover_prob, mutation_prob=mutation_prob
    )
    assert_same_run(evolve(problem, config), reference_evolve(problem, config))


@pytest.mark.parametrize(
    "problem, shadows",
    [
        (LineFrontProblem(), False),  # no point on the line dominates another
        (SometimesInfeasibleProblem(), True),
        (SupplyChainProblem(generate_preset("desk")), True),
    ],
    ids=["line", "sometimes-infeasible", "desk-batched"],
)
def test_archive_offers_are_the_feasible_children_of_combined_rank_one(problem, shadows, monkeypatch):
    # Each generation offers the archive its feasible children in the first
    # front of parents plus children, as a staircase: the first row of each
    # vector, in lexicographic order.  The initial population offers its own
    # feasible first front.  A child that only a parent dominates is not
    # offered: a member already dominates it.
    sorted_rows, offers = [], []
    select, fold = nsga2.environmental_select, nsga2.update_archive

    def logged_select(objectives, violations, n_survivors):
        sorted_rows.append((objectives.copy(), violations.copy()))
        return select(objectives, violations, n_survivors)

    def logged_fold(archive, candidates):
        offers.append(candidates)
        return fold(archive, candidates)

    monkeypatch.setattr(nsga2, "environmental_select", logged_select)
    monkeypatch.setattr(nsga2, "update_archive", logged_fold)
    config = EngineConfig(population_size=12, generations=10, seed=4)
    n = config.population_size
    evolve(problem, config)
    assert len(sorted_rows) == len(offers) == config.generations + 1

    shadowed = 0  # feasible children no other child dominates, dominated by a parent
    for (objectives, violations), candidates in zip(sorted_rows, offers):
        first_front = set(oracle_sort(objectives, violations)[0])
        tail = range(len(objectives) - n, len(objectives))  # the children; the whole initial population
        expected = [k for k in tail if k in first_front and violations[k] == 0.0]
        first_rows = {}  # -0.0 and 0.0 make one key, as they make one vector
        for k in expected:
            first_rows.setdefault(tuple(objectives[k].tolist()), k)
        staircase = [first_rows[vector] for vector in sorted(first_rows)]
        assert candidates.objectives_array().tobytes() == objectives[staircase].tobytes()
        assert all(c.violation == 0.0 for c in candidates)
        if len(objectives) == n:
            continue
        feasible = np.flatnonzero(violations == 0.0)
        parents, children = feasible[feasible < n], feasible[feasible >= n]
        for k in children:
            if not any(oracle_dominates(objectives[j], objectives[k]) for j in children) and any(
                oracle_dominates(objectives[j], objectives[k]) for j in parents
            ):
                shadowed += 1
                assert k not in expected
    assert (shadowed > 0) == shadows


def test_one_pareto_fold_per_generation(monkeypatch):
    # the archive fold is the only Pareto filter a generation runs: the offers
    # come from the selection's sort
    calls = []
    nondominated = nsga2._nondominated

    def counted(points):
        calls.append(len(points))
        return nondominated(points)

    monkeypatch.setattr(nsga2, "_nondominated", counted)
    config = EngineConfig(population_size=12, generations=10, seed=4)
    evolve(LineFrontProblem(), config)
    assert len(calls) == config.generations + 1


def test_archive_rows_are_its_own_matrix():
    # every member's genotype is a row of the archive's own (n, L) matrix,
    # not a view that keeps its generation's whole offer matrix alive
    problem = SupplyChainProblem(generate_preset("desk-3p"))
    result = evolve(problem, EngineConfig(population_size=60, generations=20, seed=1))
    genotypes = result.archive.genotypes_array()
    n, length = len(result.archive), problem.genotype_length
    assert n > 1 and genotypes.shape == (n, length)
    assert genotypes.nbytes == n * length * 8
    assert genotypes.base is None or genotypes.base.nbytes == genotypes.nbytes
    for k, member in enumerate(result.archive.members):
        assert member.genotype.base is genotypes and np.shares_memory(member.genotype, genotypes[k])
        assert member.genotype.tobytes() == genotypes[k].tobytes()


@pytest.mark.parametrize(
    "problem",
    [LineFrontProblem(), SometimesInfeasibleProblem(), SupplyChainProblem(generate_preset("desk"))],
    ids=["line", "sometimes-infeasible", "desk-batched"],
)
def test_a_run_builds_no_individual(problem, monkeypatch):
    # the final population is five arrays, and with no caller reading archive
    # members a run builds no Individual at all
    built = []
    record = nsga2.Individual

    def counted(*args):
        built.append(args)
        return record(*args)

    monkeypatch.setattr(nsga2, "Individual", counted)
    config = EngineConfig(population_size=12, generations=10, seed=4)
    result = evolve(problem, config)
    assert built == []
    n, length = config.population_size, problem.genotype_length
    shapes = [getattr(result, name).shape for name in POPULATION_ARRAYS]
    assert shapes == [(n, length), (n, 2), (n,), (n,), (n,)]
    expected = reference_evolve(problem, config)
    for name in POPULATION_ARRAYS:
        got, want = getattr(result, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert len(result.archive.members) == len(built) == len(result.archive) > 0  # the count sees a read
