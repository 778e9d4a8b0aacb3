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
from oracles import reference_evolve


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
    for ind_a, ind_b in zip(a.population, b.population):
        assert np.array_equal(ind_a.genotype, ind_b.genotype)
        assert np.array_equal(ind_a.objectives, ind_b.objectives)


def test_different_seeds_explore_differently():
    a = evolve(TwoBasinProblem(), EngineConfig(population_size=12, generations=4, seed=1))
    b = evolve(TwoBasinProblem(), EngineConfig(population_size=12, generations=4, seed=2))
    assert not np.array_equal(
        np.array([i.genotype for i in a.population]),
        np.array([i.genotype for i in b.population]),
    )


def test_zero_generations_returns_initial_population():
    cfg = EngineConfig(population_size=8, generations=0, seed=5)
    result = evolve(LineFrontProblem(), cfg)
    assert len(result.population) == 8
    assert len(result.history) == 1
    assert result.history[0].generation == 0
    assert result.history[0].evaluations == 8
    # archive equals the feasible non-dominated subset (everything, deduped)
    assert len(result.archive) <= 8
    assert all(ind.rank is not None for ind in result.population)


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
    assert len(result.population) == 14


def test_infeasible_region_is_evacuated():
    result = evolve(
        SometimesInfeasibleProblem(),
        EngineConfig(population_size=20, generations=30, seed=17),
    )
    feasible = [ind for ind in result.population if ind.feasible]
    assert len(feasible) >= 18  # constraint-domination pushes the population left
    assert all(member.feasible for member in result.archive)


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


def assert_same_run(result, expected):
    assert len(result.population) == len(expected.population)
    for a, b in zip(result.population, expected.population):
        assert np.array_equal(a.genotype, b.genotype)
        assert np.array_equal(a.objectives, b.objectives)
        assert (a.violation, a.rank, a.crowding) == (b.violation, b.rank, b.crowding)
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
