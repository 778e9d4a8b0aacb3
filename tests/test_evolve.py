"""The generational loop: determinism, archive behavior, toy convergence."""

from __future__ import annotations

import numpy as np
import pytest

from scnopt import EngineConfig, EvaluationError, SupplyChainProblem, evolve, generate_preset

from conftest import LineFrontProblem, RecordingProblem, ScalarOnlyProblem, SometimesInfeasibleProblem
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


def test_archive_only_improves_and_never_readmits_dominated_points():
    problem = RecordingProblem(TwoBasinProblem())
    result = evolve(problem, EngineConfig(population_size=10, generations=15, seed=11))
    for rec in result.history:
        seen_so_far = [
            obj for obj, violation in problem.seen[: rec.evaluations] if violation == 0.0
        ]
        for point in rec.archive_objectives:
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
        assert np.array_equal(a.archive_objectives, b.archive_objectives)


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
