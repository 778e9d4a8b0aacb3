"""Batched evaluation against the reference decoder in ``oracles.py``, row by row,
bit for bit, and the engine's checks of each evaluated block."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from scnopt import (
    EngineConfig,
    EvaluationError,
    GenotypeLayout,
    Individual,
    SupplyChainProblem,
    decode,
    evaluate_batch,
    evolve,
    generate_instance,
    generate_preset,
)
from scnopt.instances import PRESETS
from scnopt.model import _BATCH_BLOCK
from scnopt.nsga2 import _row_faults

from oracles import ReferenceSupplyChainProblem, reference_evaluate_genotype, reference_evolve

PRESET_NAMES = ("tiny", "desk", "sbc-scale")


def _set_segment(g: np.ndarray, segment: slice, shape: tuple[int, int], column=None, row=None, value=0.0):
    """Write ``value`` into a whole reshaped segment of genotype ``g``, or into one of its columns or rows."""
    block = g[segment].reshape(shape)
    if column is not None:
        block[:, column] = value
    elif row is not None:
        block[row, :] = value
    else:
        block[:] = value
    g[segment] = block.ravel()


def edge_genotypes(instance, rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` random genotypes whose first rows hit every special case of decoding."""
    s, k, j, i, _, t = instance.dimensions
    layout = GenotypeLayout.for_instance(instance)
    g = rng.random((n, layout.length))
    g[0, layout.plant_keys] *= 0.49                      # every plant key below 0.5
    g[1, layout.dc_keys] *= 0.49                         # every DC key below 0.5
    g[2, layout.plant_keys] *= 0.49
    g[2, layout.dc_keys] *= 0.49
    _set_segment(g[3], layout.supplier_weights, (s, k))  # all supplier weights zero
    _set_segment(g[4], layout.plant_dc_weights, (k, j))  # all plant->DC weights zero
    _set_segment(g[5], layout.supplier_weights, (s, k), column=0)  # one plant's supplier column
    _set_segment(g[6], layout.plant_dc_weights, (k, j), column=0)  # one DC's plant column
    _set_segment(g[7], layout.timing_weights, (j, t))    # all timing weights zero
    _set_segment(g[8], layout.timing_weights, (j, t), row=0)       # one DC's timing row
    _set_segment(g[9], layout.assignment_keys, (j, i), value=0.5)  # assignment ties
    g[10] = 0.0
    g[11] = 1.0
    return g


def reference_rows(genotypes, instance, holding_on_backorder):
    rows = [reference_evaluate_genotype(g, instance, holding_on_backorder) for g in genotypes]
    return np.array([o for o, _ in rows]), np.array([v for _, v in rows])


def assert_rows_equal(genotypes, instance, holding_on_backorder):
    objectives, violations = evaluate_batch(genotypes, instance, holding_on_backorder)
    expected_objectives, expected_violations = reference_rows(genotypes, instance, holding_on_backorder)
    assert objectives.shape == (len(genotypes), 2) and violations.shape == (len(genotypes),)
    mismatched = np.flatnonzero(
        ~((objectives == expected_objectives).all(axis=1) & (violations == expected_violations))
    )
    assert mismatched.size == 0, f"rows differing from the reference evaluator: {mismatched.tolist()}"


@pytest.mark.parametrize("holding_on_backorder", [False, True])
@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_rows_match_scalar_evaluate(preset, holding_on_backorder):
    instance = generate_preset(preset)
    genotypes = edge_genotypes(instance, np.random.default_rng(11), 120)
    assert_rows_equal(genotypes, instance, holding_on_backorder)


@pytest.mark.parametrize("holding_on_backorder", [False, True])
def test_capacity_pinned_splits_match_scalar(holding_on_backorder):
    desk = generate_preset("desk")
    cut = replace(
        desk,
        plant_capacity=0.45 * desk.plant_capacity,
        supplier_capacity=0.6 * desk.supplier_capacity,
    )
    genotypes = edge_genotypes(cut, np.random.default_rng(12), 150)
    # the cut makes splits pin: some plants produce exactly their capacity
    pinned = 0
    for g in genotypes:
        production = decode(g, cut).product_flow.sum(axis=(0, 2))
        pinned += int(np.any(production == cut.plant_capacity / cut.utilization))
    assert pinned > 0
    assert_rows_equal(genotypes, cut, holding_on_backorder)


def test_multi_product_instance_matches_scalar():
    # more than one product, and 9 plants and DCs: sums over those axes run
    # past numpy's 8-wide unrolled block, so their order must match too
    big = generate_instance(
        replace(PRESETS["sbc-scale"], n_products=3, n_plants=9, n_dcs=9, capacity_slack=1.0, seed=4)
    )
    assert_rows_equal(edge_genotypes(big, np.random.default_rng(13), 60), big, False)


@pytest.mark.parametrize("n", [1, _BATCH_BLOCK - 1, _BATCH_BLOCK + 3])
def test_batch_sizes_around_the_block(n):
    instance = generate_preset("desk")
    genotypes = np.random.default_rng(n).random((n, instance.genotype_length))
    assert_rows_equal(genotypes, instance, False)


def test_wrong_shape_rejected():
    instance = generate_preset("tiny")
    with pytest.raises(ValueError, match="genotypes must have shape"):
        evaluate_batch(np.zeros(instance.genotype_length), instance)
    with pytest.raises(ValueError, match="genotypes must have shape"):
        evaluate_batch(np.zeros((3, instance.genotype_length + 1)), instance)


def test_evolve_batched_matches_scalar_only_wrapper():
    instance = generate_preset("desk")
    config = EngineConfig(population_size=20, generations=6, seed=3)
    batched = evolve(SupplyChainProblem(instance), config)
    scalar = evolve(ReferenceSupplyChainProblem(instance), config)
    assert np.array_equal(batched.archive.objectives_array(), scalar.archive.objectives_array())
    for name in ("genotype", "objectives", "violation"):
        a = np.array([getattr(ind, name) for ind in batched.population])
        b = np.array([getattr(ind, name) for ind in scalar.population])
        assert np.array_equal(a, b), name


class BatchProblem:
    """A two-gene problem whose batch output can be corrupted at one row."""

    genotype_length = 2

    def __init__(self, corrupt=None):
        self.corrupt = corrupt

    def evaluate(self, genotype):
        return np.array([genotype[0], 1.0 - genotype[0]]), 0.0

    def evaluate_batch(self, genotypes):
        objectives = np.stack([genotypes[:, 0], 1.0 - genotypes[:, 0]], axis=1)
        violations = np.zeros(len(genotypes))
        if self.corrupt is not None:
            objectives, violations = self.corrupt(objectives, violations)
        return objectives, violations


def _nan_objective(objectives, violations):
    objectives[3, 1] = np.nan
    return objectives, violations


def _negative_violation(objectives, violations):
    violations[2] = -1.0
    return objectives, violations


def _infinite_violation(objectives, violations):
    violations[5] = np.inf
    return objectives, violations


def _short_violations(objectives, violations):
    return objectives, violations[:-1]


def _one_objective(objectives, violations):
    return objectives[:, :1], violations


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_nan_objective, "non-finite objective at genotype index 3"),
        (_negative_violation, "invalid constraint violation at genotype index 2"),
        (_infinite_violation, "invalid constraint violation at genotype index 5"),
        (_short_violations, "evaluate_batch returned"),
        (_one_objective, "genotype index 0: expected >= 2 objectives"),
    ],
)
def test_malformed_batch_output_raises(corrupt, message):
    with pytest.raises(EvaluationError, match=message):
        evolve(BatchProblem(corrupt), EngineConfig(population_size=8, generations=1, seed=1))


def test_well_formed_batch_problem_runs():
    result = evolve(BatchProblem(), EngineConfig(population_size=8, generations=2, seed=1))
    assert result.history[-1].evaluations == 24


def _bad_violation_then_nan_objective(objectives, violations):
    violations[1] = -0.5
    objectives[3, 0] = np.nan
    return objectives, violations


def _nan_objective_and_violation(objectives, violations):
    objectives[2, 0] = np.inf
    violations[2] = np.nan
    return objectives, violations


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_bad_violation_then_nan_objective, "invalid constraint violation at genotype index 1: -0.5"),
        (_nan_objective_and_violation, r"non-finite objective at genotype index 2: \[inf, "),
    ],
)
def test_first_faulty_row_is_named(corrupt, message):
    config = EngineConfig(population_size=8, generations=1, seed=1)
    with pytest.raises(EvaluationError, match=message):
        evolve(BatchProblem(corrupt), config)
    with pytest.raises(EvaluationError, match=message):
        reference_evolve(BatchProblem(corrupt), config)


class ScalarFaultProblem:
    """Scalar-only problem whose ``k``-th call returns ``faults[k]`` when given."""

    genotype_length = 2

    def __init__(self, faults):
        self.faults = faults
        self.calls = 0

    def evaluate(self, genotype):
        fault = self.faults.get(self.calls)
        self.calls += 1
        return fault if fault is not None else (np.array([genotype[0], 1.0 - genotype[0]]), 0.0)


@pytest.mark.parametrize(
    "faults, message",
    [
        ({1: (np.array([np.nan, 1.0]), 0.0), 3: (np.array([1.0]), 0.0)}, "non-finite objective at genotype index 1"),
        ({2: (np.array([1.0, 2.0]), -1.0), 3: (np.array([1.0, 2.0, 3.0]), 0.0)},
         "invalid constraint violation at genotype index 2"),
        ({0: (np.array([1.0, 2.0]), np.inf), 1: (np.array([[1.0, 2.0]]), 0.0)},
         "invalid constraint violation at genotype index 0"),
        ({2: (np.array([1.0]), np.nan)}, r"genotype index 2: expected >= 2 objectives, got shape \(1,\)"),
        ({9: (np.array([1.0, 2.0, 3.0]), 0.0)}, "genotype index 1: objective count changed from 2 to 3"),
        # a later row's violation that float() rejects comes after the earlier rows' faults
        ({1: (np.array([np.nan, 1.0]), 0.0), 3: (np.array([1.0, 2.0]), [0.0, 1.0])},
         "non-finite objective at genotype index 1"),
        ({1: (np.array([1.0, 2.0]), -1.0), 3: (np.array([1.0, 2.0]), "x")},
         "invalid constraint violation at genotype index 1"),
    ],
)
def test_scalar_faults_named_in_row_order(faults, message):
    config = EngineConfig(population_size=8, generations=1, seed=1)
    with pytest.raises(EvaluationError, match=message):
        evolve(ScalarFaultProblem(faults), config)
    with pytest.raises(EvaluationError, match=message):
        reference_evolve(ScalarFaultProblem(faults), config)


@pytest.mark.parametrize("violation", [np.array([0.0, 1.0]), None], ids=["length-2-array", "none"])
def test_unconvertible_violation_raises_what_float_raises(violation):
    config = EngineConfig(population_size=8, generations=1, seed=1)
    problems = [ScalarFaultProblem({2: (np.array([1.0, 2.0]), violation)}) for _ in range(2)]
    with pytest.raises(TypeError) as engine_error:
        evolve(problems[0], config)
    with pytest.raises(TypeError) as reference_error:
        reference_evolve(problems[1], config)
    assert str(engine_error.value) == str(reference_error.value)
    assert problems[0].calls == problems[1].calls == config.population_size  # the walk calls evaluate no more


def test_block_check_rejects_exactly_what_individual_rejects():
    rng = np.random.default_rng(21)
    specials = np.array([np.nan, np.inf, -np.inf, -1e-300, -0.0, 0.0, 1.0, 1.0 + 1e-16, 1.5, -2.0])
    rejected_rows = 0
    for trial in range(200):
        n, length, m = int(rng.integers(1, 12)), int(rng.integers(1, 5)), int(rng.integers(2, 4))
        genotypes, objectives, violations = rng.random((n, length)), rng.random((n, m)), rng.random(n)
        violations[rng.random(n) < 0.3] = 0.0
        for values in (genotypes, objectives, violations):
            spots = rng.random(values.shape) < 0.08
            values[spots] = rng.choice(specials, size=int(spots.sum()))
        rejected = _row_faults(genotypes, objectives, violations).any(axis=0)
        for k in range(n):
            try:
                Individual(genotypes[k], objectives=objectives[k], violation=float(violations[k]))
            except ValueError:
                assert rejected[k], (trial, k)
                rejected_rows += 1
            else:
                assert not rejected[k], (trial, k)
    assert rejected_rows > 100
