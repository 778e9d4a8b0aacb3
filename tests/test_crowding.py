"""Crowding distance against the literal formula."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scnopt import crowding_distance
from scnopt.nsga2 import _front_crowding

from oracles import oracle_crowding


def staircase_front(rng, n, lo=0.0, hi=1.0):
    """Random mutually non-dominated bi-objective front."""
    f1 = np.sort(rng.uniform(lo, hi, n))
    f2 = np.sort(rng.uniform(lo, hi, n))[::-1]
    return np.column_stack([f1, f2])


def simplex_front(rng, n, total=2.0):
    """Random mutually non-dominated tri-objective front (constant coordinate sum)."""
    a = rng.uniform(0.1, 0.9, n)
    b = rng.uniform(0.05, (total - a) * 0.9)
    return np.column_stack([a, b, total - a - b])


def test_frozen_three_point_example():
    distances = crowding_distance(np.array([[1.0, 5.0], [2.0, 3.0], [4.0, 1.0]]))
    assert np.isinf(distances[0])
    assert np.isinf(distances[2])
    assert distances[1] == pytest.approx(2.0, abs=1e-12)


def test_boundaries_are_infinite():
    distances = crowding_distance(np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]]))
    assert np.isinf(distances[0]) and np.isinf(distances[-1])
    assert np.all(np.isfinite(distances[1:-1]))


def test_single_and_pair_get_infinity():
    assert np.all(np.isinf(crowding_distance(np.array([[1.0, 2.0]]))))
    assert np.all(np.isinf(crowding_distance(np.array([[1.0, 2.0], [2.0, 1.0]]))))


def test_degenerate_objective_contributes_zero_to_interior():
    # objective 2 is constant: interior distance comes from objective 1 alone
    front = np.array([[0.0, 7.0], [1.0, 7.0], [4.0, 7.0]])
    distances = crowding_distance(front)
    assert distances[1] == pytest.approx((4.0 - 0.0) / 4.0, abs=1e-12)


def test_empty_front_raises():
    with pytest.raises(ValueError):
        crowding_distance(np.empty((0, 2)))


def test_matches_literal_formula_bi_and_tri_objective():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(3, 30))
        front = staircase_front(rng, n) if rng.random() < 0.5 else simplex_front(rng, n)
        got = crowding_distance(front)
        want = np.array(oracle_crowding(front))
        finite = np.isfinite(want)
        assert np.array_equal(np.isinf(got), np.isinf(want))
        assert np.allclose(got[finite], want[finite], rtol=0.0, atol=1e-12)


def test_affine_invariance_per_objective():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(3, 25))
        front = staircase_front(rng, n)
        scaled = front.copy()
        scaled[:, 0] = 3.7 * scaled[:, 0] + 11.0
        scaled[:, 1] = 0.04 * scaled[:, 1] - 2.0
        base = crowding_distance(front)
        transformed = crowding_distance(scaled)
        finite = np.isfinite(base)
        assert np.array_equal(np.isinf(base), np.isinf(transformed))
        assert np.allclose(base[finite], transformed[finite], rtol=0.0, atol=1e-9)


# Small integer grids with -0.0 next to 0.0: ties, duplicates, zero spans and
# single-point fronts.
GRID_VALUES = st.sampled_from([-0.0, 0.0, 0.5, 1.0, 2.0, 7.0])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    fronts=st.integers(1, 3).flatmap(
        lambda m: st.lists(
            st.lists(st.lists(GRID_VALUES, min_size=m, max_size=m), min_size=1, max_size=12),
            min_size=1,
            max_size=8,
        )
    )
)
def test_segment_crowding_equals_the_formula_per_front(fronts):
    # one pass over consecutive fronts gives each front's literal crowding, bit for bit
    got = _front_crowding(np.array([row for front in fronts for row in front]), np.array([len(f) for f in fronts]))
    want = np.array([d for front in fronts for d in oracle_crowding(front)])
    assert np.array_equal(got, want)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    front=st.integers(1, 3).flatmap(
        lambda m: st.lists(st.lists(GRID_VALUES, min_size=m, max_size=m), min_size=1, max_size=12)
    )
)
def test_crowding_distance_equals_the_formula(front):
    # the one-front kernel gives the literal crowding, bit for bit
    assert np.array_equal(crowding_distance(np.array(front)), np.array(oracle_crowding(front)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_raise(bad):
    front = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
    front[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        crowding_distance(front)
