"""Bi-objective hypervolume."""

from __future__ import annotations

import numpy as np
import pytest

from scnopt import hypervolume_2d

from oracles import oracle_hypervolume_2d, reference_hypervolume_2d


class TestHandValues:
    def test_two_symmetric_points(self):
        assert hypervolume_2d([(0.0, 0.5), (0.5, 0.0)], (1.0, 1.0)) == 0.75

    def test_single_point(self):
        assert hypervolume_2d([(0.25, 0.25)], (1.0, 1.0)) == 0.5625

    def test_point_on_reference_contributes_nothing(self):
        assert hypervolume_2d([(1.0, 1.0)], (1.0, 1.0)) == 0.0

    def test_empty_front(self):
        assert hypervolume_2d([], (1.0, 1.0)) == 0.0
        assert hypervolume_2d(np.empty((0, 2)), (1.0, 1.0)) == 0.0

    def test_staircase(self):
        front = [(0.0, 0.9), (0.2, 0.5), (0.7, 0.1)]
        expected = 1.0 * 0.1 + 0.8 * 0.4 + 0.3 * 0.4
        assert hypervolume_2d(front, (1.0, 1.0)) == pytest.approx(expected, abs=1e-15)


class TestInvariances:
    def test_dominated_points_contribute_nothing(self):
        base = [(0.1, 0.6), (0.5, 0.2)]
        padded = base + [(0.6, 0.7), (0.5, 0.2), (0.9, 0.9)]
        ref = (1.0, 1.0)
        assert hypervolume_2d(padded, ref) == hypervolume_2d(base, ref)

    def test_order_invariance(self):
        rng = np.random.default_rng(5)
        points = rng.random((20, 2))
        ref = (1.5, 1.5)
        shuffled = points[rng.permutation(20)]
        assert hypervolume_2d(shuffled, ref) == pytest.approx(
            hypervolume_2d(points, ref), abs=1e-12
        )

    def test_translation_invariance(self):
        points = np.array([(0.1, 0.8), (0.4, 0.3), (0.9, 0.05)])
        shift = np.array([3.0, -2.0])
        assert hypervolume_2d(points + shift, (1.0 + 3.0, 1.0 - 2.0)) == pytest.approx(
            hypervolume_2d(points, (1.0, 1.0)), abs=1e-12
        )

    def test_monotone_under_point_addition(self):
        rng = np.random.default_rng(9)
        ref = (1.0, 1.0)
        points = list(rng.random((15, 2)))
        for cut in range(1, 16):
            assert hypervolume_2d(points[:cut], ref) >= hypervolume_2d(points[: cut - 1], ref)


class TestValidation:
    def test_point_beyond_reference_raises(self):
        with pytest.raises(ValueError, match="weakly dominate"):
            hypervolume_2d([(0.5, 1.2)], (1.0, 1.0))

    def test_non_finite_raises(self):
        with pytest.raises(ValueError, match="finite"):
            hypervolume_2d([(np.nan, 0.5)], (1.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            hypervolume_2d([(0.5, 0.5)], (np.inf, 1.0))
        with pytest.raises(ValueError, match="finite"):
            hypervolume_2d([], [np.nan, 1.0])  # an empty front does not excuse the reference

    def test_bad_shapes_raise(self):
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            hypervolume_2d([(0.1, 0.2, 0.3)], (1.0, 1.0))
        with pytest.raises(ValueError, match="two components"):
            hypervolume_2d([(0.1, 0.2)], (1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="two components"):
            hypervolume_2d([], (1.0, 2.0, 3.0))
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            hypervolume_2d(np.empty((0, 5)), (1, 1))


class TestAgainstOracle:
    def test_random_fronts_match_slab_union(self):
        rng = np.random.default_rng(42)
        ref = (1.25, 1.1)
        for _ in range(300):
            n = int(rng.integers(1, 14))
            points = rng.random((n, 2))
            expected = oracle_hypervolume_2d(points, ref)
            assert hypervolume_2d(points, ref) == pytest.approx(expected, abs=1e-12)

    def test_random_fronts_match_the_sweep_bit_for_bit(self):
        # report.json's hypervolumes are compared byte for byte, so the box minus
        # the undominated area must add its terms in staircase order, as the
        # plain-Python form does.
        rng = np.random.default_rng(7)
        ref = (1.25, 1.1)
        for _ in range(300):
            n = int(rng.integers(1, 80))
            front = np.column_stack([np.sort(rng.random(n)), np.sort(rng.random(n))[::-1]])
            k = int(rng.integers(n))
            edges = np.array([
                (0.0, ref[1]),  # first in sweep order, on the reference's delay
                (ref[0], rng.random() * front[-1, 1]),  # on the reference's cost, below every delay
                (ref[0], ref[1]),
                (ref[0], front[k, 1]),
                (front[k, 0], front[k, 1] + 0.05),  # equal cost, different delay
                (front[k, 0], 0.5 * front[k, 1]),
                (-0.0, front[0, 1]),  # -0.0 against 0.0, in either objective
                (0.0, front[0, 1]),
                (front[k, 0], -0.0),
                (front[k, 0], 0.0),
            ])
            picked = edges[rng.random(len(edges)) < 0.4]
            points = np.concatenate([front, front[: n // 4], rng.random((n // 2, 2)), picked, picked[::-1]])
            rng.shuffle(points)
            assert hypervolume_2d(points, ref) == reference_hypervolume_2d(points, ref)
