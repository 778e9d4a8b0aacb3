"""Individuals hold only values that constraint-domination can order.

The domination rule itself is tested through ``fast_nondominated_sort``
(tests/test_sorting.py) against the oracles in ``oracles.py``."""

from __future__ import annotations

import numpy as np
import pytest

from scnopt import Individual


class TestIndividualValues:
    @pytest.mark.parametrize(
        "objectives, violation",
        [
            ([0.0, 0.0], float("nan")),
            ([0.0, 0.0], float("inf")),
            ([float("nan"), 0.0], 0.0),
            ([0.0, float("inf")], 0.5),
            ([0.0, -float("inf")], 0.0),
            ([0.0, 0.0], -0.1),
        ],
    )
    def test_non_finite_or_negative_values_rejected(self, objectives, violation):
        # A NaN violation compares false both ways and would tie with any
        # infeasible member; ranking assumes violations are totally ordered.
        with pytest.raises(ValueError):
            Individual(np.zeros(1), objectives=objectives, violation=violation)

    @pytest.mark.parametrize("gene", [float("nan"), -0.1, 1.5])
    def test_gene_outside_unit_interval_rejected(self, gene):
        # NaN compares false with both bounds, so the check must ask that each gene lies inside them
        with pytest.raises(ValueError, match=r"genotype coordinates must lie in \[0, 1\]"):
            Individual(np.array([0.5, gene]), objectives=np.zeros(2))

    @pytest.mark.parametrize("objectives", [1.0, [], [[0.0, 0.0]]], ids=["scalar", "empty", "row-matrix"])
    def test_objectives_that_no_archive_can_hold_rejected(self, objectives):
        # each would construct, then fail inside the archive's fold far from its cause
        with pytest.raises(ValueError, match="objectives must be a non-empty one-dimensional vector"):
            Individual(np.zeros(2), objectives=objectives)
