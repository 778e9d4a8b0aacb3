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
