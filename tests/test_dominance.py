"""An archive holds only values that constraint-domination can order.

``ParetoArchive(genotypes, objectives)`` checks the rows it is given.  A
violation that is not finite and nonnegative is refused by the sort
(tests/test_sorting.py::test_faulty_points_raise) and, in a problem's output,
by the engine's row check (tests/test_batch_eval.py).  The domination rule
itself is tested through ``fast_nondominated_sort`` (tests/test_sorting.py)
against the oracles in ``oracles.py``."""

from __future__ import annotations

import numpy as np
import pytest

from scnopt import ParetoArchive


class TestIndividualValues:
    """One point's values, given to the archive as a row of each matrix."""

    @pytest.mark.parametrize("objective", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_objectives_rejected(self, objective):
        with pytest.raises(ValueError, match="objectives must be finite"):
            ParetoArchive(np.zeros((2, 1)), np.array([[0.0, 1.0], [objective, 0.0]]))

    @pytest.mark.parametrize("gene", [float("nan"), -0.1, 1.5])
    def test_gene_outside_unit_interval_rejected(self, gene):
        # NaN compares false with both bounds, so the check must ask that each gene lies inside them
        with pytest.raises(ValueError, match=r"genotype coordinates must lie in \[0, 1\]"):
            ParetoArchive(np.array([[0.5, 0.5], [0.5, gene]]), np.array([[0.0, 1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("objectives", [1.0, [], [[0.0, 0.0]]], ids=["scalar", "empty", "row-matrix"])
    def test_objectives_that_no_archive_can_hold_rejected(self, objectives):
        # each would fail inside the fold, far from its cause: given for two
        # points, or as one point's objectives, none is an (n, M) matrix with M >= 1
        with pytest.raises(ValueError, match="objectives"):
            ParetoArchive(np.zeros((2, 2)), objectives)
        with pytest.raises(ValueError, match="objectives"):
            ParetoArchive(np.zeros((1, 2)), [objectives])

    @pytest.mark.parametrize("genotypes", [0.5, [0.5, 0.5], [[[0.5, 0.5]]]], ids=["scalar", "vector", "row-matrix"])
    def test_genotypes_that_no_archive_can_hold_rejected(self, genotypes):
        # one point's genes as a scalar, a bare vector or a row matrix: not an (n, L) matrix
        with pytest.raises(ValueError, match=r"need \(n, L\) genotypes"):
            ParetoArchive(genotypes, np.zeros((1, 2)))
