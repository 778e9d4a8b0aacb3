"""Dominance and constraint-domination semantics."""

from __future__ import annotations

import numpy as np
import pytest

from scnopt import Individual, constrained_dominates, dominates

from oracles import oracle_constrained_dominates, oracle_dominates


def ind(objectives, violation=0.0):
    return Individual(np.zeros(1), objectives=np.asarray(objectives, float), violation=violation)


class TestDominates:
    def test_strictly_better_everywhere(self):
        assert dominates([1.0, 1.0], [2.0, 2.0]) is True

    def test_equal_vectors_do_not_dominate(self):
        assert dominates([1.0, 1.0], [1.0, 1.0]) is False

    def test_incomparable_pair(self):
        assert dominates([1.0, 2.0], [2.0, 1.0]) is False
        assert dominates([2.0, 1.0], [1.0, 2.0]) is False

    def test_weak_improvement_suffices(self):
        assert dominates([1.0, 2.0], [2.0, 2.0]) is True

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            dominates([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_three_objectives(self):
        assert dominates([1, 2, 3], [1, 2, 4]) is True
        assert dominates([1, 2, 3], [0, 9, 9]) is False

    def test_matches_oracle_and_relation_properties(self):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            m = int(rng.integers(2, 4))
            a, b, c = (np.round(rng.random(m) * 4) / 4 for _ in range(3))
            assert dominates(a, b) == oracle_dominates(a, b)
            # irreflexive and asymmetric
            assert not dominates(a, a)
            assert not (dominates(a, b) and dominates(b, a))
            # transitive
            if dominates(a, b) and dominates(b, c):
                assert dominates(a, c)


class TestConstrainedDominates:
    def test_feasible_beats_infeasible(self):
        assert constrained_dominates(ind([9, 9]), ind([1, 1], violation=0.5)) is True
        assert constrained_dominates(ind([1, 1], violation=0.5), ind([9, 9])) is False

    def test_infeasible_compare_by_violation(self):
        assert constrained_dominates(ind([9, 9], violation=0.1), ind([1, 1], violation=0.2)) is True
        assert constrained_dominates(ind([1, 1], violation=0.2), ind([9, 9], violation=0.1)) is False

    def test_equal_violations_do_not_dominate(self):
        a = ind([1, 1], violation=0.3)
        b = ind([9, 9], violation=0.3)
        assert constrained_dominates(a, b) is False
        assert constrained_dominates(b, a) is False

    def test_feasible_pair_uses_pareto_dominance(self):
        assert constrained_dominates(ind([1, 1]), ind([2, 2])) is True
        assert constrained_dominates(ind([1, 2]), ind([2, 1])) is False

    def test_unevaluated_raises(self):
        # an Individual cannot exist without objectives, so no comparison ever sees one
        with pytest.raises(TypeError):
            Individual(np.zeros(1))

    def test_matches_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(5_000):
            obj_a, obj_b = rng.random(2), rng.random(2)
            viol_a = 0.0 if rng.random() < 0.5 else round(float(rng.random()), 1)
            viol_b = 0.0 if rng.random() < 0.5 else round(float(rng.random()), 1)
            got = constrained_dominates(ind(obj_a, viol_a), ind(obj_b, viol_b))
            want = oracle_constrained_dominates(obj_a, viol_a, obj_b, viol_b)
            assert got == want


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
