"""Non-dominated sorting against the brute-force peeling oracle."""

from __future__ import annotations

import numpy as np
import pytest

from scnopt import Individual, fast_nondominated_sort

from conftest import random_population
from oracles import oracle_constrained_dominates, oracle_sort


def from_objectives(rows, violations=None):
    violations = violations or [0.0] * len(rows)
    return [
        Individual(np.zeros(1), objectives=np.asarray(row, float), violation=v)
        for row, v in zip(rows, violations)
    ]


def test_frozen_three_front_example():
    pop = from_objectives([(1, 1), (2, 2), (1, 2), (3, 1)])
    partition = fast_nondominated_sort(pop)
    fronts = [sorted(f.tolist()) for f in partition.fronts]
    assert fronts == [[0], [2, 3], [1]]
    assert partition.ranks.tolist() == [1, 3, 2, 2]


def test_all_duplicates_form_one_front():
    pop = from_objectives([(1, 1)] * 5)
    partition = fast_nondominated_sort(pop)
    assert len(partition.fronts) == 1
    assert sorted(partition.fronts[0].tolist()) == [0, 1, 2, 3, 4]


def test_single_individual():
    partition = fast_nondominated_sort(from_objectives([(3, 4)]))
    assert partition.ranks.tolist() == [1]


def test_chain_gives_one_front_per_individual():
    pop = from_objectives([(k, k) for k in range(6)])
    partition = fast_nondominated_sort(pop)
    assert len(partition.fronts) == 6
    assert partition.ranks.tolist() == [1, 2, 3, 4, 5, 6]


def test_infeasible_sorted_behind_feasible_by_violation():
    pop = from_objectives(
        [(5, 5), (1, 1), (0, 0)],
        violations=[0.0, 0.2, 0.4],
    )
    partition = fast_nondominated_sort(pop)
    assert partition.ranks.tolist() == [1, 2, 3]


def test_empty_population_raises():
    with pytest.raises(ValueError):
        fast_nondominated_sort([])


def test_unevaluated_member_raises():
    # an Individual cannot exist without objectives, so no sort ever sees one
    with pytest.raises(TypeError):
        Individual(np.zeros(1))


def dominates(a, b) -> bool:
    return oracle_constrained_dominates(a.objectives, a.violation, b.objectives, b.violation)


def test_partition_invariants_on_random_populations():
    rng = np.random.default_rng(23)
    for _ in range(40):
        pop = random_population(rng, int(rng.integers(2, 50)), int(rng.integers(2, 4)))
        partition = fast_nondominated_sort(pop)
        # fronts cover the population exactly once
        everyone = np.concatenate(partition.fronts)
        assert sorted(everyone.tolist()) == list(range(len(pop)))
        for rank0, front in enumerate(partition.fronts):
            members = front.tolist()
            # nobody in a front is dominated by anyone in the same or a later front
            for i in members:
                for later in partition.fronts[rank0:]:
                    for j in later.tolist():
                        if i != j:
                            assert not dominates(pop[j], pop[i])
            # every member of front k >= 2 has a dominator in front k-1
            if rank0 > 0:
                previous = partition.fronts[rank0 - 1].tolist()
                for i in members:
                    assert any(dominates(pop[j], pop[i]) for j in previous)


def assert_matches_oracle(pop):
    """Fronts equal the oracle's as ordered lists (ascending indices), ranks agree."""
    partition = fast_nondominated_sort(pop)
    want = oracle_sort([ind.objectives for ind in pop], [ind.violation for ind in pop])
    assert [f.tolist() for f in partition.fronts] == want
    for rank0, front in enumerate(want):
        assert all(partition.ranks[i] == rank0 + 1 for i in front)


def test_matches_peeling_oracle_on_random_populations():
    rng = np.random.default_rng(31)
    for infeasible_fraction in (0.4, 0.0, 1.0):  # mixed, all feasible, all infeasible
        for _ in range(60):
            pop = random_population(
                rng, int(rng.integers(2, 40)), int(rng.integers(2, 4)), infeasible_fraction
            )
            assert_matches_oracle(pop)


def test_bi_objective_fronts_match_oracle_with_ties_and_duplicates():
    rng = np.random.default_rng(41)
    for trial in range(60):
        n = int(rng.integers(2, 80))
        rows = rng.random((n, 2))
        if trial % 2:
            grid = int(rng.integers(1, 6))
            rows = np.round(rows * grid) / grid  # coarse grid: many equal coordinates
        if trial % 3 == 0:
            rows = rows[rng.integers(0, n, n)]  # repeated objective vectors
        violations = [0.0 if rng.random() < 0.8 else float(rng.choice([0.2, 0.5])) for _ in range(n)]
        assert_matches_oracle(from_objectives(rows, violations=violations))


def test_shared_violation_fronts_keep_index_order():
    rng = np.random.default_rng(37)
    for _ in range(30):
        n = int(rng.integers(2, 30))
        rows = rng.random((n, 2))
        # every member infeasible with one violation value: a single front
        pop = from_objectives(rows, violations=[0.7] * n)
        assert [f.tolist() for f in fast_nondominated_sort(pop).fronts] == [list(range(n))]
        # a feasible minority ahead of infeasible members drawn from two values
        violations = [0.0 if rng.random() < 0.3 else float(rng.choice([0.2, 0.5])) for _ in range(n)]
        assert_matches_oracle(from_objectives(rows, violations=violations))
