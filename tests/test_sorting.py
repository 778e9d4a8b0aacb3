"""Non-dominated sorting against the brute-force peeling oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scnopt import Individual, environmental_select, fast_nondominated_sort
from scnopt.nsga2 import _pareto_ranks

from conftest import random_population
from oracles import oracle_constrained_dominates, oracle_sort


def from_objectives(rows, violations=None):
    """``(objectives, violations)`` arrays for ``fast_nondominated_sort``."""
    objectives = np.asarray(rows, dtype=float)
    return objectives, np.asarray(violations if violations is not None else [0.0] * len(objectives), dtype=float)


def test_frozen_three_front_example():
    partition = fast_nondominated_sort(*from_objectives([(1, 1), (2, 2), (1, 2), (3, 1)]))
    fronts = [sorted(f.tolist()) for f in partition.fronts]
    assert fronts == [[0], [2, 3], [1]]
    assert partition.ranks.tolist() == [1, 3, 2, 2]


def test_all_duplicates_form_one_front():
    partition = fast_nondominated_sort(*from_objectives([(1, 1)] * 5))
    assert len(partition.fronts) == 1
    assert sorted(partition.fronts[0].tolist()) == [0, 1, 2, 3, 4]


def test_single_individual():
    partition = fast_nondominated_sort(*from_objectives([(3, 4)]))
    assert partition.ranks.tolist() == [1]


def test_chain_gives_one_front_per_individual():
    partition = fast_nondominated_sort(*from_objectives([(k, k) for k in range(6)]))
    assert len(partition.fronts) == 6
    assert partition.ranks.tolist() == [1, 2, 3, 4, 5, 6]


def test_infeasible_sorted_behind_feasible_by_violation():
    partition = fast_nondominated_sort(*from_objectives([(5, 5), (1, 1), (0, 0)], violations=[0.0, 0.2, 0.4]))
    assert partition.ranks.tolist() == [1, 2, 3]


def test_empty_population_raises():
    with pytest.raises(ValueError):
        fast_nondominated_sort(np.empty((0, 2)), np.empty(0))


def test_mismatched_violations_raise():
    with pytest.raises(ValueError):
        fast_nondominated_sort(np.zeros((3, 2)), np.zeros(2))


FAULTY_POINTS = {
    # (objective of row 1, violation of row 1, the message's start)
    "nan-objective": (np.nan, 0.0, "objectives must be finite"),
    "inf-objective": (np.inf, 0.0, "objectives must be finite"),
    "minus-inf-objective": (-np.inf, 0.0, "objectives must be finite"),
    "nan-violation": (1.0, np.nan, "violations must be finite and nonnegative"),
    "inf-violation": (1.0, np.inf, "violations must be finite and nonnegative"),
    "negative-violation": (1.0, -1.0, "violations must be finite and nonnegative"),
}


@pytest.mark.parametrize("case", FAULTY_POINTS)
@pytest.mark.parametrize("call", ["sort", "stopped-sort", "select"])
def test_faulty_points_raise(case, call):
    # one faulty row among points that would otherwise rank [1, 2, 1, 1, 2, 3]
    f1, violation, message = FAULTY_POINTS[case]
    objectives = np.array([[0.0, 3.0], [f1, 2.0], [2.0, 1.0], [3.0, 0.0], [5.0, 5.0], [6.0, 6.0]])
    violations = np.zeros(6)
    violations[1] = violation
    run = {
        "sort": lambda: fast_nondominated_sort(objectives, violations),
        "stopped-sort": lambda: fast_nondominated_sort(objectives, violations, stop=1),
        "select": lambda: environmental_select(objectives, violations, 5),
    }[call]
    with pytest.raises(ValueError, match=message):
        run()


def test_negative_zero_violation_is_feasible():
    partition = fast_nondominated_sort(*from_objectives([(1, 2), (2, 1), (0, 0)], violations=[0.0, -0.0, 0.5]))
    assert partition.ranks.tolist() == [1, 1, 2]


def test_unevaluated_member_raises():
    # an Individual cannot exist without objectives, so no archive ever holds one
    with pytest.raises(TypeError):
        Individual(np.zeros(1))


def test_partition_invariants_on_random_populations():
    rng = np.random.default_rng(23)
    for _ in range(40):
        objectives, violations = random_population(rng, int(rng.integers(2, 50)), int(rng.integers(2, 4)))

        def dominates(j, i):
            return oracle_constrained_dominates(objectives[j], violations[j], objectives[i], violations[i])

        partition = fast_nondominated_sort(objectives, violations)
        # fronts cover the population exactly once
        everyone = np.concatenate(partition.fronts)
        assert sorted(everyone.tolist()) == list(range(len(objectives)))
        for rank0, front in enumerate(partition.fronts):
            members = front.tolist()
            # nobody in a front is dominated by anyone in the same or a later front
            for i in members:
                for later in partition.fronts[rank0:]:
                    for j in later.tolist():
                        if i != j:
                            assert not dominates(j, i)
            # every member of front k >= 2 has a dominator in front k-1
            if rank0 > 0:
                previous = partition.fronts[rank0 - 1].tolist()
                for i in members:
                    assert any(dominates(j, i) for j in previous)


def assert_matches_oracle(objectives, violations):
    """Fronts equal the oracle's as ordered lists (ascending indices), ranks
    agree, and every stopped sort returns the oracle's fronts up to the one
    that places the stop-th point, with rank 0 after it."""
    want = oracle_sort(objectives, violations)
    partition = fast_nondominated_sort(objectives, violations)
    assert [f.tolist() for f in partition.fronts] == want
    for rank0, front in enumerate(want):
        assert all(partition.ranks[i] == rank0 + 1 for i in front)
    for stop in range(1, len(objectives) + 1):
        count = next(k for k in range(1, len(want) + 1) if sum(map(len, want[:k])) >= stop)
        stopped = fast_nondominated_sort(objectives, violations, stop=stop)
        assert [f.tolist() for f in stopped.fronts] == want[:count]
        placed = [i for front in want[:count] for i in front]
        assert np.count_nonzero(stopped.ranks) == len(placed)
        assert all(stopped.ranks[i] == partition.ranks[i] for i in placed)


def test_matches_peeling_oracle_on_random_populations():
    rng = np.random.default_rng(31)
    for infeasible_fraction in (0.4, 0.0, 1.0):  # mixed, all feasible, all infeasible
        for _ in range(60):
            assert_matches_oracle(
                *random_population(rng, int(rng.integers(2, 40)), int(rng.integers(2, 4)), infeasible_fraction)
            )


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
        assert_matches_oracle(*from_objectives(rows, violations=violations))


def test_shared_violation_fronts_keep_index_order():
    rng = np.random.default_rng(37)
    for _ in range(30):
        n = int(rng.integers(2, 30))
        rows = rng.random((n, 2))
        # every member infeasible with one violation value: a single front
        objectives, violations = from_objectives(rows, violations=[0.7] * n)
        assert [f.tolist() for f in fast_nondominated_sort(objectives, violations).fronts] == [list(range(n))]
        # a feasible minority ahead of infeasible members drawn from two values
        violations = [0.0 if rng.random() < 0.3 else float(rng.choice([0.2, 0.5])) for _ in range(n)]
        assert_matches_oracle(*from_objectives(rows, violations=violations))


# Coordinates of a small integer grid, with -0.0 next to 0.0: ties, duplicates
# and signed zeros that compare equal.
GRID_VALUES = st.sampled_from([-0.0, 0.0, 1.0, 2.0, 3.0])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    rows=st.integers(2, 3).flatmap(
        lambda m: st.lists(st.lists(GRID_VALUES, min_size=m, max_size=m), min_size=1, max_size=40)
    ),
    data=st.data(),
)
def test_stopped_pareto_fronts_are_a_prefix_of_the_oracle_fronts(rows, data):
    points = np.array(rows)
    stop = data.draw(st.integers(1, len(points)))
    want = np.zeros(len(points), dtype=int)
    for rank, front in enumerate(oracle_sort(points, np.zeros(len(points))), start=1):
        want[front] = rank
    last = np.sort(want)[stop - 1]  # the oracle's front holding the stop-th point
    assert _pareto_ranks(points, stop).tolist() == np.where(want <= last, want, 0).tolist()
    assert _pareto_ranks(points).tolist() == want.tolist()
