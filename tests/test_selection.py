"""Comparison operator, tournament selection, and environmental selection.

The comparison and the tournament are the per-pair references in
``oracles.py``; ``test_variation.py`` checks that the engine's pooled
tournaments pick what they pick."""

from __future__ import annotations

import numpy as np
import pytest

from scnopt import Individual, environmental_select, fast_nondominated_sort

from conftest import random_population
from oracles import (
    binary_tournament_select,
    crowded_compare,
    oracle_crowding,
    oracle_environmental_select,
    oracle_sort,
)


def ranked(rank, crowding, objectives=(0.0, 0.0)):
    member = Individual(np.zeros(1), objectives=np.asarray(objectives, float))
    member.rank = rank
    member.crowding = crowding
    return member


class TestCrowdedCompare:
    def test_lower_rank_wins(self):
        assert crowded_compare(ranked(1, 0.1), ranked(2, 9.9)) == -1
        assert crowded_compare(ranked(3, 9.9), ranked(2, 0.1)) == 1

    def test_same_rank_larger_crowding_wins(self):
        assert crowded_compare(ranked(1, 2.0), ranked(1, 1.0)) == -1
        assert crowded_compare(ranked(1, 1.0), ranked(1, 2.0)) == 1

    def test_infinite_crowding_beats_finite(self):
        assert crowded_compare(ranked(1, np.inf), ranked(1, 100.0)) == -1

    def test_exact_tie(self):
        assert crowded_compare(ranked(2, 1.5), ranked(2, 1.5)) == 0
        assert crowded_compare(ranked(2, np.inf), ranked(2, np.inf)) == 0

    def test_unset_rank_raises(self):
        bare = Individual(np.zeros(1), objectives=np.zeros(2))
        with pytest.raises(ValueError):
            crowded_compare(bare, ranked(1, 1.0))


class TestBinaryTournament:
    def test_sole_rank1_individual_always_wins_its_tournaments(self):
        n = 10
        pop = [ranked(1, 1.0)] + [ranked(2 + k % 3, 1.0) for k in range(n - 1)]

        class ScriptedRng:
            def __init__(self, values):
                self.values = list(values)

            def integers(self, _high):
                return self.values.pop(0)

        # exhaustively enter the champion as either contestant against everyone
        for other in range(1, n):
            assert binary_tournament_select(pop, ScriptedRng([0, other - 1])) == 0
            assert binary_tournament_select(pop, ScriptedRng([other, 0])) == 0
        # statistically, the champion wins exactly the tournaments it enters:
        # P(entering) = 2/n for uniform distinct pairs
        rng = np.random.default_rng(3)
        trials = 10_000
        wins = sum(binary_tournament_select(pop, rng) == 0 for _ in range(trials))
        assert 0.15 < wins / trials < 0.25

    def test_champion_never_loses(self):
        # two individuals: every tournament contains both, champion must always win
        pop = [ranked(1, np.inf), ranked(2, np.inf)]
        rng = np.random.default_rng(4)
        winners = {binary_tournament_select(pop, rng) for _ in range(1000)}
        assert winners == {0}

    def test_tie_goes_to_first_drawn(self):
        pop = [ranked(1, 1.0), ranked(1, 1.0), ranked(1, 1.0)]

        class ScriptedRng:
            def __init__(self, values):
                self.values = list(values)

            def integers(self, _high):
                return self.values.pop(0)

        # first draw index 2, second draw raw 1 -> contestant 1; tie -> returns 2
        assert binary_tournament_select(pop, ScriptedRng([2, 1])) == 2

    def test_contestants_are_distinct_and_uniform(self):
        pop = [ranked(1, 1.0) for _ in range(4)]
        rng = np.random.default_rng(8)
        counts = np.zeros(4)
        for _ in range(20_000):
            counts[binary_tournament_select(pop, rng)] += 1
        # all ties -> winner is the first contestant, uniform over indices
        assert counts.min() > 0.2 * counts.sum() / 4

    def test_too_small_population_raises(self):
        with pytest.raises(ValueError):
            binary_tournament_select([ranked(1, 1.0)], np.random.default_rng(0))


def combined_population(rng, n, m, *args, **kwargs):
    """Parents then offspring, ``n`` random points each, as one pair of arrays."""
    parents, offspring = random_population(rng, n, m, *args, **kwargs), random_population(rng, n, m, *args, **kwargs)
    return np.concatenate((parents[0], offspring[0])), np.concatenate((parents[1], offspring[1]))


class TestEnvironmentalSelect:
    def test_hand_case_cut_by_crowding(self):
        # one 5-member front feeding a 4-slot population: the most crowded
        # interior member (index 2, the middle of three evenly spaced interior
        # points) must be dropped.
        rows = [(0.0, 4.0), (1.0, 3.0), (2.0, 2.0), (3.0, 1.0), (4.0, 0.0), (9, 9), (9, 10), (10, 9)]
        objectives, violations = np.array(rows, dtype=float), np.zeros(8)
        survivors, ranks, crowding = environmental_select(objectives, violations, 4)
        kept = sorted(rows[i] for i in survivors)
        # boundaries (0,4) and (4,0) kept; interior ties broken toward lower index
        assert ((0.0, 4.0)) in kept and ((4.0, 0.0)) in kept
        assert len(kept) == 4
        assert (9.0, 9.0) not in kept
        assert ranks[survivors].tolist() == [1, 1, 1, 1]
        # every row's rank from the sort, which stops with the first front: the rows past it read 0
        assert ranks.tolist() == [1, 1, 1, 1, 1, 0, 0, 0]
        assert ranks.tolist() == fast_nondominated_sort(objectives, violations, stop=4).ranks.tolist()

    def test_never_drops_rank1_while_keeping_worse(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(2, 12)) * 2
            objectives, violations = combined_population(rng, n, 2)
            survivors, _, _ = environmental_select(objectives, violations, n)
            assert len(survivors) == n
            partition = fast_nondominated_sort(objectives, violations)
            survivor_set = set(survivors.tolist())
            worst_kept_rank = max(partition.ranks[k] for k in survivor_set)
            for k in partition.fronts[0].tolist():
                if worst_kept_rank > 1:
                    assert k in survivor_set

    def test_matches_oracle_on_random_populations(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            n = int(rng.integers(2, 10)) * 2
            objectives, violations = combined_population(rng, n, 2)
            survivors, _, _ = environmental_select(objectives, violations, n)
            # in order: tournaments index the population by position
            assert survivors.tolist() == oracle_environmental_select(objectives, violations, n)

    def test_survivors_carry_fresh_ranks(self):
        # Survivors carry exactly what sorting them alone would give: the
        # ranks of the combined sort, and crowding over their own fronts.
        # Every row given carries its rank from that sort, stopped at n.
        # Survivors that form one front and survivors over several take
        # different crowding code; both must meet the oracle.
        rng = np.random.default_rng(41)
        cut_fronts = {"feasible": 0, "infeasible": 0}
        survivor_fronts = {"one": 0, "several": 0}
        for trial in range(240):
            n = int(rng.integers(2, 16)) * 2
            m = int(rng.integers(2, 4))
            infeasible_fraction = (0.0, 0.4, 0.8, 1.0)[trial % 4]
            objectives, violations = combined_population(rng, n, m, infeasible_fraction, tie_grid=2)
            if trial % 3 == 0:  # a constant coordinate sum: the feasible points form one front
                objectives[:, -1] = m - objectives[:, :-1].sum(axis=1)
            for k in rng.choice(n, size=n // 2, replace=False):  # duplicate rows
                twin = int(rng.integers(n))
                objectives[n + k], violations[n + k] = objectives[twin], violations[twin]
            filled = 0
            for front in fast_nondominated_sort(objectives, violations).fronts:
                if filled + front.size > n:
                    cut_fronts["infeasible" if violations[front[0]] else "feasible"] += 1
                    break
                filled += front.size
            survivors, ranks, crowding = environmental_select(objectives, violations, n)
            kept_objectives, kept_violations = objectives[survivors], violations[survivors]
            fresh_ranks, fresh_crowding = [0] * n, [0.0] * n
            for rank, front in enumerate(oracle_sort(kept_objectives, kept_violations), start=1):
                for i, distance in zip(front, oracle_crowding(kept_objectives[front])):
                    fresh_ranks[i], fresh_crowding[i] = rank, distance
            assert ranks[survivors].tolist() == fresh_ranks
            assert ranks.tolist() == fast_nondominated_sort(objectives, violations, stop=n).ranks.tolist()
            assert crowding.tolist() == fresh_crowding
            survivor_fronts["one" if np.unique(ranks[survivors]).size == 1 else "several"] += 1
        assert min(cut_fronts.values()) >= 20
        assert min(survivor_fronts.values()) >= 20

    def test_size_mismatch_raises(self):
        rng = np.random.default_rng(43)
        objectives, violations = random_population(rng, 6, 2)
        for n_survivors in (0, 7):
            with pytest.raises(ValueError):
                environmental_select(objectives, violations, n_survivors)
        with pytest.raises(ValueError):
            environmental_select(objectives, violations[:4], 3)
