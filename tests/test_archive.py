"""Pareto archive maintenance."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from scnopt import Individual, ParetoArchive, update_archive

from oracles import oracle_dominates, oracle_nondominated, reference_archive


def ind(objectives, violation=0.0):
    return Individual(np.zeros(1), objectives=np.asarray(objectives, float), violation=violation)


def test_infeasible_candidates_never_enter():
    archive = update_archive(ParetoArchive(), [ind([1, 1], violation=0.5)])
    assert len(archive) == 0


def test_dominated_candidates_are_rejected():
    archive = update_archive(ParetoArchive(), [ind([1, 1])])
    archive = update_archive(archive, [ind([2, 2])])
    assert [tuple(m.objectives) for m in archive] == [(1.0, 1.0)]


def test_new_point_evicts_dominated_members():
    archive = update_archive(ParetoArchive(), [ind([2, 2]), ind([3, 1])])
    archive = update_archive(archive, [ind([1, 2])])
    kept = sorted(tuple(m.objectives) for m in archive)
    assert kept == [(1.0, 2.0), (3.0, 1.0)]


def test_duplicates_are_deduplicated():
    archive = update_archive(ParetoArchive(), [ind([1, 2]), ind([1, 2]), ind([2, 1])])
    assert len(archive) == 2
    for row in ([1, 2], [1, 2, 3]):
        # of equal objective vectors the earliest stays: an archive member
        # before any candidate, then candidates in the order given
        first, second = ind(row), ind(row)
        archive = update_archive(ParetoArchive(), [first, second])
        assert [m is first for m in archive] == [True]
        archive = update_archive(archive, [ind(row), ind(row)])
        assert [m is first for m in archive] == [True]


def test_members_sorted_by_objectives():
    archive = update_archive(
        ParetoArchive(), [ind([3, 0]), ind([0, 3]), ind([1, 2]), ind([2, 1])]
    )
    costs = [m.objectives[0] for m in archive]
    assert costs == sorted(costs)


def test_matches_brute_force_on_random_streams_bi_objective():
    rng = np.random.default_rng(13)
    for _ in range(25):
        archive = ParetoArchive()
        all_feasible: list[np.ndarray] = []
        for _round in range(6):
            batch = []
            for _ in range(int(rng.integers(1, 12))):
                objectives = np.round(rng.random(2) * 8) / 8
                violation = 0.0 if rng.random() < 0.7 else float(rng.random())
                batch.append(ind(objectives, violation))
                if violation == 0.0:
                    all_feasible.append(objectives)
            archive = update_archive(archive, batch)
            got = sorted(tuple(m.objectives) for m in archive)
            keep = oracle_nondominated(all_feasible) if all_feasible else []
            want = sorted({tuple(all_feasible[i]) for i in keep})
            assert got == want


def test_matches_brute_force_three_objectives():
    rng = np.random.default_rng(19)
    seen: list[np.ndarray] = []
    archive = ParetoArchive()
    for _round in range(8):
        batch = [ind(np.round(rng.random(3) * 5) / 5) for _ in range(10)]
        seen.extend(m.objectives for m in batch)
        archive = update_archive(archive, batch)
    got = sorted(tuple(m.objectives) for m in archive)
    keep = oracle_nondominated(seen)
    want = sorted({tuple(seen[i]) for i in keep})
    assert got == want


def test_monotone_no_archived_point_ever_dominated_by_history():
    rng = np.random.default_rng(21)
    archive = ParetoArchive()
    inserted: list[np.ndarray] = []
    for _round in range(10):
        batch = [ind(rng.random(2)) for _ in range(8)]
        inserted.extend(m.objectives for m in batch)
        archive = update_archive(archive, batch)
        for member in archive:
            assert not any(oracle_dominates(p, member.objectives) for p in inserted)


# Objective coordinates on a small grid, -0.0 next to 0.0, so offers repeat
# vectors within a batch, across batches and up to the sign of zero.
GRID_VALUES = st.sampled_from([-0.0, 0.0, 1.0, 2.0, 3.0])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    offers=st.integers(2, 3).flatmap(
        lambda m: st.lists(
            st.lists(
                st.tuples(st.lists(GRID_VALUES, min_size=m, max_size=m), st.sampled_from([0.0, 0.0, 0.5])),
                max_size=10,
            ),
            min_size=1,
            max_size=6,
        )
    )
)
def test_fold_equals_the_brute_force_filter_over_every_offer(offers):
    # after each batch, the members are the non-dominated feasible offers so far,
    # the earliest of equal vectors, sorted by objective tuple
    archive = ParetoArchive()
    history: list[Individual] = []
    for batch in offers:
        candidates = [ind(objectives, violation) for objectives, violation in batch]
        archive = update_archive(archive, candidates)
        history.extend(c for c in candidates if c.feasible)
        keep = [history[i] for i in oracle_nondominated([c.objectives for c in history])]
        want = sorted(keep, key=lambda c: tuple(c.objectives.tolist()))
        assert [id(m) for m in archive] == [id(c) for c in want]
        cached = np.array([c.objectives for c in want]) if want else np.empty((0, 0))
        got = archive.objectives_array()
        assert got.shape == cached.shape and got.tobytes() == cached.tobytes()  # bit for bit, signed zeros too


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    members=st.integers(2, 3).flatmap(
        lambda m: st.lists(
            st.tuples(st.lists(GRID_VALUES, min_size=m, max_size=m), st.sampled_from([0.0, 0.0, 0.5])),
            max_size=25,
        )
    ),
    seed=st.integers(0, 2**16),
)
def test_constructor_folds_any_members(members, seed):
    # infeasible, dominated, equal and shuffled members in; out come the
    # members update_archive and the oracle keep, the earliest of equal vectors
    given = [ind(objectives, violation) for objectives, violation in members]
    given += [ind(m.objectives) for m in given[: len(given) // 3]]  # equal vectors, later
    np.random.default_rng(seed).shuffle(given)
    archive = ParetoArchive(given)
    want = reference_archive([], given)
    assert [id(m) for m in archive] == [id(m) for m in want]
    assert [id(m) for m in archive] == [id(m) for m in update_archive(ParetoArchive(), given)]
    cached = np.array([m.objectives for m in want]) if want else np.empty((0, 0))
    got = archive.objectives_array()
    assert got.shape == cached.shape and got.tobytes() == cached.tobytes()  # bit for bit, signed zeros too
