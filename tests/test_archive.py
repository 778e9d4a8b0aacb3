"""Pareto archive maintenance."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scnopt import Individual, ParetoArchive, update_archive
from scnopt.nsga2 import _nondominated

from oracles import oracle_dominates, oracle_nondominated, reference_archive


def ind(objectives, violation=0.0, gene=0.0):
    return Individual(np.full(1, gene), objectives=np.asarray(objectives, float), violation=violation)


def offer(*candidates):
    return ParetoArchive(candidates)


def kept_genes(archive):
    return archive.genotypes_array()[:, 0].tolist()


def test_infeasible_candidates_never_enter():
    archive = update_archive(ParetoArchive(), offer(ind([1, 1], violation=0.5)))
    assert len(archive) == 0
    assert archive.objectives_array().shape == archive.genotypes_array().shape == (0, 0)


def test_dominated_candidates_are_rejected():
    archive = update_archive(ParetoArchive(), offer(ind([1, 1])))
    archive = update_archive(archive, offer(ind([2, 2])))
    assert [tuple(m.objectives) for m in archive] == [(1.0, 1.0)]


def test_new_point_evicts_dominated_members():
    archive = update_archive(ParetoArchive(), offer(ind([2, 2]), ind([3, 1])))
    archive = update_archive(archive, offer(ind([1, 2])))
    kept = sorted(tuple(m.objectives) for m in archive)
    assert kept == [(1.0, 2.0), (3.0, 1.0)]


def test_duplicates_are_deduplicated():
    archive = update_archive(ParetoArchive(), offer(ind([1, 2]), ind([1, 2]), ind([2, 1])))
    assert len(archive) == 2
    for row in ([1, 2], [1, 2, 3]):
        # of equal objective vectors the earliest stays: an archive member
        # before any offer, then offers in the order given
        archive = update_archive(ParetoArchive(), offer(ind(row, gene=0.1), ind(row, gene=0.2)))
        assert kept_genes(archive) == [0.1]
        archive = update_archive(archive, offer(ind(row, gene=0.3), ind(row, gene=0.4)))
        assert kept_genes(archive) == [0.1]


def test_members_cannot_drift_from_the_objective_array():
    # members are views of the two matrices, which no caller can write
    archive = ParetoArchive([ind([1, 2], gene=0.5), ind([2, 1], gene=0.25)])
    assert len(archive) == len(archive.objectives_array()) == len(archive.members) == 2
    with pytest.raises(AttributeError):
        archive.members.append(ind([3, 3]))
    for matrix in (archive.objectives_array(), archive.genotypes_array(), archive.members[0].genotype):
        with pytest.raises(ValueError, match="read-only"):
            matrix[0] = 0.0
    assert [m.genotype.tolist() for m in archive] == archive.genotypes_array().tolist() == [[0.5], [0.25]]
    assert all(m.violation == 0.0 and m.rank is None and m.crowding is None for m in archive)
    folded = update_archive(archive, offer(ind([0, 3]), ind([3, 3])))
    assert len(folded) == len(folded.objectives_array()) == len(folded.genotypes_array()) == 3
    assert len(update_archive(folded, ParetoArchive())) == 3


def test_members_sorted_by_objectives():
    archive = update_archive(
        ParetoArchive(), offer(ind([3, 0]), ind([0, 3]), ind([1, 2]), ind([2, 1]))
    )
    costs = [m.objectives[0] for m in archive]
    assert costs == sorted(costs)


@pytest.mark.parametrize(
    "lengths, counts, message",
    [((1, 2), (2, 2), r"genotype lengths differ: \[1, 2\]"), ((2, 2), (2, 3), r"objectives lengths differ: \[2, 3\]")],
    ids=["genotype-length", "objective-count"],
)
def test_members_of_different_shapes_rejected(lengths, counts, message):
    # named at construction, not as numpy's inhomogeneous-shape error or a fold failure
    members = [Individual(np.zeros(n), objectives=np.full(m, float(k))) for k, (n, m) in enumerate(zip(lengths, counts))]
    with pytest.raises(ValueError, match=message):
        ParetoArchive(members)
    members[1].violation = 1.0  # an infeasible member is dropped before the matrices are built
    assert len(ParetoArchive(members)) == 1


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
            archive = update_archive(archive, ParetoArchive(batch))
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
        archive = update_archive(archive, ParetoArchive(batch))
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
        archive = update_archive(archive, ParetoArchive(batch))
        for member in archive:
            assert not any(oracle_dominates(p, member.objectives) for p in inserted)


# Objective coordinates on a small grid, -0.0 next to 0.0, so offers repeat
# vectors within a batch, across batches and up to the sign of zero.
GRID_VALUES = st.sampled_from([-0.0, 0.0, 1.0, 2.0, 3.0])


def members_of(m, max_size):
    """Lists of (objectives of length m, violation) on the grid."""
    return st.lists(
        st.tuples(st.lists(GRID_VALUES, min_size=m, max_size=m), st.sampled_from([0.0, 0.0, 0.5])),
        max_size=max_size,
    )


def distinct_genes(rows, genes):
    """Individuals of the (objectives, violation) ``rows``, each with its own gene."""
    return [ind(objectives, violation, gene=next(genes)) for objectives, violation in rows]


def assert_same_rows(archive, want):
    """The archive holds the Individuals ``want``, in order, bit for bit (signed zeros too)."""
    for got, rows in ((archive.objectives_array(), [m.objectives for m in want]),
                      (archive.genotypes_array(), [m.genotype for m in want])):
        expected = np.array(rows) if want else np.empty((0, 0))
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(offers=st.integers(2, 3).flatmap(lambda m: st.lists(members_of(m, 10), min_size=1, max_size=6)))
def test_fold_equals_the_brute_force_filter_over_every_offer(offers):
    # after each batch, the members are the non-dominated feasible offers so far,
    # the earliest of equal vectors, sorted by objective tuple
    genes = itertools.count(0.0, 1e-3)
    archive = ParetoArchive()
    history: list[Individual] = []
    for batch in offers:
        candidates = distinct_genes(batch, genes)
        archive = update_archive(archive, ParetoArchive(candidates))
        history.extend(c for c in candidates if c.feasible)
        keep = [history[i] for i in oracle_nondominated([c.objectives for c in history])]
        assert_same_rows(archive, sorted(keep, key=lambda c: tuple(c.objectives.tolist())))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(sides=st.integers(2, 3).flatmap(lambda m: st.tuples(members_of(m, 12), members_of(m, 12))))
def test_update_equals_nondominated_over_the_archive_first_stack(sides):
    # two archives with ties within each member list and across the two, -0.0
    # against 0.0, and either side possibly empty: the fold is _nondominated of
    # the archive-first stack in both matrices, each vector keeping its
    # earliest row's genotype and bits
    genes = itertools.count(0.0, 1e-3)
    a, b = (ParetoArchive(distinct_genes(rows, genes)) for rows in sides)
    folded = update_archive(a, b)
    parts = [side for side in (a, b) if len(side)]
    if not parts:
        assert len(folded) == 0 and folded.objectives_array().shape == folded.genotypes_array().shape == (0, 0)
        return
    objectives = np.concatenate([side.objectives_array() for side in parts])
    genotypes = np.concatenate([side.genotypes_array() for side in parts])
    keep = _nondominated(objectives)
    for got, stacked in ((folded.objectives_array(), objectives), (folded.genotypes_array(), genotypes)):
        assert got.shape == stacked[keep].shape and got.tobytes() == stacked[keep].tobytes()
    for k in keep:
        assert not any((objectives[j] == objectives[k]).all() for j in range(k))  # the earliest row of its vector
    oracle = oracle_nondominated(list(objectives))
    assert sorted(map(tuple, objectives[keep].tolist())) == sorted({tuple(objectives[i].tolist()) for i in oracle})


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(members=st.integers(2, 3).flatmap(lambda m: members_of(m, 25)), seed=st.integers(0, 2**16))
def test_constructor_folds_any_members(members, seed):
    # infeasible, dominated, equal and shuffled members in; out come the
    # members update_archive and the oracle keep, the earliest of equal vectors
    genes = itertools.count(0.0, 1e-3)
    given = distinct_genes(members, genes)
    given += [ind(m.objectives, gene=next(genes)) for m in given[: len(given) // 3]]  # equal vectors, later
    np.random.default_rng(seed).shuffle(given)
    archive = ParetoArchive(given)
    assert_same_rows(archive, reference_archive([], given))
    assert_same_rows(update_archive(ParetoArchive(), archive), reference_archive([], given))
