"""Pareto archive maintenance."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scnopt import ParetoArchive, fast_nondominated_sort, update_archive
from scnopt.nsga2 import _archive_offers, _nondominated

from oracles import Point, archive_of, oracle_dominates, oracle_nondominated, reference_archive


def ind(objectives, violation=0.0, gene=0.0):
    return Point(np.full(1, gene), np.asarray(objectives, float), violation)


def offer(*candidates):
    """The feasible candidates as an archive: the engine offers feasible rows only."""
    return archive_of([c for c in candidates if c.violation == 0.0])


def kept_genes(archive):
    return archive.genotypes_array()[:, 0].tolist()


def test_infeasible_candidates_never_enter():
    # with no feasible row the rows of least violation take rank 1, and the engine offers none of them
    genotypes, objectives, violations = np.array([[0.1], [0.2]]), np.array([[1.0, 1.0], [0.0, 2.0]]), np.full(2, 0.5)
    ranks = fast_nondominated_sort(objectives, violations).ranks
    assert ranks.tolist() == [1, 1]
    archive = update_archive(ParetoArchive(), _archive_offers(genotypes, objectives, violations, ranks))
    assert len(archive) == 0
    assert archive.objectives_array().shape == archive.genotypes_array().shape == (0, 0)
    violations[1] = 0.0  # now feasible, and the only row offered
    ranks = fast_nondominated_sort(objectives, violations).ranks
    assert kept_genes(update_archive(ParetoArchive(), _archive_offers(genotypes, objectives, violations, ranks))) == [0.2]


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
    archive = offer(ind([1, 2], gene=0.5), ind([2, 1], gene=0.25))
    assert len(archive) == len(archive.objectives_array()) == len(archive.members) == 2
    with pytest.raises(AttributeError):
        archive.members.append(archive.members[0])
    with pytest.raises(AttributeError):
        archive.members[0].violation = 1.0
    for matrix in (archive.objectives_array(), archive.genotypes_array(), archive.members[0].genotype):
        with pytest.raises(ValueError, match="read-only"):
            matrix[0] = 0.0
    assert [m.genotype.tolist() for m in archive] == archive.genotypes_array().tolist() == [[0.5], [0.25]]
    assert all(m.violation == 0.0 and m._fields == ("genotype", "objectives", "violation") for m in archive)
    folded = update_archive(archive, offer(ind([0, 3]), ind([3, 3])))
    assert len(folded) == len(folded.objectives_array()) == len(folded.genotypes_array()) == 3
    assert len(update_archive(folded, ParetoArchive())) == 3


def test_members_sorted_by_objectives():
    archive = update_archive(
        ParetoArchive(), offer(ind([3, 0]), ind([0, 3]), ind([1, 2]), ind([2, 1]))
    )
    costs = [m.objectives[0] for m in archive]
    assert costs == sorted(costs)


@pytest.mark.parametrize("lengths, counts", [((1, 2), (2, 2)), ((2, 2), (2, 3))], ids=["genotype-length", "objective-count"])
def test_members_of_different_shapes_rejected(lengths, counts):
    # rows of different lengths make no matrix, and row counts must agree: both
    # raise at construction, not as a fold failure
    genotypes, objectives = [np.zeros(n) for n in lengths], [np.full(m, float(k)) for k, m in enumerate(counts)]
    with pytest.raises(ValueError):
        ParetoArchive(genotypes, objectives)
    with pytest.raises(ValueError, match=r"need \(n, L\) genotypes and \(n, M\) objectives, not \(1, \d\) and \(2, \d\)"):
        ParetoArchive(genotypes[1][None], np.array(objectives[:1] * 2))
    assert len(ParetoArchive(genotypes[1][None], objectives[1][None])) == 1


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
            archive = update_archive(archive, offer(*batch))
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
        archive = update_archive(archive, offer(*batch))
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
        archive = update_archive(archive, offer(*batch))
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
    """Points of the (objectives, violation) ``rows``, each with its own gene."""
    return [ind(objectives, violation, gene=next(genes)) for objectives, violation in rows]


def assert_same_rows(archive, want):
    """The archive holds the points ``want``, in order, bit for bit (signed zeros too)."""
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
    history: list[Point] = []
    for batch in offers:
        candidates = distinct_genes(batch, genes)
        archive = update_archive(archive, offer(*candidates))
        history.extend(c for c in candidates if c.violation == 0.0)
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
    a, b = (offer(*distinct_genes(rows, genes)) for rows in sides)
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
    # dominated, equal and shuffled feasible rows in; out come the rows
    # update_archive and the oracle keep, the earliest of equal vectors
    genes = itertools.count(0.0, 1e-3)
    given = [m for m in distinct_genes(members, genes) if m.violation == 0.0]
    given += [ind(m.objectives, gene=next(genes)) for m in given[: len(given) // 3]]  # equal vectors, later
    np.random.default_rng(seed).shuffle(given)
    archive = archive_of(given)
    assert_same_rows(archive, reference_archive([], given))
    assert_same_rows(update_archive(ParetoArchive(), archive), reference_archive([], given))
