"""Simulated binary crossover and polynomial mutation contracts, per pair and over the mating pool.

The per-pair contracts are checked on the references in ``oracles.py``;
the engine's pooled variation must equal the reference offspring, which
makes the same seven generator calls and applies the operators pair by pair,
bit for bit, so the contracts carry over to it.  That includes the generator
state it leaves.  The one-power operators at their branch points and bounds,
and each child's source, are checked on their own as well."""

from __future__ import annotations

import copy
from functools import lru_cache

import numpy as np
import pytest

from scnopt import PM_ETA, SBX_ETA, EngineConfig
from scnopt.nsga2 import _make_offspring, _perturb, _sbx_children

from oracles import (
    Point,
    crowded_compare,
    reference_mutated_genes,
    reference_mutation_masks,
    reference_offspring,
    reference_polynomial_mutation,
    reference_sbx_children,
    reference_sbx_crossover,
)


def config(**overrides):
    defaults = dict(population_size=10, generations=1)
    defaults.update(overrides)
    return EngineConfig(**defaults)


class TestSbxCrossover:
    def test_children_stay_in_unit_box(self):
        rng = np.random.default_rng(2)
        cfg = config(crossover_prob=1.0)
        for _ in range(500):
            p1, p2 = rng.random(8), rng.random(8)
            c1, c2 = reference_sbx_crossover(p1, p2, cfg, rng)
            for child in (c1, c2):
                assert np.all(child >= 0.0) and np.all(child <= 1.0)

    def test_zero_probability_copies_parents(self):
        rng = np.random.default_rng(3)
        p1, p2 = rng.random(5), rng.random(5)
        c1, c2 = reference_sbx_crossover(p1, p2, config(crossover_prob=0.0), rng)
        assert np.array_equal(c1, p1) and np.array_equal(c2, p2)
        assert c1 is not p1 and c2 is not p2  # independent buffers

    def test_identical_parents_yield_identical_children(self):
        rng = np.random.default_rng(4)
        p = rng.random(6)
        c1, c2 = reference_sbx_crossover(p, p.copy(), config(crossover_prob=1.0), rng)
        assert np.allclose(c1, p, atol=1e-12) and np.allclose(c2, p, atol=1e-12)

    def test_children_centered_on_parent_mean(self):
        # SBX preserves the pairwise mean for every gene (before clamping)
        rng = np.random.default_rng(5)
        cfg = config(crossover_prob=1.0)
        p1 = np.full(4, 0.4)
        p2 = np.full(4, 0.6)
        for _ in range(200):
            c1, c2 = reference_sbx_crossover(p1, p2, cfg, rng)
            assert np.allclose(c1 + c2, p1 + p2, atol=1e-9)

    def test_deterministic_for_fixed_seed(self):
        cfg = config(crossover_prob=0.6)
        p1, p2 = np.linspace(0, 1, 7), np.linspace(1, 0, 7)
        a = reference_sbx_crossover(p1, p2, cfg, np.random.default_rng(99))
        b = reference_sbx_crossover(p1, p2, cfg, np.random.default_rng(99))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestPolynomialMutation:
    def test_results_stay_in_unit_box(self):
        rng = np.random.default_rng(7)
        cfg = config(mutation_prob=1.0)
        for _ in range(500):
            g = rng.random(10)
            out = reference_polynomial_mutation(g, cfg, rng)
            assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_zero_probability_is_identity(self):
        rng = np.random.default_rng(8)
        g = rng.random(12)
        out = reference_polynomial_mutation(g, config(mutation_prob=0.0), rng)
        assert np.array_equal(out, g)

    def test_full_probability_changes_something(self):
        rng = np.random.default_rng(9)
        g = np.full(20, 0.5)
        out = reference_polynomial_mutation(g, config(mutation_prob=1.0), rng)
        assert np.any(out != g)

    def test_per_coordinate_mutation_frequency(self):
        # 10^6 coordinates at probability 0.01 -> frequency within 0.01 +/- 0.001
        rng = np.random.default_rng(10)
        cfg = config(mutation_prob=0.01)
        length = 1000
        changed = 0
        for _ in range(1000):
            g = rng.random(length)
            out = reference_polynomial_mutation(g, cfg, rng)
            changed += int(np.count_nonzero(out != g))
        frequency = changed / 1_000_000
        assert 0.009 <= frequency <= 0.011

    def test_deterministic_for_fixed_seed(self):
        cfg = config(mutation_prob=0.3)
        g = np.linspace(0, 1, 9)
        a = reference_polynomial_mutation(g, cfg, np.random.default_rng(123))
        b = reference_polynomial_mutation(g, cfg, np.random.default_rng(123))
        assert np.array_equal(a, b)


@lru_cache(maxsize=None)
def _population(n: int, length: int) -> list[Point]:
    """Ranked individuals with rank ties, crowding ties and infinite crowding,
    and genes that sit exactly on the box's bounds."""
    rng = np.random.default_rng(n * 1000 + length)
    genotypes = rng.random((n, length))
    genotypes[rng.random((n, length)) < 0.05] = 0.0
    genotypes[rng.random((n, length)) < 0.05] = 1.0
    population = []
    for k in range(n):
        rank = int(rng.integers(1, 4))
        crowding = float(rng.choice([0.25, 0.5, np.inf, rng.random()]))
        population.append(Point(genotypes[k], np.zeros(2), rank=rank, crowding=crowding))
    return population


def _arrays(population: list[Point]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The genotype, rank and crowding arrays of ``population``."""
    return (
        np.array([ind.genotype for ind in population]),
        np.array([ind.rank for ind in population]),
        np.array([ind.crowding for ind in population]),
    )


def _pooled_offspring(population: list[Point], cfg: EngineConfig, rng: np.random.Generator) -> np.ndarray:
    """``_make_offspring`` on the genotype, rank and crowding arrays of ``population``."""
    genotypes, ranks, crowding = _arrays(population)
    out = np.empty((cfg.population_size, genotypes.shape[1]))
    _make_offspring(genotypes, ranks, crowding, cfg, rng, out)
    return out


class TestPooledVariation:
    @pytest.mark.parametrize("mutation_prob", [0.0, 0.01, 1.0])
    @pytest.mark.parametrize("crossover_prob", [0.0, 0.6, 1.0])
    @pytest.mark.parametrize("length", [1, 30, 195])
    @pytest.mark.parametrize("n", [4, 100, 1290])
    def test_matches_the_per_pair_functions(self, n, length, crossover_prob, mutation_prob):
        population = _population(n, length)
        cfg = EngineConfig(population_size=n, crossover_prob=crossover_prob, mutation_prob=mutation_prob)
        pooled_rng, pair_rng = np.random.default_rng(n + length), np.random.default_rng(n + length)
        pooled = _pooled_offspring(population, cfg, pooled_rng)
        expected = np.array(reference_offspring(population, cfg, pair_rng))
        assert pooled.shape == (n, length)
        assert np.array_equal(pooled, expected)
        assert pooled_rng.bit_generator.state == pair_rng.bit_generator.state


# SBX's branch point and the uniforms either side of it, and the extremes a uniform reaches
_EDGE_UNIFORMS = [0.0, 0.5, 0.5 + 2.0**-53, 1.0 - 2.0**-53]
_EDGE_GENES = [0.0, 1.0, 2.0**-53, 1.0 - 2.0**-53, 0.3]


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestOperatorBoundaries:
    """The engine's one-power operators against the per-branch powers of the oracles."""

    def test_sbx_children(self):
        u, p1, p2 = np.meshgrid(_EDGE_UNIFORMS, _EDGE_GENES, _EDGE_GENES, indexing="ij")
        for child, expected in zip(_sbx_children(p1, p2, u, SBX_ETA), reference_sbx_children(p1, p2, u)):
            assert _same_bits(child, expected)

    def test_perturbed_genes(self):
        u, g = np.meshgrid(_EDGE_UNIFORMS, _EDGE_GENES, indexing="ij")
        assert _same_bits(_perturb(g, u, PM_ETA), np.clip(reference_mutated_genes(g, u), 0.0, 1.0))


def _replayed_sources(population: list[Point], cfg: EngineConfig, rng: np.random.Generator) -> np.ndarray:
    """Each child's source replayed from the engine's draws on ``rng``, in its
    order: its tournament winner when its pair did not cross and none of its
    genes was drawn for mutation, else -1."""
    n, length, pairs = len(population), population[0].genotype.size, cfg.population_size // 2
    contestants = rng.integers(n, size=(pairs, 2))
    rivals = rng.integers(n - 1, size=(pairs, 2))
    crosses = rng.random(pairs) < cfg.crossover_prob
    rng.random((int(crosses.sum()), length))
    masked = reference_mutation_masks(cfg.population_size, length, cfg.mutation_prob, rng).any(axis=1)
    sources = []
    for pair in range(pairs):
        for child, (i, j) in enumerate(zip(contestants[pair].tolist(), rivals[pair].tolist())):
            if j >= i:
                j += 1
            winner = i if crowded_compare(population[i], population[j]) <= 0 else j
            sources.append(-1 if crosses[pair] or masked[2 * pair + child] else winner)
    return np.array(sources)


class TestOnePass:
    """What the one pass of the operators over a generation hands the evaluator."""

    @pytest.mark.parametrize(
        "n, length, crossover_prob, mutation_prob",
        [(100, 30, 0.6, 0.01), (1290, 195, 0.6, 0.01), (68, 195, 0.6, 1 / 195), (100, 1, 0.6, 0.3),
         (100, 30, 0.0, 0.0), (100, 30, 1.0, 1.0)],
    )
    def test_source_is_the_winner_exactly_when_the_child_is_a_copy(self, n, length, crossover_prob, mutation_prob):
        population = _population(n, length)
        cfg = EngineConfig(population_size=n, crossover_prob=crossover_prob, mutation_prob=mutation_prob)
        rng = np.random.default_rng(n + length)
        rng.integers(7)  # a buffered half, so the replay starts mid-word as well
        replay = copy.deepcopy(rng)
        genotypes, ranks, crowding = _arrays(population)
        source = _make_offspring(genotypes, ranks, crowding, cfg, rng, np.empty((n, length)))
        expected = _replayed_sources(population, cfg, replay)
        assert np.array_equal(source, expected)
        if 0.0 < crossover_prob < 1.0:
            assert 0 < np.count_nonzero(source >= 0) < n  # copies and new children both occur


def _marked_mutations(population, cfg, rng, monkeypatch, out=None):
    """``_make_offspring`` with polynomial mutation replaced by markers: the
    ``i``-th gene handed to it becomes ``-1 - i``.  Returns the children, the
    flat positions of the marked genes in row-major order, the markers read
    there, the perturbation uniforms and the sources."""
    uniforms = []

    def marker(g, u, eta):
        uniforms.append(u.copy())
        return -1.0 - np.arange(g.size)

    monkeypatch.setattr("scnopt.nsga2._perturb", marker)
    genotypes, ranks, crowding = _arrays(population)
    if out is None:
        out = np.empty((cfg.population_size, genotypes.shape[1]))
    source = _make_offspring(genotypes, ranks, crowding, cfg, rng, out)
    flat = out.ravel()
    sites = np.flatnonzero(flat < 0.0)
    (u,) = uniforms
    return out, sites, (-1.0 - flat[sites]).astype(int), u, source


class TestMutationSites:
    """The genes polynomial mutation changes: each gene of the generation
    independently with probability ``mutation_prob``, written in place."""

    @pytest.mark.parametrize("n, length, mutation_prob", [(4, 5, 0.3), (100, 30, 0.01), (1290, 195, 0.01), (100, 62, 0.5)])
    def test_sites_are_increasing_distinct_and_in_range(self, n, length, mutation_prob, monkeypatch):
        cfg = EngineConfig(population_size=n, mutation_prob=mutation_prob)
        out, sites, markers, u, source = _marked_mutations(_population(n, length), cfg, np.random.default_rng(n), monkeypatch)
        # every gene handed to the mutation is written back once, at its own
        # place: the k-th marker at the k-th site in row-major order
        assert u.size > 0 and np.array_equal(markers, np.arange(u.size))
        assert sites.size == np.unique(sites).size == u.size
        assert 0 <= sites[0] and sites[-1] < n * length
        assert np.all(source[sites // length] == -1)

    @pytest.mark.parametrize("mutation_prob, cells", [(0.0, 0), (1.0, 6 * 10)])
    def test_probability_zero_draws_no_site_and_one_every_gene(self, mutation_prob, cells, monkeypatch):
        cfg = EngineConfig(population_size=6, crossover_prob=0.0, mutation_prob=mutation_prob)
        out, sites, markers, u, source = _marked_mutations(_population(6, 10), cfg, np.random.default_rng(1), monkeypatch)
        assert sites.size == u.size == cells
        assert np.array_equal(sites, np.arange(cells))
        assert np.all(source >= 0) if cells == 0 else np.all(source == -1)

    def test_each_gene_mutates_with_the_stated_probability(self, monkeypatch):
        # 20 000 generations of 6 children x 10 genes at p = 0.1.  A gene's
        # frequency has standard error sqrt(p(1 - p) / 20 000) = 0.0021; the
        # count per generation is Binomial(60, 0.1), mean 6 and variance 5.4,
        # whose sample mean and variance have standard errors 0.016 and 0.055.
        # Each bound is five standard errors.
        generations, n, length, p = 20_000, 6, 10, 0.1
        cfg = EngineConfig(population_size=n, crossover_prob=0.0, mutation_prob=p)
        monkeypatch.setattr("scnopt.nsga2._perturb", lambda g, u, eta: np.full(g.shape, -1.0))
        genotypes, ranks, crowding = _arrays(_population(n, length))
        rng, out = np.random.default_rng(20), np.empty((n, length))
        hits, counts = np.zeros((n, length)), np.empty(generations)
        for g in range(generations):
            _make_offspring(genotypes, ranks, crowding, cfg, rng, out)
            mutated = out < 0.0
            hits += mutated
            counts[g] = np.count_nonzero(mutated)
        assert np.abs(hits / generations - p).max() < 5 * np.sqrt(p * (1 - p) / generations)
        assert abs(counts.mean() - n * length * p) < 5 * 0.016
        assert abs(counts.var(ddof=1) - n * length * p * (1 - p)) < 5 * 0.055

    def test_mutations_land_in_the_children_half_of_the_engine_buffer(self, monkeypatch):
        n, length = 100, 30
        cfg = EngineConfig(population_size=n, mutation_prob=0.05)
        buffer = np.full((2 * n, length), 2.0)
        out, sites, markers, u, source = _marked_mutations(
            _population(n, length), cfg, np.random.default_rng(3), monkeypatch, out=buffer[n:]
        )
        assert out.base is buffer
        assert np.all(buffer[:n] == 2.0)
        assert np.count_nonzero(buffer < 0.0) == np.count_nonzero(out < 0.0) == u.size > 0

    def test_a_strided_out_is_refused(self):
        genotypes, ranks, crowding = _arrays(_population(10, 5))
        strided = np.empty((5, 10)).T  # a flat view of it would be a copy
        with pytest.raises(ValueError, match="C-contiguous"):
            _make_offspring(genotypes, ranks, crowding, config(mutation_prob=0.5), np.random.default_rng(0), strided)

    def test_the_stream_of_seed_zero_at_paper_scale(self, monkeypatch):
        # The draws' output, recorded under numpy 2.4.6: fails on a numpy
        # whose binomial or choice gives another stream.
        cfg = EngineConfig(population_size=1290, mutation_prob=0.01)
        out, sites, markers, u, source = _marked_mutations(
            _population(1290, 195), cfg, np.random.default_rng(0), monkeypatch
        )
        assert sites.size == 2477
        assert sites[:8].tolist() == [128, 134, 394, 528, 617, 637, 748, 770]
        assert u[:4].tolist() == [0.15852867942045568, 0.5066261108566293, 0.6149084967582047, 0.018260073573698743]
