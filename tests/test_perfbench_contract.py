"""The engine names and shapes that the benchmark harness in ``perfbench/`` reads.

perfbench drives the engine from outside, by name.  Its untraced host-speed
sampler rebinds ``scnopt.nsga2.fast_nondominated_sort`` and samples after
each call; on the supply-chain workloads no other hook runs, so a run that
never calls that name has no host-speed samples and cannot be scaled.  Its
traced runs probe the sort's and ``update_archive``'s arguments and results,
re-check every archive member, and call ``cli.build_report`` with positional
arguments.  ``perfbench/`` changes only together with the benchmark itself,
so an engine refactor must keep all of this; these tests fail first when one
does not.
"""

from __future__ import annotations

import pytest

import scnopt.cli
from scnopt import EngineConfig, SupplyChainProblem, evolve, generate_preset, nsga2

from conftest import LineFrontProblem, SometimesInfeasibleProblem


@pytest.mark.parametrize(
    "problem",
    [LineFrontProblem(), SometimesInfeasibleProblem(), SupplyChainProblem(generate_preset("desk"))],
    ids=["line", "sometimes-infeasible", "desk-batched"],
)
def test_engine_calls_the_names_perfbench_wraps(problem, monkeypatch):
    sorts, folds = [], []
    sort, fold = nsga2.fast_nondominated_sort, nsga2.update_archive

    def counted_sort(*args, **kwargs):
        result = sort(*args, **kwargs)
        sorts.append((len(args[0]), len(result.fronts)))  # what the sort probe reads
        return result

    def probed_fold(*args, **kwargs):
        result = fold(*args, **kwargs)
        folds.append(([c.violation for c in args[1]], len(result.members)))  # what the archive probe reads
        return result

    monkeypatch.setattr(nsga2, "fast_nondominated_sort", counted_sort)
    monkeypatch.setattr(nsga2, "update_archive", probed_fold)
    config = EngineConfig(population_size=12, generations=5, seed=3)
    result = evolve(problem, config)

    # one sort of the initial population, then one of parents plus offspring per generation
    assert [count for count, _ in sorts] == [12] + [24] * config.generations
    assert all(fronts >= 1 for _, fronts in sorts)
    assert len(folds) == config.generations + 1
    assert folds[-1][1] == len(result.archive.members) > 0

    for member in result.archive.members:
        assert member.genotype.shape == (problem.genotype_length,)
        assert member.objectives.shape == (2,)
        assert member.violation == 0.0

    points = len(result.archive.members)
    report = scnopt.cli.build_report(result, {"seed": config.seed}, "front.csv", points, 0.0)
    assert len(report.records) == config.generations + 1
