"""Shared fixtures: toy problems, hand-built instances, random population makers."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from scnopt import DecodedNetwork, EngineConfig, Instance, tiny_instance

from oracles import reference_evolve


class LineFrontProblem:
    """Single-gene toy whose whole genotype space lies on the front f1 + f2 = 1."""

    genotype_length = 1

    def evaluate(self, genotype):
        x = float(genotype[0])
        return np.array([x, 1.0 - x]), 0.0


class SometimesInfeasibleProblem:
    """Feasible only on the left half of the gene range."""

    genotype_length = 2

    def evaluate(self, genotype):
        x, y = float(genotype[0]), float(genotype[1])
        violation = max(0.0, x - 0.5)
        return np.array([x + y, 1.0 - y]), violation


class RecordingProblem:
    """Wraps a problem and logs every (objectives, violation) pair it returns."""

    def __init__(self, inner):
        self.inner = inner
        self.genotype_length = inner.genotype_length
        self.seen: list[tuple[np.ndarray, float]] = []

    def evaluate(self, genotype):
        objectives, violation = self.inner.evaluate(genotype)
        self.seen.append((np.array(objectives, dtype=float), float(violation)))
        return objectives, violation


def reference_copies(config: EngineConfig) -> np.ndarray:
    """Which children of the reference engine's first generation under
    ``config`` are copies of a parent, on :class:`SometimesInfeasibleProblem`,
    whose objectives determine the genes: each child's objectives compared
    with the initial population's."""
    problem = RecordingProblem(SometimesInfeasibleProblem())
    reference_evolve(problem, replace(config, generations=1))
    n = config.population_size
    parents = np.array([o for o, _ in problem.seen[:n]])
    children = np.array([o for o, _ in problem.seen[n:]])
    return (children[:, None, :] == parents[None, :, :]).all(axis=2).any(axis=1)


class ScalarOnlyProblem:
    """Exposes only ``evaluate`` of a problem, so the engine scores genotypes one by one."""

    def __init__(self, inner):
        self.inner = inner
        self.genotype_length = inner.genotype_length

    def evaluate(self, genotype):
        return self.inner.evaluate(genotype)


@pytest.fixture
def tiny():
    return tiny_instance()


def make_duo_instance() -> Instance:
    """Two plants, two DCs, three retailers, two periods; plant 0 alone is too
    small for total demand, so plant capacity genuinely binds.  Each retailer
    front-loads a different fraction of its demand (0.65, 0.45, 0.78) — all
    off the enumeration grid, and mixing under any retailer->DC assignment
    stays off-grid too, so no quantized schedule is exactly just-in-time."""
    demand = np.zeros((3, 1, 2))
    for i, (total, early_share) in enumerate(
        ((40.0, 0.65), (60.0, 0.45), (80.0, 0.78))
    ):
        demand[i, 0, :] = (early_share * total, (1.0 - early_share) * total)
    return Instance(
        n_suppliers=1,
        n_plants=2,
        n_dcs=2,
        n_retailers=3,
        n_products=1,
        n_periods=2,
        supplier_capacity=np.array([1000.0]),
        plant_capacity=np.array([120.0, 200.0]),
        dc_capacity=np.array([150.0, 150.0]),
        demand=demand,
        plant_fixed_cost=np.array([300.0, 400.0]),
        dc_fixed_cost=np.array([250.0, 350.0]),
        raw_material_unit_cost=np.array([2.0]),
        raw_transport_cost=np.array([[1.0, 3.0]]),
        product_transport_plant_dc=np.array([[4.0, 7.0], [6.0, 2.0]]),
        product_transport_dc_retailer=np.array([[3.0, 5.0, 9.0], [8.0, 4.0, 2.0]]),
        holding_cost=np.array([0.5, 0.8]),
        utilization=1.0,
        backorder_limit=np.full((1, 2, 2), 150.0),
    )


@pytest.fixture
def duo():
    return make_duo_instance()


def build_duo_network(instance, plants, dcs, assignment, splits, timings) -> DecodedNetwork:
    """Materialize a quantized design for the enumeration oracle directly,
    without going through genotype decoding.

    ``assignment[i]`` is the open DC serving retailer ``i``; ``splits[d]``
    gives the demand fraction of open-DC ``dcs[d]`` sent to each open plant in
    order; ``timings[d]`` distributes that DC's inflow over the two periods.
    Raw material exactly covers production (single ample supplier).
    """
    s, k, j, i, p, t = instance.dimensions
    plant_open = np.zeros(k, dtype=bool)
    plant_open[list(plants)] = True
    dc_open = np.zeros(j, dtype=bool)
    dc_open[list(dcs)] = True

    assign = np.zeros((j, i), dtype=bool)
    for retailer, dc in enumerate(assignment):
        assign[dc, retailer] = True

    horizon = instance.demand.sum(axis=2)  # (I, P)
    retail_flow = np.zeros((p, j, i))
    for retailer, dc in enumerate(assignment):
        retail_flow[:, dc, retailer] = horizon[retailer]
    assigned_demand = np.einsum("ji,ipt->pjt", assign.astype(float), instance.demand)
    dc_demand = retail_flow.sum(axis=2)  # (P, J)

    product_flow = np.zeros((p, k, j))
    for position, dc in enumerate(dcs):
        for plant, fraction in zip(plants, splits[position]):
            product_flow[0, plant, dc] = fraction * dc_demand[0, dc]

    production = product_flow.sum(axis=(0, 2))
    raw_flow = instance.utilization * production.reshape(1, k)

    inflow = np.zeros((p, j, t))
    for position, dc in enumerate(dcs):
        inflow[0, dc, :] = np.asarray(timings[position]) * dc_demand[0, dc]

    on_hand = np.zeros((p, j, t))
    backlog = np.zeros((p, j, t))
    stock = np.zeros((p, j))
    owed = np.zeros((p, j))
    for period in range(t):
        available = stock + inflow[:, :, period]
        shipped = np.minimum(available, assigned_demand[:, :, period] + owed)
        stock = available - shipped
        owed = owed + assigned_demand[:, :, period] - shipped
        on_hand[:, :, period] = stock
        backlog[:, :, period] = owed

    return DecodedNetwork(
        plant_open=plant_open,
        dc_open=dc_open,
        assignment=assign,
        raw_flow=raw_flow,
        product_flow=product_flow,
        retail_flow=retail_flow,
        inflow=inflow,
        on_hand=on_hand,
        backlog=backlog,
    )


def random_population(
    rng: np.random.Generator,
    size: int,
    n_objectives: int,
    infeasible_fraction: float = 0.4,
    tie_grid: int | None = 4,
) -> tuple[np.ndarray, np.ndarray]:
    """Random evaluated points, ``(objectives (size, M), violations (size,))``,
    with deliberate objective ties and a mix of feasible and infeasible
    members (some sharing violation values)."""
    objectives = rng.random((size, n_objectives))
    if tie_grid:
        snap = rng.random((size, n_objectives)) < 0.5
        objectives = np.where(snap, np.round(objectives * tie_grid) / tie_grid, objectives)
    violations = np.zeros(size)
    infeasible = rng.random(size) < infeasible_fraction
    raw = np.round(rng.random(size) * 3.0, 1)  # coarse grid so ties happen
    violations[infeasible] = raw[infeasible] + 0.1
    return objectives, violations
