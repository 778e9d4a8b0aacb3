"""Three-echelon supply chain network design model.

The network has suppliers shipping raw material to plants, plants shipping
finished product to distribution centers (DCs), and DCs serving retailers,
over a discrete planning horizon.  A candidate design is encoded as a real
genotype in [0, 1]^L and decoded into facility open/close decisions, flows,
a retailer->DC assignment, and a per-period delivery schedule.  Two objectives
are minimized: total network cost and total delivery-delay quantity (backlog
plus early stock).  Capacity checks that decoding cannot guarantee by
construction are scored as a constraint violation for constraint-domination.

Genotype layout (segment sizes, in order):
    plant keys (K) | DC keys (J) | supplier->plant weights (S*K)
    | plant->DC weights (K*J) | retailer assignment keys (J*I)
    | DC inbound timing weights (J*T)
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "Instance",
    "GenotypeLayout",
    "DecodedNetwork",
    "decode",
    "eval_total_cost",
    "eval_delay",
    "check_constraints",
    "evaluate",
    "evaluate_batch",
    "SupplyChainProblem",
    "CONSTRAINT_FAMILIES",
    "ARRAY_SHAPES",
]

# Names of the constraint families scored by check_constraints, in order.
CONSTRAINT_FAMILIES = (
    "dc_holding_capacity",      # on-hand stock within DC holding capacity
    "backorder_limit",          # backlog within the permitted backorder level
    "dc_flow_balance",          # product into each DC covers product out to retailers
    "supplier_capacity",        # raw material drawn from a supplier within its capacity
    "plant_raw_balance",        # raw material into each plant covers its production
    "plant_capacity",           # production within plant capacity
    "single_assignment",        # every retailer served by exactly one DC
)

# Array fields of an Instance, in file order, with their shapes in the letters
# of Instance.dimensions: S suppliers, K plants, J DCs, I retailers,
# P products, T periods.
ARRAY_SHAPES = {
    "supplier_capacity": "S",               # raw-material units per horizon
    "plant_capacity": "K",                  # raw-material-equivalent units per horizon
    "dc_capacity": "J",                     # holding capacity, product units
    "demand": "IPT",                        # retailer demand per product per period
    "plant_fixed_cost": "K",                # cost of operating a plant
    "dc_fixed_cost": "J",                   # cost of operating a DC
    "raw_material_unit_cost": "S",          # per raw-material unit
    "raw_transport_cost": "SK",             # per raw-material unit shipped
    "product_transport_plant_dc": "KJ",     # per product unit shipped
    "product_transport_dc_retailer": "JI",  # per product unit shipped
    "holding_cost": "J",                    # per product unit held per period
    "backorder_limit": "PJT",               # permitted backlog per cell
}

# Excess smaller than this (relative to the family scale) is treated as zero;
# proportional repair leaves float residue on the order of 1e-16 of the flows.
_EXCESS_RTOL = 1e-9

_SMALLEST_NORMAL = np.finfo(float).tiny

# Rows per block in evaluate_batch.  It bounds the working set; rows are
# independent, so the block size never changes a result.
_BATCH_BLOCK = 256


@dataclass
class Instance:
    """Immutable problem data for one supply chain network design instance.

    The array fields and their shapes are listed in :data:`ARRAY_SHAPES`;
    ``utilization`` (> 0) is the raw-material units consumed per product
    unit.  ``currency`` and ``time_unit`` are display metadata only.
    """

    n_suppliers: int
    n_plants: int
    n_dcs: int
    n_retailers: int
    n_products: int
    n_periods: int
    supplier_capacity: np.ndarray
    plant_capacity: np.ndarray
    dc_capacity: np.ndarray
    demand: np.ndarray
    plant_fixed_cost: np.ndarray
    dc_fixed_cost: np.ndarray
    raw_material_unit_cost: np.ndarray
    raw_transport_cost: np.ndarray
    product_transport_plant_dc: np.ndarray
    product_transport_dc_retailer: np.ndarray
    holding_cost: np.ndarray
    utilization: float
    backorder_limit: np.ndarray
    currency: str = "TZS/week"
    time_unit: str = "day"

    def __post_init__(self) -> None:
        sizes = dict(zip("SKJIPT", self.dimensions))
        for name, axes in ARRAY_SHAPES.items():
            shape = tuple(sizes[axis] for axis in axes)
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {value.shape}")
            object.__setattr__(self, name, value)
        self.utilization = float(self.utilization)

    @property
    def dimensions(self) -> tuple[int, int, int, int, int, int]:
        return (
            self.n_suppliers,
            self.n_plants,
            self.n_dcs,
            self.n_retailers,
            self.n_products,
            self.n_periods,
        )

    @property
    def total_demand(self) -> float:
        return float(self.demand.sum())

    @property
    def genotype_length(self) -> int:
        return GenotypeLayout.for_instance(self).length

    @np.errstate(over="ignore")  # totals of huge finite entries may overflow to inf; the comparisons handle inf
    def invariant_problems(self) -> list[str]:
        """Every violated instance invariant, empty when the instance is sound."""
        problems: list[str] = []
        if min(self.dimensions) < 1:
            problems.append("all dimensions must be >= 1")
        if not (np.isfinite(self.utilization) and self.utilization > 0):
            problems.append(f"utilization must be finite and > 0, got {self.utilization!r}")
        for f in fields(self):  # every array field holds nonnegative quantities
            value = getattr(self, f.name)
            if not isinstance(value, np.ndarray):
                continue
            if not np.all(np.isfinite(value)):
                problems.append(f"{f.name} contains non-finite entries")
            elif np.any(value < 0):
                problems.append(f"{f.name} contains negative entries")
            elif not np.isfinite(value.sum()):
                problems.append(f"{f.name} entries sum beyond the double range")
        # Capacity checks tolerate a relative 1e-9: capacities generated with
        # exact slack sum to the demand only up to rounding.
        if np.all(np.isfinite(self.demand)) and np.all(np.isfinite(self.dc_capacity)):
            if self.dc_capacity.sum() < self.demand.sum() * (1.0 - 1e-9):
                problems.append(
                    "total demand exceeds total DC holding capacity "
                    f"({self.demand.sum():g} > {self.dc_capacity.sum():g})"
                )
        # Upstream capacity is in raw-material units; below utilization x demand
        # no design can be feasible.
        need = self.utilization * self.demand.sum()
        if np.isfinite(self.utilization) and np.all(np.isfinite(self.demand)):
            for name in ("plant_capacity", "supplier_capacity"):
                total = getattr(self, name).sum()
                if total < need * (1.0 - 1e-9):
                    problems.append(
                        f"total {name.replace('_', ' ')} is below utilization x total demand ({total:g} < {need:g})"
                    )
        return problems


@dataclass(frozen=True)
class GenotypeLayout:
    """Slices of the flat genotype for each decoded segment."""

    plant_keys: slice
    dc_keys: slice
    supplier_weights: slice
    plant_dc_weights: slice
    assignment_keys: slice
    timing_weights: slice
    length: int

    @classmethod
    def for_instance(cls, instance: Instance) -> "GenotypeLayout":
        s, k, j, i, _, t = instance.dimensions
        bounds = np.cumsum([0, k, j, s * k, k * j, j * i, j * t])
        slices = [slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]
        return cls(*slices, length=int(bounds[-1]))


@dataclass
class DecodedNetwork:
    """A fully materialized network design: decisions, flows, and schedule.

    Flow arrays: raw_flow (S, K), product_flow (P, K, J), retail_flow (P, J, I);
    schedule arrays inflow / on_hand / backlog are (P, J, T).
    """

    plant_open: np.ndarray
    dc_open: np.ndarray
    assignment: np.ndarray
    raw_flow: np.ndarray
    product_flow: np.ndarray
    retail_flow: np.ndarray
    inflow: np.ndarray
    on_hand: np.ndarray
    backlog: np.ndarray


def _genotype_row(genotype: np.ndarray, instance: Instance) -> np.ndarray:
    """One genotype as a ``(1, L)`` matrix, after checking its length."""
    g = np.asarray(genotype, dtype=float)
    length = instance.genotype_length
    if g.shape != (length,):
        raise ValueError(f"genotype must have shape ({length},), got {g.shape}")
    return g[None]


def _network_row(network: DecodedNetwork, row: int | None) -> DecodedNetwork:
    """Row ``row`` of a row-stacked network, or with ``row=None`` the network stacked as one row."""
    return DecodedNetwork(**{f.name: getattr(network, f.name)[row] for f in fields(DecodedNetwork)})


def decode(genotype: np.ndarray, instance: Instance) -> DecodedNetwork:
    """Decode a genotype into a concrete network design.

    Pipeline: (1) facility keys >= 0.5 open a plant/DC, with the largest key
    forced open when a whole echelon would close; (2) each retailer goes to
    the open DC with the largest assignment key; (3) retail flows carry each
    retailer's horizon demand from its DC; (4) each DC's demand is spread over
    open plants proportionally to the plant->DC weights, repaired to plant
    capacities; (5) raw-material flows cover production, spread over suppliers
    by weight and repaired to supplier capacities; (6) each DC's inbound total
    is scheduled across periods by its normalized timing weights and the
    stock/backlog recursion is simulated against assigned per-period demand.
    """
    return _network_row(_decode_rows(_genotype_row(genotype, instance), instance), 0)


def _schedule_recursion(inflow: np.ndarray, demand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stock and backlog of every cell, period by period over the trailing axis.

    Each period, arriving units plus carried stock ship against current demand
    plus carried backlog; leftovers carry as stock (early delivery), unmet
    demand carries as backlog (late delivery):

        available_t = z_{t-1} + inflow_t
        shipped_t   = min(available_t, demand_t + b_{t-1})
        z_t         = available_t - shipped_t
        b_t         = b_{t-1} + demand_t - shipped_t

    The recursion never clips against the cell's holding or backorder bounds;
    excess is scored by :func:`check_constraints`, not here.
    """
    periods = inflow.shape[-1]
    on_hand = np.zeros_like(inflow)
    backlog = np.zeros_like(inflow)
    stock = np.zeros(inflow.shape[:-1])
    owed = np.zeros(inflow.shape[:-1])
    for t in range(periods):
        available = stock + inflow[..., t]
        shipped = np.minimum(available, demand[..., t] + owed)
        stock = available - shipped
        owed = owed + demand[..., t] - shipped
        on_hand[..., t] = stock
        backlog[..., t] = owed
    return on_hand, backlog


def eval_total_cost(
    network: DecodedNetwork,
    instance: Instance,
    holding_on_backorder: bool = False,
) -> float:
    """Total network cost: fixed facility costs plus every flow-proportional term.

    Holding cost is charged on on-hand stock; ``holding_on_backorder=True``
    charges it on the backlog instead (alternate accounting mode).
    """
    return float(_objective_rows(_network_row(network, None), instance, holding_on_backorder)[0, 0])


def eval_delay(network: DecodedNetwork) -> float:
    """Total delivery-delay quantity: backlog plus early stock over all cells."""
    return float(_delay_rows(_network_row(network, None))[0])


def _constraint_scales(instance: Instance) -> np.ndarray:
    """Positive per-family scales that normalize :func:`check_constraints` excess."""
    scales = np.array(
        [
            instance.dc_capacity.mean(),
            instance.backorder_limit.mean(),
            instance.total_demand / instance.n_dcs,
            instance.supplier_capacity.mean(),
            instance.plant_capacity.mean(),
            instance.plant_capacity.mean(),
            1.0,
        ]
    )
    return np.where(scales > 0.0, scales, 1.0)


def check_constraints(
    network: DecodedNetwork,
    instance: Instance,
) -> tuple[np.ndarray, float]:
    """Score the seven constraint families of a decoded network.

    Returns ``(excess, total)``: ``excess[f]`` is the summed magnitude of
    violation in family ``f`` (see :data:`CONSTRAINT_FAMILIES`), and ``total``
    is the scalar violation used for constraint-domination — each family
    divided by its capacity scale so no family dominates purely by units.
    Excess below float-repair resolution is treated as zero.

    The four families a decoded network can break come from the batch
    scorer's :func:`_excess_rows`; the other three are scored here, because
    a hand-built network can overdraw suppliers, overload plants or split a
    retailer.
    """
    excess = np.zeros(len(CONSTRAINT_FAMILIES))
    excess[_ROW_FAMILIES] = _excess_rows(_network_row(network, None), instance)[0]
    excess[3] = np.maximum(network.raw_flow.sum(axis=1) - instance.supplier_capacity, 0.0).sum()
    production = network.product_flow.sum(axis=(0, 2))
    excess[5] = np.maximum(instance.utilization * production - instance.plant_capacity, 0.0).sum()
    excess[6] = np.abs(network.assignment.sum(axis=0) - 1).sum()
    excess, total = _scored(excess, _constraint_scales(instance))
    return excess, float(total)


def evaluate(
    genotype: np.ndarray,
    instance: Instance,
    holding_on_backorder: bool = False,
) -> tuple[np.ndarray, float]:
    """Decode and score one genotype: ``([total_cost, delay], violation)``."""
    objectives, violations = evaluate_batch(_genotype_row(genotype, instance), instance, holding_on_backorder)
    return objectives[0], float(violations[0])


# Batched evaluation: the only statement of each model formula a run uses.
# Each function works over a leading row axis; the one-genotype functions
# above are views of one row, and check_constraints takes four of its seven
# families from _excess_rows.  tests/oracles.py keeps the decoder and the
# constraint scorer as they ran one genotype at a time; every row matches
# them bit for bit, because each function here takes the same operations and
# reduces the same axes of the same memory layout.


def _allocate_rows(total: np.ndarray, weights: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Split ``total (N,)`` over ``(N, B)`` bins in proportion to ``weights``, within ``caps``.

    Overflowing bins pin at their cap and the remainder re-spreads over the
    rest; rows whose weights sum to zero split by headroom; what does not fit
    stays unplaced.  Rows with ``total <= 0`` get nothing.  Each pass settles
    a row or pins at least one of its bins, so B + 1 passes settle every row.
    """
    allocation = np.zeros_like(caps)
    remaining = total.copy()
    tolerance = 1e-12 * np.maximum(1.0, total)
    active = caps > 0.0
    running = total > 0.0
    for _ in range(caps.shape[1] + 1):
        running &= (remaining > tolerance) & active.any(axis=1)
        if not running.any():
            break
        w = np.where(active, weights, 0.0)
        w_sum = w.sum(axis=1)
        # Rows whose weights sum to zero split by headroom instead.  Subnormal
        # weights would round remaining * w to a few bits; a power of two
        # scales them exactly.  Rows with normal weights keep their bits.
        small = running & (w_sum < _SMALLEST_NORMAL)
        if small.any():
            w = np.where((small & (w_sum <= 0.0))[:, None], np.where(active, caps - allocation, 0.0), w)
            w_sum = w.sum(axis=1)
            w[small & (w_sum < _SMALLEST_NORMAL)] *= 2.0**1022
            w_sum = w.sum(axis=1)
        shares = remaining[:, None] * w / np.where(running, w_sum, 1.0)[:, None]
        overflow = running[:, None] & active & (shares > caps - allocation)
        pinned = overflow.any(axis=1)
        settled = running & ~pinned
        allocation = np.where(settled[:, None], allocation + shares, allocation)
        allocation = np.where(overflow, caps, allocation)
        active &= ~overflow
        remaining = np.where(pinned, total - allocation.sum(axis=1), remaining)
        running &= pinned
    return allocation


def _open_rows(keys: np.ndarray) -> np.ndarray:
    """Row-wise facility keys >= 0.5, forcing the largest key open in all-closed rows."""
    is_open = keys >= 0.5
    closed = np.flatnonzero(~is_open.any(axis=1))
    is_open[closed, np.argmax(keys[closed], axis=1)] = True
    return is_open


def _decode_rows(g: np.ndarray, instance: Instance) -> DecodedNetwork:
    """:func:`decode` of every row of ``g``; each array gains a leading row axis."""
    n = g.shape[0]
    s, k, j, i, p, t = instance.dimensions
    layout = GenotypeLayout.for_instance(instance)
    # C-contiguous (P, I) horizon demand: retail_flow then has the memory
    # layout of one decoded genotype, and sums in its order.
    retailer_demand = instance.demand.sum(axis=2).T.copy()
    supplier_weights = g[:, layout.supplier_weights].reshape(n, s, k)
    plant_dc_weights = g[:, layout.plant_dc_weights].reshape(n, k, j)
    assignment_keys = g[:, layout.assignment_keys].reshape(n, j, i)
    timing_weights = g[:, layout.timing_weights].reshape(n, j, t)

    plant_open = _open_rows(g[:, layout.plant_keys])
    dc_open = _open_rows(g[:, layout.dc_keys])

    masked_keys = np.where(dc_open[:, :, None], assignment_keys, -1.0)
    dc_of_retailer = np.argmax(masked_keys, axis=1)  # (N, I)
    assignment = dc_of_retailer[:, None, :] == np.arange(j)[None, :, None]  # (N, J, I)

    retail_flow = assignment[:, None, :, :] * retailer_demand[None, :, None, :]
    dc_demand = retail_flow.sum(axis=3)  # (N, P, J)
    assigned_demand = np.einsum("nji,ipt->npjt", assignment.astype(float), instance.demand)

    product_flow = np.zeros((n, p, k, j))
    open_plant_weights = np.where(plant_open[:, :, None], plant_dc_weights, 0.0)
    product_budget = np.where(plant_open, instance.plant_capacity / instance.utilization, 0.0)
    for product in range(p):
        for dc in range(j):
            share = _allocate_rows(
                dc_demand[:, product, dc], open_plant_weights[:, :, dc], product_budget
            )
            product_flow[:, product, :, dc] = share
            product_budget = product_budget - share

    raw_flow = np.zeros((n, s, k))
    supplier_budget = np.tile(instance.supplier_capacity, (n, 1))
    production = product_flow.sum(axis=(1, 3))  # (N, K)
    for plant in range(k):
        share = _allocate_rows(
            instance.utilization * production[:, plant],
            supplier_weights[:, :, plant],
            supplier_budget,
        )
        raw_flow[:, :, plant] = share
        supplier_budget = supplier_budget - share

    row_sums = timing_weights.sum(axis=2, keepdims=True)
    period_share = np.where(
        row_sums > 0.0,
        timing_weights / np.where(row_sums > 0.0, row_sums, 1.0),
        1.0 / t,
    )
    dc_inflow_total = product_flow.sum(axis=2)  # (N, P, J)
    inflow = dc_inflow_total[:, :, :, None] * period_share[:, None, :, :]
    on_hand, backlog = _schedule_recursion(inflow, assigned_demand)

    return DecodedNetwork(
        plant_open=plant_open,
        dc_open=dc_open,
        assignment=assignment,
        raw_flow=raw_flow,
        product_flow=product_flow,
        retail_flow=retail_flow,
        inflow=inflow,
        on_hand=on_hand,
        backlog=backlog,
    )


def _row_sums(values: np.ndarray) -> np.ndarray:
    """Sum of each row's cells, in the order ``.sum()`` takes over one row."""
    return values.reshape(values.shape[0], -1).sum(axis=1)


def _delay_rows(network: DecodedNetwork) -> np.ndarray:
    """:func:`eval_delay` of every row of a row-stacked network."""
    return _row_sums(network.backlog + network.on_hand)


def _objective_rows(
    network: DecodedNetwork,
    instance: Instance,
    holding_on_backorder: bool,
) -> np.ndarray:
    """``(N, 2)`` :func:`eval_total_cost` and :func:`eval_delay` of every row of a
    row-stacked network."""
    fixed = (instance.plant_fixed_cost * network.plant_open).sum(axis=1) + (
        instance.dc_fixed_cost * network.dc_open
    ).sum(axis=1)
    raw_unit_cost = instance.raw_material_unit_cost[:, None] + instance.raw_transport_cost
    raw = _row_sums(raw_unit_cost * network.raw_flow)
    plant_to_dc = _row_sums(instance.product_transport_plant_dc[None, :, :] * network.product_flow)
    held = network.backlog if holding_on_backorder else network.on_hand
    holding = _row_sums(instance.holding_cost[None, :, None] * held)
    dc_to_retail = _row_sums(
        instance.product_transport_dc_retailer[None, :, :] * network.retail_flow
    )
    total_cost = fixed + raw + plant_to_dc + holding + dc_to_retail
    return np.stack([total_cost, _delay_rows(network)], axis=1)


# The families _excess_rows scores, as indices into CONSTRAINT_FAMILIES.
_ROW_FAMILIES = [0, 1, 2, 4]


def _excess_rows(network: DecodedNetwork, instance: Instance) -> np.ndarray:
    """``(N, 4)`` excess of dc_holding_capacity, backorder_limit,
    dc_flow_balance and plant_raw_balance for every row of a row-stacked network.

    supplier_capacity, plant_capacity and single_assignment are zero on every
    decoded network: allocation is capped at the supplier and plant budgets,
    and each retailer goes to its argmax DC, a one-hot assignment
    (tests/test_decode_properties.py::test_unscored_families_are_zero).
    Dropping exact zeros from the family sum leaves the total's bits unchanged.
    """
    dc_in = network.product_flow.sum(axis=2)
    dc_out = network.retail_flow.sum(axis=3)
    production = network.product_flow.sum(axis=(1, 3))
    raw_in = network.raw_flow.sum(axis=1)
    return np.stack(
        [
            _row_sums(np.maximum(network.on_hand - instance.dc_capacity[None, :, None], 0.0)),
            _row_sums(np.maximum(network.backlog - instance.backorder_limit, 0.0)),
            _row_sums(np.maximum(dc_out - dc_in, 0.0)),
            np.maximum(instance.utilization * production - raw_in, 0.0).sum(axis=1),
        ],
        axis=1,
    )


def _scored(excess: np.ndarray, scales: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``excess`` with entries below float-repair resolution set to zero, and
    its sum over the last axis in units of ``scales``: the violation total."""
    excess = np.where(excess > _EXCESS_RTOL * scales, excess, 0.0)
    return excess, (excess / scales).sum(axis=-1)


def _violation_rows(network: DecodedNetwork, instance: Instance) -> np.ndarray:
    """The :func:`check_constraints` total of every row of a row-stacked network."""
    return _scored(_excess_rows(network, instance), _constraint_scales(instance)[_ROW_FAMILIES])[1]


def evaluate_batch(
    genotypes: np.ndarray,
    instance: Instance,
    holding_on_backorder: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Score every row of an ``(N, L)`` genotype matrix at once.

    Returns ``(objectives (N, 2), violations (N,))``; row ``n`` equals
    ``evaluate(genotypes[n], instance, holding_on_backorder)`` bit for bit.
    Rows are evaluated in fixed blocks, which bounds memory use.
    """
    g = np.asarray(genotypes, dtype=float)
    length = instance.genotype_length
    if g.ndim != 2 or g.shape[1] != length:
        raise ValueError(f"genotypes must have shape (N, {length}), got {g.shape}")
    objectives = np.empty((g.shape[0], 2))
    violations = np.empty(g.shape[0])
    for start in range(0, g.shape[0], _BATCH_BLOCK):
        block = slice(start, start + _BATCH_BLOCK)
        network = _decode_rows(g[block], instance)
        objectives[block] = _objective_rows(network, instance, holding_on_backorder)
        violations[block] = _violation_rows(network, instance)
    return objectives, violations


@dataclass
class SupplyChainProblem:
    """Adapter exposing an :class:`Instance` through the engine's evaluator interface."""

    instance: Instance
    holding_on_backorder: bool = False

    @property
    def genotype_length(self) -> int:
        return self.instance.genotype_length

    def evaluate(self, genotype: np.ndarray) -> tuple[np.ndarray, float]:
        return evaluate(genotype, self.instance, self.holding_on_backorder)

    def evaluate_batch(self, genotypes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return evaluate_batch(genotypes, self.instance, self.holding_on_backorder)
