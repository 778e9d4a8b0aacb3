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

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

__all__ = [
    "ValidationError",
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

_DIMENSION_FIELDS = ("n_suppliers", "n_plants", "n_dcs", "n_retailers", "n_products", "n_periods")


class ValidationError(ValueError):
    """Instance content failed validation; ``problems`` lists every issue.  Raised by
    :class:`Instance` and by :func:`scnopt.instances.load_instance`."""

    def __init__(self, message: str, problems: list[str] | None = None) -> None:
        self.problems = problems or []
        if self.problems:
            message = message + ":\n  - " + "\n  - ".join(self.problems)
        super().__init__(message)


@dataclass(frozen=True, eq=False)
class Instance:
    """Immutable problem data for one supply chain network design instance.

    The array fields and their shapes are listed in :data:`ARRAY_SHAPES`;
    each holds a read-only float copy of the array passed in, so the
    caller's array stays writable and the arrays the evaluator derives
    from the instance (the cached properties below, built on first use)
    cannot go stale.  ``dataclasses.replace`` makes a new instance, which
    derives its own.  ``utilization`` (> 0) is the raw-material units
    consumed per product unit.  ``currency`` and ``time_unit`` are display
    metadata only.  Instances compare and hash by identity.

    Construction checks every field before it stores any, and raises one
    :class:`ValidationError` listing every problem: each ``n_*`` an integer
    (not a bool), ``currency`` and ``time_unit`` strings, ``utilization`` a
    number and each array field nested lists, tuples or numpy arrays of
    numbers (a bool, string or None is not one) of its :data:`ARRAY_SHAPES`
    shape, all within the double range.  :meth:`invariant_problems` checks
    the values; construction does not run it.
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
        problems, sizes, values = [], {}, {}
        for axis, name in zip("SKJIPT", _DIMENSION_FIELDS):
            size = getattr(self, name)
            if isinstance(size, (int, np.integer)) and not isinstance(size, bool):
                sizes[axis] = int(size)
            else:
                problems.append(f"{name}: {size!r} is not an integer")
        problems += [f"{name}: {getattr(self, name)!r} is not a string"
                     for name in ("currency", "time_unit") if not isinstance(getattr(self, name), str)]
        for name, axes in {"utilization": "", **ARRAY_SHAPES}.items():  # utilization as a 0-d array
            entries = _non_numbers(getattr(self, name))
            if entries:
                problems.append(f"{name}: {entries[0]!r} is not a number")
                continue
            try:  # ragged or too deep nesting, or an int beyond the double range
                values[name] = np.array(getattr(self, name), dtype=float)
            except (TypeError, ValueError, OverflowError) as err:
                problems.append(f"{name}: {err}")
                continue
            shape = tuple(sizes.get(axis) for axis in axes)
            if None not in shape and values[name].shape != shape:  # an axis of a bad dimension goes unchecked
                problems.append(f"{name} must have shape {shape}, got {values[name].shape}")
        if problems:
            raise ValidationError("malformed instance fields", problems)
        for name, size in zip(_DIMENSION_FIELDS, sizes.values()):
            object.__setattr__(self, name, size)
        object.__setattr__(self, "utilization", float(values.pop("utilization")))
        for name, array in values.items():
            object.__setattr__(self, name, _read_only(array))

    def __reduce__(self):
        # Copies and unpickled instances are rebuilt through __init__, so
        # their arrays are read-only again and they derive their own caches.
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    # Arrays the evaluator reads that depend on the instance alone, each
    # built on first use and kept read-only.

    @cached_property
    def _layout(self) -> GenotypeLayout:
        return GenotypeLayout.for_instance(self)

    @cached_property
    def _horizon_demand(self) -> np.ndarray:
        """``(P, I)`` demand over the horizon, C-contiguous: retail_flow then
        has the memory layout of one decoded genotype, and sums in its order."""
        return _read_only(self.demand.sum(axis=2).T.copy())

    @cached_property
    def _product_budget(self) -> np.ndarray:
        """``(K,)`` plant capacity in product units."""
        return _read_only(self.plant_capacity / self.utilization)

    @cached_property
    def _raw_unit_cost(self) -> np.ndarray:
        """``(S, K)`` raw material plus transport cost per unit."""
        return _read_only(self.raw_material_unit_cost[:, None] + self.raw_transport_cost)

    @cached_property
    def _scales(self) -> np.ndarray:
        """Positive scales that normalize :func:`check_constraints` excess, one
        per family in :data:`CONSTRAINT_FAMILIES` order: the capacity each
        family's excess is measured in, or 1 where that capacity is 0."""
        scales = np.array([
            self.dc_capacity.mean(),
            self.backorder_limit.mean(),
            self.total_demand / self.n_dcs,
            self.supplier_capacity.mean(),
            self.plant_capacity.mean(),
            self.plant_capacity.mean(),
            1.0,
        ])
        return _read_only(np.where(scales > 0.0, scales, 1.0))

    @property
    def dimensions(self) -> tuple[int, int, int, int, int, int]:
        return tuple(getattr(self, name) for name in _DIMENSION_FIELDS)

    @property
    def total_demand(self) -> float:
        return float(self.demand.sum())

    @property
    def genotype_length(self) -> int:
        return self._layout.length

    @np.errstate(over="ignore")  # totals and products of huge finite entries may overflow to inf; the checks handle inf
    def invariant_problems(self) -> list[str]:
        """Every violated instance invariant, empty when the instance is sound."""
        problems: list[str] = []
        if min(self.dimensions) < 1:
            problems.append("all dimensions must be >= 1")
        if not (np.isfinite(self.utilization) and self.utilization > 0):
            problems.append(f"utilization must be finite and > 0, got {self.utilization!r}")
        for name in ARRAY_SHAPES:  # every array field holds nonnegative quantities
            value = getattr(self, name)
            if not np.all(np.isfinite(value)):
                problems.append(f"{name} contains non-finite entries")
            elif np.any(value < 0):
                problems.append(f"{name} contains negative entries")
            elif not np.isfinite(value.sum()):
                problems.append(f"{name} entries sum beyond the double range")
        if not problems:
            # An upper bound on any design's cost: every fixed cost, plus all
            # demand at the dearest rate of each term.  Raw material flows
            # utilization x demand; on-hand stock, or backlog, stays within the
            # total demand in each period.  Products are taken in an order
            # where an overflow meets no zero factor.
            demand = self.demand.sum()
            dearest_raw = (self.raw_material_unit_cost[:, None] + self.raw_transport_cost).max()
            bound = (
                self.plant_fixed_cost.sum() + self.dc_fixed_cost.sum()
                + self.utilization * (demand * dearest_raw)
                + demand * self.product_transport_plant_dc.max()
                + demand * self.product_transport_dc_retailer.max()
                + self.n_periods * (demand * self.holding_cost.max())
            )
            if not np.isfinite(bound):
                problems.append("a design's cost can exceed the double range")
            # the delay objective sums at most the total demand per period
            if not np.isfinite(self.n_periods * demand):
                problems.append("a design's delay can exceed the double range")
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


def _non_numbers(value) -> list:
    """Entries of a nested array that are not numbers (an int or float, not a
    bool), in order.  Lists and tuples are walked; a numpy array or scalar of
    integer or float dtype holds numbers, and any other is walked as its
    ``tolist()``.  A stack instead of recursion: a parsed array can nest
    deeper than Python's call depth."""
    found, stack = [], [value]
    while stack:
        item = stack.pop()
        if isinstance(item, (list, tuple)):
            stack.extend(reversed(item))
        elif isinstance(item, (np.ndarray, np.generic)):
            if item.dtype.kind not in "iuf":
                stack.append(item.tolist())
        elif isinstance(item, bool) or not isinstance(item, (int, float)):
            found.append(item)
    return found


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


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


@dataclass(eq=False)
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
    return _network_row(_decode_rows(_genotype_row(genotype, instance), instance)[0], 0)


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
    stacked = _network_row(network, None)
    production = stacked.product_flow.sum(axis=(1, 3))
    dc_in = stacked.product_flow.sum(axis=2)
    dc_out = stacked.retail_flow.sum(axis=3)
    excess = np.zeros(len(CONSTRAINT_FAMILIES))
    excess[_ROW_FAMILIES] = _excess_rows(stacked, instance, dc_in, dc_out, production)[0]
    excess[3] = np.maximum(network.raw_flow.sum(axis=1) - instance.supplier_capacity, 0.0).sum()
    excess[5] = np.maximum(instance.utilization * production[0] - instance.plant_capacity, 0.0).sum()
    excess[6] = np.abs(network.assignment.sum(axis=0) - 1).sum()
    excess, total = _scored(excess, instance._scales)
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
# Each function works over a leading row axis (the capped allocation over a
# trailing one); the one-genotype functions above are views of one row, and
# check_constraints takes four of its seven families from _excess_rows.
# tests/oracles.py keeps the decoder and the constraint scorer as they ran one
# genotype at a time; every row matches them bit for bit, because each
# function here takes the same operations and reduces the same axes of the
# same memory layout, or, over a short axis, adds its terms in the order
# numpy's reduce takes (_sum_last, _sum_bins).


def _sum_last(values: np.ndarray) -> np.ndarray:
    """``values.sum(axis=-1)``, bit for bit, by column adds over a short axis.

    numpy reduces a trailing axis with one inner loop per row, which costs
    several times the column adds when the axis has a few bins.  Below 8
    terms numpy adds left to right from +0.0, as the columns do here (a row
    of -0.0 sums to +0.0); from 8 terms it sums in an unrolled pairwise
    order, and this defers to it.
    """
    width = values.shape[-1]
    if not 0 < width < 8:
        return values.sum(axis=-1)
    total = values[..., 0] + 0.0
    for column in range(1, width):
        total += values[..., column]
    return total


def _any_last(mask: np.ndarray) -> np.ndarray:
    """``mask.any(axis=-1)`` by column ORs over a short axis, as :func:`_sum_last` sums."""
    width = mask.shape[-1]
    if not 0 < width < 8:
        return mask.any(axis=-1)
    found = mask[..., 0].copy()
    for column in range(1, width):
        found |= mask[..., column]
    return found


def _sum_bins(values: np.ndarray) -> np.ndarray:
    """The sums of a bins-first ``(B, N)`` array's columns, bit for bit as
    numpy's ``.sum(axis=-1)`` of the C-contiguous ``(N, B)`` transpose.

    Below 8 bins numpy adds a row left to right from +0.0.  One reduce over
    axis 0 adds the bins in that order, a row at a time over every column;
    ``+ 0.0`` turns a sum of -0.0s into +0.0, whichever start numpy's axis-0
    reduce takes.  From 8 bins numpy sums a contiguous row in an unrolled
    pairwise order, so the transpose is copied and summed that way.
    """
    if len(values) < 8:
        return values.sum(axis=0) + 0.0
    return np.ascontiguousarray(values.T).sum(axis=-1)


def _allocate_rows(total: np.ndarray, weights: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Split ``total (N,)`` over bins-first ``(B, N)`` bins in proportion to
    ``weights``, within ``caps``; the allocation is ``(B, N)`` too.

    Overflowing bins pin at their cap and the remainder re-spreads over the
    rest; rows whose weights sum to zero split by headroom; what does not fit
    stays unplaced.  Rows with ``total <= 0`` get nothing.  Each pass settles
    a row or pins at least one of its bins, so B + 1 passes settle every row.
    Bins with a cap of zero take nothing, whatever their weight.

    The bins come first so that each pass reduces them with one call over
    axis 0: numpy's reduce over a trailing axis of a few bins runs one inner
    loop per row.  A running row's active bins still hold nothing, since a
    row's shares land only when it settles, so their headroom is their cap.
    """
    allocation = np.zeros_like(caps)
    remaining = total
    tolerance = 1e-12 * np.maximum(1.0, total)
    active = caps > 0.0
    running = total > 0.0
    for _ in range(len(caps) + 1):
        running &= (remaining > tolerance) & active.any(axis=0)
        if not running.any():
            break
        w = np.where(active, weights, 0.0)
        w_sum = _sum_bins(w)
        # Rows whose weights sum to zero split by headroom instead.  Subnormal
        # weights would round remaining * w to a few bits; a power of two
        # scales them exactly.  Rows with normal weights keep their bits.
        small = running & (w_sum < _SMALLEST_NORMAL)
        if small.any():
            w = np.where(small & (w_sum <= 0.0), np.where(active, caps, 0.0), w)
            w_sum = _sum_bins(w)
            w[:, small & (w_sum < _SMALLEST_NORMAL)] *= 2.0**1022
            w_sum = _sum_bins(w)
        shares = remaining * w / np.where(running, w_sum, 1.0)
        overflow = running & active & (shares > caps)
        pinned = overflow.any(axis=0)
        settled = running & ~pinned
        allocation = np.where(settled, allocation + shares, allocation)
        allocation = np.where(overflow, caps, allocation)
        active &= ~overflow
        remaining = total - _sum_bins(allocation)
        running &= pinned
    return allocation


def _open_rows(keys: np.ndarray) -> np.ndarray:
    """Row-wise facility keys >= 0.5, forcing the largest key open in all-closed rows."""
    is_open = keys >= 0.5
    closed = np.flatnonzero(~_any_last(is_open))
    is_open[closed, np.argmax(keys[closed], axis=1)] = True
    return is_open


def _decode_rows(
    g: np.ndarray, instance: Instance
) -> tuple[DecodedNetwork, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """:func:`decode` of every row of an ``(N, L)`` ``g``; each array gains a leading row axis.

    Arrays that depend on the instance alone (the layout, the horizon
    demand, the plant budgets) are its cached properties, built once per
    instance.  Each row's per-period demand at its DCs is one matmul of its
    one-hot assignment with the demand, read as an ``(I, P*T)`` view,
    stacked over the rows.

    Also returns the flow totals the constraint scorer reads: product into
    each DC and demand out of it, both ``(N, P, J)``, and each plant's
    production ``(N, K)``.  Raises ``ValueError`` for a wrong shape, or a gene
    outside [0, 1] or NaN: every public entry point checks its genes here.
    """
    layout = instance._layout
    if g.ndim != 2 or g.shape[1] != layout.length:
        raise ValueError(f"genotypes must have shape (N, {layout.length}), got {g.shape}")
    if g.size and not (g.min() >= 0.0 and g.max() <= 1.0):  # NaN fails both comparisons
        raise ValueError("genotype coordinates must lie in [0, 1]")
    n = g.shape[0]
    s, k, j, i, p, t = instance.dimensions
    timing_weights = g[:, layout.timing_weights].reshape(n, j, t)

    plant_open = _open_rows(g[:, layout.plant_keys])
    dc_open = _open_rows(g[:, layout.dc_keys])

    masked_keys = g[:, layout.assignment_keys].reshape(n, j, i).copy()
    masked_keys[~dc_open] = -1.0  # a closed DC's keys lose to every open DC's
    dc_of_retailer = np.argmax(masked_keys, axis=1)  # (N, I)
    del masked_keys  # (N, J, I): freed before the flows and the schedule recursion grow the working set
    assignment = dc_of_retailer[:, None, :] == np.arange(j)[None, :, None]  # (N, J, I)

    retail_flow = assignment[:, None, :, :] * instance._horizon_demand[None, :, None, :]
    dc_demand = retail_flow.sum(axis=3)  # (N, P, J)
    # The assignment is one-hot, so every product is exact and each cell adds
    # its DC's retailers' demand in retailer order: the bits of the reference
    # decoder's einsum, which takes several times as long.
    assigned_demand = np.matmul(assignment.astype(float), instance.demand.reshape(i, -1))  # (N, J, P*T)
    assigned_demand = assigned_demand.reshape(n, j, p, t).transpose(0, 2, 1, 3)  # (N, P, J, T)

    product_flow = np.zeros((n, p, k, j))
    # The capped allocations take bins-first (B, N) weights, sliced from one
    # transposed copy of the weight block: one DC's plant weights, then one
    # plant's supplier weights, for every row.  A closed plant has no budget,
    # so it takes nothing whatever its weights.
    weights = np.ascontiguousarray(g[:, layout.plant_dc_weights].reshape(n, k, j).T)  # (J, K, N)
    product_budget = np.where(plant_open.T, instance._product_budget[:, None], 0.0)  # (K, N)
    for product in range(p):
        for dc in range(j):
            share = _allocate_rows(dc_demand[:, product, dc], weights[dc], product_budget)
            product_flow[:, product, :, dc] = share.T
            product_budget = product_budget - share

    raw_flow = np.zeros((n, s, k))
    weights = np.ascontiguousarray(g[:, layout.supplier_weights].reshape(n, s, k).T)  # (K, S, N)
    supplier_budget = np.repeat(instance.supplier_capacity[:, None], n, axis=1)  # (S, N)
    production = product_flow.sum(axis=(1, 3))  # (N, K)
    for plant in range(k):
        share = _allocate_rows(instance.utilization * production[:, plant], weights[plant], supplier_budget)
        raw_flow[:, :, plant] = share.T
        supplier_budget = supplier_budget - share

    row_sums = _sum_last(timing_weights)[:, :, None]
    period_share = np.where(
        row_sums > 0.0,
        timing_weights / np.where(row_sums > 0.0, row_sums, 1.0),
        1.0 / t,
    )
    dc_inflow_total = product_flow.sum(axis=2)  # (N, P, J)
    inflow = dc_inflow_total[:, :, :, None] * period_share[:, None, :, :]
    on_hand, backlog = _schedule_recursion(inflow, assigned_demand)

    network = DecodedNetwork(
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
    return network, (dc_inflow_total, dc_demand, production)


def _row_sums(values: np.ndarray) -> np.ndarray:
    """Sum of each row's cells, in the order ``.sum()`` takes over one row."""
    return values.reshape(values.shape[0], math.prod(values.shape[1:])).sum(axis=1)  # also for 0 rows


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
    fixed = _sum_last(instance.plant_fixed_cost * network.plant_open) + _sum_last(
        instance.dc_fixed_cost * network.dc_open
    )
    raw = _row_sums(instance._raw_unit_cost * network.raw_flow)
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


def _excess_rows(
    network: DecodedNetwork,
    instance: Instance,
    dc_in: np.ndarray,
    dc_out: np.ndarray,
    production: np.ndarray,
) -> np.ndarray:
    """``(N, 4)`` excess of dc_holding_capacity, backorder_limit,
    dc_flow_balance and plant_raw_balance for every row of a row-stacked network,
    given its flow totals as :func:`_decode_rows` returns them.

    supplier_capacity, plant_capacity and single_assignment are zero on every
    decoded network: allocation is capped at the supplier and plant budgets,
    and each retailer goes to its argmax DC, a one-hot assignment
    (tests/test_decode_properties.py::test_unscored_families_are_zero).
    Dropping exact zeros from the family sum leaves the total's bits unchanged.
    """
    raw_in = network.raw_flow.sum(axis=1)
    return np.stack(
        [
            _row_sums(np.maximum(network.on_hand - instance.dc_capacity[None, :, None], 0.0)),
            _row_sums(np.maximum(network.backlog - instance.backorder_limit, 0.0)),
            _row_sums(np.maximum(dc_out - dc_in, 0.0)),
            _sum_last(np.maximum(instance.utilization * production - raw_in, 0.0)),
        ],
        axis=1,
    )


def _scored(excess: np.ndarray, scales: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``excess`` with entries below float-repair resolution set to zero, and
    its sum over the last axis in units of ``scales``: the violation total."""
    excess = np.where(excess > _EXCESS_RTOL * scales, excess, 0.0)
    return excess, _sum_last(excess / scales)


def evaluate_batch(
    genotypes: np.ndarray,
    instance: Instance,
    holding_on_backorder: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Score every row of an ``(N, L)`` genotype matrix at once.

    Returns ``(objectives (N, 2), violations (N,))``; row ``n`` equals
    ``evaluate(genotypes[n], instance, holding_on_backorder)`` bit for bit.
    All rows are decoded in one pass; the working set grows linearly with N
    (about 3.4 KiB per row on sbc-scale: a ``tracemalloc`` peak of 4.33 MiB
    at 1290 rows).  An empty ``(0, L)`` matrix gives ``(0, 2)`` and ``(0,)``.
    """
    network, flow_totals = _decode_rows(np.asarray(genotypes, dtype=float), instance)
    excess = _excess_rows(network, instance, *flow_totals)
    violations = _scored(excess, instance._scales[_ROW_FAMILIES])[1]
    return _objective_rows(network, instance, holding_on_backorder), violations


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
