"""Instance persistence, seeded instance generation, and front export.

Instances are stored as a single JSON document with explicit dimensions and
dense nested arrays, one per entry of :data:`scnopt.model.ARRAY_SHAPES` in
its order.  Loading validates shapes and every instance invariant up front
and reports all problems at once.  The generator is fully deterministic for a
given parameter set: the same seed always yields a byte-identical file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .model import ARRAY_SHAPES, Instance, _decode_rows, _row_sums
from .nsga2 import ParetoArchive

__all__ = [
    "ValidationError",
    "GeneratorParams",
    "PRESETS",
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "load_instance",
    "save_instance",
    "tiny_instance",
    "generate_instance",
    "generate_preset",
    "front_rows",
    "save_front",
    "FRONT_CSV_HEADER",
]

FORMAT_NAME = "scn-instance"
FORMAT_VERSION = 1
FRONT_CSV_HEADER = "total_cost,f2_raw,mean_delay_days"

_DIMENSION_KEYS = ("suppliers", "plants", "dcs", "retailers", "products", "periods")


class ValidationError(ValueError):
    """Instance content failed validation; ``problems`` lists every issue."""

    def __init__(self, message: str, problems: list[str] | None = None) -> None:
        self.problems = problems or []
        if self.problems:
            message = message + ":\n  - " + "\n  - ".join(self.problems)
        super().__init__(message)


def load_instance(path: str | Path) -> Instance:
    """Load and validate an instance JSON file.

    Raises :class:`ValidationError` with parse context on malformed JSON and
    with the full list of violated invariants on bad content.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ValidationError(f"cannot read instance file {path}: {err}") from err
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValidationError(
            f"instance file {path} is not valid JSON "
            f"(line {err.lineno}, column {err.colno}: {err.msg})"
        ) from err
    except RecursionError as err:
        raise ValidationError(f"instance file {path} nests JSON too deeply to parse") from err
    if not isinstance(raw, dict):
        raise ValidationError(f"instance file {path} must hold a JSON object")
    if raw.get("format") != FORMAT_NAME:
        raise ValidationError(
            f"instance file {path}: unknown format {raw.get('format')!r}, expected {FORMAT_NAME!r}"
        )
    # true == 1 and 1.0 == 1 in Python, so accept only the JSON integer.
    version = raw.get("version")
    if isinstance(version, bool) or not isinstance(version, int) or version != FORMAT_VERSION:
        raise ValidationError(f"instance file {path}: unsupported version {version!r}")

    missing = [k for k in ("dimensions", "utilization", *ARRAY_SHAPES) if k not in raw]
    if missing:
        raise ValidationError(f"instance file {path} is missing fields", missing)
    dims = raw["dimensions"]
    if not isinstance(dims, dict):
        raise ValidationError(f"instance file {path}: dimensions must be a JSON object, got {dims!r}")
    missing_dims = [k for k in _DIMENSION_KEYS if k not in dims]
    if missing_dims:
        raise ValidationError(f"instance file {path} is missing dimensions", missing_dims)
    # int() would truncate 7.9 to 7 (and bool is an int), so accept only JSON integers.
    non_integer = [
        f"{k}: {dims[k]!r}"
        for k in _DIMENSION_KEYS
        if isinstance(dims[k], bool) or not isinstance(dims[k], int)
    ]
    if non_integer:
        raise ValidationError(f"instance file {path} has non-integer dimensions", non_integer)
    # float() would read true as 1.0 and "2" as 2.0, so accept only JSON numbers.
    utilization = raw["utilization"]
    if isinstance(utilization, bool) or not isinstance(utilization, (int, float)):
        raise ValidationError(
            f"instance file {path}: utilization must be a JSON number, got {utilization!r}"
        )

    # str() would write any JSON value as text, so accept only JSON strings.
    metadata = {key: raw[key] for key in ("currency", "time_unit") if key in raw}
    non_strings = [f"{key}: {value!r}" for key, value in metadata.items() if not isinstance(value, str)]
    if non_strings:
        raise ValidationError(f"instance file {path} has metadata that is not a JSON string", non_strings)

    # np.asarray(..., dtype=float) would do the same to array entries.
    non_numbers = []
    for name in ARRAY_SHAPES:
        entries = _non_numbers(raw[name])
        if entries:
            non_numbers.append(f"{name}: {entries[0]!r}")
    if non_numbers:
        raise ValidationError(f"instance file {path} has array entries that are not JSON numbers", non_numbers)

    try:
        instance = Instance(
            n_suppliers=dims["suppliers"],
            n_plants=dims["plants"],
            n_dcs=dims["dcs"],
            n_retailers=dims["retailers"],
            n_products=dims["products"],
            n_periods=dims["periods"],
            utilization=utilization,
            **metadata,
            **{name: np.asarray(raw[name], dtype=float) for name in ARRAY_SHAPES},
        )
    except (TypeError, ValueError, OverflowError) as err:
        raise ValidationError(f"instance file {path} has malformed content: {err}") from err

    problems = instance.invariant_problems()
    if problems:
        raise ValidationError(f"instance file {path} violates invariants", problems)
    return instance


def _non_numbers(value) -> list:
    """Entries of a nested JSON array that are not numbers, in document order.

    A stack instead of recursion: a parsed array can nest deeper than Python's call depth."""
    found, stack = [], [value]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(reversed(item))
        elif isinstance(item, bool) or not isinstance(item, (int, float)):
            found.append(item)
    return found


def save_instance(instance: Instance, path: str | Path) -> Path:
    """Write an instance as canonical JSON; loading it back is an identity."""
    path = Path(path)
    payload = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "currency": instance.currency,
        "time_unit": instance.time_unit,
        "dimensions": dict(zip(_DIMENSION_KEYS, instance.dimensions)),
        "utilization": instance.utilization,
        **{name: getattr(instance, name).tolist() for name in ARRAY_SHAPES},
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


@dataclass(frozen=True)
class GeneratorParams:
    """Knobs for the random instance generator.

    ``capacity_slack`` >= 1 scales every echelon's total capacity relative to
    total demand (in raw-material-equivalent units upstream), so generated
    instances always pass the demand/capacity precheck; at exactly 1.0 the DC
    capacities sum to total demand up to rounding.  ``cost_scale`` sets the order of
    magnitude of per-unit costs, ``demand_scale`` the per-cell mean demand.
    """

    n_suppliers: int
    n_plants: int
    n_dcs: int
    n_retailers: int
    n_periods: int
    n_products: int = 1
    demand_scale: float = 40.0
    cost_scale: float = 25.0
    utilization: float = 1.0
    capacity_slack: float = 1.3
    seed: int = 0

    def __post_init__(self) -> None:
        dims = (
            self.n_suppliers,
            self.n_plants,
            self.n_dcs,
            self.n_retailers,
            self.n_periods,
            self.n_products,
        )
        if min(dims) < 1:
            raise ValueError("all dimensions must be >= 1")
        if self.capacity_slack < 1.0:
            raise ValueError("capacity_slack must be >= 1")
        if self.demand_scale <= 0 or self.cost_scale <= 0 or self.utilization <= 0:
            raise ValueError("demand_scale, cost_scale, and utilization must be positive")


PRESETS: dict[str, GeneratorParams] = {
    # Small desk-sized network: enough structure for a visibly traded-off front.
    "desk": GeneratorParams(
        n_suppliers=3,
        n_plants=2,
        n_dcs=3,
        n_retailers=8,
        n_periods=7,
        demand_scale=40.0,
        cost_scale=25.0,
        capacity_slack=1.3,
    ),
    # Calibrated so feasible total costs land in the 1e7-1e8 range
    # (weekly costs in the tens of millions of shillings).
    "sbc-scale": GeneratorParams(
        n_suppliers=4,
        n_plants=3,
        n_dcs=5,
        n_retailers=25,
        n_periods=7,
        demand_scale=90.0,
        cost_scale=2400.0,
        capacity_slack=1.4,
    ),
}


def tiny_instance() -> Instance:
    """The fixed 1-supplier/1-plant/1-DC/1-retailer two-period fixture.

    Hand-checkable by construction: opening everything and shipping the 10
    demanded units just in time costs 100 + 50 + 3*10 + 3*10 + 0 + 1*10 = 220
    with zero delay.  Holding cost is zero, so total cost is independent of
    timing and only the delay objective moves with the schedule.
    """
    return Instance(
        n_suppliers=1,
        n_plants=1,
        n_dcs=1,
        n_retailers=1,
        n_products=1,
        n_periods=2,
        supplier_capacity=np.array([20.0]),
        plant_capacity=np.array([20.0]),
        dc_capacity=np.array([10.0]),
        demand=np.array([[[5.0, 5.0]]]),
        plant_fixed_cost=np.array([100.0]),
        dc_fixed_cost=np.array([50.0]),
        raw_material_unit_cost=np.array([2.0]),
        raw_transport_cost=np.array([[1.0]]),
        product_transport_plant_dc=np.array([[3.0]]),
        product_transport_dc_retailer=np.array([[1.0]]),
        holding_cost=np.array([0.0]),
        utilization=1.0,
        backorder_limit=np.full((1, 1, 2), 10.0),
    )


def _balanced_shares(rng: np.random.Generator, count: int, target_total: float) -> np.ndarray:
    """Random positive shares summing to ``target_total`` exactly (last takes the residual)."""
    shares = rng.uniform(0.8, 1.2, count)
    values = target_total * shares / shares.sum()
    values[-1] = target_total - values[:-1].sum()
    return values


def generate_instance(params: GeneratorParams) -> Instance:
    """Generate a random, always-capacity-consistent instance.

    Capacity totals at every echelon are ``capacity_slack`` times the demand
    they must carry, so proportional repair during decoding can always cover
    demand and the only binding constraints are schedule-level (holding and
    backorder bounds).
    """
    rng = np.random.default_rng(params.seed)
    s, k, j, i = params.n_suppliers, params.n_plants, params.n_dcs, params.n_retailers
    p, t = params.n_products, params.n_periods
    u = params.utilization

    demand = params.demand_scale * rng.uniform(0.5, 1.5, (i, p, t))
    total_demand = float(demand.sum())

    dc_capacity = _balanced_shares(rng, j, params.capacity_slack * total_demand)
    plant_capacity = _balanced_shares(rng, k, params.capacity_slack * u * total_demand)
    supplier_capacity = _balanced_shares(rng, s, params.capacity_slack * u * total_demand)

    cost = params.cost_scale
    raw_material_unit_cost = cost * rng.uniform(0.8, 1.2, s)
    raw_transport_cost = 0.15 * cost * rng.uniform(0.5, 1.5, (s, k))
    product_transport_plant_dc = 0.3 * cost * rng.uniform(0.5, 1.5, (k, j))
    product_transport_dc_retailer = 0.4 * cost * rng.uniform(0.5, 1.5, (j, i))
    holding_cost = 0.05 * cost * rng.uniform(0.5, 1.5, j)
    plant_fixed_cost = 0.18 * cost * total_demand / k * rng.uniform(0.8, 1.2, k)
    dc_fixed_cost = 0.10 * cost * total_demand / j * rng.uniform(0.8, 1.2, j)

    mean_period_dc_demand = total_demand / (j * t)
    backorder_limit = mean_period_dc_demand * rng.uniform(0.75, 1.25, (p, j, t))

    instance = Instance(
        n_suppliers=s,
        n_plants=k,
        n_dcs=j,
        n_retailers=i,
        n_products=p,
        n_periods=t,
        supplier_capacity=supplier_capacity,
        plant_capacity=plant_capacity,
        dc_capacity=dc_capacity,
        demand=demand,
        plant_fixed_cost=plant_fixed_cost,
        dc_fixed_cost=dc_fixed_cost,
        raw_material_unit_cost=raw_material_unit_cost,
        raw_transport_cost=raw_transport_cost,
        product_transport_plant_dc=product_transport_plant_dc,
        product_transport_dc_retailer=product_transport_dc_retailer,
        holding_cost=holding_cost,
        utilization=u,
        backorder_limit=backorder_limit,
    )
    problems = instance.invariant_problems()
    if problems:  # defensive: construction above should always be consistent
        raise ValidationError("generated instance violates invariants", problems)
    return instance


def generate_preset(name: str, seed: int = 0) -> Instance:
    """Instance for a named preset: ``tiny`` (fixed fixture), ``desk``, ``sbc-scale``."""
    if name == "tiny":
        return tiny_instance()
    if name not in PRESETS:
        known = ", ".join(["tiny", *sorted(PRESETS)])
        raise ValueError(f"unknown preset {name!r} (known: {known})")
    return generate_instance(replace(PRESETS[name], seed=seed))


def front_rows(archive: ParetoArchive, instance: Instance) -> list[tuple[float, float, float]]:
    """Export-ready front rows ``(total_cost, f2_raw, mean_delay_days)``.

    Rows ascend strictly in cost and descend strictly in delay.  Because the
    CSV displays cost rounded to whole currency units, points whose costs
    collide at that resolution are collapsed to the one with the best delay,
    so the exported rows stay mutually non-dominated after rounding.
    ``mean_delay_days`` is the total backlog expressed in multiples of the
    mean per-period demand.
    """
    if len(archive) == 0:
        raise ValueError("archive is empty; nothing to export")
    mean_period_demand = instance.total_demand / instance.n_periods
    members = sorted(archive.members, key=lambda m: (float(m.objectives[0]), float(m.objectives[1])))
    backlog_totals = _row_sums(_decode_rows(np.array([m.genotype for m in members]), instance).backlog)
    rows: list[tuple[float, float, float]] = []
    for m, backlog_total in zip(members, backlog_totals.tolist()):
        days = backlog_total / mean_period_demand if mean_period_demand > 0 else 0.0
        rows.append((float(m.objectives[0]), float(m.objectives[1]), days))
    # Archive rows ascend strictly in cost and descend strictly in delay, so
    # within a rounded-cost group the last row carries the group's best delay.
    collapsed: list[tuple[float, float, float]] = []
    for row in rows:
        if collapsed and round(collapsed[-1][0]) == round(row[0]):
            collapsed[-1] = row
        else:
            collapsed.append(row)
    return collapsed


def save_front(rows: list[tuple[float, float, float]], path: str | Path) -> Path:
    """Write :func:`front_rows` output as CSV: ``total_cost,f2_raw,mean_delay_days``.

    Costs are displayed as whole currency units, delay-days with two decimals,
    and the raw delay objective at full precision; rows ascend by cost.
    """
    path = Path(path)
    lines = [FRONT_CSV_HEADER]
    for cost, delay, days in rows:
        lines.append(f"{round(cost):d},{delay!r},{days:.2f}")
    path.write_text("\n".join(lines) + "\n")
    return path
