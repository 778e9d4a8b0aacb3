"""Exact cost optimum of the one-product presets, written to ``optimum_designs.json``.

With one product, timing each DC's inbound shipments to the demand of the
retailers it serves leaves no stock and no backlog, so holding cost and delay
are 0 whatever the design.  The cheapest design is then the optimum of a
small mixed-integer program:

- binaries for open plants and DCs, and for the retailer->DC assignment (one
  DC per retailer, open DCs only);
- continuous supplier->plant and plant->DC flows;
- raw flow into each plant equal to ``utilization`` times its production;
- supplier capacity, and production within ``plant_capacity / utilization``
  times the plant's open bit;
- product into each DC equal to its assigned horizon demand;
- as objective, the model's fixed, raw-material and transport costs.

The script solves it with ``scipy.optimize.milp`` for ``desk`` and
``sbc-scale`` at instance seed 0, and records the solver status, the optimum,
the LP relaxation's bound, the open facilities, each retailer's DC and the
flows.  ``tests/test_optimum.py`` checks the recorded designs with the model
alone.  scipy is not a dependency: where it does not import, the script says
so and exits.  Run it by hand::

    PYTHONPATH=src python tests/optimum.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from scnopt import generate_preset

RECORD_PATH = Path(__file__).with_name("optimum_designs.json")
PRESETS = ("desk", "sbc-scale")
INSTANCE_SEED = 0


def program(instance):
    """The program as ``(cost, rows, lower, upper, integrality, bounds,
    split)``: minimize ``cost @ x`` subject to ``lower <= rows @ x <= upper``
    and ``0 <= x <= bounds``, over ``x = [plant_open (K), dc_open (J),
    assignment (J, I), raw_flow (S, K), product_flow (K, J)]``, each block
    flattened row-major, the first three integer; ``split`` cuts ``x`` into
    those blocks."""
    s, k, j, i, _, _ = instance.dimensions
    demand = instance.demand.sum(axis=(1, 2))  # (I,) horizon demand, all products
    sizes = [k, j, j * i, s * k, k * j]
    split = np.cumsum(sizes)[:-1]
    n = sum(sizes)
    plant, dc, assign, raw, product = (np.arange(n)[a:b] for a, b in zip([0, *split], [*split, n]))
    assign, raw, product = assign.reshape(j, i), raw.reshape(s, k), product.reshape(k, j)

    c = np.zeros(n)
    c[plant] = instance.plant_fixed_cost
    c[dc] = instance.dc_fixed_cost
    c[assign] = instance.product_transport_dc_retailer * demand[None, :]
    c[raw] = instance.raw_material_unit_cost[:, None] + instance.raw_transport_cost
    c[product] = instance.product_transport_plant_dc

    rows, lower, upper = [], [], []

    def constrain(coefficients, lo, hi):
        row = np.zeros(n)
        for index, value in coefficients:
            row[index] += value
        rows.append(row)
        lower.append(lo)
        upper.append(hi)

    for r in range(i):  # one DC per retailer
        constrain([(assign[:, r], 1.0)], 1.0, 1.0)
    for d in range(j):
        for r in range(i):  # open DCs only
            constrain([(assign[d, r], 1.0), (dc[d], -1.0)], -np.inf, 0.0)
        # product into each DC equals its assigned horizon demand
        constrain([(product[:, d], 1.0), (assign[d], -demand)], 0.0, 0.0)
    for p in range(k):
        # raw flow into each plant is utilization times its production
        constrain([(raw[:, p], 1.0), (product[p], -instance.utilization)], 0.0, 0.0)
        # production within the plant's capacity in product units, when open
        constrain([(product[p], 1.0), (plant[p], -instance.plant_capacity[p] / instance.utilization)], -np.inf, 0.0)
    for q in range(s):
        constrain([(raw[q], 1.0)], -np.inf, instance.supplier_capacity[q])

    integrality = np.zeros(n)
    integrality[: k + j + j * i] = 1
    upper_bounds = np.full(n, np.inf)
    upper_bounds[: k + j + j * i] = 1.0
    return c, np.array(rows), np.array(lower), np.array(upper), integrality, upper_bounds, split


def solve(instance, optimize) -> dict:
    """The optimal design of ``instance``, solved with the module
    ``scipy.optimize``, and the bound of its LP relaxation, as plain lists and
    floats."""
    c, a, lower, upper, integrality, upper_bounds, split = program(instance)
    constraints = optimize.LinearConstraint(a, lower, upper)
    bounds = optimize.Bounds(np.zeros(len(c)), upper_bounds)
    exact = optimize.milp(c, constraints=constraints, integrality=integrality, bounds=bounds)
    relaxed = optimize.milp(c, constraints=constraints, bounds=bounds)
    if not (exact.success and relaxed.success):
        raise RuntimeError(f"solver failed: {exact.message} / {relaxed.message}")
    plant_open, dc_open, assignment, raw_flow, product_flow = np.split(exact.x, split)
    s, k, j, i, _, _ = instance.dimensions
    assignment = assignment.reshape(j, i)
    return {
        "status": exact.message,
        "optimum": float(exact.fun),
        "lp_bound": float(relaxed.fun),
        "plant_open": [bool(v > 0.5) for v in plant_open],
        "dc_open": [bool(v > 0.5) for v in dc_open],
        "dc_of_retailer": [int(d) for d in np.argmax(assignment, axis=0)],
        "raw_flow": np.maximum(raw_flow, 0.0).reshape(s, k).tolist(),
        "product_flow": np.maximum(product_flow, 0.0).reshape(k, j).tolist(),
    }


def main() -> int:
    try:
        from scipy import optimize
    except ImportError:
        print("scipy is not installed; the optimum record is left as it is", file=sys.stderr)
        return 1
    record = {"instance_seed": INSTANCE_SEED, "designs": {}}
    for name in PRESETS:
        instance = generate_preset(name, seed=INSTANCE_SEED)
        if instance.n_products != 1:
            raise ValueError(f"{name} has {instance.n_products} products; the program covers one")
        record["designs"][name] = design = solve(instance, optimize)
        print(f"{name}: optimum {design['optimum']:.1f}, LP bound {design['lp_bound']:.1f} ({design['status']})")
    RECORD_PATH.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
