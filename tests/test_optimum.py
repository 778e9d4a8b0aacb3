"""The recorded cost optima of the one-product presets, checked by the model alone.

``optimum_designs.json`` holds, for ``desk`` and ``sbc-scale`` at instance
seed 0, the optimal design of the program in ``tests/optimum.py`` (solved by
hand with scipy, which the tests do not need).  Each design is encoded as a
genotype: facility and assignment keys of 1 or 0, flow weights equal to the
flows scaled by one power of two into [0, 1] (exact, so each allocation splits
as it would on the flows), and each DC's timing weights its assigned
per-period demand over that demand's maximum.  The model must find it feasible, at the recorded cost, with
no delay: the design costs what the solver says, so the optimum is an
attainable cost and the LP bound lies below it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from scnopt import GenotypeLayout, evaluate_batch, generate_preset

RECORD = json.loads(Path(__file__).with_name("optimum_designs.json").read_text())


def encoded(design, instance):
    """The genotype of a recorded design, its timing matched to demand."""
    layout = GenotypeLayout.for_instance(instance)
    _, _, j, i, _, _ = instance.dimensions
    assignment = np.zeros((j, i))
    assignment[design["dc_of_retailer"], np.arange(i)] = 1.0
    demand = np.einsum("ji,ipt->jt", assignment, instance.demand)  # each DC's assigned per-period demand
    peak = demand.max(axis=1, keepdims=True)
    g = np.zeros(layout.length)
    g[layout.plant_keys] = design["plant_open"]
    g[layout.dc_keys] = design["dc_open"]
    flows = np.concatenate([np.ravel(design["raw_flow"]), np.ravel(design["product_flow"])])
    scale = 2.0 ** -np.ceil(np.log2(flows.max()))
    g[layout.supplier_weights] = scale * np.ravel(design["raw_flow"])
    g[layout.plant_dc_weights] = scale * np.ravel(design["product_flow"])
    g[layout.assignment_keys] = assignment.ravel()
    g[layout.timing_weights] = np.divide(demand, peak, out=np.zeros_like(demand), where=peak > 0.0).ravel()
    return g


@pytest.mark.parametrize("name", ["desk", "sbc-scale"])
def test_recorded_optimum_is_feasible_at_its_cost_with_no_delay(name):
    design = RECORD["designs"][name]
    instance = generate_preset(name, seed=RECORD["instance_seed"])
    objectives, violations = evaluate_batch(encoded(design, instance)[None], instance)
    (cost, delay), violation = objectives[0], violations[0]
    assert violation == 0.0
    assert cost == pytest.approx(design["optimum"], rel=1e-9, abs=0.0)
    assert delay <= 1e-9 * instance.total_demand
    assert design["lp_bound"] <= design["optimum"]
    assert "Optimal" in design["status"]
