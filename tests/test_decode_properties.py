"""Decoder guarantees as properties over random instances and edge-case genotypes.

Decoding caps every allocation at the plant and supplier budgets and assigns
each retailer to one DC, so three constraint families can never fire on a
decoded network and the batch evaluator does not score them.  These tests
prove that, and check mass balance at each echelon and the cost's sum of
terms, on the scalar decoder and on the batch decoder's rows alike.
"""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from scnopt import (
    CONSTRAINT_FAMILIES,
    DecodedNetwork,
    GeneratorParams,
    GenotypeLayout,
    check_constraints,
    decode,
    eval_total_cost,
    evaluate,
    evaluate_batch,
    generate_instance,
)
from scnopt.model import _decode_rows

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

UNSCORED = [
    CONSTRAINT_FAMILIES.index(name)
    for name in ("supplier_capacity", "plant_capacity", "single_assignment")
]

# Edge-case edits of one genotype row: (segment, factor, offset) sets the
# segment to factor * segment + offset.
EDITS = {
    "plant keys below 0.5": ("plant_keys", 0.49, 0.0),
    "DC keys below 0.5": ("dc_keys", 0.49, 0.0),
    "plant keys tied": ("plant_keys", 0.0, 0.3),
    "DC keys tied": ("dc_keys", 0.0, 0.3),
    "supplier weights zero": ("supplier_weights", 0.0, 0.0),
    "plant->DC weights zero": ("plant_dc_weights", 0.0, 0.0),
    "timing weights zero": ("timing_weights", 0.0, 0.0),
    "supplier weights tied": ("supplier_weights", 0.0, 0.5),
    "plant->DC weights tied": ("plant_dc_weights", 0.0, 0.5),
    "assignment keys tied": ("assignment_keys", 0.0, 0.5),
}


@st.composite
def cases(draw):
    """An instance, some of its genotypes (edge rows included) and a holding mode.

    The instance comes from the generator, or has its plant or supplier
    capacity cut in memory, below what ``load_instance`` would accept.
    """
    instance = generate_instance(
        GeneratorParams(
            n_suppliers=draw(st.integers(1, 4)),
            n_plants=draw(st.integers(1, 4)),
            n_dcs=draw(st.integers(1, 4)),
            n_retailers=draw(st.integers(1, 4)),
            n_products=draw(st.integers(1, 3)),
            n_periods=draw(st.integers(2, 7)),
            utilization=draw(st.floats(0.5, 3.0)),
            capacity_slack=draw(st.floats(1.0, 1.5)),
            seed=draw(st.integers(0, 2**16)),
        )
    )
    cut = draw(st.sampled_from([None, "plant_capacity", "supplier_capacity"]))
    if cut is not None:
        instance = replace(instance, **{cut: draw(st.floats(0.3, 1.0)) * getattr(instance, cut)})
    layout = GenotypeLayout.for_instance(instance)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = [rng.random(layout.length) for _ in range(draw(st.integers(1, 4)))]
    # Genes from hypothesis: exact 0, 0.5 and 1, long runs of one value.
    # Subnormal genes are left out: no genotype the engine makes has one, and
    # proportional allocation by a subnormal weight loses its precision.
    genes = st.floats(0.0, 1.0, allow_subnormal=False)
    rows.append(draw(arrays(np.float64, layout.length, elements=genes)))
    for row in rows:
        for edit in draw(st.sets(st.sampled_from(sorted(EDITS)))):
            segment, factor, offset = EDITS[edit]
            part = getattr(layout, segment)
            row[part] = factor * row[part] + offset
    return instance, np.array(rows), draw(st.booleans())


def decoded_pairs(instance, genotypes):
    """``(scalar decode, batch decoder row)`` for every genotype row."""
    retailer_demand = instance.demand.sum(axis=2).T.copy()
    stacked = _decode_rows(genotypes, instance, GenotypeLayout.for_instance(instance), retailer_demand)
    for n, g in enumerate(genotypes):
        row = DecodedNetwork(**{f.name: getattr(stacked, f.name)[n] for f in fields(DecodedNetwork)})
        yield decode(g, instance), row


@PROPERTY
@given(cases())
def test_unscored_families_are_zero(case):
    instance, genotypes, holding_on_backorder = case
    for scalar, row in decoded_pairs(instance, genotypes):
        for network in (scalar, row):
            excess, _ = check_constraints(network, instance)
            assert [excess[f] for f in UNSCORED] == [0.0, 0.0, 0.0]
        for f in fields(DecodedNetwork):
            assert np.array_equal(getattr(scalar, f.name), getattr(row, f.name)), f.name

    objectives, violations = evaluate_batch(genotypes, instance, holding_on_backorder)
    for n, g in enumerate(genotypes):
        expected_objectives, expected_violation = evaluate(g, instance, holding_on_backorder)
        assert np.array_equal(objectives[n], expected_objectives)
        assert violations[n] == expected_violation


def cost_terms(network, instance, holding_on_backorder):
    """The five terms of the total cost, each written out once more."""
    held = network.backlog if holding_on_backorder else network.on_hand
    unit_raw_cost = instance.raw_material_unit_cost[:, None] + instance.raw_transport_cost
    return (
        instance.plant_fixed_cost @ network.plant_open + instance.dc_fixed_cost @ network.dc_open,
        np.einsum("sk,sk->", unit_raw_cost, network.raw_flow),
        np.einsum("kj,pkj->", instance.product_transport_plant_dc, network.product_flow),
        np.einsum("j,pjt->", instance.holding_cost, held),
        np.einsum("ji,pji->", instance.product_transport_dc_retailer, network.retail_flow),
    )


def assert_balanced(network, instance, holding_on_backorder):
    u = instance.utilization
    # Absolute tolerances for cells that may hold tiny leftovers of allocation.
    product_tol = 1e-9 * instance.total_demand
    raw_tol = u * product_tol

    for name in ("raw_flow", "product_flow", "retail_flow", "inflow", "on_hand", "backlog"):
        assert np.all(getattr(network, name) >= 0.0), name

    production = network.product_flow.sum(axis=(0, 2))  # plant output (K,)
    dc_in = network.product_flow.sum(axis=1)  # (P, J)
    dc_out = network.retail_flow.sum(axis=2)  # (P, J)
    assert production.sum() == pytest.approx(dc_in.sum(), rel=1e-9, abs=product_tol)

    assert np.all(dc_in <= dc_out + product_tol)
    open_budget = (instance.plant_capacity[network.plant_open] / u).sum()
    if open_budget >= instance.total_demand:
        np.testing.assert_allclose(dc_in, dc_out, rtol=1e-9, atol=product_tol)

    if not instance.invariant_problems():
        np.testing.assert_allclose(network.raw_flow.sum(axis=0), u * production, rtol=1e-9, atol=raw_tol)

    np.testing.assert_allclose(network.inflow.sum(axis=2), dc_in, rtol=1e-9, atol=product_tol)

    total_cost = eval_total_cost(network, instance, holding_on_backorder)
    assert total_cost == pytest.approx(sum(cost_terms(network, instance, holding_on_backorder)), rel=1e-9)


@PROPERTY
@given(cases())
def test_flows_balance_and_cost_adds_up(case):
    instance, genotypes, holding_on_backorder = case
    objectives, _ = evaluate_batch(genotypes, instance, holding_on_backorder)
    for n, (scalar, row) in enumerate(decoded_pairs(instance, genotypes)):
        assert_balanced(scalar, instance, holding_on_backorder)
        assert_balanced(row, instance, holding_on_backorder)
        assert objectives[n, 0] == pytest.approx(
            sum(cost_terms(row, instance, holding_on_backorder)), rel=1e-9
        )
