"""Decoder guarantees as properties over random instances and edge-case genotypes.

Decoding caps every allocation at the plant and supplier budgets and assigns
each retailer to one DC, so three constraint families can never fire on a
decoded network and the batch evaluator does not score them.  These tests
prove that, check that the batch decoder's rows and the one-genotype views
equal the reference decoder in ``oracles.py`` bit for bit, check that
``check_constraints`` equals the reference constraint scorer on decoded and
hand-edited networks, and check mass balance at each echelon and the cost's
sum of terms.

The reference decoder keeps an old underflow: weights near the smallest
subnormal double lose their precision in proportional allocation.  So the
exact comparison draws normal genes only, and a separate property checks
that the batch decoder balances its flows on subnormal genes as well.
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
    eval_delay,
    eval_total_cost,
    evaluate,
    evaluate_batch,
    generate_instance,
)
from scnopt.model import _allocate_rows, _decode_rows, _network_row

from oracles import (
    reference_allocate_with_caps,
    reference_check_constraints,
    reference_decode,
    reference_eval_delay,
    reference_eval_total_cost,
    reference_evaluate_genotype,
)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

UNSCORED = [
    CONSTRAINT_FAMILIES.index(name)
    for name in ("supplier_capacity", "plant_capacity", "single_assignment")
]

SEGMENTS = ("plant_keys", "dc_keys", "supplier_weights", "plant_dc_weights", "assignment_keys", "timing_weights")

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


# The smallest subnormal double; integer multiples of it are exact subnormals.
SMALLEST_SUBNORMAL = np.nextafter(0.0, 1.0)


@st.composite
def cases(draw, subnormal=False):
    """An instance, some of its genotypes (edge rows included) and a holding mode.

    The instance comes from the generator, or has its plant or supplier
    capacity cut in memory, below what ``load_instance`` would accept.  With
    ``subnormal``, one more row has whole segments of subnormal genes.
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
    genes = st.floats(0.0, 1.0, allow_subnormal=False)
    rows.append(draw(arrays(np.float64, layout.length, elements=genes)))
    if subnormal:
        row = rng.random(layout.length)
        for segment in draw(st.sets(st.sampled_from(SEGMENTS), min_size=1)):
            part = getattr(layout, segment)
            row[part] = rng.integers(0, 2**20, part.stop - part.start) * SMALLEST_SUBNORMAL
        rows.append(row)
    for row in rows:
        for edit in draw(st.sets(st.sampled_from(sorted(EDITS)))):
            segment, factor, offset = EDITS[edit]
            part = getattr(layout, segment)
            row[part] = factor * row[part] + offset
    return instance, np.array(rows), draw(st.booleans())


def decoded_rows(instance, genotypes):
    """The batch decoder's network for every genotype row."""
    stacked = _decode_rows(genotypes, instance)
    for n in range(len(genotypes)):
        yield _network_row(stacked, n)


def assert_same_network(a, b):
    for f in fields(DecodedNetwork):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


@PROPERTY
@given(cases())
def test_unscored_families_are_zero(case):
    instance, genotypes, holding_on_backorder = case
    for g, row in zip(genotypes, decoded_rows(instance, genotypes)):
        reference = reference_decode(g, instance)
        excess, _ = check_constraints(row, instance)
        assert [excess[f] for f in UNSCORED] == [0.0, 0.0, 0.0]
        assert_same_network(row, reference)
        assert_same_network(decode(g, instance), reference)
        assert eval_total_cost(row, instance, holding_on_backorder) == reference_eval_total_cost(
            reference, instance, holding_on_backorder
        )
        assert eval_delay(row) == reference_eval_delay(reference)

    objectives, violations = evaluate_batch(genotypes, instance, holding_on_backorder)
    for n, g in enumerate(genotypes):
        expected_objectives, expected_violation = reference_evaluate_genotype(g, instance, holding_on_backorder)
        assert np.array_equal(objectives[n], expected_objectives)
        assert violations[n] == expected_violation
        one_objectives, one_violation = evaluate(g, instance, holding_on_backorder)
        assert np.array_equal(one_objectives, expected_objectives) and one_violation == expected_violation


@PROPERTY
@given(
    st.floats(-1.0, 300.0, allow_subnormal=False),
    st.lists(st.tuples(st.floats(0.0, 1.0, allow_subnormal=False), st.floats(0.0, 100.0, allow_subnormal=False)),
             min_size=1, max_size=6),
)
def test_allocation_matches_reference(total, bins):
    weights, caps = np.array(bins).T
    allocation = _allocate_rows(np.array([total]), weights[None], caps[None])[0]
    expected, _ = reference_allocate_with_caps(total, weights, caps)
    assert np.array_equal(allocation, expected)


# Hand edits of a decoded network that break the constraint families decoding
# keeps clean, and raise the ones it can break.
NETWORK_EDITS = (
    "raise stock", "raise backlog", "scale product flows", "add raw flow", "split or empty assignment"
)


def edit_network(network, instance, edits, rng, factor):
    def raised(values, top):
        return values + top * rng.random(values.shape)

    if "raise stock" in edits:
        network = replace(network, on_hand=raised(network.on_hand, 2 * instance.dc_capacity.max()))
    if "raise backlog" in edits:
        network = replace(network, backlog=raised(network.backlog, 2 * instance.backorder_limit.max()))
    if "scale product flows" in edits:
        network = replace(network, product_flow=factor * network.product_flow)
    if "add raw flow" in edits:
        network = replace(network, raw_flow=raised(network.raw_flow, instance.supplier_capacity.max()))
    if "split or empty assignment" in edits:
        assignment = network.assignment.copy()
        # one retailer goes to a random subset of DCs: several, one, or none
        assignment[:, rng.integers(instance.n_retailers)] = rng.random(instance.n_dcs) < 0.5
        network = replace(network, assignment=assignment)
    return network


@PROPERTY
@given(cases(), st.sets(st.sampled_from(NETWORK_EDITS)), st.floats(0.0, 3.0), st.integers(0, 2**32 - 1))
def test_constraint_scores_match_reference(case, edits, factor, seed):
    # check_constraints takes four families from the batch scorer and scores
    # three itself; all seven must equal the scalar reference exactly, on
    # decoded rows and on hand-edited networks that break any family.
    instance, genotypes, _ = case
    rng = np.random.default_rng(seed)
    for row in decoded_rows(instance, genotypes):
        for network in (row, edit_network(row, instance, edits, rng, factor)):
            excess, total = check_constraints(network, instance)
            expected_excess, expected_total = reference_check_constraints(network, instance)
            assert np.array_equal(excess, expected_excess)
            assert total == expected_total


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
    for n, row in enumerate(decoded_rows(instance, genotypes)):
        assert_balanced(row, instance, holding_on_backorder)
        assert objectives[n, 0] == pytest.approx(
            sum(cost_terms(row, instance, holding_on_backorder)), rel=1e-9
        )


@PROPERTY
@given(cases(subnormal=True))
def test_flows_balance_with_subnormal_genes(case):
    # Weights of a few subnormal units split a DC's demand over plants, and a
    # plant's raw material over suppliers, as exactly as normal weights do:
    # each DC's inflow equals its assigned demand whenever the open plants
    # can carry it.
    instance, genotypes, holding_on_backorder = case
    for row in decoded_rows(instance, genotypes):
        assert_balanced(row, instance, holding_on_backorder)
