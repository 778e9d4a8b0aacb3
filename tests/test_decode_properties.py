"""Decoder guarantees as properties over random instances and edge-case genotypes.

Decoding caps every allocation at the plant and supplier budgets and assigns
each retailer to one DC, so three constraint families can never fire on a
decoded network and the model does not score them.  These tests prove that
with the reference constraint scorer in ``oracles.py``, check that the batch
decoder's rows and the one-genotype views equal the reference decoder bit
for bit, check that each scored family's excess and the violation equal the
reference scorer's, and check mass balance at each echelon and the cost's
sum of terms.

The reference decoder keeps an old underflow: weights near the smallest
subnormal double lose their precision in proportional allocation.  So the
exact comparison draws normal genes only, and a separate property checks
that the batch decoder balances its flows on subnormal genes as well.
"""

from __future__ import annotations

import ast
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from scnopt import (
    CONSTRAINT_FAMILIES,
    DecodedNetwork,
    GeneratorParams,
    GenotypeLayout,
    decode,
    evaluate,
    evaluate_batch,
    generate_instance,
)
from scnopt.model import _EXCESS_RTOL, _allocate_rows, _decode_rows, _excess_rows

from oracles import (
    REFERENCE_FAMILIES,
    reference_allocate_with_caps,
    reference_check_constraints,
    reference_decode,
    reference_evaluate_genotype,
)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# Where the reference scorer keeps the package's four families, and the other three.
SCORED = [REFERENCE_FAMILIES.index(name) for name in CONSTRAINT_FAMILIES]
UNSCORED = [
    REFERENCE_FAMILIES.index(name)
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
    stacked, _ = _decode_rows(genotypes, instance)
    for n in range(len(genotypes)):
        yield DecodedNetwork(**{f.name: getattr(stacked, f.name)[n] for f in fields(DecodedNetwork)})


def assert_same_network(a, b):
    for f in fields(DecodedNetwork):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


@PROPERTY
@given(cases())
def test_unscored_families_are_zero(case):
    instance, genotypes, holding_on_backorder = case
    for g, row in zip(genotypes, decoded_rows(instance, genotypes)):
        reference = reference_decode(g, instance)
        excess, _ = reference_check_constraints(row, instance)
        assert [excess[f] for f in UNSCORED] == [0.0, 0.0, 0.0]
        assert_same_network(row, reference)
        assert_same_network(decode(g, instance), reference)

    objectives, violations = evaluate_batch(genotypes, instance, holding_on_backorder)
    for n, g in enumerate(genotypes):
        expected_objectives, expected_violation = reference_evaluate_genotype(g, instance, holding_on_backorder)
        assert np.array_equal(objectives[n], expected_objectives)
        assert violations[n] == expected_violation
        one_objectives, one_violation = evaluate(g, instance, holding_on_backorder)
        assert np.array_equal(one_objectives, expected_objectives) and one_violation == expected_violation


def assert_same_bytes(a, b):
    for f in fields(DecodedNetwork):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), f.name


@st.composite
def extreme_demand_cases(draw):
    """A small instance whose demand spans 1e-300 to 1e300, zeros and
    subnormals included, and genotypes that close some of its DCs.

    At most 24 cells of 1e300 add up in any sum, so nothing overflows.
    """
    n_dcs, n_retailers = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    n_products, n_periods = draw(st.integers(1, 2)), draw(st.integers(2, 4))
    instance = generate_instance(
        GeneratorParams(
            n_suppliers=draw(st.integers(1, 3)),
            n_plants=draw(st.integers(1, 3)),
            n_dcs=n_dcs,
            n_retailers=n_retailers,
            n_products=n_products,
            n_periods=n_periods,
            seed=draw(st.integers(0, 2**16)),
        )
    )
    cell = st.one_of(
        st.just(0.0),
        st.integers(1, 2**20).map(lambda k: k * SMALLEST_SUBNORMAL),
        st.floats(1e-300, 1e300),
    )
    demand = draw(arrays(np.float64, (n_retailers, n_products, n_periods), elements=cell))
    instance = replace(instance, demand=demand)
    layout = GenotypeLayout.for_instance(instance)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    genotypes = rng.random((draw(st.integers(1, 4)), layout.length))
    closed = draw(arrays(np.bool_, (len(genotypes), n_dcs)))
    genotypes[:, layout.dc_keys] = np.where(closed, 0.49 * genotypes[:, layout.dc_keys], genotypes[:, layout.dc_keys])
    return instance, genotypes


def order_sensitive_case():
    """Three retailers on one DC whose period-0 demand sums to 1e16 added in
    retailer order and to 1e16 + 2 added in reverse."""
    instance = generate_instance(
        GeneratorParams(n_suppliers=1, n_plants=1, n_dcs=2, n_retailers=3, n_periods=2, seed=0)
    )
    instance = replace(instance, demand=np.array([[[1e16, 0.0]], [[1.0, 0.0]], [[1.0, 0.0]]]))
    layout = GenotypeLayout.for_instance(instance)
    genotype = np.full(layout.length, 0.7)
    genotype[layout.dc_keys] = (0.9, 0.1)  # DC 1 closed: every retailer goes to DC 0
    return instance, genotype[None]


@PROPERTY
@given(extreme_demand_cases())
@example(order_sensitive_case())
def test_assigned_demand_keeps_its_bits_at_extreme_demand(case):
    # Each DC's per-period demand is a matmul of the one-hot assignment with
    # the demand; it must add the retailers in the reference's order.
    instance, genotypes = case
    for g, row in zip(genotypes, decoded_rows(instance, genotypes)):
        assert_same_bytes(row, reference_decode(g, instance))


@st.composite
def allocation_rows(draw, n_bins):
    """A capped-allocation row ``(total, weights, caps)`` of ``n_bins`` bins.

    Its weights are all normal or zero, or all exact subnormals or zero.
    Totals, weights and caps each draw -0.0 and exact 0.0 too.
    """
    def bins(elements):
        return draw(st.lists(elements, min_size=n_bins, max_size=n_bins))

    def or_zero(elements):
        return st.one_of(st.sampled_from([0.0, -0.0]), elements)

    total = draw(or_zero(st.floats(-1.0, 300.0, allow_subnormal=False)))
    if draw(st.booleans()):
        weights = bins(or_zero(st.integers(1, 2**20).map(lambda k: k * SMALLEST_SUBNORMAL)))
    else:
        weights = bins(or_zero(st.floats(0.0, 1.0, allow_subnormal=False)))
    return total, weights, bins(or_zero(st.floats(0.0, 100.0, allow_subnormal=False)))


@PROPERTY
@given(st.integers(1, 12).flatmap(lambda n_bins: st.lists(allocation_rows(n_bins), min_size=1, max_size=6)))
def test_allocation_matches_reference(rows):
    # The rows share one call but settle after different numbers of passes;
    # from 8 bins the weight sums take numpy's pairwise order.  The call takes
    # and returns bins-first (B, N) arrays, as the decoder passes them.
    totals, weights, caps = (np.array(column, dtype=float) for column in zip(*rows))
    allocation = _allocate_rows(totals, np.ascontiguousarray(weights.T), np.ascontiguousarray(caps.T)).T
    for n in range(len(rows)):
        # The decoder scales weights that sum below the smallest normal by
        # 2**1022, which is exact; the reference allocates them unscaled.
        w = weights[n] * 2.0**1022 if weights[n].sum() < np.finfo(float).tiny else weights[n]
        expected, _ = reference_allocate_with_caps(totals[n], w, caps[n])
        assert np.array_equal(allocation[n], expected)


@PROPERTY
@given(cases())
def test_constraint_scores_match_reference(case):
    # Each scored family's excess, below float-repair resolution set to zero,
    # and the violation equal the scalar reference's exactly on every row.
    instance, genotypes, holding_on_backorder = case
    network, flow_totals = _decode_rows(genotypes, instance)
    excess = _excess_rows(network, instance, *flow_totals)
    excess = np.where(excess > _EXCESS_RTOL * instance._scales, excess, 0.0)
    _, violations = evaluate_batch(genotypes, instance, holding_on_backorder)
    for n, row in enumerate(decoded_rows(instance, genotypes)):
        expected_excess, expected_total = reference_check_constraints(row, instance)
        assert np.array_equal(excess[n], expected_excess[SCORED])
        assert violations[n] == expected_total


def test_oracles_import_no_private_callable_from_the_package():
    # the reference scorer states its own scales and formulas; a private
    # helper shared with the package would hide a fault in both at once
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    private = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[0] == "scnopt" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "scnopt":
            private |= {(node.module, alias.name) for alias in node.names if alias.name.startswith("_")}
    assert private == {("scnopt.model", "_EXCESS_RTOL")}
    assert type(_EXCESS_RTOL) is float


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


def assert_balanced(network, instance, total_cost, holding_on_backorder):
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

    assert total_cost == pytest.approx(sum(cost_terms(network, instance, holding_on_backorder)), rel=1e-9)


@PROPERTY
@given(cases())
def test_flows_balance_and_cost_adds_up(case):
    instance, genotypes, holding_on_backorder = case
    objectives, _ = evaluate_batch(genotypes, instance, holding_on_backorder)
    for n, row in enumerate(decoded_rows(instance, genotypes)):
        assert_balanced(row, instance, objectives[n, 0], holding_on_backorder)


@PROPERTY
@given(cases(subnormal=True))
def test_flows_balance_with_subnormal_genes(case):
    # Weights of a few subnormal units split a DC's demand over plants, and a
    # plant's raw material over suppliers, as exactly as normal weights do:
    # each DC's inflow equals its assigned demand whenever the open plants
    # can carry it.
    instance, genotypes, holding_on_backorder = case
    objectives, _ = evaluate_batch(genotypes, instance, holding_on_backorder)
    for n, row in enumerate(decoded_rows(instance, genotypes)):
        assert_balanced(row, instance, objectives[n, 0], holding_on_backorder)
