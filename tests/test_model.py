"""Network decoding, scheduling, objectives, and constraint scoring."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from scnopt import (
    CONSTRAINT_FAMILIES,
    GeneratorParams,
    GenotypeLayout,
    check_constraints,
    decode,
    eval_delay,
    eval_total_cost,
    evaluate,
    generate_instance,
    tiny_instance,
)
from scnopt.model import _allocate_rows, _schedule_recursion

from conftest import make_duo_instance


def duo_genotype(
    plant_keys=(1.0, 1.0),
    dc_keys=(1.0, 1.0),
    supplier_weights=(1.0, 1.0),
    plant_dc_weights=(0.5, 0.5, 0.5, 0.5),
    assignment_keys=(1.0, 1.0, 1.0, 0.0, 0.0, 0.0),
    timing_weights=(0.5, 0.5, 0.5, 0.5),
):
    return np.array(
        [*plant_keys, *dc_keys, *supplier_weights, *plant_dc_weights, *assignment_keys, *timing_weights]
    )


class TestGenotypeLength:
    def test_tiny_is_seven(self):
        assert tiny_instance().genotype_length == 7

    def test_desk_is_sixty_two(self):
        desk = generate_instance(
            GeneratorParams(n_suppliers=3, n_plants=2, n_dcs=3, n_retailers=8, n_periods=7)
        )
        assert desk.genotype_length == 62

    def test_layout_slices_partition_the_genotype(self):
        instance = make_duo_instance()
        layout = GenotypeLayout.for_instance(instance)
        assert layout.length == instance.genotype_length == 20
        stops = []
        for s in (
            layout.plant_keys,
            layout.dc_keys,
            layout.supplier_weights,
            layout.plant_dc_weights,
            layout.assignment_keys,
            layout.timing_weights,
        ):
            stops.append((s.start, s.stop))
        assert stops[0][0] == 0 and stops[-1][1] == layout.length
        for (_, stop), (start, _) in zip(stops[:-1], stops[1:]):
            assert stop == start


def allocate(total, weights, caps):
    """One row of the decoder's capped allocation, and the amount it left unplaced."""
    allocation = _allocate_rows(np.array([total]), np.array([weights]), np.array([caps]))[0]
    return allocation, total - allocation.sum()


class TestAllocateWithCaps:
    def test_proportional_when_nothing_binds(self):
        alloc, short = allocate(10.0, [3.0, 1.0], [100.0, 100.0])
        assert np.allclose(alloc, [7.5, 2.5])
        assert short == 0.0

    def test_cap_and_spill(self):
        alloc, short = allocate(10.0, [0.5, 0.5], [3.0, 20.0])
        assert np.allclose(alloc, [3.0, 7.0])
        assert short == 0.0

    def test_zero_weights_fall_back_to_capacity_share(self):
        alloc, short = allocate(9.0, [0.0, 0.0], [6.0, 12.0])
        assert np.allclose(alloc, [3.0, 6.0])
        assert short == 0.0

    def test_spill_past_zero_weight_bins(self):
        # positive-weight bin caps out; remainder must still land somewhere
        alloc, short = allocate(10.0, [1.0, 0.0], [4.0, 20.0])
        assert np.allclose(alloc, [4.0, 6.0])
        assert short == 0.0

    def test_shortfall_when_capacity_insufficient(self):
        alloc, short = allocate(10.0, [1.0, 1.0], [2.0, 3.0])
        assert np.allclose(alloc, [2.0, 3.0])
        assert short == pytest.approx(5.0)

    def test_zero_total(self):
        alloc, short = allocate(0.0, [1.0], [5.0])
        assert alloc.tolist() == [0.0] and short == 0.0


class TestDecode:
    def test_all_ones_tiny_routes_everything_through_single_chain(self):
        tiny = tiny_instance()
        network = decode(np.ones(7), tiny)
        assert network.plant_open.tolist() == [True]
        assert network.dc_open.tolist() == [True]
        assert network.retail_flow[0, 0, 0] == 10.0
        assert network.product_flow[0, 0, 0] == 10.0
        assert network.raw_flow[0, 0] == 10.0
        assert np.allclose(network.inflow[0, 0], [5.0, 5.0])

    def test_all_zeros_forces_one_plant_and_one_dc_open(self):
        instance = make_duo_instance()
        network = decode(np.zeros(20), instance)
        assert network.plant_open.sum() == 1
        assert network.dc_open.sum() == 1
        # argmax of equal keys picks the first facility
        assert network.plant_open[0] and network.dc_open[0]

    def test_keys_above_half_open_facilities(self):
        instance = make_duo_instance()
        network = decode(duo_genotype(plant_keys=(0.49, 0.51), dc_keys=(0.9, 0.1)), instance)
        assert network.plant_open.tolist() == [False, True]
        assert network.dc_open.tolist() == [True, False]

    def test_retailers_assigned_to_argmax_open_dc(self):
        instance = make_duo_instance()
        network = decode(
            duo_genotype(assignment_keys=(0.9, 0.2, 0.6, 0.3, 0.8, 0.0)), instance
        )
        # keys: DC0 -> (0.9, 0.2, 0.6), DC1 -> (0.3, 0.8, 0.0)
        assert network.assignment[:, 0].tolist() == [True, False]
        assert network.assignment[:, 1].tolist() == [False, True]
        assert network.assignment[:, 2].tolist() == [True, False]

    def test_closed_dc_receives_no_retailers_even_with_high_keys(self):
        instance = make_duo_instance()
        network = decode(
            duo_genotype(dc_keys=(1.0, 0.0), assignment_keys=(0.0, 0.0, 0.0, 1.0, 1.0, 1.0)),
            instance,
        )
        assert network.assignment[0].all()
        assert not network.assignment[1].any()

    def test_two_plant_repair_caps_first_plant_and_spills_to_second(self):
        # one DC carries all 180 units of demand; weights ask plant 0 for 162
        # but its budget is 120, so the overflow of 60 reroutes to plant 1
        instance = make_duo_instance()
        network = decode(
            duo_genotype(
                dc_keys=(1.0, 0.0),
                plant_dc_weights=(0.9, 0.5, 0.1, 0.5),
                timing_weights=(0.7, 0.3, 0.5, 0.5),
            ),
            instance,
        )
        assert network.product_flow[0, 0, 0] == 120.0  # pinned exactly at the cap
        assert network.product_flow[0, 1, 0] == pytest.approx(60.0, abs=1e-9)
        assert network.product_flow[0, :, 1].tolist() == [0.0, 0.0]
        # raw material covers each plant's production exactly (single supplier)
        assert np.array_equal(network.raw_flow[0], network.product_flow[0, :, 0])
        _, violation = check_constraints(network, instance)
        assert violation == 0.0

    def test_timing_weights_normalize_to_inflow_distribution(self):
        instance = make_duo_instance()
        network = decode(
            duo_genotype(dc_keys=(1.0, 0.0), timing_weights=(0.6, 0.2, 0.5, 0.5)), instance
        )
        total = network.product_flow[0, :, 0].sum()
        assert np.allclose(network.inflow[0, 0], [0.75 * total, 0.25 * total])

    def test_zero_timing_weights_spread_uniformly(self):
        tiny = tiny_instance()
        network = decode(np.array([1, 1, 1, 1, 1, 0.0, 0.0]), tiny)
        assert np.allclose(network.inflow[0, 0], [5.0, 5.0])

    def test_wrong_length_raises(self):
        with pytest.raises(ValueError):
            decode(np.zeros(6), tiny_instance())

    def test_decode_is_deterministic(self):
        instance = make_duo_instance()
        rng = np.random.default_rng(3)
        g = rng.random(20)
        a, b = decode(g, instance), decode(g, instance)
        assert np.array_equal(a.product_flow, b.product_flow)
        assert np.array_equal(a.inflow, b.inflow)

    def test_repair_covers_flow_families(self):
        # repair keeps capacity-style families clean no matter the genotype;
        # DC inflow balance additionally holds whenever the open plants can
        # carry total demand (a lone small plant may legitimately starve it)
        instance = make_duo_instance()
        rng = np.random.default_rng(101)
        always_zero = [CONSTRAINT_FAMILIES.index(name) for name in (
            "supplier_capacity",
            "plant_raw_balance",
            "plant_capacity",
            "single_assignment",
        )]
        balance = CONSTRAINT_FAMILIES.index("dc_flow_balance")
        starved = 0
        for _ in range(10_000):
            network = decode(rng.random(20), instance)
            excess, _total = check_constraints(network, instance)
            assert all(excess[f] == 0.0 for f in always_zero)
            budget = (
                instance.plant_capacity[network.plant_open] / instance.utilization
            ).sum()
            if budget >= instance.total_demand:
                assert excess[balance] == 0.0
            else:
                assert excess[balance] > 0.0
                starved += 1
        assert starved > 0  # the small-plant-only case does occur

    def test_conservation_and_closed_facility_invariants(self):
        instance = make_duo_instance()
        rng = np.random.default_rng(7)
        for _ in range(300):
            network = decode(rng.random(20), instance)
            # flow into a DC covers its retailers unless the open plants are
            # genuinely too small, and never exceeds what retailers take
            dc_in = network.product_flow.sum(axis=1)
            dc_out = network.retail_flow.sum(axis=2)
            assert np.all(dc_in <= dc_out + 1e-9)
            budget = (
                instance.plant_capacity[network.plant_open] / instance.utilization
            ).sum()
            if budget >= instance.total_demand:
                assert np.allclose(dc_in, dc_out, rtol=1e-9, atol=1e-9)
            # schedule conserves each DC's inflow across the horizon
            assert np.allclose(network.inflow.sum(axis=2), dc_in, rtol=1e-9, atol=1e-9)
            # closed facilities carry nothing
            closed_plants = ~network.plant_open
            assert np.all(network.product_flow[:, closed_plants, :] == 0.0)
            assert np.all(network.raw_flow[:, closed_plants] == 0.0)
            closed_dcs = ~network.dc_open
            assert np.all(network.retail_flow[:, closed_dcs, :] == 0.0)
            assert np.all(network.inflow[:, closed_dcs, :] == 0.0)
            # exactly one open DC per retailer
            assert np.array_equal(network.assignment.sum(axis=0), np.ones(3))
            assert np.all(network.dc_open[np.argmax(network.assignment, axis=0)])

    def test_multi_product_decode_shapes_and_conservation(self):
        params = GeneratorParams(
            n_suppliers=2, n_plants=2, n_dcs=2, n_retailers=4, n_periods=3, n_products=2, seed=5
        )
        instance = generate_instance(params)
        g = np.random.default_rng(11).random(instance.genotype_length)
        network = decode(g, instance)
        assert network.product_flow.shape == (2, 2, 2)
        assert network.retail_flow.shape == (2, 2, 4)
        assert network.inflow.shape == (2, 2, 3)
        budget = (instance.plant_capacity[network.plant_open] / instance.utilization).sum()
        if budget >= instance.total_demand:
            assert np.allclose(
                network.product_flow.sum(axis=1), network.retail_flow.sum(axis=2), rtol=1e-9
            )
        assert np.allclose(network.inflow.sum(axis=2), network.product_flow.sum(axis=1), rtol=1e-9)


def simulate(inflow, demand):
    """One cell of the decoder's stock/backlog recursion."""
    on_hand, backlog = _schedule_recursion(np.array([inflow], dtype=float), np.array([demand], dtype=float))
    return on_hand[0], backlog[0]


class TestSimulateSchedule:
    def test_early_arrival_carries_stock(self):
        on_hand, backlog = simulate([10.0, 0.0], [5.0, 5.0])
        assert on_hand.tolist() == [5.0, 0.0]
        assert backlog.tolist() == [0.0, 0.0]

    def test_late_arrival_carries_backlog(self):
        on_hand, backlog = simulate([0.0, 10.0], [5.0, 5.0])
        assert on_hand.tolist() == [0.0, 0.0]
        assert backlog.tolist() == [5.0, 0.0]

    def test_exact_matching_is_flat_zero(self):
        on_hand, backlog = simulate([5.0, 5.0], [5.0, 5.0])
        assert on_hand.tolist() == [0.0, 0.0]
        assert backlog.tolist() == [0.0, 0.0]

    def test_terminal_state_clears_when_totals_match(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            t = int(rng.integers(1, 9))
            demand = rng.random(t) * 10
            shares = rng.random(t) + 1e-9
            inflow = demand.sum() * shares / shares.sum()
            inflow[-1] = max(demand.sum() - inflow[:-1].sum(), 0.0)
            on_hand, backlog = simulate(inflow, demand)
            assert abs(on_hand[-1]) < 1e-9
            assert abs(backlog[-1]) < 1e-9
            assert np.all(on_hand >= -1e-12) and np.all(backlog >= -1e-12)

    def test_shortfall_leaves_terminal_backlog(self):
        _, backlog = simulate([3.0, 0.0], [5.0, 5.0])
        assert backlog.tolist() == [2.0, 7.0]


class TestObjectives:
    def test_tiny_hand_cost_is_220(self):
        tiny = tiny_instance()
        network = decode(np.ones(7), tiny)
        assert eval_total_cost(network, tiny) == 220.0
        assert eval_delay(network) == 0.0

    def test_tiny_cost_term_by_term(self):
        # 100 fixed plant + 50 fixed DC + (2+1)*10 raw + 3*10 plant->DC
        # + 0 holding + 1*10 DC->retail = 220
        tiny = tiny_instance()
        network = decode(np.ones(7), tiny)
        assert (tiny.plant_fixed_cost * network.plant_open).sum() == 100.0
        assert (tiny.dc_fixed_cost * network.dc_open).sum() == 50.0
        raw = ((tiny.raw_material_unit_cost[:, None] + tiny.raw_transport_cost) * network.raw_flow).sum()
        assert raw == 30.0

    def test_delay_is_five_for_fully_early_or_fully_late_timing(self):
        tiny = tiny_instance()
        early = evaluate(np.array([1, 1, 1, 1, 1, 1.0, 0.0]), tiny)
        late = evaluate(np.array([1, 1, 1, 1, 1, 0.0, 1.0]), tiny)
        assert early[0][1] == 5.0
        assert late[0][1] == 5.0
        # holding cost is zero on the fixture, so cost never moves with timing
        assert early[0][0] == 220.0 and late[0][0] == 220.0

    def test_flow_terms_scale_linearly_with_flows(self):
        instance = make_duo_instance()
        network = decode(duo_genotype(), instance)
        doubled = replace(
            network,
            raw_flow=2 * network.raw_flow,
            product_flow=2 * network.product_flow,
            retail_flow=2 * network.retail_flow,
            inflow=2 * network.inflow,
            on_hand=2 * network.on_hand,
            backlog=2 * network.backlog,
        )
        fixed = (instance.plant_fixed_cost * network.plant_open).sum() + (
            instance.dc_fixed_cost * network.dc_open
        ).sum()
        base = eval_total_cost(network, instance)
        twice = eval_total_cost(doubled, instance)
        assert twice - fixed == pytest.approx(2 * (base - fixed), rel=1e-12)

    def test_holding_mode_switch_moves_cost_from_stock_to_backlog(self):
        instance = make_duo_instance()
        early = decode(duo_genotype(timing_weights=(1.0, 0.0, 1.0, 0.0)), instance)
        holding = (instance.holding_cost[None, :, None] * early.on_hand).sum()
        backorder_holding = (instance.holding_cost[None, :, None] * early.backlog).sum()
        assert eval_total_cost(early, instance) - eval_total_cost(
            early, instance, holding_on_backorder=True
        ) == pytest.approx(holding - backorder_holding, rel=1e-9, abs=1e-9)

    def test_timing_segment_only_moves_cost_through_holding(self):
        instance = make_duo_instance()
        rng = np.random.default_rng(23)
        layout = GenotypeLayout.for_instance(instance)
        for _ in range(100):
            g1 = rng.random(20)
            g2 = g1.copy()
            g2[layout.timing_weights] = rng.random(4)
            n1, n2 = decode(g1, instance), decode(g2, instance)
            h1 = (instance.holding_cost[None, :, None] * n1.on_hand).sum()
            h2 = (instance.holding_cost[None, :, None] * n2.on_hand).sum()
            c1 = eval_total_cost(n1, instance)
            c2 = eval_total_cost(n2, instance)
            assert c1 - h1 == pytest.approx(c2 - h2, rel=1e-9)

    def test_timing_segment_never_moves_cost_on_zero_holding_fixture(self):
        tiny = tiny_instance()
        rng = np.random.default_rng(29)
        for _ in range(100):
            g = np.ones(7)
            g[5:] = rng.random(2)
            objectives, violation = evaluate(g, tiny)
            assert objectives[0] == 220.0
            assert violation == 0.0


class TestCheckConstraints:
    def test_feasible_network_scores_zero_everywhere(self):
        tiny = tiny_instance()
        excess, total = check_constraints(decode(np.ones(7), tiny), tiny)
        assert np.all(excess == 0.0)
        assert total == 0.0

    def test_holding_capacity_excess_reported_raw(self):
        tiny = tiny_instance()
        network = decode(np.ones(7), tiny)
        bloated = replace(network, on_hand=network.on_hand + np.array([[[14.0, 0.0]]]))
        excess, total = check_constraints(bloated, tiny)
        # one cell sits 4 above the capacity of 10
        assert excess[CONSTRAINT_FAMILIES.index("dc_holding_capacity")] == 4.0
        assert total > 0.0

    def test_backorder_excess_scored(self):
        tiny = tiny_instance()
        network = decode(np.ones(7), tiny)
        swamped = replace(network, backlog=network.backlog + np.array([[[12.0, 0.0]]]))
        excess, total = check_constraints(swamped, tiny)
        assert excess[CONSTRAINT_FAMILIES.index("backorder_limit")] == 2.0
        assert total > 0.0

    def test_flow_shortfall_scored(self):
        tiny = tiny_instance()
        network = decode(np.ones(7), tiny)
        starved = replace(network, product_flow=network.product_flow * 0.5)
        excess, _ = check_constraints(starved, tiny)
        assert excess[CONSTRAINT_FAMILIES.index("dc_flow_balance")] == 5.0

    def test_plant_overload_scored(self):
        tiny = tiny_instance()
        network = decode(np.ones(7), tiny)
        overloaded = replace(network, product_flow=network.product_flow * 3.0)
        excess, _ = check_constraints(overloaded, tiny)
        # production 30 against capacity 20 and raw inflow 10
        assert excess[CONSTRAINT_FAMILIES.index("plant_capacity")] == 10.0
        assert excess[CONSTRAINT_FAMILIES.index("plant_raw_balance")] == 20.0

    def test_supplier_overdraw_scored(self):
        tiny = tiny_instance()
        network = decode(np.ones(7), tiny)
        greedy = replace(network, raw_flow=network.raw_flow + 15.0)
        excess, _ = check_constraints(greedy, tiny)
        assert excess[CONSTRAINT_FAMILIES.index("supplier_capacity")] == 5.0

    def test_feasible_iff_zero_total(self):
        instance = make_duo_instance()
        rng = np.random.default_rng(31)
        saw_feasible = saw_infeasible = False
        for _ in range(500):
            network = decode(rng.random(20), instance)
            excess, total = check_constraints(network, instance)
            assert (total == 0.0) == bool(np.all(excess == 0.0))
            saw_feasible |= total == 0.0
            saw_infeasible |= total > 0.0
        assert saw_feasible  # both outcomes occur on this instance,
        # (infeasibility needs a tight schedule; not guaranteed -> no assert)


class TestInstanceValidation:
    def test_invariant_problems_all_collected(self):
        tiny = tiny_instance()
        broken = replace(
            tiny,
            demand=-tiny.demand,
            utilization=0.0,
            holding_cost=np.array([-1.0]),
        )
        problems = broken.invariant_problems()
        text = "\n".join(problems)
        assert "demand" in text and "utilization" in text and "holding_cost" in text

    def test_demand_capacity_precheck(self):
        tiny = tiny_instance()
        overloaded = replace(tiny, demand=tiny.demand * 10)
        assert any("exceeds total DC holding capacity" in p for p in overloaded.invariant_problems())

    def test_bad_shape_raises_at_construction(self):
        tiny = tiny_instance()
        with pytest.raises(ValueError, match="demand"):
            replace(tiny, demand=np.zeros((2, 1, 2)))
