"""Instance JSON round-trips, validation errors, generation, and front export."""

from __future__ import annotations

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from scnopt import (
    FRONT_CSV_HEADER,
    EngineConfig,
    GeneratorParams,
    Individual,
    ParetoArchive,
    ValidationError,
    evaluate_batch,
    front_rows,
    generate_instance,
    generate_preset,
    genotype_length,
    load_instance,
    save_front,
    save_instance,
    SupplyChainProblem,
    evolve,
    tiny_instance,
)
from scnopt.instances import SCHEMA_FIELDS

from oracles import reference_decode

DESK = GeneratorParams(n_suppliers=3, n_plants=2, n_dcs=3, n_retailers=8, n_periods=7)


def instances_equal(a, b) -> bool:
    if a.dimensions != b.dimensions or a.utilization != b.utilization:
        return False
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in SCHEMA_FIELDS)


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        instance = generate_instance(DESK)
        path = save_instance(instance, tmp_path / "desk.json")
        loaded = load_instance(path)
        assert instances_equal(instance, loaded)
        assert loaded.currency == instance.currency
        assert loaded.time_unit == instance.time_unit

    def test_save_is_deterministic_bytes(self, tmp_path):
        a = save_instance(generate_instance(DESK), tmp_path / "a.json")
        b = save_instance(generate_instance(DESK), tmp_path / "b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_tiny_round_trips(self, tmp_path):
        path = save_instance(tiny_instance(), tmp_path / "tiny.json")
        assert instances_equal(tiny_instance(), load_instance(path))


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            load_instance(tmp_path / "nope.json")

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "scn-instance",\n  "version": }\n')
        with pytest.raises(ValidationError, match=r"not valid JSON \(line 2"):
            load_instance(path)

    def test_non_object_document(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ValidationError, match="must hold a JSON object"):
            load_instance(path)

    def test_unknown_format_name(self, tmp_path):
        path = tmp_path / "fmt.json"
        path.write_text(json.dumps({"format": "other", "version": 1}))
        with pytest.raises(ValidationError, match="unknown format 'other'"):
            load_instance(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "ver.json"
        path.write_text(json.dumps({"format": "scn-instance", "version": 99}))
        with pytest.raises(ValidationError, match="unsupported version 99"):
            load_instance(path)

    def test_missing_fields_all_listed(self, tmp_path):
        instance = tiny_instance()
        path = save_instance(instance, tmp_path / "t.json")
        raw = json.loads(path.read_text())
        del raw["demand"], raw["holding_cost"]
        path.write_text(json.dumps(raw))
        with pytest.raises(ValidationError) as err:
            load_instance(path)
        assert "demand" in str(err.value) and "holding_cost" in str(err.value)
        assert err.value.problems == ["demand", "holding_cost"]

    def test_missing_dimension_key(self, tmp_path):
        path = save_instance(tiny_instance(), tmp_path / "t.json")
        raw = json.loads(path.read_text())
        del raw["dimensions"]["plants"]
        path.write_text(json.dumps(raw))
        with pytest.raises(ValidationError, match="missing dimensions"):
            load_instance(path)

    def test_wrong_shape_is_malformed_content(self, tmp_path):
        path = save_instance(tiny_instance(), tmp_path / "t.json")
        raw = json.loads(path.read_text())
        raw["demand"] = [[[1.0, 2.0, 3.0]]]
        path.write_text(json.dumps(raw))
        with pytest.raises(ValidationError, match="malformed content"):
            load_instance(path)

    def test_invariant_violations_all_listed(self, tmp_path):
        path = save_instance(tiny_instance(), tmp_path / "t.json")
        raw = json.loads(path.read_text())
        raw["demand"] = [[[-5.0, 5.0]]]
        raw["utilization"] = -1.0
        path.write_text(json.dumps(raw))
        with pytest.raises(ValidationError, match="violates invariants") as err:
            load_instance(path)
        text = str(err.value)
        assert "demand" in text and "utilization" in text


    def test_nan_utilization_is_an_invariant_violation(self, tmp_path):
        path = save_instance(tiny_instance(), tmp_path / "t.json")
        path.write_text(path.read_text().replace('"utilization": 1.0', '"utilization": NaN'))
        with pytest.raises(ValidationError, match="violates invariants") as err:
            load_instance(path)
        assert any("utilization" in problem for problem in err.value.problems)

    @pytest.mark.parametrize("value", [7.9, 2.0, True, "2"])
    def test_non_integer_dimension_rejected(self, tmp_path, value):
        path = save_instance(tiny_instance(), tmp_path / "t.json")
        raw = json.loads(path.read_text())
        raw["dimensions"]["periods"] = value
        path.write_text(json.dumps(raw))
        with pytest.raises(ValidationError, match="non-integer dimensions") as err:
            load_instance(path)
        assert err.value.problems == [f"periods: {value!r}"]

    @pytest.mark.parametrize("value", [5, None, "periods", [1, 1, 1, 1, 1, 2]])
    def test_non_object_dimensions_rejected(self, tmp_path, value):
        path = save_instance(tiny_instance(), tmp_path / "t.json")
        raw = json.loads(path.read_text())
        raw["dimensions"] = value
        path.write_text(json.dumps(raw))
        with pytest.raises(ValidationError, match=re.escape(f"dimensions must be a JSON object, got {value!r}")):
            load_instance(path)

    @pytest.mark.parametrize("value", ["true", '"1.0"'])
    def test_non_number_utilization_rejected(self, tmp_path, value):
        path = save_instance(tiny_instance(), tmp_path / "t.json")
        path.write_text(path.read_text().replace('"utilization": 1.0', f'"utilization": {value}'))
        with pytest.raises(ValidationError, match="utilization must be a JSON number"):
            load_instance(path)

    @pytest.mark.parametrize(
        "name, value, entry",
        [
            ("demand", [[[True, 5.0]]], True),
            ("demand", [[[5.0, False]]], False),
            ("holding_cost", ["0.0"], "0.0"),
            ("backorder_limit", [[[10.0, None]]], None),
            ("raw_transport_cost", [[{"value": 1.0}]], {"value": 1.0}),
        ],
    )
    def test_non_number_array_entry_rejected(self, tmp_path, name, value, entry):
        path = save_instance(tiny_instance(), tmp_path / "t.json")
        raw = json.loads(path.read_text())
        raw[name] = value
        path.write_text(json.dumps(raw))
        with pytest.raises(ValidationError, match="array entries that are not JSON numbers") as err:
            load_instance(path)
        assert err.value.problems == [f"{name}: {entry!r}"]


class TestGenerator:
    def test_same_seed_same_instance(self):
        assert instances_equal(generate_instance(DESK), generate_instance(DESK))

    def test_different_seed_different_instance(self):
        other = replace(DESK, seed=DESK.seed + 1)
        assert not instances_equal(generate_instance(DESK), generate_instance(other))

    def test_generated_instance_is_sound(self):
        for seed in range(5):
            instance = generate_instance(replace(DESK, seed=seed))
            assert instance.invariant_problems() == []

    def test_slack_one_puts_dc_capacity_exactly_at_demand(self):
        instance = generate_instance(replace(DESK, capacity_slack=1.0))
        assert instance.dc_capacity.sum() == instance.total_demand
        assert instance.invariant_problems() == []

    def test_slack_one_generates_for_any_dimensions(self):
        # These capacities sum one rounding step below the demand.
        params = GeneratorParams(1, 1, 2, 3, 2, n_products=2, capacity_slack=1.0, seed=1)
        instance = generate_instance(params)
        assert instance.dc_capacity.sum() == pytest.approx(instance.total_demand, rel=1e-12)

    def test_capacity_totals_follow_slack(self):
        instance = generate_instance(replace(DESK, capacity_slack=1.25, utilization=2.0))
        total = instance.total_demand
        assert instance.dc_capacity.sum() == pytest.approx(1.25 * total, rel=1e-12)
        assert instance.plant_capacity.sum() == pytest.approx(2.0 * 1.25 * total, rel=1e-12)
        assert instance.supplier_capacity.sum() == pytest.approx(2.0 * 1.25 * total, rel=1e-12)

    def test_dimension_validation(self):
        with pytest.raises(ValueError, match="dimensions"):
            GeneratorParams(n_suppliers=0, n_plants=1, n_dcs=1, n_retailers=1, n_periods=1)
        with pytest.raises(ValueError, match="capacity_slack"):
            replace(DESK, capacity_slack=0.9)


class TestPresets:
    def test_tiny_preset_is_the_fixture(self):
        assert instances_equal(generate_preset("tiny"), tiny_instance())
        assert genotype_length(generate_preset("tiny")) == 7

    def test_desk_preset_dimensions(self):
        instance = generate_preset("desk")
        assert instance.dimensions == (3, 2, 3, 8, 1, 7)
        assert genotype_length(instance) == 62

    def test_preset_seed_threads_through(self):
        assert not instances_equal(generate_preset("desk", seed=0), generate_preset("desk", seed=1))

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset 'huge'"):
            generate_preset("huge", seed=0)

    def test_sbc_scale_costs_land_in_target_band(self):
        from scnopt import evaluate

        instance = generate_preset("sbc-scale")
        rng = np.random.default_rng(0)
        costs = []
        objectives, violation = evaluate(np.ones(genotype_length(instance)), instance)
        if violation == 0.0:
            costs.append(objectives[0])
        for _ in range(200):
            objectives, violation = evaluate(rng.random(genotype_length(instance)), instance)
            if violation == 0.0:
                costs.append(objectives[0])
        assert costs, "no feasible genotype found on sbc-scale"
        assert all(1e7 <= c <= 1e8 for c in costs)


class TestFrontExport:
    def _archive(self):
        # objectives are set by hand; the genotype only feeds the re-decoded
        # backlog that becomes the mean_delay_days column
        late = np.array([1, 1, 1, 1, 1, 0.0, 1.0])   # backlog 5 -> 1.00 demand-days
        early = np.array([1, 1, 1, 1, 1, 1.0, 0.0])  # stock-early, zero backlog
        jit = np.ones(7)
        return ParetoArchive(
            members=[
                Individual(late, objectives=np.array([2000.2, 9.0]), violation=0.0),
                Individual(early, objectives=np.array([2000.4, 7.0]), violation=0.0),
                Individual(jit, objectives=np.array([2101.6, 3.0]), violation=0.0),
            ]
        )

    def test_rows_sorted_and_rounded_collisions_collapsed(self, tiny):
        rows = front_rows(self._archive(), tiny)
        assert rows == [(2000.4, 7.0, 0.0), (2101.6, 3.0, 0.0)]

    def test_csv_bytes(self, tmp_path, tiny):
        path = save_front(front_rows(self._archive(), tiny), tmp_path / "front.csv")
        assert path.read_text() == (
            "total_cost,f2_raw,mean_delay_days\n2000,7.0,0.00\n2102,3.0,0.00\n"
        )

    def test_backlog_days_column(self, tiny):
        archive = ParetoArchive(
            members=[
                Individual(
                    np.array([1, 1, 1, 1, 1, 0.0, 1.0]),
                    objectives=np.array([220.0, 5.0]),
                    violation=0.0,
                )
            ]
        )
        rows = front_rows(archive, tiny)
        assert rows == [(220.0, 5.0, 1.0)]

    def test_header_constant(self):
        assert FRONT_CSV_HEADER == "total_cost,f2_raw,mean_delay_days"

    def test_empty_archive_raises(self, tiny):
        with pytest.raises(ValueError, match="empty"):
            front_rows(ParetoArchive(), tiny)


def reference_front_rows(members, instance):
    """Front rows from each member decoded on its own by the reference decoder."""
    mean_period_demand = instance.total_demand / instance.n_periods
    rows = sorted(
        (float(m.objectives[0]), float(m.objectives[1]),
         float(reference_decode(m.genotype, instance).backlog.sum()) / mean_period_demand)
        for m in members
    )
    # the last row of each rounded-cost group carries its best delay
    return list({round(row[0]): row for row in rows}.values())


@pytest.fixture(scope="module")
def run_archives():
    """Archives of short runs on desk (about 35 members) and sbc-scale (about 20)."""
    archives = {}
    for name, generations in [("desk", 100), ("sbc-scale", 30)]:
        instance = generate_preset(name)
        config = EngineConfig(population_size=100, generations=generations, seed=3)
        archives[name] = instance, evolve(SupplyChainProblem(instance), config).archive
    return archives


class TestFrontRowsMatchReferenceDecoder:
    @pytest.mark.parametrize("name", ["desk", "sbc-scale"])
    def test_run_archive(self, run_archives, name):
        instance, archive = run_archives[name]
        assert len(archive) > 10
        assert front_rows(archive, instance) == reference_front_rows(archive.members, instance)

    @pytest.mark.parametrize("name", ["desk", "sbc-scale"])
    def test_one_member(self, run_archives, name):
        instance, archive = run_archives[name]
        member = archive.members[len(archive) // 2]
        rows = front_rows(ParetoArchive([member]), instance)
        assert rows == reference_front_rows([member], instance)
        assert len(rows) == 1

    @pytest.mark.parametrize("name", ["desk", "sbc-scale"])
    def test_members_out_of_objective_order(self, run_archives, name):
        instance, archive = run_archives[name]
        shuffled = list(archive.members)
        np.random.default_rng(4).shuffle(shuffled)
        assert [m.objectives[0] for m in shuffled] != sorted(m.objectives[0] for m in shuffled)
        assert front_rows(ParetoArchive(shuffled), instance) == reference_front_rows(archive.members, instance)


class TestUpstreamCapacity:
    @pytest.mark.parametrize("name", ["plant_capacity", "supplier_capacity"])
    def test_half_capacity_rejected_at_load(self, tmp_path, name):
        desk = generate_preset("desk")
        path = save_instance(replace(desk, **{name: 0.5 * getattr(desk, name)}), tmp_path / "cut.json")
        with pytest.raises(ValidationError, match="violates invariants") as err:
            load_instance(path)
        assert len(err.value.problems) == 1
        assert err.value.problems[0].startswith(f"total {name.replace('_', ' ')} is below utilization x total demand")

    @pytest.mark.parametrize("name", ["plant_capacity", "supplier_capacity"])
    def test_half_capacity_is_never_feasible(self, name):
        desk = generate_preset("desk")
        cut = replace(desk, **{name: 0.5 * getattr(desk, name)})
        genotypes = np.random.default_rng(5).random((500, genotype_length(cut)))
        _, violations = evaluate_batch(genotypes, cut)
        assert np.all(violations > 0.0)

    @pytest.mark.parametrize("utilization", [1.0, 1.7, 3.0])
    def test_exact_slack_instances_load(self, tmp_path, utilization):
        for seed in range(8):
            params = replace(DESK, capacity_slack=1.0, utilization=utilization, seed=seed)
            path = save_instance(generate_instance(params), tmp_path / f"exact{seed}.json")
            assert load_instance(path).invariant_problems() == []
