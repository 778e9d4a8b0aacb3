"""Instance JSON round-trips, validation errors, generation, and front export."""

from __future__ import annotations

import json
import re
import tempfile
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scnopt import (
    FRONT_CSV_HEADER,
    EngineConfig,
    GeneratorParams,
    Instance,
    ParetoArchive,
    ValidationError,
    evaluate_batch,
    front_rows,
    generate_instance,
    generate_preset,
    load_instance,
    save_front,
    save_instance,
    SupplyChainProblem,
    evolve,
    tiny_instance,
)
from scnopt.model import ARRAY_SHAPES, _decode_rows

from oracles import reference_decode

DESK = GeneratorParams(n_suppliers=3, n_plants=2, n_dcs=3, n_retailers=8, n_periods=7)


def instances_equal(a, b) -> bool:
    if a.dimensions != b.dimensions or a.utilization != b.utilization:
        return False
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ARRAY_SHAPES)


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

    def test_integer_beyond_the_digit_limit_is_invalid_json(self, tmp_path):
        # Python's json refuses an integer literal of more than 4300 digits
        # with a plain ValueError, not a JSONDecodeError
        path = save_instance(tiny_instance(), tmp_path / "t.json")
        path.write_text(path.read_text().replace('"utilization": 1.0', '"utilization": 1' + "0" * 5000))
        with pytest.raises(ValidationError, match="not valid JSON"):
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

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_version_must_be_the_json_integer(self, tmp_path, version):
        # true == 1 and 1.0 == 1 in Python, yet neither is the format's version
        raw = json.loads(save_instance(tiny_instance(), tmp_path / "t.json").read_text())
        raw["version"] = version
        path = tmp_path / "ver.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValidationError, match=f"unsupported version {version!r}"):
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
        with pytest.raises(ValidationError, match="malformed content") as err:
            load_instance(path)
        assert err.value.problems == [f"n_periods: {value!r} is not an integer"]

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
        with pytest.raises(ValidationError, match="malformed content") as err:
            load_instance(path)
        assert err.value.problems == [f"utilization: {json.loads(value)!r} is not a number"]

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
        with pytest.raises(ValidationError, match="malformed content") as err:
            load_instance(path)
        assert err.value.problems == [f"{name}: {entry!r} is not a number"]

    def test_every_malformed_field_listed(self, tmp_path):
        path = save_instance(tiny_instance(), tmp_path / "t.json")
        raw = json.loads(path.read_text())
        raw["dimensions"]["periods"] = 2.5
        raw.update(utilization="2", currency=5, holding_cost=[True])
        path.write_text(json.dumps(raw))
        with pytest.raises(ValidationError, match="malformed content") as err:
            load_instance(path)
        assert err.value.problems == [
            "n_periods: 2.5 is not an integer",
            "currency: 5 is not a string",
            "utilization: '2' is not a number",
            "holding_cost: True is not a number",
        ]

    def test_wrong_shapes_listed_together(self, tmp_path):
        path = save_instance(tiny_instance(), tmp_path / "t.json")
        raw = json.loads(path.read_text())
        raw.update(dc_capacity=[10.0, 10.0], demand=[[[1.0, 2.0, 3.0]]])
        path.write_text(json.dumps(raw))
        with pytest.raises(ValidationError, match="malformed content") as err:
            load_instance(path)
        assert err.value.problems == [
            "dc_capacity must have shape (1,), got (2,)",
            "demand must have shape (1, 1, 2), got (1, 1, 3)",
        ]

    @pytest.mark.parametrize(
        "old, new, reported",
        [
            ('"utilization": 1.0', '"utilization": 1e308', "total plant capacity is below utilization x total demand"),
            ('"demand": [\n    [\n      [\n        5.0,\n        5.0\n      ]\n    ]\n  ]',
             '"demand": [[[1e308, 1e308]]]', "total demand exceeds total DC holding capacity"),
        ],
        ids=["utilization", "demand"],
    )
    def test_totals_beyond_double_range_rejected(self, tmp_path, old, new, reported):
        # the totals overflow to inf without a numeric warning (warnings fail the tests)
        path = save_instance(tiny_instance(), tmp_path / "t.json")
        path.write_text(path.read_text().replace(old, new))
        with pytest.raises(ValidationError, match="violates invariants") as err:
            load_instance(path)
        assert any(problem.startswith(reported) for problem in err.value.problems)

    @pytest.mark.parametrize("name", ["dc_capacity", "dc_fixed_cost"])
    def test_array_total_beyond_double_range_rejected(self, tmp_path, name):
        # each entry is finite, but desk's three DCs sum them to inf
        desk = generate_preset("desk")
        path = save_instance(replace(desk, **{name: np.full(desk.n_dcs, 1e308)}), tmp_path / "huge.json")
        with pytest.raises(ValidationError, match="violates invariants") as err:
            load_instance(path)
        assert f"{name} entries sum beyond the double range" in err.value.problems

    @pytest.mark.parametrize(
        "changes",
        [
            {"raw_material_unit_cost": [1e308]},
            {"raw_material_unit_cost": [9e307], "raw_transport_cost": [[9e307]]},
            {"plant_fixed_cost": [1e308], "dc_fixed_cost": [1e308]},
            {"product_transport_plant_dc": [[1e308]]},
            {"product_transport_dc_retailer": [[1e308]]},
            {"holding_cost": [1e308]},
        ],
        ids=["raw-unit", "raw-unit-plus-transport", "two-fixed-costs", "plant-dc", "dc-retailer", "holding"],
    )
    def test_cost_beyond_double_range_rejected(self, tmp_path, changes):
        # every entry and every field total is finite; a design's cost is not
        path = save_instance(tiny_instance(), tmp_path / "t.json")
        raw = json.loads(path.read_text())
        raw.update(changes)
        path.write_text(json.dumps(raw))
        with pytest.raises(ValidationError, match="violates invariants") as err:
            load_instance(path)
        assert err.value.problems == ["a design's cost can exceed the double range"]

    def test_delay_beyond_double_range_rejected(self, tmp_path):
        # stock of 1e308 units held over two periods: every field total is finite, the delay is not
        path = save_instance(tiny_instance(), tmp_path / "t.json")
        raw = json.loads(path.read_text())
        raw["dimensions"]["periods"] = 3
        raw.update(
            demand=[[[0.0, 0.0, 1e308]]], backorder_limit=[[[1e307] * 3]],
            supplier_capacity=[1e308], plant_capacity=[1e308], dc_capacity=[1e308],
            raw_material_unit_cost=[0.0], raw_transport_cost=[[0.0]],
            product_transport_plant_dc=[[0.0]], product_transport_dc_retailer=[[0.0]],
        )
        path.write_text(json.dumps(raw))
        with pytest.raises(ValidationError, match="violates invariants") as err:
            load_instance(path)
        assert err.value.problems == ["a design's delay can exceed the double range"]

    def test_largest_finite_cost_bound_loads(self, tmp_path):
        # tiny's dearest rates, at 1e300 per unit, bound a design's cost near 3e301
        path = save_instance(tiny_instance(), tmp_path / "t.json")
        raw = json.loads(path.read_text())
        raw.update(raw_material_unit_cost=[1e300], holding_cost=[1e300], dc_fixed_cost=[1e300])
        path.write_text(json.dumps(raw))
        assert load_instance(path).invariant_problems() == []

    @pytest.mark.parametrize("preset", ["desk", "sbc-scale"])
    def test_presets_load(self, tmp_path, preset):
        path = save_instance(generate_preset(preset), tmp_path / "p.json")
        assert load_instance(path).invariant_problems() == []

    @pytest.mark.parametrize("key", ["currency", "time_unit"])
    def test_non_string_metadata_rejected(self, tmp_path, key):
        path = save_instance(tiny_instance(), tmp_path / "t.json")
        raw = json.loads(path.read_text())
        raw[key] = [1, {"a": None}]
        path.write_text(json.dumps(raw))
        with pytest.raises(ValidationError, match="malformed content") as err:
            load_instance(path)
        assert err.value.problems == [f"{key}: [1, {{'a': None}}] is not a string"]

    def test_missing_metadata_takes_instance_defaults(self, tmp_path):
        path = save_instance(tiny_instance(), tmp_path / "t.json")
        raw = json.loads(path.read_text())
        del raw["currency"], raw["time_unit"]
        path.write_text(json.dumps(raw))
        loaded = load_instance(path)
        assert (loaded.currency, loaded.time_unit) == (Instance.currency, Instance.time_unit)

    def test_non_utf8_bytes_rejected(self, tmp_path):
        path = save_instance(tiny_instance(), tmp_path / "t.json")
        path.write_bytes(b"\xff\xfe" + path.read_bytes())
        with pytest.raises(ValidationError, match=f"cannot read instance file {re.escape(str(path))}"):
            load_instance(path)

    def test_nesting_beyond_the_parser_rejected(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ValidationError, match=f"instance file {re.escape(str(path))} nests JSON too deeply"):
            load_instance(path)

    def test_deeply_nested_array_field_rejected(self, tmp_path):
        # parses, but nests deeper than a recursive walk of the entries could go
        path = save_instance(tiny_instance(), tmp_path / "t.json")
        deep = "[" * 600 + "0.0" + "]" * 600
        path.write_text(path.read_text().replace('"holding_cost": [\n    0.0\n  ]', f'"holding_cost": {deep}'))
        with pytest.raises(ValidationError, match="malformed content"):
            load_instance(path)

    @pytest.mark.parametrize(
        "old, new",
        [
            ('"demand": [\n    [\n      [\n        5.0', '"demand": [[[' + str(10**400)),
            ('"utilization": 1.0', '"utilization": ' + str(10**400)),
        ],
        ids=["array-entry", "utilization"],
    )
    def test_integer_beyond_double_range_rejected(self, tmp_path, old, new):
        path = save_instance(tiny_instance(), tmp_path / "t.json")
        path.write_text(path.read_text().replace(old, new))
        with pytest.raises(ValidationError, match=f"instance file {re.escape(str(path))} has malformed content"):
            load_instance(path)


class Nested:
    """A JSON array nested ``depth`` deep around one zero, written out as text."""

    def __init__(self, depth: int) -> None:
        self.depth = depth


def json_text(value) -> str:
    """``json.dumps`` that also writes :class:`Nested` values (too deep for the encoder)."""
    if isinstance(value, Nested):
        return "[" * value.depth + "0" + "]" * value.depth
    if isinstance(value, list):
        return "[" + ", ".join(json_text(item) for item in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(key)}: {json_text(item)}" for key, item in value.items()) + "}"
    return json.dumps(value)


JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(),  # NaN and +-inf included; json writes them as NaN and Infinity
        st.text(max_size=4),
        st.sampled_from([10**400, -(10**400), 1e308, 0, 1.0]),
        st.sampled_from([2, 600, 100_000]).map(Nested),
    ),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@cache
def saved_text(preset: str) -> str:
    with tempfile.TemporaryDirectory() as directory:
        return save_instance(generate_preset(preset), Path(directory) / "instance.json").read_text()


@st.composite
def damaged_files(draw) -> bytes:
    """A saved tiny or desk file with one field, dimension or array entry
    replaced by an arbitrary JSON value, or with its bytes damaged."""
    raw = json.loads(saved_text(draw(st.sampled_from(["tiny", "desk"]))))
    edit = draw(st.sampled_from(["field", "dimension", "entry", "truncate", "byte", "not-utf8", "wrap"]))
    if edit == "field":
        raw[draw(st.sampled_from(sorted(raw)))] = draw(JSON_VALUES)
    elif edit == "dimension":
        raw["dimensions"][draw(st.sampled_from(sorted(raw["dimensions"])))] = draw(JSON_VALUES)
    elif edit == "entry":
        cells = raw[draw(st.sampled_from(tuple(ARRAY_SHAPES)))]
        index = draw(st.integers(0, len(cells) - 1))
        while isinstance(cells[index], list):
            cells = cells[index]
            index = draw(st.integers(0, len(cells) - 1))
        cells[index] = draw(JSON_VALUES)
    data = json_text(raw).encode()
    at = draw(st.integers(0, len(data)))
    if edit == "truncate":
        data = data[:at]
    elif edit == "byte":
        data = data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
    elif edit == "not-utf8":
        data = data[:at] + draw(st.sampled_from([b"\xff\xfe", b"\xc3", b"\xed\xa0\x80"])) + data[at:]
    elif edit == "wrap":
        depth = draw(st.integers(1, 100_000))
        data = b"[" * depth + data + b"]" * depth
    return data


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(damaged_files())
def test_loading_raises_only_validation_errors(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "damaged.json"
    path.write_bytes(data)
    try:
        instance = load_instance(path)
    except ValidationError:
        return
    assert isinstance(instance, Instance)


DIMENSION_FIELDS = ("n_suppliers", "n_plants", "n_dcs", "n_retailers", "n_products", "n_periods")


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_save_load_is_an_identity_for_every_instance_that_constructs(tmp_path_factory, data):
    # Built from Python as a caller might: numpy or Python integers and
    # reals, arrays as numpy arrays of several dtypes, lists or tuples, and
    # at times one entry moved to an edge value.  A sound instance loads back
    # equal; an unsound one is refused with exactly its invariant problems.
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=6, max_size=6))
    params = GeneratorParams(*sizes[:4], n_products=sizes[4], n_periods=sizes[5], seed=data.draw(st.integers(0, 99)))
    base = generate_instance(params)
    arrays = {name: getattr(base, name) for name in ARRAY_SHAPES}
    if data.draw(st.booleans()):
        name = data.draw(st.sampled_from(sorted(ARRAY_SHAPES)))
        arrays[name] = arrays[name].copy()
        arrays[name].flat[data.draw(st.integers(0, arrays[name].size - 1))] = data.draw(
            st.sampled_from([-1.0, 0.0, -0.0, 1e308, np.inf, np.nan])
        )
    container = data.draw(st.sampled_from(["float64", "float32", "int64", "list", "tuple"]))
    with np.errstate(all="ignore"):  # edge values cast to float32 or int64 as numpy casts them
        if container == "list":
            arrays = {name: values.tolist() for name, values in arrays.items()}
        elif container == "tuple":
            arrays = {name: tuple(values.tolist()) for name, values in arrays.items()}
        else:
            arrays = {name: values.astype(container) for name, values in arrays.items()}
    integer = data.draw(st.sampled_from([int, np.int64, np.int32, np.uint8]))
    instance = replace(
        base,
        **{name: integer(getattr(base, name)) for name in DIMENSION_FIELDS},
        **arrays,
        utilization=data.draw(st.sampled_from([float, np.float64, int]))(base.utilization),
        currency=data.draw(st.sampled_from([str, np.str_]))(data.draw(st.text(max_size=4))),
    )
    path = save_instance(instance, tmp_path_factory.getbasetemp() / "constructed.json")
    problems = instance.invariant_problems()
    if problems:
        with pytest.raises(ValidationError, match="violates invariants") as err:
            load_instance(path)
        assert err.value.problems == problems
    else:
        loaded = load_instance(path)
        assert instances_equal(instance, loaded)
        assert (loaded.currency, loaded.time_unit) == (instance.currency, instance.time_unit)


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
        assert generate_preset("tiny").genotype_length == 7

    def test_desk_preset_dimensions(self):
        instance = generate_preset("desk")
        assert instance.dimensions == (3, 2, 3, 8, 1, 7)
        assert instance.genotype_length == 62

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
        objectives, violation = evaluate(np.ones(instance.genotype_length), instance)
        if violation == 0.0:
            costs.append(objectives[0])
        for _ in range(200):
            objectives, violation = evaluate(rng.random(instance.genotype_length), instance)
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
        return ParetoArchive(np.array([late, early, jit]), np.array([[2000.2, 9.0], [2000.4, 7.0], [2101.6, 3.0]]))

    def test_rows_sorted_and_rounded_collisions_collapsed(self, tiny):
        rows = front_rows(self._archive(), tiny)
        assert rows == [(2000.4, 7.0, 0.0), (2101.6, 3.0, 0.0)]

    def test_csv_bytes(self, tmp_path, tiny):
        path = save_front(front_rows(self._archive(), tiny), tmp_path / "front.csv")
        assert path.read_text() == (
            "total_cost,f2_raw,mean_delay_days\n2000,7.0,0.00\n2102,3.0,0.00\n"
        )

    def test_backlog_days_column(self, tiny):
        archive = ParetoArchive(np.array([[1, 1, 1, 1, 1, 0.0, 1.0]]), np.array([[220.0, 5.0]]))
        rows = front_rows(archive, tiny)
        assert rows == [(220.0, 5.0, 1.0)]

    def test_decodes_only_the_exported_rows(self, tiny, monkeypatch):
        decoded = []

        def counting(genotypes, instance):
            decoded.append(len(genotypes))
            return _decode_rows(genotypes, instance)

        monkeypatch.setattr("scnopt.instances._decode_rows", counting)
        rows = front_rows(self._archive(), tiny)  # two of its three members round to one cost
        assert decoded == [len(rows)] == [2]

    def test_half_unit_costs_round_to_even(self, tiny):
        costs = [1999.5, 2000.5, 2001.5, 2002.4, 2002.5, 2003.5]  # round: 2000, 2000, 2002, 2002, 2002, 2004
        rng = np.random.default_rng(2)
        genotypes = rng.random((len(costs), tiny.genotype_length))
        objectives = np.array([[cost, 10.0 - n] for n, cost in enumerate(costs)])
        rows = front_rows(ParetoArchive(genotypes, objectives), tiny)
        assert rows == reference_front_rows(genotypes, objectives, tiny)
        assert [row[0] for row in rows] == [2000.5, 2002.5, 2003.5]

    def test_header_constant(self):
        assert FRONT_CSV_HEADER == "total_cost,f2_raw,mean_delay_days"

    def test_empty_archive_raises(self, tiny):
        with pytest.raises(ValueError, match="empty"):
            front_rows(ParetoArchive(), tiny)


def reference_front_rows(genotypes, objectives, instance):
    """Front rows from each point, a genotype row and its objective row,
    decoded on its own by the reference decoder."""
    mean_period_demand = instance.total_demand / instance.n_periods
    rows = sorted(
        (float(o[0]), float(o[1]), float(reference_decode(g, instance).backlog.sum()) / mean_period_demand)
        for g, o in zip(genotypes, objectives)
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
        rows = reference_front_rows(archive.genotypes_array(), archive.objectives_array(), instance)
        assert front_rows(archive, instance) == rows

    @pytest.mark.parametrize("name", ["desk", "sbc-scale"])
    def test_one_member(self, run_archives, name):
        instance, archive = run_archives[name]
        member = slice(len(archive) // 2, len(archive) // 2 + 1)
        genotypes, objectives = archive.genotypes_array()[member], archive.objectives_array()[member]
        rows = front_rows(ParetoArchive(genotypes, objectives), instance)
        assert rows == reference_front_rows(genotypes, objectives, instance)
        assert len(rows) == 1

    @pytest.mark.parametrize("name", ["desk", "sbc-scale"])
    def test_members_out_of_objective_order(self, run_archives, name):
        instance, archive = run_archives[name]
        shuffled = np.random.default_rng(4).permutation(len(archive))
        genotypes, objectives = archive.genotypes_array(), archive.objectives_array()
        assert objectives[shuffled, 0].tolist() != sorted(objectives[shuffled, 0])
        rows = front_rows(ParetoArchive(genotypes[shuffled], objectives[shuffled]), instance)
        assert rows == reference_front_rows(genotypes, objectives, instance)


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
        genotypes = np.random.default_rng(5).random((500, cut.genotype_length))
        _, violations = evaluate_batch(genotypes, cut)
        assert np.all(violations > 0.0)

    @pytest.mark.parametrize("utilization", [1.0, 1.7, 3.0])
    def test_exact_slack_instances_load(self, tmp_path, utilization):
        for seed in range(8):
            params = replace(DESK, capacity_slack=1.0, utilization=utilization, seed=seed)
            path = save_instance(generate_instance(params), tmp_path / f"exact{seed}.json")
            assert load_instance(path).invariant_problems() == []
