"""Command-line harness: artifacts, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from scnopt import FRONT_CSV_HEADER, generate_preset, load_instance, save_instance, tiny_instance
from scnopt.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    EXIT_VALIDATION,
    PAPER_PARAMS,
    build_parser,
    main,
    resolve_engine_config,
)


@pytest.fixture
def tiny_path(tmp_path):
    path = tmp_path / "tiny.json"
    assert main(["generate", "--preset", "tiny", "--out", str(path)]) == EXIT_OK
    return path


def run_tiny(tiny_path, out_dir, *extra):
    return main(
        [
            "run",
            "--instance",
            str(tiny_path),
            "--out",
            str(out_dir),
            "--pop-size",
            "12",
            "--generations",
            "8",
            "--seed",
            "7",
            *extra,
        ]
    )


class TestGenerate:
    def test_writes_loadable_instance(self, tiny_path, capsys):
        instance = load_instance(tiny_path)
        assert instance.dimensions == tiny_instance().dimensions

    def test_desk_preset_with_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["generate", "--preset", "desk", "--seed", "3", "--out", str(a)]) == EXIT_OK
        assert main(["generate", "--preset", "desk", "--seed", "3", "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_preset_is_usage_error(self, tmp_path, capsys):
        code = main(["generate", "--preset", "huge", "--out", str(tmp_path / "x.json")])
        assert code == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_unwritable_out_is_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "x.json"
        assert main(["generate", "--preset", "tiny", "--out", str(out)]) == EXIT_RUNTIME
        assert "cannot write" in capsys.readouterr().err


class TestRun:
    def test_happy_path_artifacts(self, tiny_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_tiny(tiny_path, out) == EXIT_OK

        front = (out / "front.csv").read_text().splitlines()
        assert front[0] == FRONT_CSV_HEADER
        assert len(front) >= 2

        report = json.loads((out / "report.json").read_text())
        assert report["config"]["population_size"] == 12
        assert report["config"]["generations"] == 8
        assert report["config"]["seed"] == 7
        assert report["front"]["path"] == "front.csv"
        assert report["front"]["size"] == len(front) - 1
        assert len(report["records"]) == 9  # initial population + 8 generations
        assert [r["generation"] for r in report["records"]] == list(range(9))
        assert "wall_time_s" not in json.dumps(report)

        plot = (out / "front.dat").read_text().splitlines()
        assert plot[0] == "# total_cost delay_quantity"
        assert len(plot) == len(front)

        console = capsys.readouterr().out
        assert "run config:" in console
        assert "wall time:" in console

    def test_report_progress_fields(self, tiny_path, tmp_path):
        out = tmp_path / "out"
        run_tiny(tiny_path, out)
        records = json.loads((out / "report.json").read_text())["records"]
        evaluations = [r["evaluations"] for r in records]
        assert evaluations[0] == 12
        assert evaluations == sorted(evaluations)
        assert all(r["archive_size"] >= 1 for r in records)
        volumes = [r["hypervolume"] for r in records]
        assert all(b >= a for a, b in zip(volumes, volumes[1:]))

    def test_byte_identical_reruns(self, tiny_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_tiny(tiny_path, out_a)
        run_tiny(tiny_path, out_b)
        for name in ("front.csv", "report.json", "front.dat"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_report_records_the_instance_by_content(self, tiny_path, tmp_path):
        copies = [tmp_path / "a" / "tiny.json", tmp_path / "b" / "c" / "tiny.json"]
        for k, copy in enumerate(copies):
            copy.parent.mkdir(parents=True)
            copy.write_bytes(tiny_path.read_bytes())
            assert run_tiny(copy, tmp_path / f"out{k}") == EXIT_OK
        first, second = ((tmp_path / f"out{k}" / "report.json").read_bytes() for k in range(2))
        assert first == second
        config = json.loads(first)["config"]
        assert config["instance_sha256"] == hashlib.sha256(tiny_path.read_bytes()).hexdigest()
        assert "instance" not in config

    def test_eval_workers_flag_is_gone(self, tiny_path, tmp_path):
        assert run_tiny(tiny_path, tmp_path / "a", "--eval-workers", "2") == EXIT_USAGE
        assert run_tiny(tiny_path, tmp_path / "b") == EXIT_OK
        report = json.loads((tmp_path / "b" / "report.json").read_text())
        assert "eval_workers" not in report["config"]

    def test_seed_changes_report(self, tiny_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_tiny(tiny_path, out_a)
        main(
            ["run", "--instance", str(tiny_path), "--out", str(out_b),
             "--pop-size", "12", "--generations", "8", "--seed", "8"]
        )
        report_a = json.loads((out_a / "report.json").read_text())
        report_b = json.loads((out_b / "report.json").read_text())
        assert report_a["config"]["seed"] != report_b["config"]["seed"]

    def test_holding_mode_flag_echoed(self, tiny_path, tmp_path):
        out = tmp_path / "out"
        run_tiny(tiny_path, out, "--holding-on-backorder")
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["holding_on_backorder"] is True


@pytest.fixture
def desk_path(tmp_path):
    path = tmp_path / "desk.json"
    assert main(["generate", "--preset", "desk", "--out", str(path)]) == EXIT_OK
    return path


def run_desk(desk_path, out_dir, pop_size, generations, seed):
    return main(["run", "--instance", str(desk_path), "--out", str(out_dir), "--pop-size", str(pop_size),
                 "--generations", str(generations), "--seed", str(seed)])


class TestCollapsedFront:
    def test_short_run_with_a_collapsed_front_says_so(self, desk_path, tmp_path, capsys):
        assert run_desk(desk_path, tmp_path / "out", 8, 2, 1) == EXIT_OK
        assert len((tmp_path / "out" / "front.csv").read_text().splitlines()) - 1 < 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "the exported front has collapsed to 1 row(s)" in err

    def test_narrow_cost_span_is_a_collapse(self, desk_path, tmp_path, capsys, monkeypatch):
        rows = [(1000.0, 3.0, 0.3), (1000.9, 2.0, 0.2), (1000.99, 1.0, 0.1)]  # span 0.099 % of 1000
        monkeypatch.setattr("scnopt.cli.front_rows", lambda archive, instance: rows)
        assert run_desk(desk_path, tmp_path / "out", 8, 2, 1) == EXIT_OK
        assert "collapsed to 3 row(s) with total cost 1000 to 1001" in capsys.readouterr().err

    def test_spread_desk_front_is_not_reported(self, desk_path, tmp_path, capsys):
        assert run_desk(desk_path, tmp_path / "out", 20, 10, 3) == EXIT_OK
        costs = [float(line.split(",")[0]) for line in (tmp_path / "out" / "front.csv").read_text().splitlines()[1:]]
        assert len(costs) >= 3 and costs[-1] - costs[0] > 0.01 * costs[0]
        assert capsys.readouterr().err == ""


class TestExitCodes:
    def test_no_command_is_usage(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_missing_required_flag_is_usage(self, capsys):
        assert main(["run", "--instance", "x.json"]) == EXIT_USAGE

    def test_bad_instance_file_is_validation(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["run", "--instance", str(bad), "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, reported",
        [
            ('"utilization": 1.0', '"utilization": NaN', "utilization must be finite"),
            ('"periods": 2', '"periods": 2.9', "periods: 2.9"),
            ('"utilization": 1.0', '"utilization": true', "utilization must be a JSON number"),
            ('"version": 1', '"version": true', "unsupported version True"),
            ('"dimensions": {', '"dimensions": 5, "unused": {', "dimensions must be a JSON object"),
            ('"demand": [\n    [\n      [\n        5.0', '"demand": [[[true', "demand: True"),
            pytest.param("{", "\xff\xfe{", "cannot read instance file", id="not-utf8"),
            pytest.param('"currency": "TZS/week"', '"currency": ' + "[" * 100_000 + "]" * 100_000,
                         "nests JSON too deeply", id="deep-nesting"),
            pytest.param('"demand": [\n    [\n      [\n        5.0', '"demand": [[[' + str(10**400),
                         "int too large", id="huge-demand-entry"),
            pytest.param('"utilization": 1.0', '"utilization": ' + str(10**400), "int too large",
                         id="huge-utilization"),
            pytest.param('"currency": "TZS/week"', '"currency": [1, {"a": null}]', "currency: [1, {'a': None}]",
                         id="non-string-currency"),
        ],
    )
    def test_impossible_instance_values_are_validation(
        self, tiny_path, tmp_path, capsys, old, new, reported
    ):
        # The file is ASCII, so latin-1 changes only the non-UTF-8 case: it writes "\xff" as byte 0xff.
        tiny_path.write_text(tiny_path.read_text().replace(old, new, 1), encoding="latin-1")
        code = main(["run", "--instance", str(tiny_path), "--out", str(tmp_path / "o"),
                     "--pop-size", "12", "--generations", "2"])
        assert code == EXIT_VALIDATION
        assert reported in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", ["plant_capacity", "supplier_capacity"])
    def test_short_upstream_capacity_is_validation(self, tmp_path, capsys, name):
        desk = generate_preset("desk")
        path = save_instance(replace(desk, **{name: 0.5 * getattr(desk, name)}), tmp_path / "cut.json")
        code = main(["run", "--instance", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION
        assert "is below utilization x total demand" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", ["dc_capacity", "dc_fixed_cost"])
    def test_array_total_beyond_double_range_is_validation(self, tmp_path, capsys, name):
        # tiny has one DC, so this needs desk's three to overflow the sum
        desk = generate_preset("desk")
        path = save_instance(replace(desk, **{name: np.full(desk.n_dcs, 1e308)}), tmp_path / "huge.json")
        code = main(["run", "--instance", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION
        assert f"{name} entries sum beyond the double range" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "changes",
        [
            {"raw_material_unit_cost": np.array([1e308])},
            {"plant_fixed_cost": np.array([1e308]), "dc_fixed_cost": np.array([1e308])},
        ],
        ids=["raw-unit-cost", "two-fixed-costs"],
    )
    def test_cost_beyond_double_range_is_validation(self, tmp_path, capsys, changes):
        # before the load check, this ran and exited 3 with a non-finite objective
        path = save_instance(replace(tiny_instance(), **changes), tmp_path / "huge.json")
        code = main(["run", "--instance", str(path), "--out", str(tmp_path / "o"),
                     "--pop-size", "12", "--generations", "2"])
        assert code == EXIT_VALIDATION
        assert "a design's cost can exceed the double range" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_instance_file_is_validation(self, tmp_path, capsys):
        code = main(
            ["run", "--instance", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_VALIDATION

    def test_bad_engine_config_is_validation(self, tiny_path, tmp_path, capsys):
        code = main(
            ["run", "--instance", str(tiny_path), "--out", str(tmp_path / "o"),
             "--pop-size", "7"]
        )
        assert code == EXIT_VALIDATION

    def test_unwritable_out_dir_is_runtime(self, tiny_path, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code = main(
            ["run", "--instance", str(tiny_path), "--out", str(blocker / "sub"),
             "--pop-size", "12", "--generations", "2"]
        )
        assert code == EXIT_RUNTIME


class TestPaperParams:
    def test_published_parameter_set(self):
        assert PAPER_PARAMS == {
            "population_size": 1290,
            "generations": 500,
            "crossover_prob": 0.6,
            "mutation_prob": 0.01,
        }

    def test_flag_overrides_search_parameters(self):
        args = build_parser().parse_args(
            ["run", "--instance", "x.json", "--out", "o", "--pop-size", "10",
             "--generations", "3", "--seed", "5", "--paper-params"]
        )
        config = resolve_engine_config(args)
        assert config.population_size == 1290
        assert config.generations == 500
        assert config.crossover_prob == 0.6
        assert config.mutation_prob == 0.01
        assert config.seed == 5  # seed still comes from its own flag

    def test_without_flag_cli_values_stand(self):
        args = build_parser().parse_args(
            ["run", "--instance", "x.json", "--out", "o", "--pop-size", "10",
             "--generations", "4"]
        )
        config = resolve_engine_config(args)
        assert config.population_size == 10
        assert config.generations == 4


class TestConsoleScript:
    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "cli-tiny.json"
        proc = subprocess.run(
            [sys.executable, "-m", "scnopt", "generate", "--preset", "tiny",
             "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
