"""Command-line harness: artifacts, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import scnopt.cli
from scnopt import (
    FRONT_CSV_HEADER,
    EngineConfig,
    SupplyChainProblem,
    evolve,
    generate_preset,
    load_instance,
    nsga2,
    save_instance,
    tiny_instance,
)
from scnopt.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    EXIT_VALIDATION,
    PAPER_PARAMS,
    _keep_freed_memory,
    build_parser,
    main,
    resolve_engine_config,
)

from conftest import LineFrontProblem
from oracles import reference_hypervolume_2d


REPORT_RUNS = {  # problem, engine config, and a size the final archive exceeds
    "line": (LineFrontProblem(), EngineConfig(population_size=12, generations=30, seed=5), 10),
    # 3-product desk: its archive grows to hundreds of members
    "desk-3p": (
        SupplyChainProblem(generate_preset("desk-3p")),
        EngineConfig(population_size=200, generations=150, seed=1),
        100,
    ),
}


@pytest.fixture(scope="module")
def report_runs():
    """Evolve a ``REPORT_RUNS`` case once per module; return the result and each
    generation's archive objectives, captured as its record was taken."""
    runs = {}

    def run(case):
        if case not in runs:
            problem, config, _ = REPORT_RUNS[case]
            snapshots, record = [], nsga2._record

            def capturing_record(generation, evaluations, archive):
                snapshots.append(archive.objectives_array())
                return record(generation, evaluations, archive)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(nsga2, "_record", capturing_record)
                runs[case] = evolve(problem, config), snapshots
        return runs[case]

    return run


class ThreeObjectiveProblem:
    """Sum, spread and first gene of a 3-gene genotype, always feasible."""

    genotype_length = 3

    def evaluate(self, g):
        return [g.sum(), g.max() - g.min(), g[0]], 0.0


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
        (tmp_path / "a-file").write_text("")
        out = tmp_path / "a-file" / "x.json"  # its parent cannot be made: a file holds the name
        assert main(["generate", "--preset", "tiny", "--out", str(out)]) == EXIT_RUNTIME
        assert "cannot write" in capsys.readouterr().err

    def test_missing_parent_directories_are_created(self, tmp_path):
        # as scnopt run creates its --out directory
        out = tmp_path / "missing" / "deeper" / "x.json"
        assert main(["generate", "--preset", "tiny", "--out", str(out)]) == EXIT_OK
        assert load_instance(out).dimensions == tiny_instance().dimensions


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

    @pytest.mark.parametrize("case", list(REPORT_RUNS))
    def test_report_hypervolumes_match_the_sweep_bit_for_bit(self, case, report_runs):
        # build_report's corner comes from the records' maxima and each volume from
        # a record's few numbers; check both against the plain-Python formula on
        # the archive as each record was taken, with a corner from every snapshot
        result, snapshots = report_runs(case)
        report = scnopt.cli.build_report(result, {}, "front.csv", 0, 0.0)
        assert len(result.archive) > REPORT_RUNS[case][2]
        corner = np.vstack([s for s in snapshots if s.size]).max(axis=0) + 1.0
        volumes = [record["hypervolume"] for record in report.records]
        assert volumes == [reference_hypervolume_2d(s, corner) if s.size else 0.0 for s in snapshots]
        assert all(volume > 0.0 for volume in volumes[1:])

    def test_history_does_not_grow_with_the_archive(self, report_runs):
        result, snapshots = report_runs("desk-3p")
        assert len(result.archive) > 100
        for rec, snapshot in zip(result.history, snapshots, strict=True):
            arrays = [value for value in vars(rec).values() if isinstance(value, np.ndarray)]
            assert [a.shape for a in arrays] == [(2,), (2,)]  # best and worst objectives
            assert type(rec.undominated_area) is float
            assert np.array_equal(rec.worst_objectives, snapshot.max(axis=0))

    def test_report_needs_two_objectives(self):
        result = evolve(ThreeObjectiveProblem(), EngineConfig(population_size=8, generations=3, seed=2))
        last = result.history[-1]
        assert last.undominated_area is None
        assert np.array_equal(last.worst_objectives, result.archive.objectives_array().max(axis=0))
        with pytest.raises(ValueError, match="two objectives .* had 3"):
            scnopt.cli.build_report(result, {}, "front.csv", 0, 0.0)

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

    def test_instance_from_a_pipe_is_read_once(self, tiny_path, tmp_path):
        # a pipe gives its bytes once: a second read would hash zero bytes, or block on a FIFO
        data = tiny_path.read_bytes()
        assert len(data) < 4096  # within any pipe buffer, so the write cannot block
        read_end, write_end = os.pipe()
        os.write(write_end, data)
        os.close(write_end)
        try:
            assert run_tiny(f"/dev/fd/{read_end}", tmp_path / "out") == EXIT_OK
        finally:
            os.close(read_end)
        config = json.loads((tmp_path / "out" / "report.json").read_text())["config"]
        assert config["instance_sha256"] == hashlib.sha256(data).hexdigest()

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
        # seed 5 is the first from 1 up whose 8 x 2 desk run exports a single row with the engine's stream
        assert run_desk(desk_path, tmp_path / "out", 8, 2, 5) == EXIT_OK
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
            ('"utilization": 1.0', '"utilization": true', "utilization: True is not a number"),
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
            pytest.param('"utilization": 1.0', '"utilization": 1' + "0" * 5000, "not valid JSON",
                         id="beyond-the-int-digit-limit"),
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

    def test_every_malformed_field_is_reported(self, tiny_path, tmp_path, capsys):
        raw = json.loads(tiny_path.read_text())
        raw["dimensions"]["periods"] = 2.5
        raw.update(utilization="2", currency=5, holding_cost=[True])
        tiny_path.write_text(json.dumps(raw))
        code = main(["run", "--instance", str(tiny_path), "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        for problem in ("n_periods: 2.5", "utilization: '2'", "currency: 5", "holding_cost: True"):
            assert f"  - {problem} is not" in err
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

    def test_unwritable_out_dir_is_runtime(self, tiny_path, tmp_path, capsys, monkeypatch):
        # an --out that cannot be a directory fails before the search starts
        calls = []
        monkeypatch.setattr("scnopt.cli.evolve", lambda *args: calls.append(args))
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        for out in (blocker / "sub", blocker):
            code = main(
                ["run", "--instance", str(tiny_path), "--out", str(out),
                 "--pop-size", "12", "--generations", "2"]
            )
            assert code == EXIT_RUNTIME
            assert capsys.readouterr().err.startswith("error: ")
        assert calls == []


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


# Counts the minor page faults of repeated paper-scale variation and
# evaluation calls after the heap policy is set.  Each variation call gets a
# generator of one seed, so every call makes the same allocations.
FAULT_PROBE = """
import json, resource
import numpy as np
import scnopt.cli
from scnopt import EngineConfig, SupplyChainProblem, generate_preset
from scnopt.nsga2 import _make_offspring

def faults(call):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    call()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

scnopt.cli._keep_freed_memory()
problem = SupplyChainProblem(generate_preset("sbc-scale"))
n = 1290
state = np.random.default_rng(5)
parents = state.random((n, problem.genotype_length))
ranks, crowding = state.integers(0, 20, n), state.random(n)
config = EngineConfig(population_size=n, seed=5)
children = np.empty_like(parents)
counts = {"variation": [], "evaluation": []}
for _ in range(4):
    rng = np.random.default_rng(7)
    counts["variation"].append(faults(lambda: _make_offspring(parents, ranks, crowding, config, rng, children)))
    counts["evaluation"].append(faults(lambda: problem.evaluate_batch(parents)))
print(json.dumps(counts))
"""

# perfbench's BLAS thread variables: the probe runs single-threaded, as the benchmark does
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class TestHeapPolicy:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is set through glibc's mallopt")
    def test_paper_scale_calls_reuse_freed_memory(self, tmp_path):
        # Without the policy each call faults in about 1 400 (variation) or 850-1 200 (evaluation) pages.
        # How far the heap has grown after one round depends on how much the imports compiled, so the
        # probe runs with every module compiled from source, and with scnopt read from bytecode as numpy
        # and the standard library are: Python's default, and how CI imports it.  A cache prefix would
        # hide their installed bytecode, so scnopt is compiled in a copy of the package.
        src = Path(scnopt.cli.__file__).parents[1]
        env = {name: value for name, value in os.environ.items() if name != "PYTHONPYCACHEPREFIX"}
        env.update(dict.fromkeys(THREAD_VARS, "1"))
        empty, compiled = tmp_path / "empty", tmp_path / "compiled"
        empty.mkdir()
        shutil.copytree(src / "scnopt", compiled / "scnopt", ignore=shutil.ignore_patterns("__pycache__"))
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(compiled)], env=env, check=True)
        modes = {
            # -B keeps the prefix empty, so nothing is read from bytecode
            "from source": {"PYTHONPATH": str(src), "PYTHONPYCACHEPREFIX": str(empty)},
            "from bytecode": {"PYTHONPATH": str(compiled)},
        }
        for mode, paths in modes.items():
            proc = subprocess.run([sys.executable, "-B", "-c", FAULT_PROBE], env={**env, **paths},
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, (mode, proc.stderr)
            for name, per_call in json.loads(proc.stdout).items():
                # the first call grows the heap, and from bytecode the second may still grow it a little
                assert per_call[1] < 400, (mode, name, per_call)
                assert max(per_call[2:]) < 50, (mode, name, per_call)

    def test_run_sets_the_policy_before_the_search(self, tiny_path, tmp_path, monkeypatch):
        calls = []
        evolve = scnopt.cli.evolve
        monkeypatch.setattr("scnopt.cli._keep_freed_memory", lambda: calls.append("heap"))
        monkeypatch.setattr("scnopt.cli.evolve", lambda *args: calls.append("evolve") or evolve(*args))
        assert run_tiny(tiny_path, tmp_path / "out") == EXIT_OK
        assert calls == ["heap", "evolve"]

    def test_helper_is_quiet_without_glibc_mallopt(self, monkeypatch):
        def no_library(name):
            raise OSError("no C library")

        monkeypatch.setattr("scnopt.cli.ctypes.CDLL", no_library)
        _keep_freed_memory()
        monkeypatch.setattr("scnopt.cli.ctypes.CDLL", lambda name: SimpleNamespace())  # a libc without mallopt
        _keep_freed_memory()

    @pytest.mark.parametrize("accepted", [1, 0])
    def test_helper_sets_both_thresholds_or_none(self, accepted, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return accepted

        monkeypatch.setattr("scnopt.cli.ctypes.CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        _keep_freed_memory()
        mmap, trim = (-3, 32 * 2**20), (-1, 64 * 2**20)
        assert calls == ([mmap, trim] if accepted else [mmap])  # a refused first call means another allocator


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
