"""Self-tests of the benchmark's tracer and output checks.

Run from the root of the repository::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import scnopt.cli  # noqa: E402
import scnopt.model  # noqa: E402
from scnopt.instances import generate_preset, save_instance  # noqa: E402

from spans import Tracer, layer_stats, self_times  # noqa: E402
from worker import CALIBRATION_SHARE, HostSpeed  # noqa: E402
from workloads import PER_LAYER, check_outputs, hypervolume, same_bytes  # noqa: E402


def _run_cli(instance: Path, out: Path) -> int:
    return scnopt.cli.main([
        "run", "--instance", str(instance), "--out", str(out),
        "--pop-size", "8", "--generations", "3", "--seed", "5",
    ])


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    """One untraced and one traced ``scnopt run`` of the same small desk instance and seed."""
    root = tmp_path_factory.mktemp("runs")
    instance = save_instance(generate_preset("desk", seed=3), root / "instance.json")
    assert _run_cli(instance, root / "plain") == 0
    tracer = Tracer()
    with tracer:
        assert _run_cli(instance, root / "traced") == 0
    return root, tracer


def test_traced_run_writes_the_same_bytes_as_an_untraced_run(small_runs):
    root, tracer = small_runs
    assert tracer.names, "the traced run recorded no spans"
    assert same_bytes(root / "plain", root / "traced") == []


def test_tracer_restores_every_binding(small_runs):
    _, tracer = small_runs
    assert not hasattr(scnopt.model.evaluate, "__wrapped__")
    assert not hasattr(scnopt.cli.evolve, "__wrapped__")
    assert not hasattr(scnopt.instances.decode, "__wrapped__")
    assert "model.evaluate" in tracer.names and "instances.front_rows" in tracer.names


def test_name_bindings_are_traced_and_export_decodes_count_apart(small_runs):
    _, tracer = small_runs
    stats = layer_stats(tracer, split={"model.decode": ("instances.front_rows", "instances.front_rows.decode")})
    # scnopt.cli binds evolve/front_rows/save_front/hypervolume_2d by name.
    assert stats["nsga2.evolve"].calls == 1
    assert stats["instances.front_rows"].calls == 2
    assert stats["metrics.hypervolume_2d"].calls >= 1
    assert stats["model.evaluate"].calls == 8 * 4
    assert stats["model.decode"].calls == stats["model.evaluate"].calls
    assert stats["instances.front_rows.decode"].calls > 0


def test_self_time_arithmetic_on_a_synthetic_nested_call():
    # outer [0, 10] -> a [1, 3], b [4, 8] -> c [5, 6]
    starts = [0.0, 1.0, 4.0, 5.0]
    ends = [10.0, 3.0, 8.0, 6.0]
    parents = [-1, 0, 0, 2]
    assert self_times(starts, ends, parents).tolist() == [4.0, 2.0, 3.0, 1.0]

    tracer = Tracer(names=["f", "g", "f", "g"], starts=starts, ends=ends, parents=parents)
    stats = layer_stats(tracer)
    # Busy time counts only the outermost span of a name: f re-entered inside f is not added again.
    assert stats["f"].calls == 2 and stats["f"].busy_s == 10.0 and stats["f"].self_s == 7.0
    assert stats["g"].calls == 2 and stats["g"].busy_s == 3.0 and stats["g"].self_s == 3.0


def test_wrapped_calls_record_their_parent():
    tracer = Tracer()

    def leaf():
        return 1

    wrapped_leaf = tracer.wrap("leaf", leaf)

    def outer():
        return wrapped_leaf() + wrapped_leaf()

    assert tracer.wrap("outer", outer)() == 2
    assert tracer.names == ["outer", "leaf", "leaf"]
    assert tracer.parents == [-1, 0, 0]
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    assert selfs[0] == pytest.approx(
        (tracer.ends[0] - tracer.starts[0]) - sum(tracer.ends[k] - tracer.starts[k] for k in (1, 2))
    )


def test_output_checks_pass_a_real_run_and_fail_a_corrupted_front(small_runs, tmp_path):
    root, _ = small_runs
    assert check_outputs(root / "plain") == []
    corrupted = tmp_path / "corrupted"
    corrupted.mkdir()
    for name in ("front.csv", "report.json", "front.dat"):
        (corrupted / name).write_bytes((root / "plain" / name).read_bytes())
    lines = (corrupted / "front.csv").read_text().splitlines()
    assert len(lines) >= 3, "the small run should export at least two front rows"
    lines[1], lines[2] = lines[2], lines[1]
    (corrupted / "front.csv").write_text("\n".join(lines) + "\n")
    problems = check_outputs(corrupted)
    assert any("ascending" in p for p in problems)
    assert any("descending" in p for p in problems)


def test_output_checks_fail_a_report_that_disagrees_with_the_front(small_runs, tmp_path):
    root, _ = small_runs
    for name in ("front.csv", "front.dat"):
        (tmp_path / name).write_bytes((root / "plain" / name).read_bytes())
    report = json.loads((root / "plain" / "report.json").read_text())
    report["front"]["size"] += 1
    report["records"][-1]["hypervolume"] = -1.0
    (tmp_path / "report.json").write_text(json.dumps(report))
    problems = check_outputs(tmp_path)
    assert any("front size" in p for p in problems)
    assert any("hypervolume decreases" in p for p in problems)


def test_host_speed_sample_takes_its_share_of_the_elapsed_time():
    host = HostSpeed(start=time.perf_counter() - 1.0)
    host.sample()
    kernel_s = host.wall_s / host.reps
    assert CALIBRATION_SHARE <= host.wall_s < CALIBRATION_SHARE + kernel_s + 0.01
    reps = host.reps
    host.maybe_sample()  # too soon after the previous sample
    assert host.reps == reps
    host.sample()  # right after the previous sample: a single kernel run
    assert host.reps == reps + 1


def test_hypervolume_ignores_points_outside_the_reference_box():
    assert hypervolume([(0.0, 1.0), (1.0, 0.0)], (2.0, 2.0)) == pytest.approx(3.0)
    assert hypervolume([(0.0, 1.0), (3.0, 0.0), (0.5, 1.5)], (2.0, 2.0)) == pytest.approx(2.0)


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    from run import END_TO_END, layer_unit
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, layer_unit(n)) for n in PER_LAYER]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
