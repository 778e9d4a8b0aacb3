"""Golden artifacts: the two preset instance files and three standard runs, pinned
by the SHA-256 of every file they write.

The record in ``golden_artifacts.json`` holds each file's hash, each run's
``front.csv`` text and the numpy version that wrote them.  With that numpy
version installed every hash must match.  Under another numpy version,
floating-point sums may round differently, so only the ``front.csv`` values
are compared, within ``COST_ATOL``, ``DELAY_RTOL`` and ``DAYS_ATOL``.

To re-record after an intended change of the artifacts, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from scnopt.cli import EXIT_OK, main

RECORD_PATH = Path(__file__).with_name("golden_artifacts.json")
WORKFLOW_PATH = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"

INSTANCES = ("desk", "sbc-scale")
RUNS = {
    "desk-seed5": ("desk", ["--pop-size", "100", "--generations", "200", "--seed", "5"]),
    "desk-seed42-holding-on-backorder": (
        "desk",
        ["--pop-size", "100", "--generations", "200", "--seed", "42", "--holding-on-backorder"],
    ),
    "sbc-scale-seed5": ("sbc-scale", ["--pop-size", "1290", "--generations", "6", "--seed", "5"]),
}
ARTIFACTS = ("front.csv", "front.dat", "report.json")

# Tolerances for front.csv under another numpy version.  total_cost is printed
# in whole currency units and mean_delay_days with two decimals, so one unit
# of the last printed digit may flip; f2_raw is printed at full precision.
COST_ATOL = 1.0
DELAY_RTOL = 1e-9
DAYS_ATOL = 0.01


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def produce(root: Path) -> dict:
    """Generate the instances and run the three runs under ``root``; return the record."""
    record: dict = {"numpy": np.__version__, "instances": {}, "runs": {}}
    for preset in INSTANCES:
        path = root / f"{preset}.json"
        assert main(["generate", "--preset", preset, "--out", str(path)]) == EXIT_OK
        record["instances"][preset] = _sha256(path)
    for name, (preset, flags) in RUNS.items():
        out = root / name
        assert main(["run", "--instance", str(root / f"{preset}.json"), "--out", str(out), *flags]) == EXIT_OK
        record["runs"][name] = {
            "sha256": {artifact: _sha256(out / artifact) for artifact in ARTIFACTS},
            "front.csv": (out / "front.csv").read_text(),
        }
    return record


def _front_values(csv_text: str) -> np.ndarray:
    return np.loadtxt(csv_text.splitlines(), delimiter=",", skiprows=1, ndmin=2)


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return produce(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(RECORD_PATH.read_text())


@pytest.mark.parametrize("run", sorted(RUNS))
def test_run_artifacts(run, produced, golden):
    got, want = produced["runs"][run], golden["runs"][run]
    if produced["numpy"] == golden["numpy"]:
        preset = RUNS[run][0]
        assert produced["instances"][preset] == golden["instances"][preset]
        assert got["sha256"] == want["sha256"]
        return
    values, expected = _front_values(got["front.csv"]), _front_values(want["front.csv"])
    assert values.shape == expected.shape
    np.testing.assert_allclose(values[:, 0], expected[:, 0], rtol=0, atol=COST_ATOL)
    np.testing.assert_allclose(values[:, 1], expected[:, 1], rtol=DELAY_RTOL, atol=0)
    np.testing.assert_allclose(values[:, 2], expected[:, 2], rtol=0, atol=DAYS_ATOL)


def test_ci_pins_the_recorded_numpy(golden):
    # only the CI leg on that numpy compares hashes; a re-record under another numpy moves the pin with it
    assert re.findall(r'numpy: "==([^"]+)"', WORKFLOW_PATH.read_text()) == [golden["numpy"]]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        RECORD_PATH.write_text(json.dumps(produce(Path(scratch)), indent=2, sort_keys=True) + "\n")
    print(f"wrote {RECORD_PATH}", file=sys.stderr)
