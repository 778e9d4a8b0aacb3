"""README.md's Python examples run against the package, and its export list is sound."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import scnopt

README = Path(__file__).resolve().parents[1] / "README.md"
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), flags=re.M | re.S)


def test_readme_has_python_examples():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("block", PYTHON_BLOCKS, ids=[f"block{n}" for n in range(len(PYTHON_BLOCKS))])
def test_python_example_runs(block, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})


def test_every_exported_name_resolves_exactly_once():
    # `from .x import *` of two modules exporting one name would silently keep only the last.
    names = scnopt.__all__
    assert sorted(name for name in set(names) if names.count(name) > 1) == []
    assert [name for name in names if not hasattr(scnopt, name)] == []
