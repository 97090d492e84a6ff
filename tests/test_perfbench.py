"""The benchmark under perfbench/ still loads against the library: its
request lists build from the names it imports, and every digest a request
may be checked against is recorded."""

import importlib
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["workloads"]


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


@pytest.mark.parametrize("name", [w["name"] for w in WORKLOADS])
def test_workload_builds_and_its_digests_are_recorded(workloads, name):
    assert workloads.generate(name, 1)
    golden = json.loads((PERFBENCH / "golden.json").read_text())
    assert workloads.golden_keys(name) <= set(golden)
