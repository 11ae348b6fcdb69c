"""Smoke tests of the benchmark itself; run with

    python3 -m pytest -q perfbench/test_smoke.py

They are not part of the package's test suite under tests/.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

SQUARE = [(1, 1), (9, 1), (9, 9), (1, 9)]
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def square(monkeypatch, tmp_path):
    """A one-operation workload: solve the square, whose optimum is 1."""
    assert run.prepare()
    monkeypatch.setattr(run, "OUT", tmp_path / "out")

    def square_inputs(seed, workdir):
        polygon = sys.modules["gridguards.polygon"]
        path = workdir / "square.txt"
        m = workloads.write_validated(polygon.load_polygon(SQUARE), path)
        return [workloads.solve_op("square", m, path, seed, 1)]
    monkeypatch.setitem(workloads.WORKLOADS, "square", square_inputs)
    return tmp_path / "inputs"


def test_untraced_square(square):
    ops, setup_s = run.setup("square", 3, square)
    result = run.untraced_run("square", 3, 0.5, ops, setup_s)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert ops[0].guards == 1
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_square(square):
    ops, setup_s = run.setup("square", 3, square)
    result = run.traced_run("square", 3, ops, setup_s, square)
    assert result["correct"] and result["failed"] == 0
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(result["metrics"]) == names
    metrics = result["metrics"]
    assert metrics["guards_total"]["value"] == 1
    assert metrics["visibility.sees.calls_from_solver"]["value"] > 0
    assert (run.OUT / "trace-square-3.json").is_file()


def test_deadline_counts_as_failure(square, monkeypatch):
    monkeypatch.setattr(run, "DEADLINE_S", 1e-4)
    ops, setup_s = run.setup("square", 3, square)
    result = run.untraced_run("square", 3, 0.1, ops, setup_s)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_comb3_selfcheck(tmp_path):
    """The tracer's count of solver sees() calls matches a bare counter."""
    assert run.prepare()
    ok, report = run.selfcheck(tmp_path)
    assert ok, report


def test_refuses_without_source(tmp_path):
    """With only BENCHMARK.json and perfbench/, no result is printed."""
    here = Path(run.__file__).resolve().parent
    (tmp_path / "BENCHMARK.json").write_text(
        (run.ROOT / "BENCHMARK.json").read_text())
    dest = tmp_path / here.name
    dest.mkdir()
    for f in here.glob("*.py"):
        (dest / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_interaction_table_covers_per_layer_metrics():
    table = json.loads((Path(run.__file__).parent / "interactions.json")
                       .read_text())["metrics"]
    workload_names = {w["name"] for w in SPEC["workloads"]}
    assert set(table) == {m["name"] for m in SPEC["per_layer"]}
    for entry in table.values():
        assert set(entry["on"]) | set(entry["no_change_on"]) <= workload_names
