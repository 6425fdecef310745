"""Smoke tests of the benchmark itself, at toy sizes.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
META = json.loads((BENCH / "meta.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(META["seeds"]["held_out"]), "--seconds", "0.5",
         "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        frac = result["metrics"]["bench.untraced_frac"]["value"]
        assert 0.0 <= frac < 1.0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert "fail_frac 0 ratio" in proc.stdout


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import workloads
    return workloads


def test_gates_pass_then_catch_a_perturbed_surface_cell(workloads, tmp_path):
    from spans import NullTracer

    wl = workloads.WORKLOADS["cli-artifacts"]
    inp = wl.setup(7, "smoke")
    out = wl.run(inp, NullTracer(), tmp_path)
    assert wl.check(inp, out, tmp_path) == []
    surface = tmp_path / "value" / "surface.csv"
    lines = surface.read_text().splitlines()
    t, x, value, kind = lines[5].split(",")
    lines[5] = ",".join([t, x, repr(float(value) + 1e-9), kind])
    surface.write_text("\n".join(lines) + "\n")
    assert wl.check(inp, out, tmp_path) == [
        "surface.csv differs from a direct library solve"]


def test_lattice_game_gates_catch_an_order_violation(workloads):
    from spans import NullTracer

    wl = workloads.WORKLOADS["lattice-game"]
    inp = wl.setup(7, "smoke")
    out = wl.run(inp, NullTracer(), None)
    assert wl.check(inp, out, None) == []
    out["lower"].W[3, 4] = out["upper"].W[3, 4] + 1e-12
    assert "lower value exceeds upper value at some node" in wl.check(inp, out, None)


def test_every_layer_metric_names_what_it_moves():
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    assert list(META["layers"]) == [m["name"] for m in SPEC["per_layer"]]
    for entry in META["layers"].values():
        for move in entry["moves"]:
            assert move["metric"] in e2e and move["workload"] in WORKLOADS


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
