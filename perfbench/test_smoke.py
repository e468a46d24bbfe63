"""Smoke test of the benchmark harness at its smallest size.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py

Runs one cycle of every workload, untraced and traced, with the small
scan_l3 codes, and checks that every metric BENCHMARK.json names comes
out with its unit, that no op failed, and that the traced run removed
its wrappers again.  The last test checks that the benchmark refuses to
run, printing no result, when the package sources are missing.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", autouse=True)
def package():
    return run.load_package()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_reports_every_metric(name):
    listed = {w["name"] for w in SPEC["workloads"]}
    assert name in listed
    for trace, key in ((0, "end_to_end"), (1, "per_layer"), (0, "end_to_end")):
        out = run.run_workload(name, seed=3, seconds=0, trace=bool(trace), small=True)
        res = out["result"]
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["failed"] == 0 and res["correct"] and res["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        assert got == want
        assert all(isinstance(v["value"], float | int) for v in res["metrics"].values())
        # the untraced run after a traced one must time unwrapped functions
        assert tracer.wrapped_attributes() == []
        if key == "end_to_end":
            assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_cli_counts_match_analytic_costs():
    out = run.run_workload("cli_session", seed=5, seconds=0, trace=True, small=True)
    m = {k: v["value"] for k, v in out["result"]["metrics"].items()}
    assert m["sim.erase_and_repair.calls"] == 200
    # every node of both codes downloads exactly the bound: 10 and 27
    assert m["sim.downloaded_symbols"] == 100 * 10 + 100 * 27
    assert m["sim.accessed_symbols"] >= m["sim.downloaded_symbols"]
    assert m["repair.scan_complete_frac"] == 1.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "sweep_random",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
