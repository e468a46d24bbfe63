"""The benchmark wraps package functions by name and pins answers.

Each wrapped function must still exist, each pinned CLI line must still
be printed and each workload's written-down answers must still hold, so
that a change breaking any of them fails here and not only in the
benchmark.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

from mdsrepair import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    targets = _load("tracer").TARGETS
    assert targets
    missing = [
        f"{module}.{func}"
        for module, func in targets
        if not callable(getattr(importlib.import_module(module), func, None))
    ]
    assert missing == []


def test_pinned_cli_lines_are_printed(capsys):
    assert cli.run(["check", "converse", "--q", "3"]) == 0
    assert capsys.readouterr().out.splitlines() == _load("workloads").CONVERSE_Q3
    assert cli.run(["geometry", "regular", "--q", "3"]) == 0
    assert capsys.readouterr().out == "regular spread check (exhaustive, 120 triples): ok\n"


@pytest.mark.parametrize("name", ["scan_l3", "sweep_random"])
def test_one_workload_cycle_gets_its_written_down_answers(name, tmp_path):
    # small scan_l3 reports the l = 2 codes, three of them, so its fourth
    # cycle repeats the first code through warm memos; sweep_random has one size
    workloads = _load("workloads")
    wl = workloads.WORKLOADS[name](11, True, tmp_path)
    wl.setup()
    for k in range(4):
        ops = wl.cycle(k)
        assert ops
        for op in ops:
            assert op.run() > 0, op.label  # raises workloads.Mismatch on a wrong answer
